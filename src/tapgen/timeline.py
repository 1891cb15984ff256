"""Timeline arithmetic: snippet grids, time/index mapping, temporal IoU.

All timestamps are seconds; snippet indices are 0-based. A video of L
frames at snippet length delta yields T = floor(L / delta) snippets,
trailing frames are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tapgen.errors import InvalidInputError

__all__ = [
    "VideoMeta",
    "SnippetGrid",
    "GroundTruthAction",
    "build_grid",
    "temporal_iou",
    "broadcast_iou",
]


@dataclass(frozen=True)
class VideoMeta:
    """Static description of one untrimmed video."""

    video_id: str
    num_frames: int
    fps: float
    snippet_len: int
    duration_seconds: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.num_frames < 1:
            raise InvalidInputError(f"num_frames must be positive, got {self.num_frames}")
        if not 0 < self.fps < math.inf:
            raise InvalidInputError(f"fps must be finite and positive, got {self.fps}")
        if self.snippet_len < 1:
            raise InvalidInputError(f"snippet_len must be positive, got {self.snippet_len}")
        if self.num_frames < self.snippet_len:
            raise InvalidInputError(
                f"num_frames ({self.num_frames}) < snippet_len ({self.snippet_len})"
            )
        expected = self.num_frames / self.fps
        if not math.isfinite(expected):
            raise InvalidInputError(f"num_frames / fps = {expected} is not finite")
        if self.duration_seconds is None:
            object.__setattr__(self, "duration_seconds", expected)
        elif not abs(self.duration_seconds - expected) <= 1e-9 * max(1.0, abs(expected)):
            raise InvalidInputError(
                f"duration_seconds {self.duration_seconds} inconsistent with "
                f"num_frames/fps = {expected}"
            )

    @property
    def snippet_seconds(self) -> float:
        """Length of one snippet in seconds."""
        return self.snippet_len / self.fps


@dataclass(frozen=True, eq=False)
class SnippetGrid:
    """Snippet decomposition of a video: count T and per-snippet center times."""

    T: int
    centers: np.ndarray
    snippet_seconds: float


@dataclass(frozen=True)
class GroundTruthAction:
    """One annotated action interval and its class label."""

    label: str
    start_sec: float
    end_sec: float

    def __post_init__(self):
        if not self.start_sec >= 0:
            raise InvalidInputError(f"start_sec must be >= 0, got {self.start_sec}")
        if not self.start_sec < self.end_sec:
            raise InvalidInputError(
                f"start_sec ({self.start_sec}) must be < end_sec ({self.end_sec})"
            )

    @property
    def interval(self) -> tuple[float, float]:
        return self.start_sec, self.end_sec


def build_grid(meta: VideoMeta) -> SnippetGrid:
    """Divide a video into T = floor(L / delta) non-overlapping snippets.

    Snippet i covers frames [i*delta, (i+1)*delta); its center time is
    delta*(i + 0.5) / fps seconds. Trailing frames beyond T*delta are dropped.
    """
    T = meta.num_frames // meta.snippet_len  # >= 1: VideoMeta holds num_frames >= snippet_len
    centers = meta.snippet_len * (np.arange(T, dtype=np.float64) + 0.5) / meta.fps
    return SnippetGrid(T=T, centers=centers, snippet_seconds=meta.snippet_seconds)


def temporal_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Intersection-over-union of two time intervals in seconds."""
    a0, a1 = a
    b0, b1 = b
    if not a1 > a0:
        raise InvalidInputError(f"interval {a} has non-positive length")
    if not b1 > b0:
        raise InvalidInputError(f"interval {b} has non-positive length")
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    if inter == 0.0:
        return 0.0
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union


def broadcast_iou(a0, a1, b0, b1) -> np.ndarray:
    """Elementwise temporal_iou of intervals [a0, a1] and [b0, b1], broadcast.

    Performs temporal_iou's float operations in the same order, so each
    entry is bit-identical to the scalar result, provided every interval
    has positive length (not validated here). Then each union is positive,
    and a disjoint pair's intersection, clamped to 0, gives 0 with a plain
    divide: a masked one costs more than the rest of the function.
    """
    inter = np.maximum(np.minimum(a1, b1) - np.maximum(a0, b0), 0.0)
    return inter / ((a1 - a0) + (b1 - b0) - inter)
