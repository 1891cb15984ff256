"""Proposal inference: boundary peaks, pairing, scoring, Soft-NMS.

A proposal pairs a start peak t_s with a later end peak t_e (duration
d = t_e - t_s snippets, 1 <= d <= D) and covers the interval from the
left edge of snippet t_s to the right edge of snippet t_e - 1, matching
the duration-label cell convention. Its score is

    start_prob[t_s] * end_prob[t_e] * sqrt(conf_cls[d, t_s] * conf_reg[d, t_s])

Soft-NMS decays overlapping survivors by exp(-iou^2 / sigma) instead of
removing them. It keeps scores and intervals in arrays: each of the at
most top_k steps takes an argmax and one IoU vector against the n
candidates, so it costs O(top_k * n) time and O(n) memory, never an n x n
matrix. The decay factors of the overlapping entries come from math.exp,
not np.exp: the two differ in the last ulp on a few percent of inputs,
and results must stay bit-identical to the scalar reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tapgen.errors import InvalidInputError
from tapgen.supervision import ScoreGrids
from tapgen.timeline import SnippetGrid, broadcast_iou
# Unused here, but perfbench's tracer counts calls through this binding.
from tapgen.timeline import temporal_iou  # noqa: F401

__all__ = [
    "Proposal",
    "InferenceConfig",
    "find_peaks",
    "form_proposals",
    "soft_nms",
    "infer",
]


@dataclass(frozen=True)
class Proposal:
    start_idx: int
    end_idx: int
    score: float
    start_sec: float
    end_sec: float

    def __post_init__(self):
        if not self.start_idx < self.end_idx:
            raise InvalidInputError(
                f"proposal start {self.start_idx} must precede end {self.end_idx}"
            )
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score {self.score} outside [0, 1]")

    @property
    def duration(self) -> int:
        return self.end_idx - self.start_idx

    @property
    def interval(self) -> tuple[float, float]:
        return self.start_sec, self.end_sec


@dataclass(frozen=True)
class InferenceConfig:
    peak_ratio: float = 0.5  # 0 disables the max-fraction fallback
    local_max_only: bool = False
    sigma: float = 0.4
    score_floor: float = 0.001
    top_k: int = 100


def find_peaks(p: np.ndarray, peak_ratio: float = 0.5, local_max_only: bool = False) -> list[int]:
    """Candidate boundary indices of a probability vector.

    A maximal run of equal values is a local maximum when it exceeds both
    run neighbors (missing neighbors count as -inf); only the run's first
    index is a candidate. Unless local_max_only, indices with
    p[t] >= peak_ratio * max(p) are also included.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 1:
        raise InvalidInputError("find_peaks expects a non-empty 1-d vector")
    n = p.shape[0]
    peaks: set[int] = set()
    i = 0
    while i < n:
        j = i
        while j + 1 < n and p[j + 1] == p[i]:
            j += 1
        left = p[i - 1] if i > 0 else -np.inf
        right = p[j + 1] if j + 1 < n else -np.inf
        if p[i] > left and p[i] > right:
            peaks.add(i)
        i = j + 1
    if not local_max_only:
        thresh = peak_ratio * p.max()
        peaks.update(np.flatnonzero(p >= thresh).tolist())
    return sorted(peaks)


def form_proposals(
    start_peaks: list[int],
    end_peaks: list[int],
    grids: ScoreGrids,
    grid: SnippetGrid,
    D: int | None = None,
) -> list[Proposal]:
    """Pair every start peak with later end peaks within the duration range.

    Output is sorted by score descending, ties broken by (start, end)
    ascending.
    """
    if D is None:
        D = grids.D
    sp, ep = (np.asarray(p, dtype=np.int64) for p in (start_peaks, end_peaks))
    dur = ep[None, :] - sp[:, None]
    i, k = np.nonzero((dur >= 1) & (dur <= D))
    ts, te, d = sp[i], ep[k], dur[i, k]
    scores = (
        grids.start_probs[ts]
        * grids.end_probs[te]
        * np.sqrt(grids.conf_cls[d - 1, ts] * grids.conf_reg[d - 1, ts])
    )
    order = np.lexsort((te, ts, -scores))
    ss = grid.snippet_seconds
    return [
        Proposal(start_idx=s, end_idx=e, score=p, start_sec=s * ss, end_sec=e * ss)
        for s, e, p in zip(ts[order].tolist(), te[order].tolist(), scores[order].tolist())
    ]


def soft_nms(
    proposals: list[Proposal],
    sigma: float = 0.4,
    score_floor: float = 0.001,
    top_k: int = 100,
) -> list[Proposal]:
    """Gaussian-decay suppression; returns survivors in selection order.

    Repeatedly selects the highest-score remaining proposal (ties by
    (start, end) ascending) and decays every other remaining score by
    exp(-iou^2 / sigma). Stops once top_k are selected or all remaining
    scores fall below score_floor.
    """
    if sigma <= 0:
        raise InvalidInputError(f"sigma must be positive, got {sigma}")
    # Stable (start, end) order makes argmax's first-index rule the tie-break.
    pool = sorted(proposals, key=lambda p: (p.start_idx, p.end_idx))
    scores = np.array([p.score for p in pool], dtype=np.float64)
    starts = np.array([p.start_sec for p in pool], dtype=np.float64)
    ends = np.array([p.end_sec for p in pool], dtype=np.float64)
    selected: list[Proposal] = []
    while len(selected) < min(top_k, len(pool)):
        best = int(np.argmax(scores))
        if scores[best] < score_floor:
            break
        selected.append(replace(pool[best], score=float(scores[best])))
        scores[best] = -np.inf  # removed from the pool
        iou = broadcast_iou(starts[best], ends[best], starts, ends)
        hit = np.flatnonzero((iou > 0) & (scores > -np.inf))
        scores[hit] *= [math.exp(x) for x in (-(iou[hit] * iou[hit]) / sigma).tolist()]
    return selected


def infer(grids: ScoreGrids, grid: SnippetGrid, cfg: InferenceConfig = InferenceConfig()) -> list[Proposal]:
    """Full inference chain; a pure function of its inputs."""
    if grids.T != grid.T:
        raise InvalidInputError(f"score grids T={grids.T} inconsistent with grid T={grid.T}")
    start_peaks = find_peaks(grids.start_probs, cfg.peak_ratio, cfg.local_max_only)
    end_peaks = find_peaks(grids.end_probs, cfg.peak_ratio, cfg.local_max_only)
    proposals = form_proposals(start_peaks, end_peaks, grids, grid)
    return soft_nms(proposals, cfg.sigma, cfg.score_floor, cfg.top_k)
