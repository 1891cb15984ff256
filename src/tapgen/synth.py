"""Seeded synthetic corpora for desk-scale end-to-end runs.

Videos get snippet-aligned, non-overlapping actions offset into their
first snippet by a small fraction of a snippet, so that boundary and
duration label generation recover each action's cell unambiguously.
Oracle score grids place probability 1 on exactly the generated label
cells; piping them through inference and evaluation must saturate recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapgen.supervision import LabelSet, ScoreGrids, gen_labels, max_duration
from tapgen.tensorio import Manifest, Snippets
from tapgen.timeline import GroundTruthAction, VideoMeta, build_grid

LABEL_POOL = ("sports", "leisure", "music", "cooking", "repair", "dance")

# fraction of a snippet by which synthetic actions are shifted off the
# snippet edge; keeps nearest-center labels unambiguous while leaving the
# recovered cell with IoU >= (1 - off) / (1 + off) ~ 0.98 against the gt
START_OFFSET = 0.01

# Agent boxes per snippet are drawn from 0..MAX_BOXES.
MAX_BOXES = 2

VIDEO_ID = "synth_{:04d}"  # of video i of a corpus

__all__ = ["SynthVideo", "synth_manifest", "synth_corpus", "oracle_grids"]


@dataclass(frozen=True)
class SynthVideo:
    manifest: Manifest
    grids: ScoreGrids


def oracle_grids(labels: LabelSet) -> ScoreGrids:
    """Score grids with all probability mass on the label cells: the label
    arrays themselves, not copies, with durations as both conf grids."""
    return ScoreGrids(labels.starts, labels.ends, labels.durations, labels.durations)


def _synth_actions(
    rng: np.random.Generator, T: int, snippet_seconds: float, max_actions: int
) -> list[GroundTruthAction]:
    if max_actions < 1:
        return []
    n = int(rng.integers(1, max_actions + 1))
    actions = []
    cursor = 0
    for _ in range(n):
        # keep j + d <= T - 1 so the offset end stays inside the video
        max_d = min(6, T - 1 - cursor)
        if max_d < 1:
            break
        d = int(rng.integers(1, max_d + 1))
        j = int(rng.integers(cursor, T - d))  # d <= T - 1 - cursor, so j can be cursor
        label = str(rng.choice(LABEL_POOL))
        actions.append(
            GroundTruthAction(
                label=label,
                start_sec=(j + START_OFFSET) * snippet_seconds,
                end_sec=(j + d + START_OFFSET) * snippet_seconds,
            )
        )
        cursor = j + d + 2  # at least one empty snippet between actions
    return actions


def _synth_boxes(rng: np.random.Generator, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Box counts [T] and boxes [N, 4] of T snippets. Each has up to MAX_BOXES
    agent boxes: x1, y1 ~ U[0, .5), width and height ~ U[.1, .5), the far
    corner clipped at 1.

    A snippet's n boxes take their 4n doubles from one rng.random(4 * n) call.
    Generator.uniform(lo, hi) returns lo + (hi - lo) * u, where u is the
    stream's next double, the one rng.random returns at that position; the
    formula is applied here in the same double arithmetic. So the boxes,
    and the stream state left behind, are bit for bit those of n rounds of
    uniform(0, .5, size=2), uniform(.1, .5), uniform(.1, .5) per snippet.
    """
    counts = np.empty(T, dtype=np.intp)
    draws = []
    for k in range(T):
        counts[k] = rng.integers(0, MAX_BOXES + 1)
        draws.append(rng.random(4 * counts[k]))
    a, b, w, h = np.concatenate(draws).reshape(-1, 4).T  # four doubles per box, in draw order
    x1, y1 = 0.0 + (0.5 - 0.0) * a, 0.0 + (0.5 - 0.0) * b
    boxes = np.stack([x1, y1, np.minimum(x1 + (0.1 + (0.5 - 0.1) * w), 1.0),
                      np.minimum(y1 + (0.1 + (0.5 - 0.1) * h), 1.0)], axis=1)
    return counts, boxes


def synth_manifest(seed: int, i: int, max_actions: int, t_min: int, t_max: int) -> Manifest:
    """Video i of the seeded corpus, drawn from its own (seed, i) keyed stream."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
    T = int(rng.integers(t_min, t_max + 1))
    snippet_len = 16
    fps = float(rng.choice([10.0, 16.0, 25.0]))
    extra = int(rng.integers(0, snippet_len))  # below snippet_len: T snippets exactly
    meta = VideoMeta(
        video_id=VIDEO_ID.format(i),
        num_frames=T * snippet_len + extra,
        fps=fps,
        snippet_len=snippet_len,
    )
    actions = _synth_actions(rng, T, meta.snippet_seconds, max_actions)
    counts, boxes = _synth_boxes(rng, T)
    snippets = Snippets(np.arange(T, dtype=np.intp), (None,) * T, counts, boxes)
    return Manifest(video=meta, annotations=tuple(actions), snippets=snippets)


def synth_corpus(
    n_videos: int,
    max_actions: int,
    seed: int,
    t_min: int = 8,
    t_max: int = 32,
    d_policy: str = "full",
) -> list[SynthVideo]:
    """Videos 0..n_videos-1 of the seeded corpus, with labels and oracle grids."""
    videos = []
    for i in range(n_videos):
        manifest = synth_manifest(seed, i, max_actions, t_min, t_max)
        grid = build_grid(manifest.video)
        labels = gen_labels(grid, list(manifest.annotations), max_duration(grid.T, d_policy))
        videos.append(SynthVideo(manifest=manifest, grids=oracle_grids(labels)))
    return videos
