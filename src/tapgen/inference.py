"""Proposal inference: boundary peaks, pairing, scoring, Soft-NMS.

A proposal pairs a start peak t_s with a later end peak t_e (duration
d = t_e - t_s snippets, 1 <= d <= D) and covers the interval from the
left edge of snippet t_s to the right edge of snippet t_e - 1, matching
the duration-label cell convention. Its score is

    start_prob[t_s] * end_prob[t_e] * sqrt(conf_cls[d, t_s] * conf_reg[d, t_s])

form_proposals returns the candidates as Candidates: start, end and score
columns in float64, with no object per candidate. Indexing or iterating
it yields Proposal, and it equals any sequence of the same proposals.

Soft-NMS decays overlapping survivors by exp(-iou^2 / sigma) instead of
removing them. It works on those columns (a list of Proposal is turned
into columns once) and builds a Proposal only for each survivor. Each of
the at most top_k steps takes an argmax and one IoU vector against the n
candidates, so it costs O(top_k * n) time and O(n) memory, never an n x n
matrix. The decay factors come from math.exp, not np.exp: the two differ
in the last ulp on a few percent of inputs, and results must stay
bit-identical to the scalar reference. IoUs of snippet-aligned intervals
are ratios of small integers, so a step's arguments repeat: math.exp runs
once per distinct argument, found by sorting and comparing neighbours.
np.unique would find them too, but it imports numpy.ma, about 1 MB more
resident memory in every infer process.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from tapgen.errors import InvalidInputError
from tapgen.supervision import ScoreGrids
from tapgen.timeline import SnippetGrid, broadcast_iou
# Unused here, but perfbench's tracer counts calls through this binding.
from tapgen.timeline import temporal_iou  # noqa: F401

__all__ = [
    "Proposal",
    "Candidates",
    "InferenceConfig",
    "find_peaks",
    "form_proposals",
    "soft_nms",
    "infer",
]


@dataclass(frozen=True)
class Proposal:
    """A scored temporal interval in seconds, as inferred or as loaded for eval."""

    start_sec: float
    end_sec: float
    score: float

    def __post_init__(self):
        if not -math.inf < self.start_sec < self.end_sec < math.inf:
            raise InvalidInputError(
                f"interval {self.interval} needs finite bounds with start before end"
            )
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score {self.score} outside [0, 1]")

    @property
    def interval(self) -> tuple[float, float]:
        return self.start_sec, self.end_sec


@dataclass(frozen=True, eq=False)
class Candidates(Sequence):
    """Scored intervals in seconds as three float64 columns, one row per proposal.

    Rows are not checked one by one: form_proposals builds them from
    validated grids, and Candidates.of from Proposals.
    """

    starts: np.ndarray
    ends: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, proposals: Sequence[Proposal]) -> Candidates:
        """The columns of a sequence of Proposal, in its order."""
        if isinstance(proposals, Candidates):
            return proposals
        return cls(*(
            np.array([getattr(p, name) for p in proposals], dtype=np.float64)
            for name in ("start_sec", "end_sec", "score")
        ))

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __getitem__(self, i: int) -> Proposal:
        return Proposal(float(self.starts[i]), float(self.ends[i]), float(self.scores[i]))

    def __iter__(self):
        columns = (self.starts.tolist(), self.ends.tolist(), self.scores.tolist())
        return (Proposal(s, e, p) for s, e, p in zip(*columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class InferenceConfig:
    sigma: float = 0.4
    score_floor: float = 0.001
    top_k: int = 100

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise InvalidInputError(f"sigma must be finite and positive, got {self.sigma}")
        if not math.isfinite(self.score_floor):
            raise InvalidInputError(f"score_floor must be finite, got {self.score_floor}")
        if self.top_k < 1:
            raise InvalidInputError(f"top_k must be >= 1, got {self.top_k}")


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
) -> Candidates:
    """Pair every start peak with later end peaks within the duration range.

    Output is sorted by score descending, ties broken by (start, end)
    ascending. Grid entries lie in [0, 1] and durations are positive, so
    every row is a valid Proposal.
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
    ss = grid.snippet_seconds  # index * ss is the same double in NumPy as in Python
    return Candidates(starts=ts[order] * ss, ends=te[order] * ss, scores=scores[order])


def _gaussian_decay(iou: np.ndarray, sigma: float) -> np.ndarray:
    """math.exp(-iou^2 / sigma) per entry, with one math.exp per distinct argument."""
    args = -(iou * iou) / sigma
    order = np.argsort(args)
    ranked = args[order]
    first = np.empty(ranked.shape, dtype=bool)  # starts a run of equal arguments
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    factors = np.array(list(map(math.exp, ranked[first].tolist())), dtype=np.float64)
    out = np.empty_like(args)
    out[order] = factors[np.cumsum(first) - 1]
    return out


def soft_nms(
    proposals: Sequence[Proposal],
    sigma: float = 0.4,
    score_floor: float = 0.001,
    top_k: int = 100,
) -> list[Proposal]:
    """Gaussian-decay suppression; returns survivors in selection order.

    Repeatedly selects the highest-score remaining proposal (ties by
    (start, end) ascending) and decays every other remaining score by
    exp(-iou^2 / sigma). Stops once top_k are selected or all remaining
    scores fall below score_floor. Takes Candidates or any sequence of
    Proposal. Options InferenceConfig rejects, NaN among them, raise.
    """
    InferenceConfig(sigma, score_floor, top_k)  # its checks, which NaN fails
    pool = Candidates.of(proposals)
    # Stable (start, end) order makes argmax's first-index rule the tie-break.
    order = np.lexsort((pool.ends, pool.starts))
    starts, ends, scores = pool.starts[order], pool.ends[order], pool.scores[order]
    selected: list[Proposal] = []
    while len(selected) < min(top_k, len(scores)):
        best = int(np.argmax(scores))
        if scores[best] < score_floor:
            break
        selected.append(Proposal(float(starts[best]), float(ends[best]), float(scores[best])))
        scores[best] = -np.inf  # removed from the pool
        iou = broadcast_iou(starts[best], ends[best], starts, ends)
        hit = np.flatnonzero((iou > 0) & (scores > -np.inf))
        scores[hit] *= _gaussian_decay(iou[hit], sigma)
    return selected


def infer(grids: ScoreGrids, grid: SnippetGrid, cfg: InferenceConfig = InferenceConfig()) -> list[Proposal]:
    """Full inference chain; a pure function of its inputs."""
    if grids.T != grid.T:
        raise InvalidInputError(f"score grids T={grids.T} inconsistent with grid T={grid.T}")
    start_peaks = find_peaks(grids.start_probs)
    end_peaks = find_peaks(grids.end_probs)
    proposals = form_proposals(start_peaks, end_peaks, grids, grid)
    return soft_nms(proposals, cfg.sigma, cfg.score_floor, cfg.top_k)
