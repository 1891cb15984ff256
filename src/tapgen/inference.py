"""Proposal inference: boundary peaks, pairing, scoring, Soft-NMS.

A proposal pairs a start peak t_s with a later end peak t_e (duration
d = t_e - t_s snippets, 1 <= d <= D) and covers the interval from the
left edge of snippet t_s to the right edge of snippet t_e - 1, matching
the duration-label cell convention. Its score is

    start_prob[t_s] * end_prob[t_e] * sqrt(conf_cls[d, t_s] * conf_reg[d, t_s])

form_proposals returns Candidates: float64 start, end and score columns in
pairing order, with no object per candidate. Indexing it, and so iterating
it, yields Proposal, a row view for library callers.

Soft-NMS decays overlapping survivors by exp(-iou^2 / sigma) instead of
removing them. It works on those columns (a list of Proposal is turned
into columns once) and returns the survivors as Candidates too. Rows are
kept in (start, end) order, so the rows a selection can overlap form one
window: those starting before its end, from the first whose running
maximum of ends passes its start. Every other row's factor would be
exactly 1. Each of the at most top_k steps costs the contender scan (two
passes over the n ranking scores, below) plus one IoU vector over its
window, and O(n) memory, never an n x n matrix.

Results must stay bit-identical to the scalar reference, whose factors
come from math.exp. np.exp differs from math.exp by an ulp on a few
percent of arguments, and math.exp costs a Python call per factor, so each
row keeps two scores:
- Its ranking score takes every step's factor from one vectorised np.exp.
  It serves only to find the contenders: the rows within a proven error
  bound of the top ranking score (see SLACK). The true top row is always
  among them.
- Its exact score is kept lazily. Each row counts the selections already
  folded into it, and the missing math.exp factors are multiplied in, in
  selection order, only when the exact score is read: the reference's
  products, rounded the same way. An exact score of 0 stays 0 under any
  factor, so a contender at 0 is not caught up.
A step reads exact scores only when it must: when several rows contend,
the selection is the argmax of their exact scores, and the floor check
reads the winner's. A lone contender whose ranking score clears the floor
by more than the error bound wins without being caught up, as on noisy
dense grids nearly every step does. Each selection's exact score is then
completed once, after the loop, over the selections before it. So
math.exp runs once per earlier selection that overlapped a row read, not
once per row a step overlaps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
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

    Rows are not checked here: form_proposals builds them from validated
    grids, soft_nms from its input's rows, load_proposals from checked
    entries, Candidates.of from Proposals.
    """

    starts: np.ndarray
    ends: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, proposals: Iterable[Proposal]) -> Candidates:
        """The columns of Proposal values, in their order."""
        if isinstance(proposals, Candidates):
            return proposals
        proposals = tuple(proposals)  # read once per column, so an iterator serves too
        return cls(*(
            np.array([getattr(p, name) for p in proposals], dtype=np.float64)
            for name in ("start_sec", "end_sec", "score")
        ))

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __getitem__(self, i: int) -> Proposal:
        return Proposal(float(self.starts[i]), float(self.ends[i]), float(self.scores[i]))


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


# BMN's boundary rule: a local peak, or at least this fraction of the maximum.
PEAK_RATIO = 0.5


def find_peaks(p: np.ndarray) -> list[int]:
    """Candidate boundary indices of a probability vector.

    A maximal run of equal values is a local maximum when it exceeds both
    run neighbors (missing neighbors count as -inf); only the run's first
    index is a candidate. Indices with p[t] >= PEAK_RATIO * max(p) are
    also included. A NaN max(p) admits no index by that rule.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 1:
        raise InvalidInputError("find_peaks expects a non-empty 1-d vector")
    first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])  # run starts; NaN runs alone
    runs = np.r_[-np.inf, p[first], -np.inf]
    peaks = np.zeros(p.shape[0], dtype=bool)
    peaks[first] = (runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])
    peaks |= p >= PEAK_RATIO * float(p.max())
    return np.flatnonzero(peaks).tolist()


def form_proposals(
    start_peaks: list[int],
    end_peaks: list[int],
    grids: ScoreGrids,
    grid: SnippetGrid,
) -> Candidates:
    """Pair every start peak with later end peaks within the grids' duration range.

    Rows come in pairing order, unsorted: each start peak as given, with its
    end peaks as given; for ascending peaks, as find_peaks returns, that is
    (start, end) order. Grid entries lie in [0, 1] and durations are
    positive, so every row is a valid Proposal.
    """
    sp, ep = (np.asarray(p, dtype=np.int64) for p in (start_peaks, end_peaks))
    dur = ep[None, :] - sp[:, None]
    i, k = np.nonzero((dur >= 1) & (dur <= grids.D))
    ts, te, d = sp[i], ep[k], dur[i, k]
    scores = (
        grids.start_probs[ts]
        * grids.end_probs[te]
        * np.sqrt(grids.conf_cls[d - 1, ts] * grids.conf_reg[d - 1, ts])
    )
    ss = grid.snippet_seconds  # index * ss is the same double in NumPy as in Python
    return Candidates(starts=ts * ss, ends=te * ss, scores=scores)


# Contenders after t selections are the rows whose ranking score is at least
# m - (|m| * (t + 1) * SLACK + TINY), m the top ranking score. The bound: a
# row's ranking and exact scores are the same start score times the same
# factors, one per selection that overlapped it. np.exp is within an ulp or
# two of math.exp, and each product rounds once on either side, so after t
# selections the two differ by at most about t * 4 ulp of the row's score,
# plus t times the absolute error of a subnormal result (np.exp may flush
# one to zero, an error below 2.3e-308). The row with the top exact score
# ranks at most that error below it, and m exceeds it by at most the same,
# so the row lies within twice the per-row error of m. By the same bound,
# a lone contender whose m clears the floor by that margin has an exact
# score at or above the floor, and needs no catch-up to pass. SLACK allows
# thousands of ulps per step, and TINY some 10^17 subnormal flushes.
SLACK = 1e-12
TINY = 1e-290
# Cells of one catch-up block, [rows x missed selections]: caps its float64
# temporaries at 128 KiB each, however many rows catch up at once.
BLOCK_CELLS = 1 << 14


def _gaussian_decay(iou: np.ndarray, sigma: float) -> np.ndarray:
    """math.exp(-iou^2 / sigma) per entry: the reference's factors, bit for bit."""
    return np.fromiter(map(math.exp, (-(iou * iou) / sigma).tolist()), np.float64, iou.size)


def _catch_up(exact, rows, since, until, chosen, starts, ends, sigma) -> None:
    """Multiply into each exact[rows[i]] the math.exp factors of selections
    since[i] .. until[i] - 1 (one until for all rows, or one each), in selection
    order: the reference's products, rounded the same way."""
    until = np.broadcast_to(until, rows.shape)
    width = max(1, BLOCK_CELLS // max(int(until.max(initial=0)), 1))  # cols < until.max()
    for i in range(0, rows.size, width):  # blocks of rows
        block, lo, hi = rows[i:i + width], since[i:i + width], until[i:i + width]
        cols = np.arange(lo.min(), hi.max())
        past = chosen[cols]
        iou = broadcast_iou(starts[past], ends[past], starts[block, None], ends[block, None])
        iou[(cols < lo[:, None]) | (cols >= hi[:, None])] = 0.0  # not this row's to fold
        r, c = np.nonzero(iou)  # row-major: each row's hits in selection order
        # multiply.at is unbuffered: a row takes its factors one by one, in order
        np.multiply.at(exact, block[r], _gaussian_decay(iou[r, c], sigma))


def soft_nms(
    proposals: Sequence[Proposal],
    sigma: float = 0.4,
    score_floor: float = 0.001,
    top_k: int = 100,
) -> Candidates:
    """Gaussian-decay suppression; returns survivors in selection order.

    Repeatedly selects the highest-score remaining proposal (ties by
    (start, end) ascending) and decays every other remaining score by
    exp(-iou^2 / sigma). Stops once top_k are selected or all remaining
    scores fall below score_floor. Takes Candidates or any sequence of
    Proposal, in any order, and returns Candidates. Options InferenceConfig
    rejects, NaN among them, raise.
    """
    InferenceConfig(sigma, score_floor, top_k)  # its checks, which NaN fails
    pool = Candidates.of(proposals)
    # Stable (start, end) order makes argmax's first-index rule the tie-break; one pass if sorted.
    order = np.lexsort((pool.ends, pool.starts))
    starts, ends, exact = pool.starts[order], pool.ends[order], pool.scores[order]
    ranking = exact.copy()
    folded = np.zeros(len(exact), dtype=np.intp)  # selections folded into exact
    chosen = np.empty(min(top_k, len(exact)), dtype=np.intp)  # rows, in selection order
    removed = np.zeros(len(exact), dtype=bool)  # the chosen rows
    reach = np.maximum.accumulate(ends)  # the latest end of the rows up to each
    for t in range(len(chosen)):
        m = ranking.max()
        err = abs(m) * (t + 1) * SLACK + TINY
        rows = np.flatnonzero(ranking >= m - err)
        if rows.size == 1 and m - err >= score_floor:
            best = int(rows[0])  # wins, and its exact score clears the floor: no catch-up
        else:
            lag = rows[(folded[rows] < t) & (exact[rows] != 0)]  # 0 times a factor is 0
            _catch_up(exact, lag, folded[lag], t, chosen, starts, ends, sigma)
            folded[rows] = t
            best = int(rows[np.argmax(exact[rows])])  # rows ascend, so ties go to the first
            if exact[best] < score_floor:
                chosen = chosen[:t]
                break
        chosen[t] = best
        ranking[best], removed[best] = -np.inf, True  # removed from the pool
        # Rows from hi on start at or after the selection's end, and rows
        # before lo end by its start: their factor would be exactly 1.
        s, e = starts[best], ends[best]
        lo, hi = reach.searchsorted(s, "right"), starts.searchsorted(e)
        x = broadcast_iou(s, e, starts[lo:hi], ends[lo:hi])
        x[removed[lo:hi]] = 0.0  # a factor of 1 keeps them at -inf, where 0 would give NaN
        x *= x
        x /= -sigma
        ranking[lo:hi] *= np.exp(x, out=x)
    # each selection's exact score, folded up to the step that chose it
    _catch_up(exact, chosen, folded[chosen], np.arange(len(chosen)), chosen, starts, ends, sigma)
    return Candidates(starts[chosen], ends[chosen], exact[chosen])


def infer(grids: ScoreGrids, grid: SnippetGrid, cfg: InferenceConfig = InferenceConfig()) -> Candidates:
    """Full inference chain; a pure function of its inputs."""
    if grids.T != grid.T:
        raise InvalidInputError(f"score grids T={grids.T} inconsistent with grid T={grid.T}")
    start_peaks = find_peaks(grids.start_probs)
    end_peaks = find_peaks(grids.end_probs)
    proposals = form_proposals(start_peaks, end_peaks, grids, grid)
    return soft_nms(proposals, cfg.sigma, cfg.score_floor, cfg.top_k)
