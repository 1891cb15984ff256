"""Ground-truth label generation and the training losses with gradients.

Boundary labels mark, for each annotated action, the snippet whose center
is nearest to the action's start (end) timestamp. Duration labels live in
a D x T matrix whose cell (d, j), 1 <= d <= D, stands for the candidate
proposal covering snippets j .. j+d-1; cells achieving a ground truth's
maximum IoU are set to 1. The search visits each ground truth's rows in
descending order of an IoU bound and mostly stops after a few of the D
(gen_duration_labels); the labels are those of one whole-matrix search,
bit for bit. ScoreGrids' check of invalid cells walks the matrix in row
blocks of at most _BLOCK_CELLS cells (one block up to 256 snippets).

The weighted binary loss is the standard class-balanced negative
log-likelihood: -(1/N) sum [a+ l log p + a- (1-l) log(1-p)] with
a+ = N/N+ and a- = N/N-. Probabilities are clamped to [CLAMP_EPS,
1 - CLAMP_EPS]; gradients are zero inside the clamped zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tapgen.errors import DegenerateLabelsError, InvalidInputError
from tapgen.timeline import GroundTruthAction, SnippetGrid, broadcast_iou
# Unused here, but perfbench's tracer counts calls through this binding.
from tapgen.timeline import temporal_iou  # noqa: F401

__all__ = [
    "LabelSet",
    "ScoreGrids",
    "LossConfig",
    "gen_boundary_labels",
    "gen_duration_labels",
    "gen_labels",
    "max_duration",
    "valid_cell_mask",
    "weighted_binary_loss",
    "weighted_binary_loss_grad",
    "l2_loss",
    "l2_loss_grad",
]

CLAMP_EPS = 1e-12  # the weighted binary loss's clamp on probabilities (module docstring)


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Supervision targets for one video."""

    starts: np.ndarray  # [T] in {0, 1}
    ends: np.ndarray  # [T] in {0, 1}
    durations: np.ndarray  # [D, T] in {0, 1}


@dataclass(frozen=True, eq=False)
class ScoreGrids:
    """Inference-side probabilities: boundaries plus two confidence matrices."""

    start_probs: np.ndarray  # [T]
    end_probs: np.ndarray  # [T]
    conf_cls: np.ndarray  # [D, T]
    conf_reg: np.ndarray  # [D, T]

    def __post_init__(self):
        for name in ("start_probs", "end_probs", "conf_cls", "conf_reg"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(a).all():
                raise InvalidInputError(f"{name} has NaN or infinite entries")
            if np.any(a < 0) or np.any(a > 1):
                raise InvalidInputError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, a)
        if self.start_probs.ndim != 1 or self.conf_cls.ndim != 2:
            raise InvalidInputError(
                f"start_probs must be [T] and conf_cls [D, T], got shapes "
                f"{self.start_probs.shape} and {self.conf_cls.shape}"
            )
        T, D = self.T, self.D
        for name, want in (("end_probs", (T,)), ("conf_cls", (D, T)), ("conf_reg", (D, T))):
            shape = getattr(self, name).shape
            if shape != want:
                raise InvalidInputError(f"{name} has shape {shape}, expected {want}")
        for name in ("conf_cls", "conf_reg"):
            conf = getattr(self, name)
            if any(conf[d0:d0 + len(d)][invalid].any() for d0, d, invalid in _row_blocks(D, T)):
                raise InvalidInputError(f"{name} has mass on invalid cells (j + d > T)")

    @property
    def T(self) -> int:
        return self.start_probs.shape[0]

    @property
    def D(self) -> int:
        return self.conf_cls.shape[0]


@dataclass(frozen=True)
class LossConfig:
    lambda_reg: float = 10.0
    lambda_1: float = 1.0
    lambda_2: float = 1.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0 < self.lambda_reg < math.inf:
            raise InvalidInputError("lambda_reg must be finite and positive")
        # zero is allowed for the mixing weights so either term can be switched off
        for name in ("lambda_1", "lambda_2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be finite and non-negative")


def gen_boundary_labels(
    grid: SnippetGrid, gts: list[GroundTruthAction]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest-center start/end labels; ties go to the earlier snippet.

    Returns (starts, ends, warnings) where warnings counts empty
    annotation sets (all-zero labels are allowed but flagged).
    """
    starts = np.zeros(grid.T, dtype=np.float64)
    ends = np.zeros(grid.T, dtype=np.float64)
    if not gts:
        return starts, ends, 1
    times = np.array([(gt.start_sec, gt.end_sec) for gt in gts], dtype=np.float64)
    # Centers strictly increase, so |c - t| is monotone on each side of t: the
    # nearest center is the last one below t or the first at or above it, the
    # earlier on an exact tie, as one argmin over every center gives, in O(G)
    # memory. (Rounded distances tie a run of centers only ~2^51 snippets past
    # the last; there argmin takes the run's first, this the last center.)
    c = grid.centers
    above = np.searchsorted(c, times)
    below, above = np.maximum(above - 1, 0), np.minimum(above, grid.T - 1)
    nearest = np.where(np.abs(c[below] - times) <= np.abs(c[above] - times), below, above)
    starts[nearest[:, 0]] = 1.0
    ends[nearest[:, 1]] = 1.0
    return starts, ends, 0


def valid_cell_mask(T: int, D: int) -> np.ndarray:
    """Boolean [D, T] mask of cells (d, j) with j + d <= T (row index d-1)."""
    d = np.arange(1, D + 1)[:, None]
    j = np.arange(T)[None, :]
    return j + d <= T


# Cells of one row block of a [D, T] matrix (module docstring): caps each
# block temporary at 512 KiB of float64.
_BLOCK_CELLS = 1 << 16


def _row_blocks(D: int, T: int):
    """Row blocks of a [D, T] matrix, in order: (first row, durations d as
    a [rows, 1] column of 1-based row numbers, [rows, T] mask of the
    invalid cells j + d > T)."""
    rows = max(1, _BLOCK_CELLS // T)
    j = np.arange(T)
    for d0 in range(0, D, rows):
        d = np.arange(d0 + 1, min(d0 + rows, D) + 1)[:, None]
        yield d0, d, j + d > T


def max_duration(T: int, d_policy: str) -> int:
    """D of a T-snippet video: T under the "full" policy, max(1, T // 2) under "half"."""
    if d_policy not in ("full", "half"):
        raise InvalidInputError(f"unknown duration policy {d_policy!r}; expected 'full' or 'half'")
    return T if d_policy == "full" else max(1, T // 2)


# Relative slack on a row's IoU bound (gen_duration_labels). A computed
# IoU can exceed its row's computed bound by rounding alone: cell edges
# j * ss and (j + d) * ss are rounded, so a cell's length differs from
# d * ss by up to about T ulps of it, and the IoU's few operations add a
# few ulps more. 1e-6 stays far above that for any T below ~10^9;
# BOUND_TINY covers results in the subnormal range, where ulps are absolute.
BOUND_SLACK = 1e-6
BOUND_TINY = 1e-300


def gen_duration_labels(
    grid: SnippetGrid, gts: list[GroundTruthAction], D: int
) -> np.ndarray:
    """Per ground truth, mark every valid cell achieving its maximum IoU.

    Cell (d, j) covers [left edge of snippet j, right edge of snippet
    j+d-1]; the union over ground truths is returned.

    No cell of row d has an IoU above min(d*ss, L) / max(d*ss, L) with a
    ground truth of length L, so rows are searched in descending order of
    that bound and the search stops before the first row whose bound, with
    its slack, falls below the best IoU found: such a row can neither beat
    nor tie it. Max and == are exact, so the labels are those of one
    whole-matrix search, bit for bit. A ground truth from the last snippet's
    right edge on (trailing frames) overlaps no cell, so it is skipped.
    """
    T = grid.T
    if D < 1 or D > T:
        raise InvalidInputError(f"max duration D={D} outside [1, {T}]")
    edges = np.arange(T + 1) * grid.snippet_seconds  # edges[j] is snippet j's left edge
    lengths = np.arange(1, D + 1) * grid.snippet_seconds
    labels = np.zeros((D, T), dtype=np.float64)
    for gt in gts:
        if gt.start_sec >= edges[T]:
            continue
        length = gt.end_sec - gt.start_sec
        bound = np.minimum(lengths, length) / np.maximum(lengths, length)
        ceiling = bound * (1.0 + BOUND_SLACK) + BOUND_TINY
        best, wins = 0.0, []  # the best IoU so far and the (row, cells) holding it
        for row in np.argsort(-bound, kind="stable").tolist():
            if ceiling[row] < best:
                break
            cells = T - row  # the row's valid cells, j + d <= T
            ious = broadcast_iou(edges[:cells], edges[row + 1:], gt.start_sec, gt.end_sec)
            top = ious.max()
            if top > best:
                best, wins = top, []
            if top == best > 0:
                wins.append((row, np.flatnonzero(ious == top)))
        for row, cells in wins:
            labels[row, cells] = 1.0
    return labels


def gen_labels(grid: SnippetGrid, gts: list[GroundTruthAction], D: int) -> LabelSet:
    """Full label set: boundary vectors plus the duration matrix."""
    starts, ends, _ = gen_boundary_labels(grid, gts)
    durations = gen_duration_labels(grid, gts, D)
    return LabelSet(starts=starts, ends=ends, durations=durations)


def _prepare(p, l, mask):
    """Shared loss prologue: float arrays, shape checks, mask and its size n."""
    p = np.asarray(p, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    if p.shape != l.shape:
        raise InvalidInputError(f"shape mismatch: predictions {p.shape}, labels {l.shape}")
    if mask is None:
        mask = np.ones(p.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != p.shape:
            raise InvalidInputError(f"mask shape {mask.shape} != {p.shape}")
    n = int(mask.sum())
    if n == 0:
        raise InvalidInputError("empty mask")
    return p, l, mask, n


def _class_weights(l: np.ndarray, mask: np.ndarray, n: int) -> tuple[float, float]:
    """Class-balance weights (a+, a-) = (N/N+, N/N-) over the masked entries."""
    n_pos = float(l[mask].sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both positives and negatives inside the mask (N+={n_pos:g}, N-={n_neg:g})"
        )
    return n / n_pos, n / n_neg


def weighted_binary_loss(p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Class-balanced negative log-likelihood over the masked entries."""
    p, l, mask, n = _prepare(p, l, mask)
    a_pos, a_neg = _class_weights(l, mask, n)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    terms = a_pos * l * np.log(pc) + a_neg * (1.0 - l) * np.log(1.0 - pc)
    return float(-(terms[mask].sum()) / n)


def weighted_binary_loss_grad(p: np.ndarray, l: np.ndarray,
                              mask: np.ndarray | None = None) -> np.ndarray:
    """dLoss/dp, zero where masked out or inside the clamped zones."""
    p, l, mask, n = _prepare(p, l, mask)
    a_pos, a_neg = _class_weights(l, mask, n)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    grad = -(a_pos * l / pc - a_neg * (1.0 - l) / (1.0 - pc)) / n
    grad[~mask] = 0.0
    grad[(p < CLAMP_EPS) | (p > 1.0 - CLAMP_EPS)] = 0.0
    return grad


def l2_loss(p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean squared error over the masked entries."""
    p, l, mask, n = _prepare(p, l, mask)
    diff = p - l
    return float((diff[mask] ** 2).sum() / n)


def l2_loss_grad(p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    p, l, mask, n = _prepare(p, l, mask)
    grad = 2.0 * (p - l) / n
    grad[~mask] = 0.0
    return grad

