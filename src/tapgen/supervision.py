"""Ground-truth label generation and the training losses with gradients.

Boundary labels mark, for each annotated action, the snippet whose center
is nearest to the action's start (end) timestamp. Duration labels live in
a D x T matrix whose cell (d, j), 1 <= d <= D, stands for the candidate
proposal covering snippets j .. j+d-1; cells achieving a ground truth's
maximum IoU are set to 1.

The weighted binary loss is the standard class-balanced negative
log-likelihood: -(1/N) sum [a+ l log p + a- (1-l) log(1-p)] with
a+ = N/N+ and a- = N/N-. Probabilities are clamped to [eps, 1-eps];
gradients are zero inside the clamped zones.
"""

from __future__ import annotations

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
    "valid_cell_mask",
    "weighted_binary_loss",
    "weighted_binary_loss_grad",
    "l2_loss",
    "l2_loss_grad",
    "total_loss",
]


@dataclass(frozen=True)
class LabelSet:
    """Supervision targets for one video."""

    starts: np.ndarray  # [T] in {0, 1}
    ends: np.ndarray  # [T] in {0, 1}
    durations: np.ndarray  # [D, T] in {0, 1}
    max_duration: int

    @property
    def T(self) -> int:
        return self.starts.shape[0]


@dataclass(frozen=True)
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
        if self.conf_cls.shape != self.conf_reg.shape:
            raise InvalidInputError("conf_cls and conf_reg shapes differ")
        if self.start_probs.shape != self.end_probs.shape:
            raise InvalidInputError("start_probs and end_probs shapes differ")
        mask = valid_cell_mask(self.start_probs.shape[0], self.conf_cls.shape[0])
        for name in ("conf_cls", "conf_reg"):
            if np.any(getattr(self, name)[~mask] != 0):
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
    clamp_eps: float = 1e-12

    def __post_init__(self):
        for name in ("lambda_reg", "clamp_eps"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")
        # zero is allowed for the mixing weights so either term can be switched off
        for name in ("lambda_1", "lambda_2"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")


def gen_boundary_labels(
    grid: SnippetGrid, gts: list[GroundTruthAction]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest-center start/end labels; ties go to the earlier snippet.

    Returns (starts, ends, warnings) where warnings counts empty
    annotation sets (all-zero labels are allowed but flagged).
    """
    starts = np.zeros(grid.T, dtype=np.float64)
    ends = np.zeros(grid.T, dtype=np.float64)
    warnings = 0
    if not gts:
        return starts, ends, 1
    for gt in gts:
        starts[_nearest_center(grid, gt.start_sec)] = 1.0
        ends[_nearest_center(grid, gt.end_sec)] = 1.0
    return starts, ends, warnings


def _nearest_center(grid: SnippetGrid, t: float) -> int:
    # argmin returns the first (earliest) index on exact ties
    return int(np.argmin(np.abs(grid.centers - t)))


def valid_cell_mask(T: int, D: int) -> np.ndarray:
    """Boolean [D, T] mask of cells (d, j) with j + d <= T (row index d-1)."""
    d = np.arange(1, D + 1)[:, None]
    j = np.arange(T)[None, :]
    return j + d <= T


def gen_duration_labels(
    grid: SnippetGrid, gts: list[GroundTruthAction], D: int
) -> np.ndarray:
    """Per ground truth, mark every valid cell achieving its maximum IoU.

    Cell (d, j) covers [left edge of snippet j, right edge of snippet
    j+d-1]; the union over ground truths is returned.
    """
    T = grid.T
    if D < 1 or D > T:
        raise InvalidInputError(f"max duration D={D} outside [1, {T}]")
    d = np.arange(1, D + 1)[:, None]
    j = np.arange(T)[None, :]
    lo, hi = j * grid.snippet_seconds, (j + d) * grid.snippet_seconds
    invalid = ~valid_cell_mask(T, D)
    labels = np.zeros((D, T), dtype=np.float64)
    for gt in gts:
        ious = broadcast_iou(lo, hi, gt.start_sec, gt.end_sec)
        ious[invalid] = 0.0  # cells past the video end never win the argmax
        best = ious.max()
        if best > 0:
            labels[ious == best] = 1.0
    return labels


def gen_labels(grid: SnippetGrid, gts: list[GroundTruthAction], D: int) -> LabelSet:
    """Full label set: boundary vectors plus the duration matrix."""
    starts, ends, _ = gen_boundary_labels(grid, gts)
    durations = gen_duration_labels(grid, gts, D)
    return LabelSet(starts=starts, ends=ends, durations=durations, max_duration=D)


def _check_shapes(p: np.ndarray, l: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
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
    return mask


def weighted_binary_loss(
    p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None, eps: float = 1e-12
) -> float:
    """Class-balanced negative log-likelihood over the masked entries."""
    mask = _check_shapes(p, l, mask)
    p = np.asarray(p, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    n = int(mask.sum())
    if n == 0:
        raise InvalidInputError("empty mask")
    n_pos = float(l[mask].sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both positives and negatives inside the mask (N+={n_pos:g}, N-={n_neg:g})"
        )
    a_pos = n / n_pos
    a_neg = n / n_neg
    pc = np.clip(p, eps, 1.0 - eps)
    terms = a_pos * l * np.log(pc) + a_neg * (1.0 - l) * np.log(1.0 - pc)
    return float(-(terms[mask].sum()) / n)


def weighted_binary_loss_grad(
    p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None, eps: float = 1e-12
) -> np.ndarray:
    """dLoss/dp, zero where masked out or inside the clamped zones."""
    mask = _check_shapes(p, l, mask)
    p = np.asarray(p, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    n = int(mask.sum())
    if n == 0:
        raise InvalidInputError("empty mask")
    n_pos = float(l[mask].sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both positives and negatives inside the mask (N+={n_pos:g}, N-={n_neg:g})"
        )
    a_pos = n / n_pos
    a_neg = n / n_neg
    pc = np.clip(p, eps, 1.0 - eps)
    grad = -(a_pos * l / pc - a_neg * (1.0 - l) / (1.0 - pc)) / n
    grad[~mask] = 0.0
    grad[(p < eps) | (p > 1.0 - eps)] = 0.0
    return grad


def l2_loss(p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean squared error over the masked entries."""
    mask = _check_shapes(p, l, mask)
    p = np.asarray(p, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    n = int(mask.sum())
    if n == 0:
        raise InvalidInputError("empty mask")
    diff = p - l
    return float((diff[mask] ** 2).sum() / n)


def l2_loss_grad(p: np.ndarray, l: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    mask = _check_shapes(p, l, mask)
    p = np.asarray(p, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    n = int(mask.sum())
    if n == 0:
        raise InvalidInputError("empty mask")
    grad = 2.0 * (p - l) / n
    grad[~mask] = 0.0
    return grad


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    tem: float
    pem: float
    tem_start: float
    tem_end: float
    pem_cls: float
    pem_reg: float


def total_loss(grids: ScoreGrids, labels: LabelSet, cfg: LossConfig = LossConfig()) -> LossBreakdown:
    """Boundary terms plus duration terms, combined with the configured weights."""
    if grids.T != labels.T or grids.D != labels.max_duration:
        raise InvalidInputError(
            f"grid shapes (T={grids.T}, D={grids.D}) inconsistent with labels "
            f"(T={labels.T}, D={labels.max_duration})"
        )
    eps = cfg.clamp_eps
    tem_start = weighted_binary_loss(grids.start_probs, labels.starts, eps=eps)
    tem_end = weighted_binary_loss(grids.end_probs, labels.ends, eps=eps)
    mask = valid_cell_mask(labels.T, labels.max_duration)
    pem_cls = weighted_binary_loss(grids.conf_cls, labels.durations, mask, eps=eps)
    pem_reg = l2_loss(grids.conf_reg, labels.durations, mask)
    tem = tem_start + tem_end
    pem = pem_cls + cfg.lambda_reg * pem_reg
    total = cfg.lambda_1 * tem + cfg.lambda_2 * pem
    return LossBreakdown(
        total=total,
        tem=tem,
        pem=pem,
        tem_start=tem_start,
        tem_end=tem_end,
        pem_cls=pem_cls,
        pem_reg=pem_reg,
    )
