"""Class-agnostic proposal evaluation: recall, AR@AN curves, AUC.

Recall at (tiou, an) pools ground truths over videos and counts those
matched one-to-one by a video's top-an proposals under a maximum
matching (equal to exhaustive assignment search). A video's proposals are
ranked by score, descending, before the top-an cut; equal scores keep
their list order. The average-recall curve means recall over the tIoU
thresholds, and AUC is 100 times the trapezoidal area under AR(an) for
an = 1..100, normalized by the an-range.

The AN sweep is incremental. By Berge's theorem a matching is maximum
exactly when no augmenting path exists, so adding the next-ranked
proposal grows the maximum matching by at most one, along a path that
starts at that proposal. One search per proposal therefore yields the
maximum matching of every top-an prefix, for every an at once; since the
maximum size is unique, the counts equal fresh per-an matchings.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from tapgen.errors import UndefinedMetricError
from tapgen.inference import Candidates, Proposal
from tapgen.timeline import GroundTruthAction, broadcast_iou
# Unused here, but perfbench's tracer counts calls through this binding.
from tapgen.timeline import temporal_iou  # noqa: F401

ACTIVITYNET_THRESHOLDS = tuple(np.arange(0.5, 1.0, 0.05).round(10).tolist())
THUMOS_THRESHOLDS = ACTIVITYNET_THRESHOLDS + (1.0,)  # 0.5:0.05:1.0, as BSN reports THUMOS-14
DEFAULT_AN_VALUES = tuple(range(1, 101))

__all__ = [
    "EvalResult",
    "recall_at",
    "evaluate",
    "ACTIVITYNET_THRESHOLDS",
    "THUMOS_THRESHOLDS",
    "DEFAULT_AN_VALUES",
]


@dataclass(frozen=True)
class EvalResult:
    ar_at_an: dict[int, float]
    auc: float
    per_tiou_recall: np.ndarray  # [len(thresholds), len(an_values)]
    thresholds: tuple[float, ...]
    an_values: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "thresholds": list(self.thresholds),
            "an_values": list(self.an_values),
            "ar_at_an": {str(an): ar for an, ar in self.ar_at_an.items()},
            "per_tiou_recall": self.per_tiou_recall.tolist(),
        }

    def to_csv(self) -> str:
        """Rows = AN values, columns = per-threshold recall plus the mean."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["an"] + [f"tiou_{t:g}" for t in self.thresholds] + ["mean"])
        for k, an in enumerate(self.an_values):
            row = [an] + [f"{self.per_tiou_recall[i, k]:.6f}" for i in range(len(self.thresholds))]
            row.append(f"{self.ar_at_an[an]:.6f}")
            writer.writerow(row)
        return buf.getvalue()


def _match_sizes(hits: np.ndarray) -> list[int]:
    """Maximum one-to-one matching size over the first k proposals (rows
    of the boolean proposal x ground-truth matrix), for k = 0..len(hits),
    by one augmenting-path search per added proposal (module docstring)."""
    rows, cols = np.nonzero(hits)  # row-major, so each row's columns ascend
    edges = np.searchsorted(rows, np.arange(len(hits) + 1)).tolist()
    cols = cols.tolist()
    claims = [cols[a:b] for a, b in zip(edges, edges[1:])]
    owner = [-1] * hits.shape[1]  # gt index -> proposal index

    def augment(i: int, visited: set[int]) -> bool:
        for g in claims[i]:
            if g in visited:
                continue
            visited.add(g)
            if owner[g] < 0 or augment(owner[g], visited):
                owner[g] = i
                return True
        return False

    sizes = [0]
    for i in range(len(claims)):
        sizes.append(sizes[-1] + augment(i, set()))
    return sizes


def _recall_table(proposals_per_video, gts_per_video, thresholds, an_values) -> np.ndarray:
    """[len(thresholds), len(an_values)] recall of the pooled ground truths.

    Each video's columns are ranked by one stable argsort and its IoU
    matrix is built once; each threshold takes one incremental matching
    sweep over the video's top proposals.
    """
    if min(an_values) < 1:
        raise UndefinedMetricError(f"an must be >= 1, got {min(an_values)}")
    total = sum(len(g) for g in gts_per_video.values())
    if total == 0:
        raise UndefinedMetricError("no ground-truth instances in the corpus")
    matched = np.zeros((len(thresholds), len(an_values)), dtype=np.int64)
    for vid, gts in gts_per_video.items():
        if not gts:
            continue
        c = Candidates.of(proposals_per_video.get(vid, ()))
        top = np.argsort(-c.scores, kind="stable")[: max(an_values), None]
        g = np.array([gt.interval for gt in gts], dtype=np.float64)
        ious = broadcast_iou(c.starts[top], c.ends[top], g[:, 0], g[:, 1])
        pick = np.minimum(an_values, len(ious))
        for i, t in enumerate(thresholds):
            matched[i] += np.asarray(_match_sizes(ious >= t))[pick]
    return matched / total


def recall_at(
    proposals_per_video: dict[str, Sequence[Proposal]],
    gts_per_video: dict[str, list[GroundTruthAction]],
    tiou: float,
    an: int,
) -> float:
    """Fraction of pooled ground truths recovered by top-an proposals."""
    return float(_recall_table(proposals_per_video, gts_per_video, (tiou,), (an,))[0, 0])


def evaluate(
    proposals_per_video: dict[str, Sequence[Proposal]],
    gts_per_video: dict[str, list[GroundTruthAction]],
    thresholds: tuple[float, ...] = ACTIVITYNET_THRESHOLDS,
    an_values: tuple[int, ...] = DEFAULT_AN_VALUES,
) -> EvalResult:
    """AR@AN table and AUC of the average-recall curve."""
    per = _recall_table(proposals_per_video, gts_per_video, thresholds, an_values)
    ar = per.mean(axis=0)
    ar_at_an = {an: float(ar[k]) for k, an in enumerate(an_values)}
    ans = np.asarray(an_values, dtype=np.float64)
    if len(an_values) > 1:
        auc = 100.0 * float(np.trapezoid(ar, ans)) / (ans[-1] - ans[0])
    else:
        auc = 100.0 * float(ar[0])
    return EvalResult(
        ar_at_an=ar_at_an,
        auc=auc,
        per_tiou_recall=per,
        thresholds=tuple(thresholds),
        an_values=tuple(an_values),
    )
