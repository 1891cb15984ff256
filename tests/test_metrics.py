"""Tests for recall, AR@AN, and AUC."""

import itertools

import numpy as np
import pytest

from tapgen.errors import InvalidInputError, UndefinedMetricError
from tapgen.inference import Proposal
from tapgen.metrics import (
    ACTIVITYNET_THRESHOLDS,
    THUMOS_THRESHOLDS,
    evaluate,
    recall_at,
)
from tapgen.timeline import GroundTruthAction, temporal_iou


def si(a, b, score):
    return Proposal(start_sec=float(a), end_sec=float(b), score=float(score))


def gt(a, b, label="x"):
    return GroundTruthAction(label=label, start_sec=float(a), end_sec=float(b))


def brute_force_match_count(proposals, gts, tiou, an):
    """Exhaustive one-to-one assignment search over top-an proposals."""
    top = proposals[:an]
    ok = [
        [temporal_iou(p.interval, g.interval) >= tiou for p in top]
        for g in gts
    ]
    best = 0
    n = len(top)
    for k in range(min(len(gts), n), 0, -1):
        for g_sub in itertools.combinations(range(len(gts)), k):
            for p_perm in itertools.permutations(range(n), k):
                if all(ok[g][p] for g, p in zip(g_sub, p_perm)):
                    return k
    return best


class TestProposal:
    @pytest.mark.parametrize("a, b", [
        (1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 1.0),
    ])
    def test_rejects_bad_interval(self, a, b):
        with pytest.raises(InvalidInputError):
            Proposal(start_sec=a, end_sec=b, score=0.5)


class TestRecallAt:
    def test_perfect_single_video(self):
        props = {"v": [si(0, 2, 0.9)]}
        gts = {"v": [gt(0, 2)]}
        assert recall_at(props, gts, 0.99, 1) == 1.0

    def test_top_an_truncation(self):
        # the matching proposal is ranked second, so an=1 misses it
        props = {"v": [si(5, 7, 0.9), si(0, 2, 0.8)]}
        gts = {"v": [gt(0, 2)]}
        assert recall_at(props, gts, 0.9, 1) == 0.0
        assert recall_at(props, gts, 0.9, 2) == 1.0

    def test_ranks_by_score_not_list_order(self):
        # a 0.1-score miss listed before a 0.9-score hit: ranking puts the hit on top
        props = {"v": [si(5, 7, 0.1), si(0, 2, 0.9)]}
        gts = {"v": [gt(0, 2)]}
        assert recall_at(props, gts, 0.9, 1) == 1.0

    def test_equal_scores_keep_list_order(self):
        props = {"v": [si(5, 7, 0.5), si(0, 2, 0.5)]}
        gts = {"v": [gt(0, 2)]}
        assert recall_at(props, gts, 0.9, 1) == 0.0

    def test_one_to_one_not_double_counted(self):
        # one proposal overlaps both ground truths; only one can be matched
        props = {"v": [si(0, 4, 0.9)]}
        gts = {"v": [gt(0, 3), gt(1, 4)]}
        assert recall_at(props, gts, 0.5, 5) == 0.5

    def test_pooled_across_videos(self):
        props = {"a": [si(0, 2, 0.9)], "b": []}
        gts = {"a": [gt(0, 2)], "b": [gt(1, 3)]}
        assert recall_at(props, gts, 0.9, 1) == 0.5

    def test_missing_video_counts_as_zero_proposals(self):
        props = {"a": [si(0, 2, 0.9)]}
        gts = {"a": [gt(0, 2)], "b": [gt(1, 3)]}
        assert recall_at(props, gts, 0.9, 1) == 0.5

    def test_no_ground_truths_raises(self):
        with pytest.raises(UndefinedMetricError):
            recall_at({"v": [si(0, 2, 0.9)]}, {"v": []}, 0.5, 1)

    def test_bad_an_raises(self):
        with pytest.raises(UndefinedMetricError):
            recall_at({"v": []}, {"v": [gt(0, 1)]}, 0.5, 0)

    def test_matching_needs_reassignment(self):
        # greedy claiming in score order would strand the second ground
        # truth: gt0 overlaps both proposals, gt1 only the first
        props = {"v": [si(0, 2, 0.9), si(0.5, 2.5, 0.8)]}
        gts = {"v": [gt(0.4, 2.4), gt(0, 2)]}
        assert temporal_iou(props["v"][0].interval, gts["v"][1].interval) == 1.0
        assert recall_at(props, gts, 0.6, 2) == 1.0

    def test_matches_exhaustive_assignment_search(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_p = int(rng.integers(0, 6))
            n_g = int(rng.integers(1, 6))
            props = []
            for _ in range(n_p):
                a = float(rng.uniform(0, 8))
                props.append(si(a, a + float(rng.uniform(0.5, 4)), float(rng.random())))
            props.sort(key=lambda p: -p.score)
            gts = []
            for _ in range(n_g):
                a = float(rng.uniform(0, 8))
                gts.append(gt(a, a + float(rng.uniform(0.5, 4))))
            tiou = float(rng.choice([0.3, 0.5, 0.7]))
            an = int(rng.integers(1, 7))
            want = brute_force_match_count(props, gts, tiou, an) / n_g
            assert recall_at({"v": props}, {"v": gts}, tiou, an) == want

    def test_monotone_in_an_and_tiou(self):
        rng = np.random.default_rng(9)
        props = {}
        gts = {}
        for v in range(5):
            props[str(v)] = sorted(
                (
                    si(a := float(rng.uniform(0, 8)), a + float(rng.uniform(0.5, 4)), float(rng.random()))
                    for _ in range(8)
                ),
                key=lambda p: -p.score,
            )
            gts[str(v)] = [
                gt(a := float(rng.uniform(0, 8)), a + float(rng.uniform(0.5, 4)))
                for _ in range(3)
            ]
        for tiou in (0.3, 0.5, 0.7):
            vals = [recall_at(props, gts, tiou, an) for an in range(1, 9)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for an in (1, 4, 8):
            vals = [recall_at(props, gts, t, an) for t in (0.3, 0.5, 0.7, 0.9)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestEvaluate:
    def test_saturated_corpus(self):
        props = {str(v): [si(v, v + 2, 0.9)] for v in range(4)}
        gts = {str(v): [gt(v, v + 2)] for v in range(4)}
        res = evaluate(props, gts)
        assert res.auc == pytest.approx(100.0)
        assert all(ar == 1.0 for ar in res.ar_at_an.values())
        assert np.all(res.per_tiou_recall == 1.0)

    def test_vacuous_corpus(self):
        props = {"v": []}
        gts = {"v": [gt(0, 2)]}
        res = evaluate(props, gts)
        assert res.auc == 0.0
        assert np.all(res.per_tiou_recall == 0.0)

    def test_hand_mixed_dataset(self):
        # video a: exact hit at rank 1; video b: rank-2 hit with IoU 0.75
        props = {
            "a": [si(0, 2, 0.9)],
            "b": [si(9, 10, 0.8), si(1, 4, 0.7)],
        }
        gts = {"a": [gt(0, 2)], "b": [gt(1, 5)]}
        thresholds = (0.5, 0.8)
        res = evaluate(props, gts, thresholds=thresholds, an_values=(1, 2))
        # an=1: only video a matches regardless of threshold
        assert res.per_tiou_recall[0, 0] == 0.5
        assert res.per_tiou_recall[1, 0] == 0.5
        # an=2: video b's IoU-0.75 hit clears 0.5 but not 0.8
        assert res.per_tiou_recall[0, 1] == 1.0
        assert res.per_tiou_recall[1, 1] == 0.5
        assert res.ar_at_an[1] == 0.5
        assert res.ar_at_an[2] == 0.75
        # trapezoid over an in {1, 2}: 100 * ((0.5 + 0.75) / 2) / 1
        assert res.auc == pytest.approx(62.5)

    def test_single_an_value_auc(self):
        props = {"v": [si(0, 2, 0.9)]}
        gts = {"v": [gt(0, 2)]}
        res = evaluate(props, gts, an_values=(1,))
        assert res.auc == pytest.approx(100.0 * res.ar_at_an[1])

    def test_video_order_invariance(self):
        rng = np.random.default_rng(21)
        props = {}
        gts = {}
        for v in range(6):
            props[f"v{v}"] = sorted(
                (
                    si(a := float(rng.uniform(0, 6)), a + float(rng.uniform(0.5, 3)), float(rng.random()))
                    for _ in range(5)
                ),
                key=lambda p: -p.score,
            )
            gts[f"v{v}"] = [gt(a := float(rng.uniform(0, 6)), a + float(rng.uniform(0.5, 3)))]
        keys = list(props)
        shuffled = list(reversed(keys))
        res1 = evaluate(props, gts, an_values=(1, 3, 5))
        res2 = evaluate(
            {k: props[k] for k in shuffled},
            {k: gts[k] for k in shuffled},
            an_values=(1, 3, 5),
        )
        assert res1.ar_at_an == res2.ar_at_an
        assert res1.auc == res2.auc

    def test_threshold_presets(self):
        assert len(ACTIVITYNET_THRESHOLDS) == 10
        assert ACTIVITYNET_THRESHOLDS[0] == 0.5
        assert ACTIVITYNET_THRESHOLDS[-1] == 0.95
        assert len(THUMOS_THRESHOLDS) == 11
        assert THUMOS_THRESHOLDS[:-1] == ACTIVITYNET_THRESHOLDS
        assert THUMOS_THRESHOLDS[-1] == 1.0

    def test_serialization_roundtrip(self):
        props = {"v": [si(0, 2, 0.9)]}
        gts = {"v": [gt(0, 2)]}
        res = evaluate(props, gts, an_values=(1, 2))
        d = res.to_dict()
        assert d["auc"] == res.auc
        assert d["ar_at_an"]["1"] == res.ar_at_an[1]
        csv_text = res.to_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + one row per an value
        assert lines[0].startswith("an,tiou_0.5")
