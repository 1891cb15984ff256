import math
import tracemalloc

import numpy as np
import pytest

from tapgen.errors import DegenerateLabelsError, InvalidInputError
from tapgen.supervision import (
    LossConfig,
    ScoreGrids,
    gen_boundary_labels,
    gen_duration_labels,
    l2_loss,
    l2_loss_grad,
    max_duration,
    valid_cell_mask,
    weighted_binary_loss,
    weighted_binary_loss_grad,
)
from tapgen.timeline import GroundTruthAction, VideoMeta, broadcast_iou, build_grid


def make_grid(T, snippet_len=16, fps=16.0):
    return build_grid(
        VideoMeta(video_id="v", num_frames=T * snippet_len, fps=fps, snippet_len=snippet_len)
    )


def random_gts(rng, duration, n):
    gts = []
    for _ in range(n):
        a = rng.uniform(0, duration * 0.95)
        b = rng.uniform(a + 0.05, duration)
        gts.append(GroundTruthAction(label="g", start_sec=a, end_sec=min(b, duration)))
    return gts


def reference_boundary_labels(grid, gts):
    """Per-timestamp reference: one argmin over the snippet centers for each
    start and end time; argmin keeps the earliest index on exact ties."""
    starts, ends = np.zeros(grid.T), np.zeros(grid.T)
    for gt in gts:
        starts[int(np.argmin(np.abs(grid.centers - gt.start_sec)))] = 1.0
        ends[int(np.argmin(np.abs(grid.centers - gt.end_sec)))] = 1.0
    return starts, ends, 0 if gts else 1


def brute_force_duration_labels(grid, gts, D):
    """Independent argmax-IoU scan using raw interval arithmetic."""
    labels = np.zeros((D, grid.T))
    s = grid.snippet_seconds
    for gt in gts:
        best, cells = -1.0, []
        for d in range(1, D + 1):
            for j in range(grid.T - d + 1):
                lo, hi = j * s, (j + d) * s
                inter = max(0.0, min(hi, gt.end_sec) - max(lo, gt.start_sec))
                union = (hi - lo) + (gt.end_sec - gt.start_sec) - inter
                iou = inter / union
                if iou > best:
                    best, cells = iou, [(d, j)]
                elif iou == best:
                    cells.append((d, j))
        if best > 0:
            for d, j in cells:
                labels[d - 1, j] = 1.0
    return labels


class TestBoundaryLabels:
    def test_hand_case(self):
        grid = make_grid(4)  # centers 0.5, 1.5, 2.5, 3.5
        gts = [GroundTruthAction(label="a", start_sec=1.4, end_sec=3.6)]
        starts, ends, warnings = gen_boundary_labels(grid, gts)
        np.testing.assert_array_equal(starts, [0, 1, 0, 0])
        np.testing.assert_array_equal(ends, [0, 0, 0, 1])
        assert warnings == 0

    def test_tie_goes_to_earlier_snippet(self):
        grid = make_grid(4)  # midway between centers 0.5 and 1.5 is 1.0
        gts = [GroundTruthAction(label="a", start_sec=1.0, end_sec=3.9)]
        starts, _, _ = gen_boundary_labels(grid, gts)
        np.testing.assert_array_equal(starts, [1, 0, 0, 0])

    def test_shared_nearest_snippet_idempotent(self):
        grid = make_grid(4)
        gts = [
            GroundTruthAction(label="a", start_sec=1.4, end_sec=2.0),
            GroundTruthAction(label="b", start_sec=1.6, end_sec=3.0),
        ]
        starts, _, _ = gen_boundary_labels(grid, gts)
        assert starts[1] == 1.0
        assert starts.sum() == 1.0

    def test_empty_gts_flagged(self):
        grid = make_grid(4)
        starts, ends, warnings = gen_boundary_labels(grid, [])
        assert starts.sum() == 0 and ends.sum() == 0
        assert warnings == 1

    def test_labeled_start_minimizes_center_distance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            T = int(rng.integers(2, 20))
            grid = make_grid(T)
            gts = random_gts(rng, T, 1)
            starts, ends, _ = gen_boundary_labels(grid, gts)
            idx = int(np.argmax(starts))
            dists = np.abs(grid.centers - gts[0].start_sec)
            assert dists[idx] == dists.min()

    def test_times_past_the_last_center_label_the_last_snippet(self):
        """The last center is the nearest to any later time. From about 2^51
        snippets past it the reference's rounded distances tie over a run of
        centers, and its argmin takes the run's first (snippet 0 for 1e20 s)."""
        grid = make_grid(10)  # centers 0.5 .. 9.5
        for start, end in ((9.6, 9.7), (1e14, 1e15), (2.0**60, 1e20), (1e20, math.inf)):
            starts, ends, _ = gen_boundary_labels(grid, [GroundTruthAction("a", start, end)])
            assert np.flatnonzero(starts).tolist() == np.flatnonzero(ends).tolist() == [9]
        _, ends, _ = reference_boundary_labels(grid, [GroundTruthAction("a", 3.0, 1e20)])
        assert np.flatnonzero(ends).tolist() == [0]

    def test_memory_grows_with_the_annotations_not_with_annotations_times_snippets(self):
        # a [G, 2, T] float64 array at this size is 62.5 MiB
        G, T = 2000, 2048
        grid = make_grid(T)
        gts = random_gts(np.random.default_rng(5), T, G)
        tracemalloc.start()
        try:
            gen_boundary_labels(grid, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("policy, T, D", [
    ("full", 1, 1), ("full", 2, 2), ("full", 3, 3),
    ("half", 1, 1), ("half", 2, 1), ("half", 3, 1),
])
def test_max_duration_of_each_policy(policy, T, D):
    assert max_duration(T, policy) == D


@pytest.mark.parametrize("policy", ["Full", "HALF", "", "quarter"])
def test_max_duration_rejects_an_unknown_policy_naming_it(policy):
    with pytest.raises(InvalidInputError, match=f"duration policy {policy!r}"):
        max_duration(10, policy)


class TestDurationLabels:
    def test_exact_span_unique_argmax(self):
        grid = make_grid(8)
        s = grid.snippet_seconds
        gt = GroundTruthAction(label="a", start_sec=2 * s, end_sec=5 * s)  # cell (3, 2)
        labels = gen_duration_labels(grid, [gt], D=8)
        assert labels[2, 2] == 1.0
        assert labels.sum() == 1.0

    def test_hand_case_t6_matches_oracle(self):
        grid = make_grid(6)
        gt = GroundTruthAction(label="a", start_sec=0.9, end_sec=3.1)
        got = gen_duration_labels(grid, [gt], D=6)
        want = brute_force_duration_labels(grid, [gt], 6)
        np.testing.assert_array_equal(got, want)

    def test_empty_gts_all_zero(self):
        assert gen_duration_labels(make_grid(5), [], D=5).sum() == 0

    def test_invalid_d_rejected(self):
        grid = make_grid(5)
        with pytest.raises(InvalidInputError):
            gen_duration_labels(grid, [], D=6)
        with pytest.raises(InvalidInputError):
            gen_duration_labels(grid, [], D=0)

    def test_valid_mask_respected(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            T = int(rng.integers(2, 12))
            grid = make_grid(T)
            gts = random_gts(rng, T, int(rng.integers(1, 4)))
            D = int(rng.integers(1, T + 1))
            labels = gen_duration_labels(grid, gts, D)
            mask = valid_cell_mask(T, D)
            assert np.all(labels[~mask] == 0)

    def test_matches_exhaustive_oracle_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            T = int(rng.integers(2, 17))
            grid = make_grid(T, snippet_len=8, fps=float(rng.choice([8.0, 16.0])))
            gts = random_gts(rng, grid.T * grid.snippet_seconds, int(rng.integers(1, 4)))
            D = int(rng.integers(1, T + 1))
            got = gen_duration_labels(grid, gts, D)
            want = brute_force_duration_labels(grid, gts, D)
            np.testing.assert_array_equal(got, want)


def whole_grid_duration_labels(grid, gts, D):
    """gen_duration_labels as one search over the whole [D, T] matrix per
    ground truth, before the search skipped rows."""
    T = grid.T
    d = np.arange(1, D + 1)[:, None]
    j = np.arange(T)[None, :]
    lo, hi = j * grid.snippet_seconds, (j + d) * grid.snippet_seconds
    invalid = ~valid_cell_mask(T, D)
    labels = np.zeros((D, T), dtype=np.float64)
    for gt in gts:
        ious = broadcast_iou(lo, hi, gt.start_sec, gt.end_sec)
        ious[invalid] = 0.0
        best = ious.max()
        if best > 0:
            labels[ious == best] = 1.0
    return labels


def whole_grid_score_grid_error(start_probs, end_probs, conf_cls, conf_reg) -> str | None:
    """The message ScoreGrids raised when it checked invalid cells through a
    whole-grid mask and a copy of the masked cells; None if it accepted."""
    arrays = {"start_probs": start_probs, "end_probs": end_probs,
              "conf_cls": conf_cls, "conf_reg": conf_reg}
    for name, a in arrays.items():
        a = arrays[name] = np.asarray(a, dtype=np.float64)
        if not np.isfinite(a).all():
            return f"{name} has NaN or infinite entries"
        if np.any(a < 0) or np.any(a > 1):
            return f"{name} entries must lie in [0, 1]"
    T, D = arrays["start_probs"].shape[0], arrays["conf_cls"].shape[0]
    mask = valid_cell_mask(T, D)
    for name in ("conf_cls", "conf_reg"):
        if np.any(arrays[name][~mask] != 0):
            return f"{name} has mass on invalid cells (j + d > T)"
    return None


class TestScoreGrids:
    @pytest.mark.parametrize("field", ["start_probs", "end_probs", "conf_cls", "conf_reg"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_naming_field(self, field, bad):
        T = 4
        arrays = {
            "start_probs": np.full(T, 0.5),
            "end_probs": np.full(T, 0.5),
            "conf_cls": 0.5 * valid_cell_mask(T, T),
            "conf_reg": 0.5 * valid_cell_mask(T, T),
        }
        arrays[field][0] = bad  # index 0 / cell (1, 0) is valid in both shapes
        with pytest.raises(InvalidInputError, match=field):
            ScoreGrids(**arrays)


    @pytest.mark.parametrize("fields, shape", [
        (("start_probs", "end_probs"), (4, 1)),
        (("end_probs",), (5,)),
        (("conf_cls", "conf_reg"), (4,)),
        (("conf_cls", "conf_reg"), (4, 5)),
        (("conf_cls", "conf_reg"), (4, 3)),
        (("conf_cls", "conf_reg"), (2, 4, 4)),
    ])
    def test_wrong_shape_rejected_naming_field(self, fields, shape):
        T = 4
        arrays = {
            "start_probs": np.full(T, 0.5),
            "end_probs": np.full(T, 0.5),
            "conf_cls": np.zeros((T, T)),
            "conf_reg": np.zeros((T, T)),
        }
        for field in fields:
            arrays[field] = np.zeros(shape)
        with pytest.raises(InvalidInputError, match=fields[0]):
            ScoreGrids(**arrays)


class TestWeightedBinaryLoss:
    def test_perfect_prediction_near_zero(self):
        p = np.array([1.0, 1.0, 0.0, 0.0])
        l = np.array([1.0, 1.0, 0.0, 0.0])
        loss = weighted_binary_loss(p, l)
        assert 0 <= loss <= -math.log(1 - 1e-12) * 4

    def test_alpha_weights(self):
        # N=10, N+=2: a+ = 5, a- = 1.25; loss with p=0.5 everywhere is
        # -(1/10)(2*5*ln.5 + 8*1.25*ln.5) = -2 ln .5
        l = np.array([1.0, 1.0] + [0.0] * 8)
        p = np.full(10, 0.5)
        assert weighted_binary_loss(p, l) == pytest.approx(-2 * math.log(0.5), rel=1e-12)

    def test_hand_value(self):
        p = np.array([0.8, 0.2])
        l = np.array([1.0, 0.0])
        # a+ = a- = 2: -(1/2)(2 ln .8 + 2 ln .8) = -2 ln .8
        assert weighted_binary_loss(p, l) == pytest.approx(-2 * math.log(0.8), rel=1e-12)

    def test_degenerate_labels_error(self):
        with pytest.raises(DegenerateLabelsError):
            weighted_binary_loss(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DegenerateLabelsError):
            weighted_binary_loss(np.array([0.5, 0.5]), np.array([0.0, 0.0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        p = rng.random(30)
        l = (rng.random(30) < 0.3).astype(float)
        l[0], l[1] = 1.0, 0.0
        base = weighted_binary_loss(p, l)
        for _ in range(10):
            perm = rng.permutation(30)
            assert weighted_binary_loss(p[perm], l[perm]) == pytest.approx(base, rel=1e-12)

    def test_grad_hand_value(self):
        # l=1, p=0.5, a+=2, N=2: grad = -(1/2) * 2 / 0.5 = -2
        p = np.array([0.5, 0.5])
        l = np.array([1.0, 0.0])
        grad = weighted_binary_loss_grad(p, l)
        assert grad[0] == pytest.approx(-2.0, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(50):
            n = int(rng.integers(4, 20))
            p = rng.uniform(0.05, 0.95, n)
            l = (rng.random(n) < 0.4).astype(float)
            l[0], l[1] = 1.0, 0.0
            grad = weighted_binary_loss_grad(p, l)
            for i in range(n):
                pp, pm = p.copy(), p.copy()
                pp[i] += h
                pm[i] -= h
                fd = (weighted_binary_loss(pp, l) - weighted_binary_loss(pm, l)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_masked_entries_zero_grad(self):
        p = np.array([0.5, 0.9, 0.2, 0.7])
        l = np.array([1.0, 0.0, 0.0, 1.0])
        mask = np.array([True, True, True, False])
        grad = weighted_binary_loss_grad(p, l, mask)
        assert grad[3] == 0.0


class TestL2Loss:
    def test_identity(self):
        p = np.array([0.2, 0.8])
        assert l2_loss(p, p) == 0.0

    def test_hand_value(self):
        assert l2_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(0.5)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        h = 1e-6
        for _ in range(30):
            n = int(rng.integers(2, 15))
            p = rng.random(n)
            l = rng.random(n)
            grad = l2_loss_grad(p, l)
            for i in range(n):
                pp, pm = p.copy(), p.copy()
                pp[i] += h
                pm[i] -= h
                fd = (l2_loss(pp, l) - l2_loss(pm, l)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_empty_mask_rejected(self):
        with pytest.raises(InvalidInputError):
            l2_loss(np.array([0.5]), np.array([0.5]), np.array([False]))

    @pytest.mark.parametrize("l, mask, message", [
        (np.zeros(3), None, r"^shape mismatch: predictions \(2,\), labels \(3,\)$"),
        (np.zeros(2), np.ones(3, dtype=bool), r"^mask shape \(3,\) != \(2,\)$"),
    ])
    def test_shape_mismatch_rejected(self, l, mask, message):
        with pytest.raises(InvalidInputError, match=message):
            l2_loss(np.zeros(2), l, mask)


class TestLossConfig:
    @pytest.mark.parametrize("field, value", [
        ("lambda_reg", math.nan), ("lambda_reg", math.inf), ("lambda_reg", 0.0),
        ("lambda_1", math.nan), ("lambda_1", -1.0), ("lambda_2", math.nan),
        ("lambda_2", math.inf),
    ])
    def test_rejects_bad_weight_naming_it(self, field, value):
        with pytest.raises(InvalidInputError, match=rf"^{field} "):
            LossConfig(**{field: value})

    def test_default_constants(self):
        cfg = LossConfig()
        assert cfg.lambda_reg == 10.0
        assert cfg.lambda_1 == 1.0
        assert cfg.lambda_2 == 1.0
