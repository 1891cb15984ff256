import math
import warnings

import numpy as np
import pytest

from tapgen.errors import InvalidInputError
from tapgen.inference import (
    Candidates,
    InferenceConfig,
    Proposal,
    find_peaks,
    form_proposals,
    infer,
    soft_nms,
)
from tapgen.supervision import ScoreGrids, valid_cell_mask
from tapgen.timeline import SnippetGrid, VideoMeta, build_grid, temporal_iou


def make_grid(T):
    return build_grid(VideoMeta(video_id="v", num_frames=T * 16, fps=16.0, snippet_len=16))


def reference_soft_nms(proposals, sigma, score_floor, top_k):
    """Step-by-step reference: explicit list bookkeeping, no vectorization."""
    pool = [[p.start_sec, p.end_sec, p.score] for p in proposals]
    out = []
    while pool and len(out) < top_k:
        # ties by (start, end) in seconds; callers build seconds as index x one
        # positive snippet length, so this is snippet-index order
        pool.sort(key=lambda r: (-r[2], r[0], r[1]))
        best = pool[0]
        if best[2] < score_floor:
            break
        pool = pool[1:]
        out.append(tuple(best))
        for r in pool:
            inter = max(0.0, min(best[1], r[1]) - max(best[0], r[0]))
            union = (best[1] - best[0]) + (r[1] - r[0]) - inter
            iou = inter / union if inter > 0 else 0.0
            r[2] = r[2] * math.exp(-(iou * iou) / sigma)
    return out


# form_proposals as it was when it built one Proposal per candidate, kept
# verbatim but for the D argument it no longer takes: the columnar version
# must equal it item by item.
def reference_form_proposals(
    start_peaks: list[int],
    end_peaks: list[int],
    grids: ScoreGrids,
    grid: SnippetGrid,
) -> list[Proposal]:
    """Pair every start peak with later end peaks within the duration range.

    Output is sorted by score descending, ties broken by (start, end)
    ascending.
    """
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
        Proposal(start_sec=s * ss, end_sec=e * ss, score=p)
        for s, e, p in zip(ts[order].tolist(), te[order].tolist(), scores[order].tolist())
    ]


def by_interval(proposals):
    """Proposals in (start, end) order, stable: form_proposals' order for ascending peaks."""
    return sorted(proposals, key=lambda p: p.interval)


def reference_find_peaks(p):
    """Scan reference: walk each maximal run of equal values."""
    p = np.asarray(p, dtype=np.float64)
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
    peaks.update(np.flatnonzero(p >= 0.5 * p.max()).tolist())
    return sorted(peaks)


class TestFindPeaks:
    def test_interior_maximum(self):
        assert find_peaks(np.array([0.1, 0.9, 0.1])) == [1]

    def test_boundary_peak(self):
        assert find_peaks(np.array([0.9, 0.1, 0.1])) == [0]

    def test_plateau_rule(self):
        # local-max rule yields {0}; the 0.5*max fallback admits every index
        assert find_peaks(np.array([0.2, 0.2, 0.2])) == [0, 1, 2]

    def test_interior_plateau_first_index(self):
        # the plateau lies below 0.5 * max, so only the local-max rule admits it
        p = np.array([0.1, 0.3, 0.3, 0.1, 1.0])
        assert find_peaks(p) == [1, 4]

    def test_plateau_not_maximal_excluded(self):
        p = np.array([0.2, 0.2, 0.3, 0.1, 1.0])
        assert find_peaks(p) == [2, 4]

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            find_peaks(np.array([]))

    @pytest.mark.parametrize("p", [[math.inf, 1.0, 0.5], [0.0, -math.inf, math.inf, math.inf],
                                   [math.nan, 2.0], [-math.inf, -math.inf]])
    def test_infinities_and_nan_match_the_reference_without_a_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_peaks(np.array(p)) == reference_find_peaks(np.array(p))


def random_grids(rng, T, D):
    mask = valid_cell_mask(T, D)
    return ScoreGrids(
        start_probs=rng.random(T),
        end_probs=rng.random(T),
        conf_cls=rng.random((D, T)) * mask,
        conf_reg=rng.random((D, T)) * mask,
    )


def grids_from_cells(T, D, starts, ends, cells, value=1.0):
    ps = np.zeros(T)
    pe = np.zeros(T)
    cc = np.zeros((D, T))
    for s in starts:
        ps[s] = value
    for e in ends:
        pe[e] = value
    for d, j in cells:
        cc[d - 1, j] = value
    return ScoreGrids(start_probs=ps, end_probs=pe, conf_cls=cc, conf_reg=cc.copy())


class TestFormProposals:
    def test_identity_score(self):
        grids = grids_from_cells(10, 10, [2], [7], [(5, 2)])
        props = form_proposals([2], [7], grids, make_grid(10))
        assert len(props) == 1
        assert props[0].score == 1.0
        assert props[0].interval == (2.0, 7.0)

    def test_hand_scored_value(self):
        T, D = 10, 10
        ps = np.zeros(T)
        pe = np.zeros(T)
        ps[2], pe[7] = 0.8, 0.9
        cc = np.zeros((D, T))
        cr = np.zeros((D, T))
        cc[4, 2], cr[4, 2] = 0.25, 0.64  # cell (5, 2)
        grids = ScoreGrids(start_probs=ps, end_probs=pe, conf_cls=cc, conf_reg=cr)
        props = form_proposals([2], [7], grids, make_grid(T))
        assert props[0].score == pytest.approx(0.8 * 0.9 * math.sqrt(0.16), abs=1e-15)
        assert props[0].score == pytest.approx(0.288)

    def test_ordering_violation_filtered(self):
        grids = grids_from_cells(10, 10, [5], [3], [(2, 3)])
        assert list(form_proposals([5], [3], grids, make_grid(10))) == []

    def test_duration_range_enforced(self):
        grids = grids_from_cells(10, 3, [0], [8], [(3, 0)])
        assert grids.D == 3
        assert list(form_proposals([0], [8], grids, make_grid(10))) == []

    def test_rows_in_start_end_order_for_ascending_peaks(self):
        T = 8
        rng = np.random.default_rng(3)
        grids = random_grids(rng, T, T)
        props = form_proposals(list(range(T)), list(range(T)), grids, make_grid(T))
        intervals = [p.interval for p in props]
        assert len(intervals) == T * (T - 1) // 2
        assert intervals == sorted(intervals)

    def test_interval_mapping_uses_snippet_edges(self):
        grids = grids_from_cells(10, 10, [2], [7], [(5, 2)])
        p = form_proposals([2], [7], grids, make_grid(10))[0]
        assert p.start_sec == pytest.approx(2.0)
        assert p.end_sec == pytest.approx(7.0)

    def test_columns_behave_as_a_sequence_of_proposals(self):
        T = 8
        grids = random_grids(np.random.default_rng(5), T, T)
        got = form_proposals(list(range(T)), list(range(T)), grids, make_grid(T))
        want = by_interval(reference_form_proposals(list(range(T)), list(range(T)), grids,
                                                    make_grid(T)))
        assert isinstance(got, Candidates)
        assert len(got) == len(want) > 1
        assert list(got) == want and tuple(got) == tuple(want)
        assert got[-1] == want[-1]
        assert all(isinstance(x, float) for x in (got[0].start_sec, got[0].end_sec, got[0].score))
        for other in (want, tuple(want), [], "not proposals"):  # columns equal no sequence
            assert got != other and other != got
        with pytest.raises(IndexError):
            got[len(want)]

    def test_soft_nms_leaves_its_candidates_unchanged(self):
        T = 8
        grids = random_grids(np.random.default_rng(6), T, T)
        cands = form_proposals(list(range(T)), list(range(T)), grids, make_grid(T))
        before = list(cands)
        soft_nms(cands, score_floor=0.0)
        assert list(cands) == before


def mk(start, end, score, s=1.0):
    return Proposal(start_sec=start * s, end_sec=end * s, score=score)


class TestInferenceConfig:
    @pytest.mark.parametrize("field, value", [
        ("sigma", 0.0), ("sigma", -0.4), ("sigma", math.nan), ("sigma", math.inf),
        ("score_floor", math.nan), ("score_floor", math.inf), ("score_floor", -math.inf),
        ("top_k", 0), ("top_k", -3),
    ])
    def test_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            InferenceConfig(**{field: value})


class TestSoftNms:
    def test_disjoint_untouched(self):
        props = [mk(0, 2, 0.9), mk(5, 7, 0.8)]
        out = soft_nms(props)
        assert [p.score for p in out] == [0.9, 0.8]

    def test_identical_intervals_gaussian_decay(self):
        props = [mk(0, 2, 0.9), mk(0, 2, 0.8)]
        out = soft_nms(props, sigma=0.4)
        assert out[0].score == 0.9
        assert out[1].score == pytest.approx(0.8 * math.exp(-2.5), rel=1e-12)

    def test_score_floor_stops(self):
        props = [mk(0, 2, 0.9), mk(0, 2, 0.0005)]
        out = soft_nms(props, score_floor=0.001)
        assert len(out) == 1

    def test_top_k(self):
        props = [mk(i, i + 1, 0.5) for i in range(0, 20, 2)]
        assert len(soft_nms(props, top_k=3)) == 3

    @pytest.mark.parametrize("field, value", [
        ("sigma", math.nan), ("sigma", math.inf), ("sigma", 0.0),
        ("score_floor", math.nan), ("score_floor", math.inf), ("top_k", 0),
    ])
    def test_rejects_bad_option_naming_it(self, field, value):
        # overlapping, so a NaN sigma would reach the decay
        props = [mk(0, 2, 0.9), mk(1, 3, 0.8)]
        with pytest.raises(InvalidInputError, match=rf"^{field} "):
            soft_nms(props, **{field: value})

    def test_never_increases_scores_or_moves_intervals(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            props = []
            for _ in range(int(rng.integers(1, 15))):
                a = int(rng.integers(0, 10))
                b = a + int(rng.integers(1, 6))
                props.append(mk(a, b, float(rng.random())))
            best = {}
            for p in props:
                best[p.interval] = max(best.get(p.interval, 0.0), p.score)
            out = soft_nms(props, score_floor=0.0)
            for p in out:
                # several inputs may share an interval; decayed score never
                # exceeds the best input score on that interval
                assert p.score <= best[p.interval] + 1e-15

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            props = []
            for _ in range(int(rng.integers(0, 21))):
                a = int(rng.integers(0, 12))
                b = a + int(rng.integers(1, 8))
                props.append(mk(a, b, float(rng.random())))
            sigma = float(rng.choice([0.2, 0.4, 0.8]))
            floor = float(rng.choice([0.0, 0.001, 0.05]))
            top_k = int(rng.integers(1, 25))
            got = soft_nms(props, sigma=sigma, score_floor=floor, top_k=top_k)
            want = reference_soft_nms(props, sigma, floor, top_k)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.start_sec, g.end_sec) == (w[0], w[1])
                assert g.score == pytest.approx(w[2], rel=1e-12, abs=1e-15)

    def test_returns_math_exp_scores_where_np_exp_ranks_an_ulp_lower(self):
        """A = [0, 2] is selected first. B = [1, 3] overlaps it with IoU 1/3,
        so B's exact score becomes math.exp(-(1/9) / sigma). C = [2, 4] misses
        A and starts at that very score. The sigma is searched for at run time
        so that np.exp gives an ulp less there: B then ranks below C but ties
        it exactly, and must win on its earlier start, with math.exp's score."""
        iou = temporal_iou((0.0, 2.0), (1.0, 3.0))
        sigmas = np.linspace(0.05, 5.0, 20001)
        args = -(iou * iou) / sigmas
        lower = np.flatnonzero(np.exp(args) < np.array([math.exp(a) for a in args.tolist()]))
        if not lower.size:
            pytest.skip("np.exp is never below math.exp on the searched arguments")
        sigma = float(sigmas[lower[0]])
        factor = math.exp(-(iou * iou) / sigma)
        props = [mk(0, 2, 1.0), mk(1, 3, 1.0), mk(2, 4, factor)]
        got = soft_nms(props, sigma=sigma, score_floor=0.0, top_k=3)
        assert [(p.start_sec, p.end_sec, p.score) for p in got] == reference_soft_nms(
            props, sigma, 0.0, 3
        )
        assert (got[1].interval, got[1].score) == ((1.0, 3.0), factor)

    def test_a_lone_contender_at_the_floor_is_checked_on_its_math_exp_score(self):
        """A = [0, 2] is selected first, and B = [1, 3], left alone in the
        pool, overlaps it with IoU 1/3. The sigma is searched for at run time
        so that np.exp gives an ulp more than math.exp there, and the floor
        is B's ranking score: B's exact score, an ulp below it, must decide,
        and it stops the run. A lone contender skips its catch-up only when
        its ranking score clears the floor by the error bound."""
        iou = temporal_iou((0.0, 2.0), (1.0, 3.0))
        sigmas = np.linspace(0.05, 5.0, 20001)
        args = -(iou * iou) / sigmas
        ranked = np.exp(args)
        higher = np.flatnonzero(ranked > np.array([math.exp(a) for a in args.tolist()]))
        if not higher.size:
            pytest.skip("np.exp is never above math.exp on the searched arguments")
        sigma, floor = float(sigmas[higher[0]]), float(ranked[higher[0]])
        props = [mk(0, 2, 1.0), mk(1, 3, 1.0)]
        got = soft_nms(props, sigma=sigma, score_floor=floor, top_k=2)
        want = reference_soft_nms(props, sigma, floor, 2)
        assert [(p.start_sec, p.end_sec, p.score) for p in got] == want == [(0.0, 2.0, 1.0)]


@pytest.mark.parametrize("score", [1.5, -0.1, math.nan])
def test_proposal_score_outside_0_1_rejected(score):
    with pytest.raises(InvalidInputError, match=rf"^score {score} outside \[0, 1\]$"):
        Proposal(start_sec=0.0, end_sec=1.0, score=score)


class TestInfer:
    def test_grids_of_another_t_rejected(self):
        grids = grids_from_cells(6, 6, [0], [2], [(2, 0)])
        with pytest.raises(InvalidInputError,
                           match="^score grids T=6 inconsistent with grid T=5$"):
            infer(grids, make_grid(5))

    def test_oracle_grids_single_gt_iou_one(self):
        # grid mass exactly on the true cell of a snippet-aligned action
        T, D = 12, 12
        grid = make_grid(T)
        d, j = 4, 3
        grids = grids_from_cells(T, D, [j], [j + d], [(d, j)])
        props = infer(grids, grid)
        gt_interval = (j * grid.snippet_seconds, (j + d) * grid.snippet_seconds)
        assert temporal_iou(props[0].interval, gt_interval) == 1.0

    def test_all_zero_grids_empty(self):
        T = 6
        grids = ScoreGrids(
            start_probs=np.zeros(T), end_probs=np.zeros(T),
            conf_cls=np.zeros((T, T)), conf_reg=np.zeros((T, T)),
        )
        got = infer(grids, make_grid(T))
        assert isinstance(got, Candidates) and len(got) == 0 and list(got) == []

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(13)
        T = 10
        grids = random_grids(rng, T, T)
        grid = make_grid(T)
        a = infer(grids, grid)
        b = infer(grids, grid)
        assert len(a) > 0 and list(a) == list(b)

    def test_outputs_respect_duration_and_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            T = int(rng.integers(3, 16))
            D = int(rng.integers(1, T + 1))
            grids = random_grids(rng, T, D)
            for p in infer(grids, make_grid(T)):
                # make_grid snippets are 1.0 s, so seconds are snippet indices
                assert 1 <= p.end_sec - p.start_sec <= D
                assert p.end_sec <= T

    def test_score_monotone_in_each_factor(self):
        rng = np.random.default_rng(19)
        T, D = 10, 10
        grid = make_grid(T)
        for _ in range(1000):
            ps, pe, cc, cr = rng.random(4)
            d, j = int(rng.integers(1, 6)), int(rng.integers(0, 4))
            grids = grids_from_cells(T, D, [j], [j + d], [])
            grids.start_probs[j] = ps
            grids.end_probs[j + d] = pe
            grids.conf_cls[d - 1, j] = cc
            grids.conf_reg[d - 1, j] = cr
            base = form_proposals([j], [j + d], grids, grid)[0].score
            which = int(rng.integers(0, 4))
            bumped = [ps, pe, cc, cr]
            bumped[which] = min(1.0, bumped[which] + rng.random() * (1 - bumped[which]))
            grids.start_probs[j] = bumped[0]
            grids.end_probs[j + d] = bumped[1]
            grids.conf_cls[d - 1, j] = bumped[2]
            grids.conf_reg[d - 1, j] = bumped[3]
            assert form_proposals([j], [j + d], grids, grid)[0].score >= base - 1e-15

    def test_grid_scaling_preserves_prenms_ranking(self):
        rng = np.random.default_rng(23)
        T = 8
        grids = random_grids(rng, T, T)
        grid = make_grid(T)
        peaks = list(range(T))
        base = form_proposals(peaks, peaks, grids, grid)
        c = 0.37
        scaled = ScoreGrids(
            start_probs=grids.start_probs * c, end_probs=grids.end_probs * c,
            conf_cls=grids.conf_cls * c, conf_reg=grids.conf_reg * c,
        )
        out = form_proposals(peaks, peaks, scaled, grid)
        assert [p.interval for p in out] == [p.interval for p in base]
        # the score ranking, ties in (start, end) order, survives the scaling
        ranking = [np.argsort(-c.scores, kind="stable").tolist() for c in (base, out)]
        assert ranking[0] == ranking[1]
        for b, s in zip(base, out):
            # score has three probability factors and a sqrt of a product of
            # two more: uniform scaling by c multiplies every score by c^3...
            assert s.score == pytest.approx(b.score * c**3, rel=1e-9)
