"""Property tests: the array paths against their scalar references, on
generated inputs. Proposal, label, metric and manifest paths must match exactly;
batched featurize reorders floating-point sums, so it must match to 1e-12."""

import copy
import json
import math
import os
import pathlib
import re
import tempfile
from collections import OrderedDict
from dataclasses import astuple, replace
from operator import attrgetter
from unittest.mock import patch

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_fusion
from tapgen import fusion, supervision
from tapgen.cli import load_proposals, main
from tapgen.errors import (
    DataError,
    InvalidInputError,
    ManifestValidationError,
    TapgenError,
    TensorFormatError,
)
from tapgen.fusion import (
    BLOCK_SNIPPETS,
    FeatureMap,
    FileFeatureSource,
    FusionConfig,
    StubFeatureSource,
    featurize_video,
    load_weights,
    random_weights,
    save_weights,
)

from tapgen.inference import (
    Candidates,
    InferenceConfig,
    find_peaks,
    form_proposals,
    infer,
    soft_nms,
)
from tapgen.metrics import (
    ACTIVITYNET_THRESHOLDS,
    DEFAULT_AN_VALUES,
    THUMOS_THRESHOLDS,
    _match_sizes,
    evaluate,
)
from tapgen.supervision import (
    ScoreGrids,
    gen_boundary_labels,
    gen_duration_labels,
    max_duration,
    valid_cell_mask,
)
from tapgen.timeline import GroundTruthAction, broadcast_iou

from tapgen.tensorio import (
    Manifest,
    SnippetEntry,
    Snippets,
    Tensor,
    manifest_from_dict,
    manifest_to_dict,
    read_json,
    read_manifest,
    read_tensor,
    read_tensors,
    write_json,
    write_manifest,
    write_tensor,
)
from tapgen.timeline import VideoMeta

from test_fusion import (
    PerSnippetFileSource,
    PerSnippetStubSource,
    per_snippet_source_featurize_video,
    reference_featurize_video,
    write_feature_file,
)
from test_inference import (
    by_interval,
    mk,
    reference_find_peaks,
    reference_form_proposals,
    reference_soft_nms,
)
from test_metrics import brute_force_match_count, gt, si
from test_supervision import (
    brute_force_duration_labels,
    make_grid,
    random_gts,
    reference_boundary_labels,
    whole_grid_duration_labels,
    whole_grid_score_grid_error,
)
from test_tensorio import (
    layout_bytes,
    read_outcome,
    reference_manifest_from_dict,
    whole_file_read_tensor,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

# Few distinct scores, so exact ties are common and the (start, end)
# tie-break decides many selections.
tied_scores = st.sampled_from([0.0, 0.0005, 0.125, 0.5, 0.5, 0.75, 1.0])


@st.composite
def snippet_proposals(draw):
    snippet = draw(st.sampled_from([1.0, 0.5, 16 / 30]))
    n = draw(st.integers(0, 200))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 12), tied_scores | st.floats(0, 1)),
        min_size=n, max_size=n,
    ))
    return [mk(a, a + length, score, snippet) for a, length, score in rows]


@st.composite
def window_edge_proposals(draw):
    """Short disjoint selections, 4 snippets apart, so that each one's window
    leaves rows out on both sides. Around each, rows that touch its edges
    (start at its end, or end at its start: IoU 0) and rows that overlap it
    as the first or the last row of its window; and rows spanning many
    selections, which become contenders only after up to 70 have passed."""
    snippet = draw(st.sampled_from([1.0, 0.5, 16 / 30]))
    n = draw(st.integers(1, 70))
    props = []
    for i in range(n):
        a, w = 4 * i + 2, draw(st.integers(1, 2))
        props.append(mk(a, a + w, draw(st.sampled_from([1.0, 0.999, 0.99])), snippet))
        for kind in draw(st.lists(st.sampled_from(["before", "after", "first", "last"]),
                                  max_size=2)):
            k = draw(st.integers(1, 2))
            lo, hi = {"before": (a - k, a), "after": (a + w, a + w + k),
                      "first": (a - k, a + 1), "last": (a + w - 1, a + w + k)}[kind]
            props.append(mk(lo, hi, draw(tied_scores | st.floats(0.9, 1.0)), snippet))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, 4 * n))
        props.append(mk(a, a + draw(st.integers(1, 4 * n + 4)),
                        draw(st.sampled_from([0.5, 0.3, 0.3])), snippet))
    return props


@settings(PROPERTY, max_examples=40)
@given(
    props=snippet_proposals() | window_edge_proposals(),
    sigma=st.sampled_from([0.2, 0.4, 0.8]),
    floor=st.sampled_from([0.0, 0.001, 0.05]),
    top_k=st.integers(1, 200),
)
def test_soft_nms_matches_reference(props, sigma, floor, top_k):
    got = soft_nms(props, sigma=sigma, score_floor=floor, top_k=top_k)
    want = reference_soft_nms(props, sigma, floor, top_k)
    assert [(p.start_sec, p.end_sec, p.score) for p in got] == want


# A small pool, so plateaus and exact ties are common, with signed zeros,
# infinities and NaN among them; any float too.
peak_values = (st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 1.0, math.inf, -math.inf, math.nan])
               | st.floats())


@settings(PROPERTY, max_examples=200)
@given(
    p=st.lists(peak_values, min_size=1, max_size=40),
)
def test_find_peaks_matches_the_scan_reference(p):
    got = find_peaks(np.array(p))
    assert got == reference_find_peaks(np.array(p))
    assert all(type(i) is int for i in got)


def seeded_grids(seed: int, T: int, D: int, quantized: bool) -> ScoreGrids:
    """Valid score grids; quantized ones hold quarters only, so scores tie often."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.integers(0, 5, shape) / 4 if quantized else rng.random(shape)

    mask = valid_cell_mask(T, D)
    return ScoreGrids(start_probs=draw(T), end_probs=draw(T),
                      conf_cls=draw((D, T)) * mask, conf_reg=draw((D, T)) * mask)


snippet_shapes = st.sampled_from([(1, 1.0), (16, 30.0), (5, 30.0), (16, 29.97)])


@st.composite
def peak_lists(draw, T):
    """No peak, one, or many, in any order."""
    kind = draw(st.sampled_from(["none", "one", "many"]))
    size = {"none": 0, "one": 1, "many": draw(st.integers(min(2, T), T))}[kind]
    return draw(st.permutations(range(T)))[:size]


@PROPERTY
@given(
    T=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    quantized=st.booleans(),
    shape=snippet_shapes,
)
def test_form_proposals_matches_the_list_reference(T, data, seed, quantized, shape):
    """Columns hold the reference's proposals, bit for bit, in pairing order:
    each start peak as given, with its end peaks as given. Durations are
    bounded by the grids' D rows, which may be fewer than T."""
    grids = seeded_grids(seed, T, data.draw(st.integers(1, T)), quantized)
    grid = make_grid(T, *shape)
    starts, ends = data.draw(peak_lists(T)), data.draw(peak_lists(T))
    got = form_proposals(starts, ends, grids, grid)
    want = reference_form_proposals(starts, ends, grids, grid)
    ss = grid.snippet_seconds
    assert [p.interval for p in got] == [
        (s * ss, e * ss) for s in starts for e in ends if 1 <= e - s <= grids.D
    ]
    assert len(got) == len(want)
    assert [astuple(got[i]) for i in range(len(got))] == [astuple(p) for p in got]
    assert [astuple(p) for p in by_interval(got)] == [astuple(p) for p in by_interval(want)]


@settings(PROPERTY, max_examples=40)
@given(
    T=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    quantized=st.sampled_from([True, True, False]),
    shape=snippet_shapes,
    sigma=st.sampled_from([0.2, 0.4, 0.8]),
    floor=st.sampled_from([0.0, 0.001, 0.05]),
    top_k=st.integers(1, 12),
)
def test_infer_equals_soft_nms_of_the_score_sorted_reference(
    T, seed, quantized, shape, sigma, floor, top_k
):
    """Candidates in pairing order select what the score-sorted list of the
    reference selects, bit for bit: Soft-NMS breaks ties by (start, end),
    not by its input's order. Quarter-valued grids tie often."""
    grids = seeded_grids(seed, T, T, quantized)
    grid = make_grid(T, *shape)
    got = infer(grids, grid, InferenceConfig(sigma, floor, top_k))
    ranked = reference_form_proposals(find_peaks(grids.start_probs), find_peaks(grids.end_probs),
                                      grids, grid)
    want = soft_nms(ranked, sigma=sigma, score_floor=floor, top_k=top_k)
    assert isinstance(got, Candidates) and isinstance(want, Candidates)
    assert [astuple(p) for p in got] == [astuple(p) for p in want]
    assert [astuple(p) for p in got] == reference_soft_nms(ranked, sigma, floor, top_k)


@settings(PROPERTY, max_examples=20)
@given(
    T=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    quantized=st.booleans(),
    all_peaks=st.booleans(),
    shape=snippet_shapes,
    sigma=st.sampled_from([1e-300, 0.2, 0.4, 0.8]),
    floor=st.sampled_from([-1.0, 0.0, 0.001, 0.05]),
    top_k=st.sampled_from([1, 7, 100, "above n"]),
    n_dups=st.integers(0, 30),
)
# inputs the draws rarely reach: 1,540 and 1,770 candidates, top_k above 435
@example(T=56, seed=1, quantized=True, all_peaks=True, shape=(16, 30.0), sigma=0.4,
         floor=0.001, top_k=100, n_dups=30)
@example(T=60, seed=2, quantized=False, all_peaks=True, shape=(5, 30.0), sigma=1e-300,
         floor=-1.0, top_k=100, n_dups=10)
@example(T=30, seed=3, quantized=True, all_peaks=True, shape=(1, 1.0), sigma=0.8,
         floor=-1.0, top_k="above n", n_dups=20)
def test_soft_nms_matches_reference_on_dense_snippet_aligned_candidates(
    T, seed, quantized, all_peaks, shape, sigma, floor, top_k, n_dups
):
    """Up to 1,770 candidates over at most 60 snippets, so IoUs, and with them
    the decay arguments, repeat. sigma=1e-300 decays every overlap to 0; a
    negative floor lets zero scores through. The list input adds duplicate
    intervals, with equal and with other scores, and is shuffled."""
    if top_k == "above n":
        T = min(T, 30)  # the reference runs to exhaustion: O(n^2 log n)
    grids = seeded_grids(seed, T, T, quantized)
    if all_peaks:
        starts = ends = list(range(T))
    else:
        starts, ends = find_peaks(grids.start_probs), find_peaks(grids.end_probs)
    cands = form_proposals(starts, ends, grids, make_grid(T, *shape))
    k = len(cands) + 3 if top_k == "above n" else top_k
    rng = np.random.default_rng(seed)
    listed = list(cands)
    for i in rng.integers(0, len(listed), n_dups if listed else 0).tolist():
        p = listed[i]
        listed.append(p if rng.random() < 0.5 else replace(p, score=float(rng.random())))
    listed = [listed[i] for i in rng.permutation(len(listed))]
    for props in (cands, listed):
        got = soft_nms(props, sigma=sigma, score_floor=floor, top_k=k)
        assert [astuple(p) for p in got] == reference_soft_nms(props, sigma, floor, k)


@st.composite
def near_tie_proposals(draw):
    """Scores a few ulps around one base, exact ties, zeros and subnormals,
    so ranking scores from np.exp and exact ones from math.exp can order
    rows differently by an ulp."""
    snippet = draw(st.sampled_from([1.0, 0.5, 16 / 30]))
    base = draw(st.sampled_from([1.0, 0.75, 0.5, 0.3, 1e-300, 5e-324]) | st.floats(0, 1))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 6), st.sampled_from([0, 0, 1, -1, 2, "zero"])),
        max_size=60,
    ))
    props = []
    for a, length, ulps in rows:
        if ulps == "zero":
            score = 0.0
        else:
            score = base
            for _ in range(abs(ulps)):
                score = math.nextafter(score, 2.0 if ulps > 0 else 0.0)
        props.append(mk(a, a + length, min(score, 1.0), snippet))
    return props


@PROPERTY
@given(
    props=near_tie_proposals() | window_edge_proposals(),
    sigma=st.sampled_from([1e-300, 1e-3, 0.4, 50.0]),
    floor=st.sampled_from([-1.0, 0.0, 0.001]),
    top_k=st.sampled_from([1, 5, "above n"]),
)
def test_soft_nms_matches_reference_on_near_ties(props, sigma, floor, top_k):
    k = len(props) + 1 if top_k == "above n" else top_k
    got = soft_nms(props, sigma=sigma, score_floor=floor, top_k=k)
    assert [astuple(p) for p in got] == reference_soft_nms(props, sigma, floor, k)


@st.composite
def corpora(draw):
    """Integer-aligned intervals, so IoU often lands exactly on a threshold;
    some videos have no proposal list at all, some an empty one."""
    interval = st.integers(0, 8).flatmap(
        lambda a: st.integers(a + 1, a + 5).map(lambda b: (a, b))
    )
    props, gts = {}, {}
    for v in range(draw(st.integers(1, 4))):
        gts[f"v{v}"] = [gt(a, b) for a, b in draw(st.lists(interval, max_size=3))]
        kind = draw(st.sampled_from(["missing", "empty", "some"]))
        if kind != "missing":
            rows = [] if kind == "empty" else draw(st.lists(interval, min_size=1, max_size=6))
            props[f"v{v}"] = [si(a, b, 0.5) for a, b in rows]
    if not any(gts.values()):
        gts["v0"] = [gt(0, 2)]
    return props, gts


@PROPERTY
@given(
    corpus=corpora(),
    thresholds=st.lists(st.sampled_from([0.3, 0.5, 0.6, 0.75, 1.0]), min_size=1, max_size=4),
    an_values=st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_evaluate_matches_per_cell_brute_force(corpus, thresholds, an_values):
    props, gts = corpus
    total = sum(len(g) for g in gts.values())
    want = np.array([
        [
            sum(brute_force_match_count(props.get(v, []), g, t, an) for v, g in gts.items())
            / total
            for an in an_values
        ]
        for t in thresholds
    ])
    res = evaluate(props, gts, thresholds=tuple(thresholds), an_values=tuple(an_values))
    assert np.array_equal(res.per_tiou_recall, want)
    ar = want.mean(axis=0)
    ans = np.asarray(an_values, dtype=np.float64)
    if len(an_values) > 1:
        auc = 100.0 * float(np.trapezoid(ar, ans)) / (ans[-1] - ans[0])
    else:
        auc = 100.0 * float(ar[0])
    assert res.auc == auc


@PROPERTY
@given(
    corpus=corpora(),
    scores=st.lists(tied_scores, min_size=6, max_size=6),
    an_values=st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True).map(sorted),
)
def test_evaluate_ranks_each_video_by_score(corpus, scores, an_values):
    """Any list order scores as the same list sorted by score, descending,
    with ties kept in list order."""
    props, gts = corpus
    rescored = {
        v: [si(p.start_sec, p.end_sec, scores[i % len(scores)]) for i, p in enumerate(ps)]
        for v, ps in props.items()
    }
    ranked = {v: sorted(ps, key=lambda p: -p.score) for v, ps in rescored.items()}
    got = evaluate(rescored, gts, an_values=tuple(an_values))
    want = evaluate(ranked, gts, an_values=tuple(an_values))
    assert np.array_equal(got.per_tiou_recall, want.per_tiou_recall)


def reference_recall_table(proposals_per_video, gts_per_video, thresholds, an_values):
    """metrics._recall_table as it was before it read columns, kept verbatim
    but for names: Proposal objects sorted by score, then intervals to IoU."""
    total = sum(len(g) for g in gts_per_video.values())
    matched = np.zeros((len(thresholds), len(an_values)), dtype=np.int64)
    for vid, gts in gts_per_video.items():
        if not gts:
            continue
        ranked = sorted(proposals_per_video.get(vid, []), key=attrgetter("score"), reverse=True)
        p = np.array([pr.interval for pr in ranked[: max(an_values)]],
                     dtype=np.float64).reshape(-1, 2)
        g = np.array([gt.interval for gt in gts], dtype=np.float64).reshape(-1, 2)
        ious = broadcast_iou(p[:, :1], p[:, 1:], g[:, 0], g[:, 1])
        pick = np.minimum(an_values, len(ious))
        for i, t in enumerate(thresholds):
            matched[i] += np.asarray(_match_sizes(ious >= t))[pick]
    return matched / total


seconds = st.integers(0, 30).map(float) | st.floats(0.0, 30.0)
real_intervals = st.tuples(seconds, st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 8.0)).map(
    lambda r: (r[0], r[0] + r[1]))


@PROPERTY
@given(
    videos=st.lists(st.tuples(st.lists(real_intervals, max_size=3),
                              st.lists(st.tuples(real_intervals, tied_scores), max_size=30)),
                    min_size=1, max_size=4),
    thresholds=st.sampled_from([ACTIVITYNET_THRESHOLDS, THUMOS_THRESHOLDS, (0.1, 0.5, 1.0)]),
    an_values=st.sampled_from([DEFAULT_AN_VALUES, (1,), (2, 5, 9)]),
    form=st.sampled_from([list, iter, Candidates.of]),
)
def test_evaluate_matches_the_object_reference_bit_for_bit(videos, thresholds, an_values, form):
    """Columns ranked by a stable argsort give the object path's recall table
    and AUC bit for bit, ties among the few scores included; a video's
    proposals may be a list of Proposal, an iterator of them, or Candidates,
    as load_proposals gives."""
    gts = {f"v{v}": [gt(*iv) for iv in g] for v, (g, _) in enumerate(videos)}
    props = {f"v{v}": [si(*iv, score) for iv, score in ps] for v, (_, ps) in enumerate(videos)}
    if not any(gts.values()):
        gts["v0"] = [gt(0, 2)]
    want = reference_recall_table(props, gts, thresholds, an_values)
    res = evaluate({v: form(ps) for v, ps in props.items()}, gts, thresholds=thresholds,
                   an_values=an_values)
    assert res.per_tiou_recall.tobytes() == want.tobytes()
    ar = want.mean(axis=0)
    ans = np.asarray(an_values, dtype=np.float64)
    auc = (100.0 * float(np.trapezoid(ar, ans)) / (ans[-1] - ans[0]) if len(an_values) > 1
           else 100.0 * float(ar[0]))
    assert res.auc.hex() == auc.hex()


def bound_edge_ground_truths(recipes, T, D, ss):
    """Ground truths at the edges of the bound-ordered label search, from
    (kind, u, v) recipes whose integers pick quarter-snippet spans:
    - long: longer than D snippets, so the search starts at row D; where it
      spans several cells of row D, they tie at its maximum, a plateau;
    - short: shorter than one snippet;
    - grid: both edges on snippet edges;
    - shared: two of one length, whose best cells lie in one row;
    - tie: from n + 1/4 snippets before the video end to 2n - 1/4 past it,
      so that rows n and n + 1 tie at IoU 1/3, row n's bound."""
    q = ss / 4
    spans = []
    for kind, u, v in recipes:
        if kind == "long":
            spans.append((u % (4 * T), 4 * D + 1 + v % (4 * T)))
        elif kind == "short":
            spans.append((u % (4 * T + 4), 1 + v % 3))
        elif kind == "grid":
            spans.append((4 * (u % (T + 1)), 4 * (1 + v % (T + 1))))
        elif kind == "shared":
            spans += [(u % (4 * T), 1 + v % (4 * T)), (v % (4 * T), 1 + v % (4 * T))]
        elif min(D, T) >= 2:  # tie
            n = 1 + u % (min(D, T) - 1)
            spans.append((4 * (T - n) - 1, 12 * n))
    return [GroundTruthAction("g", a * q, (a + n) * q) for a, n in spans]


@PROPERTY
@given(
    T=st.integers(1, 40),
    d_frac=st.floats(0.01, 1.0) | st.just("half"),
    seed=st.integers(0, 2**32 - 1),
    n_gts=st.integers(0, 4),
    overhang=st.sampled_from([1.0, 1.5]),
    shape=snippet_shapes,
    recipes=st.lists(st.tuples(st.sampled_from(["long", "short", "grid", "shared", "tie"]),
                               st.integers(0, 2**16), st.integers(0, 2**16)), max_size=3),
)
@example(T=1, d_frac="half", seed=0, n_gts=1, overhang=1.5, shape=(16, 30.0),
         recipes=[("short", 1, 1), ("grid", 0, 0)])
@example(T=9, d_frac="half", seed=0, n_gts=0, overhang=1.0, shape=(1, 1.0),
         recipes=[("long", 0, 4), ("shared", 3, 9)])
# rows 3 and 4 tie at 1/3, row 3's bound; at 16/30 s a snippet, rounding lifts
# the IoU of row 1's cell 3 ulps above that row's bound, which only the slack covers
@example(T=12, d_frac=1.0, seed=0, n_gts=0, overhang=1.0, shape=(1, 1.0),
         recipes=[("tie", 2, 0)])
@example(T=6, d_frac=1.0, seed=0, n_gts=0, overhang=1.0, shape=(16, 30.0),
         recipes=[("tie", 0, 0)])
def test_duration_labels_match_exhaustive_scan(T, d_frac, seed, n_gts, overhang, shape,
                                               recipes):
    # overhang > 1 lets ground truths run past the video end, where only the
    # invalid-cell mask keeps cells beyond T out of the argmax
    grid = make_grid(T, *shape)
    D = max_duration(T, d_frac) if d_frac == "half" else max(1, int(T * d_frac))
    gts = random_gts(np.random.default_rng(seed), overhang * T * grid.snippet_seconds, n_gts)
    gts += bound_edge_ground_truths(recipes, T, D, grid.snippet_seconds)
    want = brute_force_duration_labels(grid, gts, D)
    assert np.array_equal(gen_duration_labels(grid, gts, D), want)


@PROPERTY
@given(
    T=st.integers(1, 40),
    shape=snippet_shapes,
    halves=st.lists(st.tuples(st.integers(0, 90), st.integers(1, 20)), max_size=5),
    floats=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=3),
)
def test_boundary_labels_match_one_argmin_per_timestamp(T, shape, halves, floats):
    """Times on half-snippet steps tie exactly between two centers; some lie
    past the video end."""
    grid = make_grid(T, *shape)
    half = grid.snippet_seconds / 2
    spans = [(a * half, (a + n) * half) for a, n in halves]
    spans += [(a * T * half, (a + b + 1e-3) * T * half) for a, b in floats]
    gts = [GroundTruthAction("g", a, b) for a, b in spans]
    got = gen_boundary_labels(grid, gts)
    want = reference_boundary_labels(grid, gts)
    assert got[2] == want[2]
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@PROPERTY
@given(
    T=st.integers(1, 24),
    d_frac=st.floats(0.01, 1.0),
    quarters=st.lists(st.tuples(st.integers(0, 110), st.integers(1, 40)), max_size=4),
    seed=st.integers(0, 2**32 - 1),
    n_random=st.integers(0, 2),
)
# one ground truth, past the end, whose best IoU ties in rows 1 and 2
@example(T=8, d_frac=1.0, quarters=[(27, 12)], seed=0, n_random=0)
def test_bound_ordered_duration_labels_equal_the_whole_grid_search(T, d_frac, quarters, seed,
                                                                   n_random):
    """The search that stops at the first row whose bound falls below the
    best IoU gives the labels of one whole-matrix search, bit for bit. Ends
    on quarter snippets make exact ties common, across rows too; many lie
    past the video end."""
    grid = make_grid(T)
    D = max(1, int(T * d_frac))
    q = grid.snippet_seconds / 4
    gts = [GroundTruthAction("g", a * q, (a + n) * q) for a, n in quarters]
    gts += random_gts(np.random.default_rng(seed), 1.5 * T * grid.snippet_seconds, n_random)
    want = whole_grid_duration_labels(grid, gts, D)
    got = gen_duration_labels(grid, gts, D)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# values in [0, 1], zeros of both signs among them, then values out of range
grid_values = (st.sampled_from([0.5, 1.0, 5e-324, 0.0, -0.0])
               | st.sampled_from([1.5, -0.25, math.nan, math.inf]))


@settings(PROPERTY, max_examples=200)
@given(
    T=st.integers(1, 12),
    d_frac=st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0),
    edits=st.lists(st.tuples(st.sampled_from(["conf_cls", "conf_reg", "start_probs"]),
                             st.sampled_from([True, True, False]), st.integers(0, 99),
                             grid_values), min_size=1, max_size=3),
    cells=st.integers(1, 40),
)
# one row per block; conf_reg has mass in an earlier block than conf_cls, which is named
@example(T=4, d_frac=1.0, edits=[("conf_cls", True, 5, 0.5), ("conf_reg", True, 0, 0.5)],
         cells=4)
def test_score_grids_reject_what_the_whole_grid_check_rejects(T, d_frac, edits, cells):
    """Checked in row blocks, ScoreGrids accepts the grids the whole-grid
    mask check accepted and names the same failure for the rest. An edit
    sets a valid or an invalid cell (j + d > T) of a conf grid."""
    D = max(1, int(T * d_frac))
    valid = valid_cell_mask(T, D)
    arrays = {"start_probs": np.full(T, 0.5), "end_probs": np.full(T, 0.25),
              "conf_cls": 0.5 * valid, "conf_reg": 0.75 * valid}
    for name, invalid, k, value in edits:
        a = arrays[name]
        at = np.argwhere(valid != invalid) if a.ndim == 2 else np.arange(T)[:, None]
        if len(at):
            a[tuple(at[k % len(at)])] = value
    want = whole_grid_score_grid_error(**arrays)
    with patch.object(supervision, "_BLOCK_CELLS", cells):
        try:
            ScoreGrids(**arrays)
            got = None
        except InvalidInputError as e:
            got = str(e)
    assert got == want


@PROPERTY
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    dtype=st.sampled_from(["f32", "f64"]),
    odd=st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
    cut=st.integers(-12, 12),
    header_byte=st.tuples(st.integers(0, 40), st.integers(0, 255)) | st.none(),
)
def test_read_tensor_equals_the_whole_file_read(dims, dtype, odd, cut, header_byte):
    """A file cut short or run long, with one header byte set, or a
    non-finite value: read_tensor gives the values or the error that
    parsing the whole file gave."""
    values = np.arange(1.0, math.prod(dims) + 1.0)
    values[-1] += odd
    blob = bytearray(layout_bytes(tuple(dims), dtype, values))
    if header_byte is not None:
        blob[header_byte[0] % len(blob)] = header_byte[1]
    blob = blob[:len(blob) + cut] if cut < 0 else blob + bytes(cut)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.aent")
        with open(path, "wb") as fh:
            fh.write(blob)
        assert read_outcome(read_tensor, path) == read_outcome(whole_file_read_tensor, path)


@PROPERTY
@given(kinds=st.lists(st.sampled_from(["f64", "f64", "f32", "non-finite", "truncated",
                                       "bad-version", "other-dims", "missing"]),
                      min_size=1, max_size=6),
       dims=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_read_tensors_stacks_each_files_read_tensor(kinds, dims):
    """read_tensors gives the np.stack of each file's read_tensor bit for
    bit, or the error of the first file that read_tensor refuses; a file
    of other dims than the first file's gets the reader's own error."""
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, f"t{i}.aent") for i in range(len(kinds))]
        for i, (path, kind) in enumerate(zip(paths, kinds)):
            shape = (*dims, 2) if kind == "other-dims" else tuple(dims)
            values = np.arange(1.0, math.prod(shape) + 1.0) + i / 3
            values[-1] = math.nan if kind == "non-finite" else values[-1]
            blob = bytearray(layout_bytes(shape, "f32" if kind == "f32" else "f64", values))
            if kind == "bad-version":
                blob[4] = 9
            if kind != "missing":
                with open(path, "wb") as fh:
                    fh.write(blob[:-1] if kind == "truncated" else blob)
        want, arrays = None, []
        for path in paths:
            try:
                array = read_tensor(path).array
            except (TensorFormatError, OSError) as e:
                want = type(e), str(e)
                break
            if arrays and array.shape != arrays[0].shape:
                want = TensorFormatError, (f"{path}: dims {array.shape}, expected "
                                           f"{arrays[0].shape} as in {paths[0]}")
                break
            arrays.append(array)
        try:
            block = read_tensors(paths)
        except (TensorFormatError, OSError) as e:
            assert (type(e), str(e)) == want
            return
    assert want is None and block.tobytes() == np.stack(arrays).tobytes()
    assert block.shape == (len(paths), *arrays[0].shape)


def test_duration_labels_spot_checks_at_long_videos():
    rng = np.random.default_rng(77)
    for T, D in ((120, 120), (200, 64), (200, 200)):
        grid = make_grid(T, snippet_len=5, fps=30.0)
        gts = random_gts(rng, T * grid.snippet_seconds, 3)
        # a snippet-aligned action too, whose best cell has IoU exactly 1
        gts.append(GroundTruthAction("g", 10 * grid.snippet_seconds, 42 * grid.snippet_seconds))
        assert np.array_equal(
            gen_duration_labels(grid, gts, D), brute_force_duration_labels(grid, gts, D)
        )


# ---------------------------------------------------------------------------
# Batched featurize against the per-snippet reference
# ---------------------------------------------------------------------------

FUSION_CONFIGS = (
    FusionConfig(channels=3, d_model=8, num_heads=2, num_layers=1, ff_dim=16),
    FusionConfig(channels=2, d_model=6, num_heads=3, num_layers=2, ff_dim=8),
)
SMALL_BLOCK = 8
# (T, snippets per featurize block). At a small block patched in, T below,
# at and just past one and two block boundaries, where each property runs
# its full examples. At the real block, one example each: T of the desk
# corpus (64..128), one block per video, and T at the same edges.
BLOCK_EDGES = [pytest.param(T, SMALL_BLOCK, id=str(T)) for T in (1, 7, 8, 9, 19)] + [
    pytest.param(T, BLOCK_SNIPPETS, id=str(T))
    for T in (63, 64, 65, 131,
              BLOCK_SNIPPETS - 1, BLOCK_SNIPPETS, BLOCK_SNIPPETS + 1, 2 * BLOCK_SNIPPETS + 3)
]


def at_block_size(T, block, max_examples, prop):
    """Run prop(T, data, cfg) as a property with block snippets per featurize
    block, in featurize_video and its per-snippet reference alike:
    max_examples times at the small block, once at the real one."""
    run = settings(PROPERTY, max_examples=max_examples if block == SMALL_BLOCK else 1)(
        given(data=st.data(), cfg=st.sampled_from(FUSION_CONFIGS))(
            lambda data, cfg: prop(T, data, cfg)))
    with patch.object(fusion, "BLOCK_SNIPPETS", block), \
            patch.object(test_fusion, "BLOCK_SNIPPETS", block):
        run()


class MapSource:
    """Feature maps handed out by snippet index, as a feature source; the
    maps of one block share a shape."""

    def __init__(self, maps):
        self.maps = maps

    def get(self, video_id, snippet_index, entry, shape=None):
        fmap = self.maps[snippet_index]
        if fmap is None:
            raise DataError(f"video {video_id!r}: no feature file for snippet {snippet_index}")
        return fmap

    def get_block(self, video_id, indices, entries):
        return np.stack([self.get(video_id, i, e).values for i, e in zip(indices, entries)])


def random_box(rng):
    x1, y1 = rng.uniform(0.0, 0.95, 2)
    return (float(x1), float(y1),
            float(rng.uniform(x1 + 0.01, 1.0)), float(rng.uniform(y1 + 0.01, 1.0)))


def block_video(T, counts, size, channels, seed, listed=None):
    """A manifest with counts[i] boxes on snippet i (snippets not in listed
    are absent from it) and a source of [channels, *size] maps."""
    rng = np.random.default_rng(seed)
    listed = range(T) if listed is None else listed
    meta = VideoMeta(video_id="blk", num_frames=T * 8, fps=8.0, snippet_len=8)
    snippets = tuple(
        SnippetEntry(index=i, feature_file=None,
                     agent_boxes=tuple(random_box(rng) for _ in range(counts[i])))
        for i in listed
    )
    maps = [FeatureMap(values=rng.standard_normal((channels, *size))) for _ in range(T)]
    return Manifest(video=meta, annotations=(), snippets=snippets), MapSource(maps)


@st.composite
def block_videos(draw, T):
    counts = draw(st.lists(st.integers(0, 4), min_size=T, max_size=T))
    size = draw(st.sampled_from([(8, 8), (1, 1), (3, 5), (6, 4), (2, 7)]))  # one per video
    listed = [i for i in range(T) if draw(st.booleans()) or counts[i]]
    return T, counts, size, listed, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("T, block", BLOCK_EDGES)
def test_batched_featurize_matches_per_snippet(T, block):
    at_block_size(T, block, 6, batched_featurize_property)


def batched_featurize_property(T, data, cfg):
    _, counts, size, listed, seed = data.draw(block_videos(T))
    manifest, source = block_video(T, counts, size, cfg.channels, seed, listed)
    w = random_weights(cfg, seed=seed % 1000)
    got = featurize_video(manifest, w, source)
    want = reference_featurize_video(manifest, w, source)
    assert got.shape == (T, cfg.d_model)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def small_fusion_configs(draw):
    num_heads = draw(st.integers(1, 3))
    return FusionConfig(channels=draw(st.integers(1, 4)),
                        d_model=num_heads * draw(st.integers(1, 4)), num_heads=num_heads,
                        num_layers=draw(st.integers(1, 3)), ff_dim=draw(st.integers(1, 8)))


@settings(PROPERTY, max_examples=25)
@given(cfg=small_fusion_configs(), seed=st.integers(0, 2**32 - 1), video=block_videos(9))
def test_a_saved_bundle_loads_as_the_same_model(cfg, seed, video):
    """load_weights(save_weights(w)) has w's config and every parameter of
    w bit for bit, and featurizes a video to the same bytes."""
    w = random_weights(cfg, seed)
    with tempfile.TemporaryDirectory() as d:
        save_weights(w, d)
        back = load_weights(d)
    assert back.config == cfg
    got, want = back.params, w.params
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name
    T, counts, size, listed, video_seed = video
    manifest, source = block_video(T, counts, size, cfg.channels, video_seed, listed)
    assert (featurize_video(manifest, back, source).tobytes()
            == featurize_video(manifest, w, source).tobytes())


@settings(PROPERTY, max_examples=40)
@given(T=st.integers(0, 2 * BLOCK_SNIPPETS + 2), dims=st.tuples(*[st.integers(1, 4)] * 3),
       seed=st.integers(0, 2**64), video=st.text(max_size=8), data=st.data())
def test_any_cut_into_stub_blocks_gives_the_bytes_of_one_call(T, dims, seed, video, data):
    """Cutting [0, T) into contiguous blocks, empty ones included, gives the
    stub maps of one call over [0, T): a map depends on its snippet alone."""
    edges = [0, *sorted(data.draw(st.lists(st.integers(0, T), max_size=6))), T]
    whole = fusion.stub_backbone(video, 0, T, dims, seed)
    blocks = [fusion.stub_backbone(video, a, b, dims, seed) for a, b in zip(edges, edges[1:])]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("T, block", BLOCK_EDGES)
def test_block_sources_match_the_per_snippet_sources_bit_for_bit(T, block):
    """The stub, file and in-memory sources, handing over a block of maps
    per call, give featurize_video the same bits as one get per snippet;
    a file manifest with absent snippets fails the same way on both."""
    at_block_size(T, block, 6, block_sources_property)


def block_sources_property(T, data, cfg):
    _, counts, size, listed, seed = data.draw(block_videos(T))
    manifest, maps = block_video(T, counts, size, cfg.channels, seed, listed)
    w = random_weights(cfg, seed=seed % 1000)

    def outcome(run, source, m):
        try:
            return "ok", run(m, w, source)
        except Exception as e:  # the type and message are what is compared
            return type(e), str(e)

    def same(new_source, old_source, m):
        got, want = outcome(featurize_video, new_source, m), outcome(
            per_snippet_source_featurize_video, old_source, m)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert np.array_equal(got[1], want[1])
        else:
            assert got == want
        return got[0]

    assert same(maps, maps, manifest) == "ok"
    dims = (cfg.channels, *size)
    assert same(StubFeatureSource(seed, dims), PerSnippetStubSource(seed, dims), manifest) == "ok"
    entries = {s.index: s for s in manifest.snippets}
    every = tuple(replace(entries.get(i, SnippetEntry(index=i, feature_file=None)),
                          feature_file=f"s{i}.aent") for i in range(T))
    with tempfile.TemporaryDirectory() as d:
        for i, fmap in enumerate(maps.maps):
            write_tensor(Tensor.from_array(fmap.values), os.path.join(d, f"s{i}.aent"))
        files = (FileFeatureSource(d), PerSnippetFileSource(d))
        assert same(*files, replace(manifest, snippets=every)) == "ok"
        listed_only = tuple(s for s in every if s.index in set(listed))
        expected = "ok" if len(listed) == T else DataError
        assert same(*files, replace(manifest, snippets=listed_only)) == expected


@pytest.mark.parametrize("T, block", BLOCK_EDGES)
def test_featurize_reads_snippet_columns_as_the_tuple_they_stand_for(T, block):
    """featurize_video gives the same bits, or the same error, on a manifest
    built from a tuple of SnippetEntry in index order, on one built from
    the entries shuffled, and on that one read back from its file, with the
    in-memory, stub and file sources."""
    at_block_size(T, block, 4, snippet_columns_property)


def snippet_columns_property(T, data, cfg):
    _, counts, size, listed, seed = data.draw(block_videos(T))
    manifest, maps = block_video(T, counts, size, cfg.channels, seed, listed)
    named = tuple(replace(s, feature_file=f"s{s.index}.aent") for s in manifest.snippets)
    in_order = replace(manifest, snippets=named)
    order = data.draw(st.permutations(range(len(named))))
    manifest = replace(manifest, snippets=tuple(named[k] for k in order))
    w = random_weights(cfg, seed=seed % 1000)

    def outcome(m, source):
        try:
            return "ok", featurize_video(m, w, source)
        except Exception as e:  # the type and message are what is compared
            return type(e), str(e)

    with tempfile.TemporaryDirectory() as d:
        write_manifest(manifest, os.path.join(d, "m.json"))
        columns = read_manifest(os.path.join(d, "m.json"))
        assert isinstance(columns.snippets, Snippets) and columns == manifest
        for i, fmap in enumerate(maps.maps):
            write_tensor(Tensor.from_array(fmap.values), os.path.join(d, f"s{i}.aent"))
        sources = (maps, StubFeatureSource(seed, (cfg.channels, *size)), FileFeatureSource(d))
        for source in sources:
            want = outcome(in_order, source)
            for got in (outcome(manifest, source), outcome(columns, source)):
                assert got[0] == want[0]
                if got[0] == "ok":
                    assert np.array_equal(got[1], want[1])
                else:
                    assert source is sources[2] and len(listed) < T and got == want


def test_batched_featurize_channel_mismatch_in_a_later_block():
    cfg = FUSION_CONFIGS[0]
    T = BLOCK_SNIPPETS + 3
    manifest, source = block_video(T, [1] * T, (4, 4), cfg.channels, seed=5)
    for i in range(BLOCK_SNIPPETS, T):
        source.maps[i] = FeatureMap(values=np.ones((cfg.channels + 1, 4, 4)))
    with pytest.raises(DataError) as e:
        featurize_video(manifest, random_weights(cfg, seed=1), source)
    assert str(e.value) == (f"video 'blk': snippets {BLOCK_SNIPPETS}..{T - 1} have maps of "
                            "shape (4, 4, 4), expected (3, 4, 4) as in snippet 0")


@pytest.mark.parametrize("kind", ["memory", "files"])
def test_a_later_block_of_another_shape_is_a_data_error(tmp_path, kind):
    """Whether a video is accepted does not depend on BLOCK_SNIPPETS: a
    block of one shape is rejected when an earlier block has another."""
    cfg = FUSION_CONFIGS[0]
    T = 2 * SMALL_BLOCK + 3
    manifest, source = block_video(T, [1] * T, (4, 4), cfg.channels, seed=7)
    for i in range(2 * SMALL_BLOCK, T):
        source.maps[i] = FeatureMap(values=np.ones((cfg.channels, 5, 3)))
    if kind == "files":
        for i, fmap in enumerate(source.maps):
            write_tensor(Tensor.from_array(fmap.values), tmp_path / f"s{i}.aent")
        manifest = replace(manifest, snippets=tuple(
            replace(s, feature_file=f"s{s.index}.aent") for s in manifest.snippets))
        source = FileFeatureSource(tmp_path)
    w = random_weights(cfg, seed=1)
    want = (f"video 'blk': snippets {2 * SMALL_BLOCK}..{T - 1} have maps of shape "
            "(3, 5, 3), expected (3, 4, 4) as in snippet 0")
    with patch.object(fusion, "BLOCK_SNIPPETS", SMALL_BLOCK):
        with pytest.raises(DataError, match=rf"^{re.escape(want)}$"):
            featurize_video(manifest, w, source)
    if kind == "files":  # in one block, the file of another shape than the first is named
        with patch.object(fusion, "BLOCK_SNIPPETS", T), pytest.raises(
                DataError, match=rf"s{2 * SMALL_BLOCK}\.aent has shape \(3, 5, 3\), expected"):
            featurize_video(manifest, w, source)


def test_batched_featurize_missing_file_names_video_and_snippet(tmp_path):
    cfg = FUSION_CONFIGS[0]
    T = 2 * BLOCK_SNIPPETS + 3
    missing = BLOCK_SNIPPETS + 7
    write_tensor(Tensor.from_array(np.ones((cfg.channels, 4, 4))), tmp_path / "map.aent")
    manifest, _ = block_video(T, [2] * T, (4, 4), cfg.channels, seed=6)
    snippets = tuple(
        replace(s, feature_file="gone.aent" if s.index == missing else "map.aent")
        for s in manifest.snippets
    )
    manifest = replace(manifest, snippets=snippets)
    with pytest.raises(DataError, match=rf"video 'blk': feature file .*gone\.aent for snippet {missing} "):
        featurize_video(manifest, random_weights(cfg, seed=1), FileFeatureSource(tmp_path))


# Mostly valid files, so blocks of one layout and blocks of several both
# occur, with every kind of bad file among them.
feature_file_kinds = st.sampled_from(
    ["f64"] * 8 + ["f32"] * 3 + ["other-shape", "same-length-other-shape", "same-length-f32",
                                 "2-d", "non-finite", "non-finite-f32", "non-finite-other-shape",
                                 "bad-version", "truncated", "trailing-bytes", "trailing-bytes-f32",
                                 "directory", "missing", "unnamed"])


@settings(PROPERTY, max_examples=80)
@given(kinds=st.lists(feature_file_kinds, min_size=1, max_size=12),
       block=st.sampled_from([1, 3, 8]))
def test_file_source_matches_the_per_snippet_source_on_any_mix_of_files(kinds, block):
    """The block file reader gives the per-snippet reader's bits, or its
    error type and message, whatever files a block holds."""
    cfg = FUSION_CONFIGS[0]
    snippets = tuple(
        SnippetEntry(index=i, feature_file=None if kind == "unnamed" else f"s{i}.aent",
                     agent_boxes=((0.1, 0.2, 0.6, 0.9),) * (i % 3))
        for i, kind in enumerate(kinds)
    )
    meta = VideoMeta(video_id="mix", num_frames=8 * len(kinds), fps=8.0, snippet_len=8)
    manifest = Manifest(video=meta, annotations=(), snippets=snippets)
    w = random_weights(cfg, seed=len(kinds))

    def outcome(run, source):
        try:
            return "ok", run(manifest, w, source).tobytes()
        except Exception as e:  # the type and message are what is compared
            return type(e), str(e)

    with tempfile.TemporaryDirectory() as d:
        for i, kind in enumerate(kinds):
            write_feature_file(pathlib.Path(d) / f"s{i}.aent", kind, shift=i / 3)
        with patch.object(fusion, "BLOCK_SNIPPETS", block), \
                patch.object(test_fusion, "BLOCK_SNIPPETS", block):
            got = outcome(featurize_video, FileFeatureSource(d))
            want = outcome(per_snippet_source_featurize_video, PerSnippetFileSource(d))
    assert got == want


@settings(PROPERTY, max_examples=150)
@given(first=st.sampled_from(["f64", "f32"]) | feature_file_kinds,
       rest=st.lists(feature_file_kinds, max_size=5), absolute=st.booleans(), slash=st.booleans())
def test_a_block_read_gives_the_per_file_reference_bytes_or_error(first, rest, absolute, slash):
    """FileFeatureSource.get_block gives the bytes of its files read one at a
    time by the whole-file reference reader, or the error type and message
    of the first that fails. Its paths are os.path.join's, for a base with
    or without a final slash and for absolute file names. A valid first
    file is drawn more often, as only the files after it are read in one
    readv."""
    kinds = [first, *rest]

    def outcome(read):
        try:
            return "ok", read().tobytes()
        except Exception as e:  # the type and message are what is compared
            return type(e), str(e)

    def per_file_block():
        source, maps = PerSnippetFileSource(base), []
        with patch.object(test_fusion, "read_tensor", whole_file_read_tensor):
            for i, f in enumerate(files):
                entry = SnippetEntry(index=i, feature_file=f)
                maps.append(source.get("v", i, entry, maps[0].values.shape if maps else None))
        return np.stack([m.values for m in maps])

    with tempfile.TemporaryDirectory() as d:
        for i, kind in enumerate(kinds):
            write_feature_file(pathlib.Path(d) / f"s{i}.aent", kind, shift=i / 3)
        base = d + "/" if slash else d
        files = [None if kind == "unnamed" else os.path.join(d, f"s{i}.aent") if absolute
                 else f"s{i}.aent" for i, kind in enumerate(kinds)]
        got = outcome(lambda: FileFeatureSource(base).get_block("v", range(len(kinds)), files))
        want = outcome(per_file_block)
    assert got == want


# ---------------------------------------------------------------------------
# Parser fuzzing: malformed input fails with the parser's own error type
# ---------------------------------------------------------------------------

# Any JSON value, NaN and +-inf included (Python's json reads and writes them).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@PROPERTY
@given(
    dtype=st.sampled_from(["f32", "f64"]),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
    cut=st.integers(0, 10**6),
    tail=st.binary(max_size=12),
)
def test_tensor_parser_raises_only_tensor_format_error(dtype, edits, cut, tail):
    """read_tensor raises only TensorFormatError, and read_tensors of the
    file twice raises its error, else gives its bits twice."""
    blob = bytearray(layout_bytes((2, 3), dtype, np.arange(1.0, 7.0)))
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    blob = bytes(blob[: cut % (len(blob) + 1)]) + tail
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.aent")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            t = read_tensor(path)
        except TensorFormatError as e:
            with pytest.raises(TensorFormatError, match=rf"^{re.escape(str(e))}$"):
                read_tensors([path, path])
            return
        block = read_tensors([path, path])
    assert t.array.dtype == np.float64 and np.isfinite(t.array).all()
    assert block.shape == (2, *t.dims) and block.tobytes() == t.array.tobytes() * 2


def valid_manifest_doc():
    return {
        "video": {"video_id": "v", "num_frames": 170, "fps": 16.0, "snippet_len": 16,
                  "duration_seconds": 10.625},
        "annotations": [{"label": "a", "start_sec": 1.0, "end_sec": 4.0}],
        "snippets": [{"index": 0, "feature_file": "f.aent",
                      "agent_boxes": [[0.1, 0.2, 0.5, 0.6]]}],
    }


MANIFEST_FIELDS = [
    (), ("video",), ("video", "video_id"), ("video", "num_frames"), ("video", "fps"),
    ("video", "snippet_len"), ("video", "duration_seconds"),
    ("annotations",), ("annotations", 0), ("annotations", 0, "label"),
    ("annotations", 0, "start_sec"), ("annotations", 0, "end_sec"),
    ("snippets",), ("snippets", 0), ("snippets", 0, "index"), ("snippets", 0, "feature_file"),
    ("snippets", 0, "agent_boxes"), ("snippets", 0, "agent_boxes", 0),
    ("snippets", 0, "agent_boxes", 0, 2),
]


@PROPERTY
@given(field=st.sampled_from(MANIFEST_FIELDS), value=json_values)
def test_manifest_parser_raises_only_validation_error(field, value):
    doc = valid_manifest_doc()
    if field:
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
    else:
        doc = value
    try:
        m = manifest_from_dict(doc)
    except ManifestValidationError:
        return
    video = m.video
    assert math.isfinite(video.duration_seconds) and video.duration_seconds > 0
    assert math.isfinite(video.snippet_seconds) and video.snippet_seconds > 0
    T = video.num_frames // video.snippet_len
    assert T >= 1
    for a in m.annotations:
        assert 0 <= a.start_sec < a.end_sec <= video.duration_seconds + 1e-9
    assert all(0 <= s.index < T for s in m.snippets)


# Box coordinates: valid ones, mixed with every kind the checks reject.
odd_coords = st.sampled_from(
    [0, 1, 2, -1, True, False, "0.5", None, [0.5], 10**400, 2**70, math.nan, math.inf,
     -math.inf, -0.0, 1.0000001, -1e-300, 5e-324]
)
unit = st.floats(0.0, 1.0)


@st.composite
def boxes(draw):
    x1, x2, y1, y2 = sorted(draw(st.tuples(unit, unit))) + sorted(draw(st.tuples(unit, unit)))
    box = [x1, y1, x2, y2]
    kind = draw(st.sampled_from(["ordered"] * 6 + ["ints"] * 2 + ["odd", "swapped", "length"]))
    if kind == "ints":  # the unit square's edges as JSON integers
        box = [0, 0, 1, 1] if draw(st.booleans()) else [0, y1, 1, y2]
    elif kind == "odd":
        box[draw(st.integers(0, 3))] = draw(odd_coords)
    elif kind == "swapped":
        box = [x2, y1, x1, y2] if draw(st.booleans()) else [x1, y2, x2, y1]
    elif kind == "length":
        box = draw(st.sampled_from([box[:3], box + [0.5], [], {"x1": x1}, None, "box"]))
    return box


@st.composite
def snippet_entries(draw):
    """Mostly valid entries, so that most manifests reach the box checks."""
    entry = {"index": draw(st.integers(0, 9))}
    if draw(st.integers(0, 3)):
        entry["agent_boxes"] = draw(st.lists(boxes(), max_size=4))
    if draw(st.booleans()):
        entry["feature_file"] = draw(st.sampled_from([None, "f.aent"]))
    if draw(st.sampled_from([False] * 9 + [True])):
        key, value = draw(st.sampled_from([
            ("index", -1), ("index", 10), ("index", 2.0), ("index", True), ("index", "3"),
            ("agent_boxes", None), ("agent_boxes", "boxes"), ("feature_file", 3),
        ]))
        entry[key] = value
    return entry


@settings(PROPERTY, max_examples=400)
@given(
    snippets=st.lists(snippet_entries(), max_size=6, unique_by=lambda s: repr(s["index"]))
    | st.lists(snippet_entries(), max_size=6)
)
def test_manifest_boxes_match_the_box_by_box_reference(snippets):
    """Array box checks accept exactly what the per-box loop accepts, with
    the same values, and otherwise raise the same error (first in order)."""
    doc = valid_manifest_doc()
    doc["snippets"] = snippets

    def outcome(parse):
        try:
            m = parse(copy.deepcopy(doc))
        except Exception as e:  # the type and message are what is compared
            return type(e), str(e)
        return "ok", m

    assert outcome(manifest_from_dict) == outcome(reference_manifest_from_dict)


@st.composite
def odd_snippet_entries(draw):
    """Snippet entries broken in one way each, or not at all: every check
    the whole-list pass makes, and values of the types JSON can give."""
    entry = draw(snippet_entries())
    kind = draw(st.sampled_from(["valid"] * 4 + ["not a dict", "unknown key", "no index",
                                                 "index", "feature_file", "agent_boxes"]))
    if kind == "not a dict":
        return draw(st.sampled_from([None, 3, 0.5, True, "snippet", [], [entry]]))
    if kind == "unknown key":
        entry[draw(st.sampled_from(["Index", "boxes", "", "feature"]))] = 0
    elif kind == "no index":
        del entry["index"]
    elif kind == "index":
        entry["index"] = draw(st.sampled_from(
            [True, False, 0.0, 3.0, 2.5, 10**400, -10**400, 2**63, -1, 10, 11, math.nan,
             math.inf, None, "0", [0], {"i": 0}]))
    elif kind == "feature_file":
        entry["feature_file"] = draw(st.sampled_from([3, 0.5, True, False, ["f.aent"], {}, "", "a\x00b.aent"]))
    elif kind == "agent_boxes":
        entry["agent_boxes"] = draw(
            st.sampled_from([None, 0, True, "boxes", {}, {"a": [0, 0, 1, 1]}]))
    return entry


@settings(PROPERTY, max_examples=400)
@given(
    snippets=st.lists(odd_snippet_entries(), max_size=6)
    | st.lists(odd_snippet_entries(), max_size=6,
               unique_by=lambda s: repr(s.get("index") if isinstance(s, dict) else s))
    | st.lists(snippet_entries(), min_size=8, max_size=12)  # duplicates across the list
)
def test_manifest_snippet_checks_match_the_entry_by_entry_reference(snippets):
    """The whole-list snippet checks accept exactly what the entry-by-entry
    loop accepts, with the same values, and otherwise raise the same error
    (first in order)."""
    doc = valid_manifest_doc()
    doc["snippets"] = snippets

    def outcome(parse):
        try:
            m = parse(copy.deepcopy(doc))
        except Exception as e:  # the type and message are what is compared
            return type(e), str(e)
        return "ok", m

    assert outcome(manifest_from_dict) == outcome(reference_manifest_from_dict)


class Dict(dict):
    pass


class List(list):
    pass


class Str(str):
    pass


class Int(int):
    pass


@st.composite
def recast(draw, value):
    """value with each dict, list, str, int and float in it kept or swapped
    for a subclass (OrderedDict, np.float64 or one of the classes above),
    as a Python caller, not a JSON file, may build a manifest document."""
    if isinstance(value, dict):
        kind = draw(st.sampled_from([dict, Dict, OrderedDict]))
        return kind({draw(recast(k)): draw(recast(v)) for k, v in value.items()})
    if isinstance(value, list):
        return draw(st.sampled_from([list, List]))([draw(recast(v)) for v in value])
    kinds = {str: [str, Str], int: [int, Int], float: [float, np.float64]}.get(type(value))
    return draw(st.sampled_from(kinds))(value) if kinds else value


@settings(PROPERTY, max_examples=150)
@given(snippets=(st.lists(odd_snippet_entries(), max_size=6)
                 | st.lists(snippet_entries(), max_size=6)).flatmap(recast))
@example(snippets=[{"index": 0, "agent_boxes": [[np.float64(0.1), 0.2, 0.5, 0.6]]}])
@example(snippets=[OrderedDict(index=1), Dict(index=Int(2), feature_file=Str("f.aent"),
                                              agent_boxes=List([List([0, 0, 1, 1])]))])
def test_manifest_snippets_are_columns_or_the_reference_error(snippets):
    """One builder: every snippet list either gives Snippets columns, never
    a tuple, equal to the reference's entries, or raises the reference's
    error type and message."""
    doc = valid_manifest_doc()
    doc["snippets"] = snippets
    try:
        want = reference_manifest_from_dict(doc)
    except Exception as e:  # the type and message are what is compared
        with pytest.raises(type(e)) as got:
            manifest_from_dict(doc)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    m = manifest_from_dict(doc)
    assert isinstance(m.snippets, Snippets) and m.snippets == want.snippets


def reference_snippet_dicts(entries) -> list:
    """manifest_to_dict's snippets as it wrote them before it read columns,
    kept verbatim: one dict per SnippetEntry."""
    return [
        {
            "index": s.index,
            "feature_file": s.feature_file,
            "agent_boxes": [list(b) for b in s.agent_boxes],
        }
        for s in entries
    ]


float_box = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                      st.floats(0.0, 1.0)).filter(lambda b: b[0] < b[2] and b[1] < b[3])


@st.composite
def valid_entries(draw):
    """A valid tuple of SnippetEntry with float boxes, indices in any order."""
    T = draw(st.integers(1, 12))
    indices = draw(st.lists(st.integers(0, T - 1), unique=True, max_size=T))
    # names a file may hold: no NUL, and no lone surrogate, which UTF-8 cannot encode
    files = st.none() | st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)
    entries = tuple(SnippetEntry(i, draw(files), tuple(draw(st.lists(float_box, max_size=3))))
                    for i in indices)
    return T, entries


@PROPERTY
@given(video=valid_entries(),
       annotations=st.lists(st.tuples(st.floats(0.0, 0.4), st.floats(0.5, 1.0)), max_size=3))
def test_manifest_writer_matches_the_entry_reference_and_round_trips(video, annotations):
    """The columns write the bytes the entry-by-entry writer wrote, and a
    written manifest reads back as an equal one."""
    T, entries = video
    meta = VideoMeta(video_id="v", num_frames=16 * T, fps=16.0, snippet_len=16)
    anns = tuple(GroundTruthAction("a", a * T, b * T) for a, b in annotations)
    m = Manifest(video=meta, annotations=anns, snippets=entries)
    got = manifest_to_dict(m)["snippets"]
    want = reference_snippet_dicts(entries)
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    with tempfile.TemporaryDirectory() as d:
        write_manifest(m, os.path.join(d, "m.json"))
        back = read_manifest(os.path.join(d, "m.json"))
    assert back == m and tuple(back.snippets) == entries


proposal_numbers = st.floats() | json_values
proposal_entries = st.fixed_dictionaries(
    {"t_start_sec": proposal_numbers, "t_end_sec": proposal_numbers, "score": proposal_numbers}
)


@PROPERTY
@given(
    doc=st.lists(proposal_entries | json_values, max_size=4) | json_values,
    cut=st.none() | st.integers(0, 200),
)
def test_proposal_loader_raises_only_invalid_input_error(doc, cut):
    payload = json.dumps(doc).encode()
    if cut is not None:
        payload = payload[:cut]
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "v.proposals.json"), "wb") as fh:
            fh.write(payload)
        try:
            proposals = load_proposals(d, "v")
        except InvalidInputError:
            return
    for p in proposals:
        assert math.isfinite(p.start_sec) and p.start_sec < p.end_sec
        assert math.isfinite(p.end_sec) and 0.0 <= p.score <= 1.0


# Documents write_json is given: finite floats, -0.0 and 1e-09 among them,
# ints beyond 64 bits, and strings outside ASCII.
written_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e-09, 2**63, -(2**64) - 1]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=10,
)


@PROPERTY
@given(doc=written_documents)
@example(doc={"é": ["ü\n", -0.0, 1e-09, 2**63 + 1, True, None], "a": {"z": 0, "b": -(2**70)}})
def test_write_json_writes_one_line_that_read_json_reads_back(doc):
    """write_json writes json.dumps(doc, sort_keys=True) and a newline, and
    read_json gives back the doc: the same values of the same types."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        write_json(path, doc)
        with open(path, "rb") as fh:
            payload = fh.read()
        assert payload == json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n"
        assert payload.count(b"\n") == 1
        back = read_json(path)
    assert back == doc and json.dumps(back, sort_keys=True) == json.dumps(doc, sort_keys=True)


# Field names of the four JSON files tapgen reads, so that generated objects
# reach the field checks as well as the decoder.
JSON_KEYS = st.sampled_from([
    "video", "annotations", "snippets", "video_id", "num_frames", "fps", "snippet_len",
    "index", "t_start_sec", "t_end_sec", "score", "config", "params", "channels", "d_model",
    "num_heads", "num_layers", "ff_dim", "seed", "workers", "keep_going", "n_videos",
    "t_max", "d_policy", "sigma", "top_k", "preset", "write_grids",
]) | st.text(max_size=4)
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=4,
)
# file name and reader of each library JSON reader, and the options it decodes with
JSON_READERS = {
    "manifest": ("m.json", lambda d: read_manifest(os.path.join(d, "m.json")), {}),
    "proposals": ("v.proposals.json", lambda d: load_proposals(d, "v"), {"parse_int": float}),
    "index": ("index.json", load_weights, {}),
}


def decodes(payload: bytes, **options) -> bool:
    try:
        json.loads(payload.decode("utf-8"), **options)
    except (ValueError, RecursionError):
        return False
    return True


@settings(PROPERTY, max_examples=150)
@given(
    kind=st.sampled_from([*JSON_READERS, "config"]),
    payload=st.binary(max_size=40) | st.one_of(
        json_documents,
        st.dictionaries(JSON_KEYS, json_documents, min_size=1, max_size=6),  # top level objects
        st.lists(st.dictionaries(JSON_KEYS, json_documents, max_size=3), max_size=3),
    ).map(lambda doc: json.dumps(doc).encode()),
    cut=st.none() | st.integers(0, 60),
)
def test_every_json_reader_returns_or_raises_one_error(kind, payload, cut):
    """A manifest, proposal file or bundle index loads, or raises a
    TapgenError or an OSError; a --config file runs, or exits 1 on an
    `error: config <path>` line. Bytes that do not decode are an
    InvalidInputError, or that exit, starting with the path."""
    if cut is not None:
        payload = payload[:cut]
    name, read, options = JSON_READERS.get(kind, ("cfg.json", None, {}))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "wb") as fh:
            fh.write(payload)
        if kind == "config":  # explicit flags win, so any accepted config runs one tiny video
            r = CliRunner().invoke(main, [
                "--config", path, "synth", "--n-videos", "1", "--max-actions", "0",
                "--t-min", "1", "--t-max", "1", "--no-grids", "--out", os.path.join(d, "out"),
            ], catch_exceptions=False)
            first = r.stderr.partition("\n")[0]
            assert r.exit_code == 0 or r.exit_code == 1 and first.startswith(
                f"error: config {path}: "), r.output
            assert decodes(payload) or first.startswith(f"error: config {path}: not valid JSON")
            return
        try:
            read(d)
        except (TapgenError, OSError) as e:
            if not decodes(payload, **options):
                assert isinstance(e, InvalidInputError)
                assert str(e).startswith(f"{path}: not valid JSON")
            return
        assert decodes(payload, **options)


def reference_synth_boxes(rng: np.random.Generator, max_boxes: int = 2) -> tuple:
    """synth._synth_boxes as it was before one draw took all of a snippet's
    boxes, kept verbatim: three uniform calls per box."""
    boxes = []
    for _ in range(int(rng.integers(0, max_boxes + 1))):
        x1, y1 = rng.uniform(0.0, 0.5, size=2)
        x2 = x1 + rng.uniform(0.1, 0.5)
        y2 = y1 + rng.uniform(0.1, 0.5)
        boxes.append((float(x1), float(y1), float(min(x2, 1.0)), float(min(y2, 1.0))))
    return tuple(boxes)


def plain_state(rng: np.random.Generator):
    """A bit generator's state with its arrays as lists, so states compare with ==."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


@settings(PROPERTY, max_examples=200)
@given(
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    snippets=st.integers(1, 30),
    skip=st.tuples(st.integers(0, 7), st.booleans()),
)
@example(key=(0, 0), snippets=30, skip=(0, False))
def test_synth_boxes_match_the_three_uniform_reference(key, snippets, skip):
    """One random(4 * n) draw per snippet gives the boxes of n rounds of
    three uniform calls bit for bit, and leaves the stream in the same
    state, from any point of a keyed Philox stream (skip doubles, then maybe
    one 32-bit integer, whose other half the generator keeps for the next)."""
    from tapgen.synth import MAX_BOXES, _synth_boxes

    rngs = [np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
            for _ in range(2)]
    for rng in rngs:
        rng.random(skip[0])
        if skip[1]:
            rng.integers(0, 10)
    counts, got = _synth_boxes(rngs[0], snippets)
    want = [reference_synth_boxes(rngs[1], MAX_BOXES) for _ in range(snippets)]
    assert counts.tolist() == [len(boxes) for boxes in want] and counts.max() <= MAX_BOXES
    assert got.dtype == np.float64 and got.shape == (counts.sum(), 4)
    assert [c.hex() for c in got.ravel().tolist()] == [c.hex() for boxes in want
                                                       for box in boxes for c in box]
    assert plain_state(rngs[0]) == plain_state(rngs[1])
