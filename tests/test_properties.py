"""Property tests: the array paths against their scalar references, on
generated inputs. Proposal, label, metric and manifest paths must match exactly;
batched featurize reorders floating-point sums, so it must match to 1e-12."""

import copy
import json
import math
import os
import pathlib
import tempfile
from dataclasses import astuple, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_fusion
from tapgen import fusion
from tapgen.cli import load_proposals
from tapgen.errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    ManifestValidationError,
    TensorFormatError,
)
from tapgen.fusion import (
    BLOCK_SNIPPETS,
    FeatureMap,
    FileFeatureSource,
    FusionConfig,
    StubFeatureSource,
    featurize_video,
    random_weights,
)

from tapgen.inference import find_peaks, form_proposals, soft_nms
from tapgen.metrics import evaluate
from tapgen.supervision import (
    ScoreGrids,
    gen_boundary_labels,
    gen_duration_labels,
    valid_cell_mask,
)
from tapgen.timeline import GroundTruthAction

from tapgen.tensorio import (
    Manifest,
    SnippetEntry,
    Snippets,
    Tensor,
    manifest_from_dict,
    read_manifest,
    tensor_bytes,
    tensor_from_bytes,
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
from test_inference import mk, reference_find_peaks, reference_form_proposals, reference_soft_nms
from test_metrics import brute_force_match_count, gt, si
from test_supervision import (
    brute_force_duration_labels,
    make_grid,
    random_gts,
    reference_boundary_labels,
)
from test_tensorio import reference_manifest_from_dict

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


@settings(PROPERTY, max_examples=20)
@given(
    props=snippet_proposals(),
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
    peak_ratio=st.sampled_from([0.0, 0.5, 1.0]),
    local_max_only=st.booleans(),
)
def test_find_peaks_matches_the_scan_reference(p, peak_ratio, local_max_only):
    with np.errstate(invalid="ignore"):  # 0 * inf as the threshold
        got = find_peaks(np.array(p), peak_ratio, local_max_only)
        assert got == reference_find_peaks(np.array(p), peak_ratio, local_max_only)
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
    pass_d=st.booleans(),
    shape=snippet_shapes,
)
def test_form_proposals_matches_the_list_reference(T, data, seed, quantized, pass_d, shape):
    """Columns hold the reference's proposals, bit for bit and in its order;
    D comes from the grids or, below their row count, from the caller."""
    D = data.draw(st.integers(1, T))
    grids = seeded_grids(seed, T, T if pass_d else D, quantized)
    grid = make_grid(T, *shape)
    starts, ends = data.draw(peak_lists(T)), data.draw(peak_lists(T))
    d_arg = D if pass_d else None
    got = form_proposals(starts, ends, grids, grid, d_arg)
    want = reference_form_proposals(starts, ends, grids, grid, d_arg)
    assert len(got) == len(want)
    assert [astuple(p) for p in got] == [astuple(p) for p in want]
    assert [astuple(got[i]) for i in range(len(got))] == [astuple(p) for p in want]
    assert got == want


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
    props=near_tie_proposals(),
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


@PROPERTY
@given(
    T=st.integers(1, 40),
    d_frac=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    n_gts=st.integers(0, 4),
    overhang=st.sampled_from([1.0, 1.5]),
)
def test_duration_labels_match_exhaustive_scan(T, d_frac, seed, n_gts, overhang):
    # overhang > 1 lets ground truths run past the video end, where only the
    # invalid-cell mask keeps cells beyond T out of the argmax
    grid = make_grid(T)
    D = max(1, int(T * d_frac))
    gts = random_gts(np.random.default_rng(seed), overhang * T * grid.snippet_seconds, n_gts)
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
    FusionConfig(channels=2, d_model=6, num_heads=3, num_layers=2, ff_dim=8,
                 env_hidden=(5,), roi_grid=(2, 3), roi_samples=(1, 2), env_softmax=False),
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
    """Feature maps handed out by snippet index, as a feature source."""

    def __init__(self, maps):
        self.maps = maps

    def get(self, video_id, snippet_index, entry):
        fmap = self.maps[snippet_index]
        if fmap is None:
            raise DataError(f"video {video_id!r}: no feature file for snippet {snippet_index}")
        return fmap

    def get_block(self, video_id, indices, entries):
        return [self.get(video_id, i, e).values for i, e in zip(indices, entries)]


def random_box(rng):
    x1, y1 = rng.uniform(0.0, 0.95, 2)
    return (float(x1), float(y1),
            float(rng.uniform(x1 + 0.01, 1.0)), float(rng.uniform(y1 + 0.01, 1.0)))


def block_video(T, counts, sizes, channels, seed, listed=None):
    """A manifest with counts[i] boxes on snippet i (snippets not in listed
    are absent from it) and a source of sizes[i]-shaped maps."""
    rng = np.random.default_rng(seed)
    listed = range(T) if listed is None else listed
    meta = VideoMeta(video_id="blk", num_frames=T * 8, fps=8.0, snippet_len=8)
    snippets = tuple(
        SnippetEntry(index=i, feature_file=None,
                     agent_boxes=tuple(random_box(rng) for _ in range(counts[i])))
        for i in listed
    )
    maps = [FeatureMap(values=rng.standard_normal((channels, *sizes[i]))) for i in range(T)]
    return Manifest(video=meta, annotations=(), snippets=snippets), MapSource(maps)


@st.composite
def block_videos(draw, T):
    counts = draw(st.lists(st.integers(0, 4), min_size=T, max_size=T))
    size_pool = draw(st.sampled_from([[(8, 8)], [(1, 1), (3, 5), (6, 4)], [(2, 7), (8, 8)]]))
    sizes = draw(st.lists(st.sampled_from(size_pool), min_size=T, max_size=T))
    listed = [i for i in range(T) if draw(st.booleans()) or counts[i]]
    return T, counts, sizes, listed, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("T, block", BLOCK_EDGES)
def test_batched_featurize_matches_per_snippet(T, block):
    at_block_size(T, block, 6, batched_featurize_property)


def batched_featurize_property(T, data, cfg):
    _, counts, sizes, listed, seed = data.draw(block_videos(T))
    manifest, source = block_video(T, counts, sizes, cfg.channels, seed, listed)
    w = random_weights(cfg, seed=seed % 1000)
    got = featurize_video(manifest, w, source)
    want = reference_featurize_video(manifest, w, source)
    assert got.shape == (T, cfg.d_model)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T, block", BLOCK_EDGES)
def test_block_sources_match_the_per_snippet_sources_bit_for_bit(T, block):
    """The stub, file and in-memory sources, handing over a block of maps
    per call, give featurize_video the same bits as one get per snippet;
    a file manifest with absent snippets fails the same way on both."""
    at_block_size(T, block, 6, block_sources_property)


def block_sources_property(T, data, cfg):
    _, counts, sizes, listed, seed = data.draw(block_videos(T))
    manifest, maps = block_video(T, counts, sizes, cfg.channels, seed, listed)
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
    dims = (cfg.channels, *sizes[0])
    assert same(StubFeatureSource(seed, dims), PerSnippetStubSource(seed, dims), manifest) == "ok"
    entries = manifest.snippet_map()
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
    whose snippets are a tuple of SnippetEntry in index order, on one with
    the entries shuffled, and on that one read back from its file as
    Snippets columns, with the in-memory, stub and file sources."""
    at_block_size(T, block, 4, snippet_columns_property)


def snippet_columns_property(T, data, cfg):
    _, counts, sizes, listed, seed = data.draw(block_videos(T))
    manifest, maps = block_video(T, counts, sizes, cfg.channels, seed, listed)
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
        sources = (maps, StubFeatureSource(seed, (cfg.channels, *sizes[0])), FileFeatureSource(d))
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
    manifest, source = block_video(T, [1] * T, [(4, 4)] * T, cfg.channels, seed=5)
    source.maps[BLOCK_SNIPPETS + 1] = FeatureMap(values=np.ones((cfg.channels + 1, 4, 4)))
    with pytest.raises(ConfigError, match="channels"):
        featurize_video(manifest, random_weights(cfg, seed=1), source)


def test_batched_featurize_missing_file_names_video_and_snippet(tmp_path):
    cfg = FUSION_CONFIGS[0]
    T = 2 * BLOCK_SNIPPETS + 3
    missing = BLOCK_SNIPPETS + 7
    write_tensor(Tensor.from_array(np.ones((cfg.channels, 4, 4))), tmp_path / "map.aent")
    manifest, _ = block_video(T, [2] * T, [(4, 4)] * T, cfg.channels, seed=6)
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
                                 "2-d", "non-finite", "non-finite-f32", "bad-version",
                                 "truncated", "directory", "missing", "unnamed"])


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
    blob = bytearray(tensor_bytes(Tensor.from_array(np.arange(1.0, 7.0).reshape(2, 3), dtype)))
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    blob = bytes(blob[: cut % (len(blob) + 1)]) + tail
    try:
        t = tensor_from_bytes(blob)
    except TensorFormatError:
        return
    assert t.data.shape == (math.prod(t.dims),)
    assert np.isfinite(t.data).all()


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
        return "ok", repr(m)

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
        return "ok", repr(m)

    assert outcome(manifest_from_dict) == outcome(reference_manifest_from_dict)


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
