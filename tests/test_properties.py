"""Property tests: the array paths against their scalar references, on
generated inputs. Proposal, label and metric paths must match exactly;
batched featurize reorders floating-point sums, so it must match to 1e-12."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapgen.errors import ConfigError, DataError
from tapgen.fusion import (
    BLOCK_SNIPPETS,
    FeatureMap,
    FileFeatureSource,
    FusionConfig,
    featurize_video,
    random_weights,
)

from tapgen.inference import soft_nms
from tapgen.metrics import evaluate
from tapgen.supervision import gen_duration_labels
from tapgen.timeline import GroundTruthAction

from tapgen.tensorio import Manifest, SnippetEntry, Tensor, write_tensor
from tapgen.timeline import VideoMeta

from test_fusion import reference_featurize_video
from test_inference import mk, reference_soft_nms
from test_metrics import brute_force_match_count, gt, si
from test_supervision import brute_force_duration_labels, make_grid, random_gts

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
    assert [(p.start_sec, p.end_sec, p.score, p.start_idx, p.end_idx) for p in got] == want


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
# T below, at and just past one and two block boundaries
BLOCK_EDGES = (1, BLOCK_SNIPPETS - 1, BLOCK_SNIPPETS, BLOCK_SNIPPETS + 1, 2 * BLOCK_SNIPPETS + 3)


class MapSource:
    """Feature maps handed out by snippet index, as a feature source."""

    def __init__(self, maps):
        self.maps = maps

    def get(self, video_id, snippet_index, entry):
        fmap = self.maps[snippet_index]
        if fmap is None:
            raise DataError(f"video {video_id!r}: no feature file for snippet {snippet_index}")
        return fmap


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


@pytest.mark.parametrize("T", BLOCK_EDGES)
@settings(PROPERTY, max_examples=6)
@given(data=st.data(), cfg=st.sampled_from(FUSION_CONFIGS))
def test_batched_featurize_matches_per_snippet(T, data, cfg):
    T, counts, sizes, listed, seed = data.draw(block_videos(T))
    manifest, source = block_video(T, counts, sizes, cfg.channels, seed, listed)
    w = random_weights(cfg, seed=seed % 1000)
    got = featurize_video(manifest, w, source)
    want = reference_featurize_video(manifest, w, source)
    assert got.shape == (T, cfg.d_model)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
