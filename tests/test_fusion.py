import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from tapgen.errors import ConfigError, DataError, InvalidInputError, TensorFormatError
from tapgen.fusion import (
    BLOCK_SNIPPETS,
    EncoderWeights,
    FeatureMap,
    FileFeatureSource,
    FusionConfig,
    FusionWeights,
    LN_EPS,
    ROI_GRID,
    ROI_SAMPLES,
    StubFeatureSource,
    ae_fuse,
    agent_fusion,
    attention_encoder,
    environment_pathway,
    featurize_video,
    load_weights,
    random_weights,
    roi_align,
    save_weights,
    stub_backbone,
    _LAYER_PARAMS,
    _layer_norm,
    _linear,
    _param_shapes,
    _softmax,
)
from tapgen.tensorio import (
    Manifest,
    SnippetEntry,
    Tensor,
    read_tensor,
    write_tensor,
)
from tapgen.timeline import VideoMeta, build_grid

from test_tensorio import layout_bytes


SMALL_CFG = FusionConfig(channels=3, d_model=8, num_heads=2, num_layers=1, ff_dim=16)


def zero_layer(d, ff):
    z = np.zeros
    return dict(
        wq=z((d, d)), bq=z(d), wk=z((d, d)), bk=z(d), wv=z((d, d)), bv=z(d),
        wo=z((d, d)), bo=z(d), ff1_w=z((ff, d)), ff1_b=z(ff), ff2_w=z((d, ff)), ff2_b=z(d),
        ln1_scale=np.ones(d), ln1_shift=z(d), ln2_scale=np.ones(d), ln2_shift=z(d),
    )


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: FeatureMap(np.zeros((2, 2))), InvalidInputError,
                 "feature map must be [C, H, W], got shape (2, 2)", id="map-not-c-h-w"),
    pytest.param(lambda: FeatureMap(np.zeros((3, 0, 2))), InvalidInputError,
                 "feature map dims must be positive, got (3, 0, 2)", id="map-zero-dim"),
    pytest.param(lambda: FeatureMap(np.full((1, 1, 1), np.nan)), InvalidInputError,
                 "feature map contains non-finite values", id="map-nan"),
    pytest.param(lambda: EncoderWeights(layers=(), num_heads=1), ConfigError,
                 "encoder needs at least one layer", id="encoder-no-layer"),
    pytest.param(lambda: EncoderWeights(layers=(zero_layer(6, 4),), num_heads=4), ConfigError,
                 "d_model 6 not divisible by num_heads 4", id="encoder-heads"),
    pytest.param(lambda: attention_encoder(np.zeros((2, 5)),
                                           random_weights(SMALL_CFG, 0).agent_encoder),
                 ConfigError, "token dim 5 != encoder d_model 8", id="token-width"),
    pytest.param(lambda: attention_encoder(np.zeros(8), random_weights(SMALL_CFG, 0).agent_encoder),
                 InvalidInputError, "tokens must be [..., n >= 1, d_model], got shape (8,)",
                 id="tokens-1-d"),
    pytest.param(lambda: attention_encoder(0.0, random_weights(SMALL_CFG, 0).agent_encoder),
                 InvalidInputError, "tokens must be [..., n >= 1, d_model], got shape ()",
                 id="tokens-0-d"),
    pytest.param(lambda: ae_fuse(np.zeros((1, 8)), np.zeros((2, 8)), random_weights(SMALL_CFG, 0)),
                 ConfigError, "agents vector shape (2, 8) != (1, 8)", id="agents-shape"),
    pytest.param(lambda: ae_fuse(np.zeros(8), None, random_weights(SMALL_CFG, 0)),
                 ConfigError, "env shape (8,) != (B, 8)", id="env-1-d"),
    pytest.param(lambda: environment_pathway(np.zeros((4, 3, 4)), random_weights(SMALL_CFG, 0)),
                 ConfigError, "feature maps must be [B, 3, H, W], got shape (4, 3, 4)",
                 id="maps-3-d"),
    pytest.param(lambda: stub_backbone("vid", -1, 2, (2, 2, 2), 0), InvalidInputError,
                 "stub snippets need 0 <= start <= stop, got start -1, stop 2",
                 id="stub-negative-start"),
    pytest.param(lambda: stub_backbone("vid", 5, 3, (2, 2, 2), 0), InvalidInputError,
                 "stub snippets need 0 <= start <= stop, got start 5, stop 3",
                 id="stub-stop-before-start"),
])
def test_refusals_name_the_bad_value(build, error, message):
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message


class TestStubBackbone:
    def test_deterministic(self):
        a = stub_backbone("vid", 3, 4, (4, 5, 6), seed=42)
        b = stub_backbone("vid", 3, 4, (4, 5, 6), seed=42)
        np.testing.assert_array_equal(a, b)

    def test_seeds_decorrelate(self):
        a = stub_backbone("vid", 0, 1, (8, 8, 8), seed=1)
        b = stub_backbone("vid", 0, 1, (8, 8, 8), seed=2)
        frac_diff = np.mean(a != b)
        assert frac_diff >= 0.99

    def test_snippet_and_video_keys_matter(self):
        a = stub_backbone("vid", 0, 1, (2, 3, 3), seed=1)
        b = stub_backbone("vid", 1, 2, (2, 3, 3), seed=1)
        c = stub_backbone("other", 0, 1, (2, 3, 3), seed=1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            stub_backbone("vid", 0, 1, (0, 4, 4), seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40])
    def test_equals_a_keyed_philox_stream_advanced_to_the_snippet(self, seed):
        # c*h*w mod 4 is 0, 1, 2, 3 and 1: a map that fills its last counter
        # only in part still starts the next map on a counter boundary
        cases = ((0, (8, 8, 8)), (1, (3, 5, 7)), (63, (2, 3, 3)), (64, (3, 5, 1)), (300, (1, 1, 1)))
        for vid in ("vid", "v_0007", "é"):
            key_material = f"{seed}\x00{vid}".encode("utf-8")
            key = np.frombuffer(hashlib.sha256(key_material).digest()[:16], dtype=np.uint64)
            for index, dims in cases:
                cells = math.prod(dims)
                counters = math.ceil(cells / 4)
                stream = np.random.Philox(key=key)
                stream.advance(index * counters)
                expected = np.random.Generator(stream).random(4 * counters)[:cells]
                got = stub_backbone(vid, index, index + 1, dims, seed)
                assert got.shape == (1, *dims) and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (5, 6), (0, BLOCK_SNIPPETS + 1),
                                             (BLOCK_SNIPPETS - 2, BLOCK_SNIPPETS + 3)])
    def test_block_equals_one_call_per_snippet(self, start, stop):
        block = stub_backbone("vid", start, stop, (3, 5, 3), 9)
        assert block.shape == (stop - start, 3, 5, 3) and block.flags.c_contiguous
        for k, i in enumerate(range(start, stop)):
            assert block[k].tobytes() == stub_backbone("vid", i, i + 1, (3, 5, 3), 9).tobytes()

    def test_interleaved_videos_give_the_same_maps(self):
        dims = (4, 3, 5)
        alone = {vid: [stub_backbone(vid, i, i + 1, dims, 7) for i in range(6)]
                 for vid in ("a", "b")}
        for i in range(6):
            for vid in ("b", "a") if i % 2 else ("a", "b"):
                assert stub_backbone(vid, i, i + 1, dims, 7).tobytes() == alone[vid][i].tobytes()

    def test_stream_bytes_are_pinned(self):
        """The maps are Philox output with no sum in between, so their bytes,
        unlike features', are the same on every platform: a NumPy release
        that changed the stream would change every stub-driven feature."""
        want = {(8, 8, 8): "d5c390f90af8af0db57cbaa2fc48dc52f8125c15e0c2954d42bd2e4b84211c60",
                (3, 5, 3): "7f84ac3c35e58dd8e6efb9e46d95a14bdbd08a61bb41b37c96e110bb1313ee23"}
        got = {dims: hashlib.sha256(stub_backbone("synth_0000", 0, 300, dims, 0).tobytes())
               .hexdigest() for dims in want}
        assert got == want


class TestEnvironmentPathway:
    def test_constant_map_identity_affine_gives_uniform(self):
        d = 4
        cfg = FusionConfig(channels=d, d_model=d, num_heads=2, num_layers=1, ff_dim=8)
        w = random_weights(cfg, seed=0)
        w = FusionWeights(cfg, {**w.params, "env_affine.0.weight": np.eye(d),
                                "env_affine.0.bias": np.zeros(d)})
        out = environment_pathway(np.full((1, d, 3, 3), 2.5), w)
        np.testing.assert_allclose(out, np.full((1, d), 1.0 / d), atol=1e-12)

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(0)
        w = random_weights(SMALL_CFG, seed=3)
        for _ in range(20):
            out = environment_pathway(rng.standard_normal((1, 3, 4, 5)), w)
            assert out.shape == (1, 8) and abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0)

    def test_hand_computed_chain(self):
        # 2-channel 2x2 map, one affine into softmax; recomputed with scalars
        cfg = FusionConfig(channels=2, d_model=2, num_heads=1, num_layers=1, ff_dim=4)
        mat = np.array([[0.5, -1.0], [2.0, 0.25]])
        bias = np.array([0.1, -0.2])
        w0 = random_weights(cfg, seed=0)
        w = FusionWeights(cfg, {**w0.params, "env_affine.0.weight": mat,
                                "env_affine.0.bias": bias})
        vals = np.array(
            [[[1.0, 2.0], [3.0, 4.0]], [[-1.0, 0.0], [1.0, 2.0]]]
        )
        pooled0 = (1.0 + 2.0 + 3.0 + 4.0) / 4
        pooled1 = (-1.0 + 0.0 + 1.0 + 2.0) / 4
        logit0 = 0.5 * pooled0 + (-1.0) * pooled1 + 0.1
        logit1 = 2.0 * pooled0 + 0.25 * pooled1 - 0.2
        e0, e1 = math.exp(logit0), math.exp(logit1)
        expected = np.array([e0 / (e0 + e1), e1 / (e0 + e1)])
        out = environment_pathway(vals[None], w)
        np.testing.assert_allclose(out, expected[None], atol=1e-12)

    def test_channel_mismatch(self):
        w = random_weights(SMALL_CFG, seed=3)
        with pytest.raises(ConfigError):
            environment_pathway(np.ones((1, 5, 2, 2)), w)


def brute_force_roi_align(values, box, out_grid, samples_per_bin):
    """Scalar reference: bilinear samples averaged per bin, pixel centers
    at integer + 0.5, coordinates clamped to the map."""
    C, H, W = values.shape
    gh, gw = out_grid
    sh, sw = samples_per_bin
    x1, y1, x2, y2 = box[0] * W, box[1] * H, box[2] * W, box[3] * H
    bw, bh = (x2 - x1) / gw, (y2 - y1) / gh
    out = np.zeros((C, gh, gw))
    for c in range(C):
        for gy in range(gh):
            for gx in range(gw):
                acc = 0.0
                for sy in range(sh):
                    for sx in range(sw):
                        y = y1 + (gy + (sy + 0.5) / sh) * bh
                        x = x1 + (gx + (sx + 0.5) / sw) * bw
                        u = min(max(x - 0.5, 0.0), W - 1.0)
                        v = min(max(y - 0.5, 0.0), H - 1.0)
                        x0, y0 = int(math.floor(u)), int(math.floor(v))
                        x0, y0 = min(x0, W - 1), min(y0, H - 1)
                        xp, yp = min(x0 + 1, W - 1), min(y0 + 1, H - 1)
                        fx, fy = u - x0, v - y0
                        acc += (
                            values[c, y0, x0] * (1 - fy) * (1 - fx)
                            + values[c, y0, xp] * (1 - fy) * fx
                            + values[c, yp, x0] * fy * (1 - fx)
                            + values[c, yp, xp] * fy * fx
                        )
                out[c, gy, gx] = acc / (sh * sw)
    return out


class TestRoiAlign:
    def test_constant_map(self):
        fmap = FeatureMap(values=np.full((2, 5, 7), 3.25))
        out = roi_align(fmap, (0.1, 0.2, 0.8, 0.9), (4, 4), (2, 2))
        np.testing.assert_allclose(out, 3.25, atol=1e-12)

    def test_full_box_single_sample_hits_map_center(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((1, 4, 6))
        fmap = FeatureMap(values=vals)
        out = roi_align(fmap, (0.0, 0.0, 1.0, 1.0), (1, 1), (1, 1))
        # single sample at the continuous center (W/2, H/2)
        u, v = 6 / 2 - 0.5, 4 / 2 - 0.5
        x0, y0 = int(u), int(v)
        fx, fy = u - x0, v - y0
        expected = (
            vals[0, y0, x0] * (1 - fy) * (1 - fx)
            + vals[0, y0, x0 + 1] * (1 - fy) * fx
            + vals[0, y0 + 1, x0] * fy * (1 - fx)
            + vals[0, y0 + 1, x0 + 1] * fy * fx
        )
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            C = int(rng.integers(1, 4))
            H = int(rng.integers(2, 9))
            W = int(rng.integers(2, 9))
            vals = rng.standard_normal((C, H, W))
            x1, y1 = rng.uniform(0, 0.6, 2)
            box = (x1, y1, x1 + rng.uniform(0.05, 1 - x1 - 1e-6), y1 + rng.uniform(0.05, 1 - y1 - 1e-6))
            grid = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            samples = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            got = roi_align(FeatureMap(values=vals), box, grid, samples)
            want = brute_force_roi_align(vals, box, grid, samples)
            assert np.max(np.abs(got - want)) < 1e-9


    def test_batched_boxes_match_brute_force_per_map(self):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((3, 2, 5, 7))
        boxes = np.array([[0.0, 0.0, 1.0, 1.0], [0.1, 0.5, 0.4, 0.9],
                          [0.6, 0.2, 0.95, 0.3], [0.3, 0.3, 0.31, 0.32]])
        owner = np.array([2, 0, 2, 1])
        got = roi_align(stack, boxes, (3, 2), (2, 3), owner)
        assert got.shape == (4, 2, 3, 2)
        for k, (box, m) in enumerate(zip(boxes, owner)):
            want = brute_force_roi_align(stack[m], tuple(box), (3, 2), (2, 3))
            assert np.max(np.abs(got[k] - want)) < 1e-12

    @pytest.mark.parametrize("cells", [1, 2 * 5 * 7 * 3, 2 * 5 * 7 * 40])
    def test_box_chunks_move_no_bit(self, monkeypatch, cells):
        """Chunks of one box, of three and of all boxes give the same bits:
        each patch's products involve its own box alone."""
        import tapgen.fusion as fusion

        rng = np.random.default_rng(13)
        stack = rng.standard_normal((4, 2, 5, 7))
        lo = rng.uniform(0.0, 0.5, (23, 2))
        boxes = np.concatenate([lo, lo + rng.uniform(0.05, 0.5, (23, 2))], axis=1)
        owner = rng.integers(0, 4, 23)
        want = roi_align(stack, boxes, (3, 2), (2, 3), owner)
        monkeypatch.setattr(fusion, "ROI_CELLS", cells)
        got = roi_align(stack, boxes, (3, 2), (2, 3), owner)
        assert got.shape == (23, 2, 3, 2) and got.tobytes() == want.tobytes()
        one = roi_align(FeatureMap(stack[owner[4]]), boxes[4], (3, 2), (2, 3))
        assert one.shape == (2, 3, 2) and one.tobytes() == want[4].tobytes()


class TestAttentionEncoder:
    def test_batch_matches_one_set_at_a_time(self):
        rng = np.random.default_rng(13)
        cfg = FusionConfig(channels=3, d_model=8, num_heads=4, num_layers=2, ff_dim=16)
        enc = random_weights(cfg, seed=14).agent_encoder
        sets = rng.standard_normal((5, 3, 8))
        out = attention_encoder(sets, enc)
        assert out.shape == (5, 3, 8)
        for b in range(5):
            np.testing.assert_allclose(out[b], attention_encoder(sets[b], enc), rtol=0, atol=1e-12)

    def test_zero_weights_single_token_passthrough(self):
        # all-zero projections: attention and feed-forward contribute nothing,
        # residuals carry the input through unchanged
        enc = EncoderWeights(layers=(zero_layer(2, 4),), num_heads=1)
        x = np.array([[0.3, -1.7]])
        out = attention_encoder(x, enc)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_hand_value_d2_nonzero_value_path(self):
        # zero Q/K (uniform attention), identity-ish V/O, zero feed-forward:
        # out = x + wo @ (wv @ ln(x) + bv) + bo, hand-computed for d=2
        d = 2
        wv = np.array([[0.5, 0.0], [0.0, -0.25]])
        wo = np.array([[1.0, 2.0], [0.0, 1.0]])
        lw = {**zero_layer(d, 4), "wv": wv, "wo": wo}
        enc = EncoderWeights(layers=(lw,), num_heads=1)
        x = np.array([[1.0, 3.0]])
        mean, var = 2.0, 1.0
        ln = (np.array([1.0, 3.0]) - mean) / math.sqrt(var + LN_EPS)
        v = wv @ ln
        attn_out = wo @ v  # single token: attention weight is exactly 1
        expected = x[0] + attn_out  # feed-forward is zero
        out = attention_encoder(x, enc)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        cfg = FusionConfig(channels=3, d_model=8, num_heads=4, num_layers=2, ff_dim=16)
        enc = random_weights(cfg, seed=5).agent_encoder
        tokens = rng.standard_normal((6, 8))
        out = attention_encoder(tokens, enc)
        for _ in range(10):
            perm = rng.permutation(6)
            out_p = attention_encoder(tokens[perm], enc)
            np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_identical_tokens_identical_outputs(self):
        enc = random_weights(SMALL_CFG, seed=6).agent_encoder
        tok = np.random.default_rng(0).standard_normal(8)
        out = attention_encoder(np.stack([tok, tok]), enc)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_empty_tokens_rejected(self):
        enc = random_weights(SMALL_CFG, seed=6).agent_encoder
        with pytest.raises(InvalidInputError):
            attention_encoder(np.zeros((0, 8)), enc)


def test_layer_norm_equals_the_var_formula_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)), 64)
        x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3]) + rng.normal()
        scale, shift = rng.standard_normal(64), rng.standard_normal(64)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        want = (x - mean) / np.sqrt(var + LN_EPS) * scale + shift
        assert np.array_equal(_layer_norm(x, scale, shift), want)


def reference_attention_encoder(tokens, w):
    """attention_encoder with attention computed alike for every token
    count and the variance from x.var: the reference for the one-token
    case and the single centring pass, which must give the same bits."""
    x = np.asarray(tokens, dtype=np.float64)
    for lw in w.layers:
        mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        h = (x - mean) / np.sqrt(var + LN_EPS) * lw["ln1_scale"] + lw["ln1_shift"]
        *lead, n, d = h.shape
        heads = (*lead, n, w.num_heads, d // w.num_heads)
        q = _linear(h, lw["wq"], lw["bq"]).reshape(heads)
        k = _linear(h, lw["wk"], lw["bk"]).reshape(heads)
        v = _linear(h, lw["wv"], lw["bv"]).reshape(heads)
        scores = np.einsum("...qhd,...khd->...hqk", q, k) / np.sqrt(heads[-1])
        attn = _softmax(scores)
        mixed = np.einsum("...hqk,...khd->...qhd", attn, v).reshape(h.shape)
        x = x + _linear(mixed, lw["wo"], lw["bo"])
        mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        h = (x - mean) / np.sqrt(var + LN_EPS) * lw["ln2_scale"] + lw["ln2_shift"]
        hidden = np.maximum(_linear(h, lw["ff1_w"], lw["ff1_b"]), 0.0)
        x = x + _linear(hidden, lw["ff2_w"], lw["ff2_b"])
    return x


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("zeros", [False, True])
def test_attention_encoder_equals_the_reference_bit_for_bit(n, zeros):
    """zeros: value weights of -0.0 and value and output biases of -0.0,
    so that signed zeros reach the single-token path."""
    rng = np.random.default_rng(37 + n)
    cfg = FusionConfig(channels=3, d_model=8, num_heads=2, num_layers=2, ff_dim=16)
    enc = random_weights(cfg, seed=n).agent_encoder
    if zeros:
        neg = {"wv": -np.zeros((8, 8)), "bv": -np.zeros(8), "bo": -np.zeros(8)}
        enc = EncoderWeights(layers=tuple({**lw, **neg} for lw in enc.layers),
                             num_heads=enc.num_heads)
    for shape in ((n, 8), (1, n, 8), (5, n, 8), (2, 3, n, 8)):
        tokens = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3])
        got, want = attention_encoder(tokens, enc), reference_attention_encoder(tokens, enc)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAgentFusion:
    def test_empty_list_absent(self):
        w = random_weights(SMALL_CFG, seed=1)
        assert agent_fusion([], w) is None

    def test_singleton_equals_encoded_token(self):
        w = random_weights(SMALL_CFG, seed=1)
        patch = np.random.default_rng(3).standard_normal((3, 4, 4))
        token = w.params["patch_proj.weight"] @ patch.ravel() + w.params["patch_proj.bias"]
        expected = attention_encoder(token[None, :], w.agent_encoder)[0]
        np.testing.assert_allclose(agent_fusion([patch], w), expected, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        w = random_weights(SMALL_CFG, seed=2)
        patches = [rng.standard_normal((3, 4, 4)) for _ in range(5)]
        base = agent_fusion(patches, w)
        for _ in range(10):
            perm = rng.permutation(5)
            shuffled = [patches[i] for i in perm]
            np.testing.assert_allclose(agent_fusion(shuffled, w), base, atol=1e-12)

    def test_mixed_dims_rejected(self):
        w = random_weights(SMALL_CFG, seed=2)
        with pytest.raises(InvalidInputError):
            agent_fusion([np.zeros((3, 4, 4)), np.zeros((3, 2, 2))], w)


class TestAeFuse:
    def test_absent_agents_single_token_path(self):
        w = random_weights(SMALL_CFG, seed=4)
        env = np.random.default_rng(1).random((1, 8))
        env /= env.sum()
        expected = attention_encoder(env, w.fuse_encoder)
        np.testing.assert_allclose(ae_fuse(env, None, w), expected, atol=1e-12)

    def test_identical_tokens_symmetry(self):
        w = random_weights(SMALL_CFG, seed=4)
        vec = np.random.default_rng(2).random(8)
        paired = attention_encoder(np.stack([vec, vec]), w.fuse_encoder)
        np.testing.assert_allclose(paired[0], paired[1], atol=1e-12)
        np.testing.assert_allclose(ae_fuse(vec[None], vec[None], w), paired[:1], atol=1e-12)

    def test_length_mismatch(self):
        w = random_weights(SMALL_CFG, seed=4)
        with pytest.raises(ConfigError):
            ae_fuse(np.zeros((1, 5)), None, w)


def tiny_manifest(T=3, boxes=((0.1, 0.1, 0.6, 0.7),)):
    meta = VideoMeta(video_id="vid0", num_frames=T * 16, fps=16.0, snippet_len=16)
    snippets = tuple(
        SnippetEntry(index=i, feature_file=None, agent_boxes=boxes) for i in range(T)
    )
    return Manifest(video=meta, annotations=(), snippets=snippets)


def reference_featurize_video(manifest, w, source):
    """Per-snippet reference for featurize_video: every layer called once
    per snippet, RoIAlign once per box."""
    smap = {s.index: s for s in manifest.snippets}
    out = np.empty((build_grid(manifest.video).T, w.config.d_model))
    for i in range(len(out)):
        entry = smap.get(i)
        fmap = source.get(manifest.video.video_id, i, entry)
        env = environment_pathway(fmap.values[None], w)
        boxes = entry.agent_boxes if entry is not None else ()
        patches = [roi_align(fmap, b, ROI_GRID, ROI_SAMPLES) for b in boxes]
        agents = agent_fusion(patches, w)
        out[i] = ae_fuse(env, None if agents is None else agents[None], w)[0]
    return out


# featurize_video and the two sources as they were when a source handed out
# one FeatureMap per get call, verbatim but for the names, the stub's B = 1
# call and the rule that a video's maps share one shape: the reference for
# the block sources, which must give the same bits, or the same error.

class PerSnippetStubSource:
    """Seeded deterministic maps, one one-snippet stub call per snippet."""

    def __init__(self, seed: int, dims: tuple[int, int, int]):
        self.seed = seed
        self.dims = dims

    def get(self, video_id: str, snippet_index: int, entry, shape=None) -> FeatureMap:
        # shape: always dims
        return FeatureMap(stub_backbone(video_id, snippet_index, snippet_index + 1,
                                        self.dims, self.seed)[0])


class PerSnippetFileSource:
    """Feature maps read from tensor files named in the manifest."""

    def __init__(self, base_dir: str | os.PathLike):
        self.base_dir = os.fspath(base_dir)

    def get(self, video_id: str, snippet_index: int, entry, shape=None) -> FeatureMap:
        """The snippet's map; one that is not [C, H, W], or of another shape
        than shape, the block's first map's, is a DataError naming its file."""
        if entry is None or entry.feature_file is None:
            raise DataError(
                f"video {video_id!r}: no feature file for snippet {snippet_index}"
            )
        path = os.path.join(self.base_dir, entry.feature_file)
        if not os.path.exists(path):
            raise DataError(
                f"video {video_id!r}: feature file {path} for snippet "
                f"{snippet_index} is missing"
            )
        values = read_tensor(path).to_array()
        if values.ndim != 3 or shape is not None and values.shape != shape:
            raise DataError(f"video {video_id!r}: feature file {path} has shape "
                            f"{values.shape}, expected {shape or '[C, H, W]'}")
        return FeatureMap(values=values)


def per_snippet_source_environment_pathway(fmap, w: FusionWeights) -> np.ndarray:
    """Global average pool over H x W, one affine layer, softmax.

    Returns the scene descriptor as a probability vector of length d_model.
    Given a sequence of B feature maps of one shape, returns one row per
    map, [B, d_model].
    """
    single = isinstance(fmap, FeatureMap)
    maps = (fmap,) if single else fmap
    for m in maps:
        if m.values.shape[0] != w.config.channels:
            raise ConfigError(
                f"feature map has {m.values.shape[0]} channels, weights expect {w.config.channels}"
            )
    x = np.stack([m.values.mean(axis=(1, 2)) for m in maps])
    out = _softmax(x @ w.params["env_affine.0.weight"].T + w.params["env_affine.0.bias"])
    return out[0] if single else out


def per_snippet_source_featurize_video(manifest, w: FusionWeights, source) -> np.ndarray:
    """Run the full two-pathway pipeline over every snippet.

    Returns the [T, d_model] feature matrix with rows in snippet order.
    Snippets absent from the manifest contribute no agent boxes. Snippets
    go through the layers BLOCK_SNIPPETS at a time (module docstring);
    every map must have the shape of the video's first.
    """
    grid = build_grid(manifest.video)
    smap = {s.index: s for s in manifest.snippets}
    video_id = manifest.video.video_id
    out = np.empty((grid.T, w.config.d_model), dtype=np.float64)
    for start in range(0, grid.T, BLOCK_SNIPPETS):
        rows = range(start, min(start + BLOCK_SNIPPETS, grid.T))
        entries = [smap.get(i) for i in rows]
        maps = []
        for i, e in zip(rows, entries):
            maps.append(source.get(video_id, i, e, maps[0].values.shape if maps else None))
        if start == 0:
            shape = maps[0].values.shape
        elif maps[0].values.shape != shape:
            raise DataError(f"video {video_id!r}: snippets {start}..{rows.stop - 1} have maps of "
                            f"shape {maps[0].values.shape}, expected {shape} as in snippet 0")
        env = per_snippet_source_environment_pathway(maps, w)
        boxes = [e.agent_boxes if e is not None else () for e in entries]
        counts = np.array([len(b) for b in boxes])
        agents = _per_snippet_source_block_agents(maps, boxes, counts, w)
        block = out[start:rows.stop]
        alone = counts == 0
        if alone.any():
            block[alone] = ae_fuse(env[alone], None, w)
        if not alone.all():
            block[~alone] = ae_fuse(env[~alone], agents[~alone], w)
    return out


def _per_snippet_source_block_agents(maps, boxes, counts: np.ndarray,
                                     w: FusionWeights) -> np.ndarray:
    """Agent vectors [B, d_model] of one block; rows of snippets without
    agents stay zero. Boxes are RoI-aligned per map size, then encoded per
    agent count."""
    cfg = w.config
    owner = np.repeat(np.arange(len(maps)), counts)  # snippet of each box
    flat = np.array([b for bs in boxes for b in bs], dtype=np.float64).reshape(-1, 4)
    patches = np.empty((len(flat), cfg.channels, *ROI_GRID))
    by_size: dict[tuple[int, int], list[int]] = {}
    for i in np.flatnonzero(counts):
        by_size.setdefault(maps[i].values.shape[1:], []).append(i)
    for snips in by_size.values():
        local = np.full(len(maps), -1)
        local[snips] = np.arange(len(snips))
        sel = local[owner] >= 0
        stack = np.stack([maps[i].values for i in snips])
        patches[sel] = roi_align(
            stack, flat[sel], ROI_GRID, ROI_SAMPLES, local[owner[sel]]
        )
    agents = np.zeros((len(maps), cfg.d_model))
    first = np.cumsum(counts) - counts  # each snippet's first box
    for n in sorted(set(counts.tolist()) - {0}):  # np.unique would import numpy.ma
        snips = np.flatnonzero(counts == n)
        agents[snips] = agent_fusion(patches[first[snips][:, None] + np.arange(n)], w)
    return agents


class TestFeaturizeVideo:
    def test_deterministic(self):
        w = random_weights(SMALL_CFG, seed=10)
        src = StubFeatureSource(seed=11, dims=(3, 6, 6))
        m = tiny_manifest()
        a = featurize_video(m, w, src)
        b = featurize_video(m, w, src)
        assert a.shape == (3, 8)
        np.testing.assert_array_equal(a, b)

    def test_reads_the_columns_and_builds_no_entry(self, monkeypatch):
        import tapgen.tensorio as tensorio

        w = random_weights(SMALL_CFG, seed=10)
        src = StubFeatureSource(seed=11, dims=(3, 6, 6))
        m = tiny_manifest()
        want = featurize_video(m, w, src)
        monkeypatch.setattr(tensorio, "SnippetEntry", None)  # building a row now fails
        assert featurize_video(m, w, src).tobytes() == want.tobytes()

    def test_box_permutation_invariance(self):
        w = random_weights(SMALL_CFG, seed=10)
        src = StubFeatureSource(seed=11, dims=(3, 6, 6))
        boxes = ((0.1, 0.1, 0.5, 0.5), (0.3, 0.2, 0.9, 0.8), (0.05, 0.4, 0.6, 0.95))
        a = featurize_video(tiny_manifest(boxes=boxes), w, src)
        b = featurize_video(tiny_manifest(boxes=boxes[::-1]), w, src)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_missing_feature_file_named_in_error(self, tmp_path):
        w = random_weights(SMALL_CFG, seed=10)
        m = tiny_manifest()
        # snippet files present for 0 and 1 only
        rng = np.random.default_rng(0)
        for i in range(2):
            write_tensor(
                Tensor.from_array(rng.random((3, 6, 6))), tmp_path / f"s{i}.aent"
            )
        snippets = tuple(
            SnippetEntry(index=i, feature_file=f"s{i}.aent" if i < 2 else None)
            for i in range(3)
        )
        m = Manifest(video=m.video, annotations=(), snippets=snippets)
        with pytest.raises(DataError, match="snippet 2"):
            featurize_video(m, w, FileFeatureSource(tmp_path))

    def test_file_source_roundtrip(self, tmp_path):
        w = random_weights(SMALL_CFG, seed=10)
        rng = np.random.default_rng(1)
        maps = [rng.random((3, 6, 6)) for _ in range(3)]
        for i, arr in enumerate(maps):
            write_tensor(Tensor.from_array(arr), tmp_path / f"s{i}.aent")
        snippets = tuple(
            SnippetEntry(index=i, feature_file=f"s{i}.aent") for i in range(3)
        )
        base = tiny_manifest()
        m = Manifest(video=base.video, annotations=(), snippets=snippets)
        out = featurize_video(m, w, FileFeatureSource(tmp_path))
        assert out.shape == (3, 8)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("bad, error", [
        ("2-d", DataError), ("channels", ConfigError), ("other-shape", DataError),
        ("missing", DataError), ("non-finite", TensorFormatError),
    ])
    def test_file_source_errors_match_the_per_snippet_source(self, tmp_path, bad, error):
        w = random_weights(SMALL_CFG, seed=10)
        rng = np.random.default_rng(2)
        channels = 4 if bad == "channels" else 3  # the weights' 3 channels, or every map 4
        for i in range(3):
            write_tensor(Tensor.from_array(rng.random((channels, 6, 6))), tmp_path / f"s{i}.aent")
        bad_file = tmp_path / "s1.aent"
        if bad == "2-d":
            write_tensor(Tensor.from_array(rng.random((6, 6))), bad_file)
        elif bad == "other-shape":
            write_tensor(Tensor.from_array(rng.random((4, 6, 6))), bad_file)
        elif bad == "missing":
            bad_file.unlink()
        elif bad == "non-finite":
            bad_file.write_bytes(layout_bytes((3, 6, 6), "f64", np.full(108, np.nan)))
        snippets = tuple(SnippetEntry(index=i, feature_file=f"s{i}.aent") for i in range(3))
        m = Manifest(video=tiny_manifest().video, annotations=(), snippets=snippets)

        def outcome(run, source):
            try:
                run(m, w, source)
            except Exception as e:  # the type and message are what is compared
                return type(e), str(e)
            return "ok", None

        got = outcome(featurize_video, FileFeatureSource(tmp_path))
        assert got[0] is error
        assert got == outcome(per_snippet_source_featurize_video, PerSnippetFileSource(tmp_path))


# The valid [3, 6, 6] map that write_feature_file's kinds are made from.
GOOD = np.arange(1.0, 109.0).reshape(3, 6, 6) / 7
# The kinds whose header holds other dims than GOOD's.
FEATURE_FILE_SHAPES = {"other-shape": (3, 4, 5), "same-length-other-shape": (3, 4, 9),
                       "same-length-f32": (3, 6, 12), "2-d": (6, 6),
                       "non-finite-other-shape": (3, 4, 5)}


def write_feature_file(path, kind: str, shift: float = 0.0) -> None:
    if kind in ("f32", "f64"):
        path.write_bytes(layout_bytes(GOOD.shape, kind, GOOD + shift))
    elif kind == "other-shape":  # valid header, different length
        write_tensor(Tensor.from_array(np.ones((3, 4, 5))), path)
    elif kind == "same-length-other-shape":  # 3 * 4 * 9 = 3 * 6 * 6
        write_tensor(Tensor.from_array(GOOD.reshape(3, 4, 9) + shift), path)
    elif kind == "same-length-f32":  # as long as an f64 map of half the values
        wide = np.concatenate([GOOD, GOOD], axis=2) - shift
        path.write_bytes(layout_bytes(wide.shape, "f32", wide))
    elif kind == "2-d":
        write_tensor(Tensor.from_array(np.ones((6, 6))), path)
    elif kind == "non-finite":
        path.write_bytes(layout_bytes(GOOD.shape, "f64", np.where(GOOD > 9, np.inf, 1.0)))
    elif kind == "non-finite-f32":
        path.write_bytes(layout_bytes(GOOD.shape, "f32", np.full(108, np.nan)))
    elif kind == "non-finite-other-shape":  # the per-snippet reader checks values before shape
        path.write_bytes(layout_bytes((3, 4, 5), "f64", np.full(60, -np.inf)))
    elif kind == "bad-version":  # same length as an f64 map, header differs
        blob = bytearray(layout_bytes(GOOD.shape, "f64", GOOD))
        blob[4] = 9
        path.write_bytes(bytes(blob))
    elif kind == "truncated":
        path.write_bytes(layout_bytes(GOOD.shape, "f64", GOOD)[:-8])
    elif kind in ("trailing-bytes", "trailing-bytes-f32"):  # one byte past a good file's end
        dtype = "f32" if kind.endswith("f32") else "f64"
        path.write_bytes(layout_bytes(GOOD.shape, dtype, GOOD + shift) + b"\0")
    elif kind == "directory":
        path.mkdir()
    else:
        assert kind in ("missing", "unnamed"), kind


class TestFileSourceBlockRead:
    """FileFeatureSource reads a block's files into one array, each opened
    once, through open or os.open; it gives the per-snippet reader's bits,
    or its error for the first bad snippet, a map of another shape than the
    first included."""

    @pytest.mark.parametrize("kinds, error", [
        (("f64",) * 4, None),
        (("f32",) * 4, None),
        (("f64", "f32", "f64", "f32"), None),
        (("f64", "other-shape", "f64", "f64"), DataError),
        (("other-shape", "f32", "f64", "other-shape"), DataError),
        (("non-finite", "missing", "f64", "f64"), TensorFormatError),
        (("2-d", "f64", "non-finite", "f64"), DataError),
        (("f64", "f64", "f64", "non-finite"), TensorFormatError),
        (("f32", "non-finite-f32", "f32", "f32"), TensorFormatError),
        (("f64", "bad-version", "non-finite", "f64"), TensorFormatError),
        (("f64", "f64", "f64", "bad-version"), TensorFormatError),
        (("f64", "same-length-other-shape", "f64", "f64"), DataError),
        (("f64", "f64", "same-length-f32", "f64"), DataError),
        (("f64", "f64", "truncated", "missing"), TensorFormatError),
        (("f64", "f64", "truncated", "f64"), TensorFormatError),
        (("f64", "missing", "non-finite", "f64"), DataError),
        (("f64", "f32", "unnamed", "2-d"), DataError),
        (("f64", "other-shape", "directory", "non-finite"), DataError),
        (("f32", "2-d", "f64", "f64"), DataError),
        (("f64", "non-finite-other-shape", "f64", "2-d"), TensorFormatError),
        (("f64", "trailing-bytes", "f64", "f64"), TensorFormatError),
        (("f64", "f64", "non-finite", "missing"), TensorFormatError),
        (("f32", "f32", "f32", "trailing-bytes-f32"), TensorFormatError),
        (("f32", "non-finite-f32", "missing", "f32"), TensorFormatError),
    ])
    def test_matches_the_per_snippet_source(self, tmp_path, monkeypatch, kinds, error):
        for i, kind in enumerate(kinds):
            write_feature_file(tmp_path / f"s{i}.aent", kind, shift=i / 3)
        snippets = tuple(
            SnippetEntry(index=i, feature_file=None if kind == "unnamed" else f"s{i}.aent",
                         agent_boxes=((0.1, 0.2, 0.6, 0.9),) * (i % 3))
            for i, kind in enumerate(kinds)
        )
        video = VideoMeta(video_id="blk", num_frames=16 * len(kinds), fps=16.0, snippet_len=16)
        m = Manifest(video=video, annotations=(), snippets=snippets)
        w = random_weights(SMALL_CFG, seed=10)
        opened = []

        def counting(real_open):
            def counting_open(path, *args, **kwargs):
                if os.path.dirname(os.fspath(path)) == str(tmp_path):
                    opened.append(os.path.basename(path))
                return real_open(path, *args, **kwargs)
            return counting_open

        def outcome(run, source):
            try:
                return "ok", run(m, w, source)
            except Exception as e:  # the type and message are what is compared
                return type(e), str(e)

        want = outcome(per_snippet_source_featurize_video, PerSnippetFileSource(tmp_path))
        monkeypatch.setattr("builtins.open", counting(open))
        monkeypatch.setattr("os.open", counting(os.open))
        got = outcome(featurize_video, FileFeatureSource(tmp_path))
        monkeypatch.undo()
        if error is None:
            assert got[0] == want[0] == "ok"
            assert got[1].tobytes() == want[1].tobytes()
        else:
            assert got[0] is error
            assert got == want
        # each file once, in index order, up to the first whose open, header, size or shape fails
        shapes = [FEATURE_FILE_SHAPES.get(k, GOOD.shape) for k in kinds]
        stop = next((i for i, k in enumerate(kinds) if shapes[i] != shapes[0] or k in (
            "missing", "directory", "unnamed", "truncated", "bad-version", "2-d", "trailing-bytes",
            "trailing-bytes-f32")), len(kinds) - 1)
        assert opened == [f"s{i}.aent" for i in range(stop + (kinds[stop] != "unnamed"))]

    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_map_that_is_not_c_h_w_is_a_data_error_naming_the_file(self, tmp_path, bad):
        names = ["s0.aent", "s1.aent"]
        for i, name in enumerate(names):
            write_feature_file(tmp_path / name, "2-d" if i == bad else "f64")
        with pytest.raises(DataError) as e:
            FileFeatureSource(tmp_path).get_block("v", range(2), names)
        expected = "(3, 6, 6)" if bad else "[C, H, W]"  # the first map's shape, once there is one
        assert str(e.value) == (f"video 'v': feature file {tmp_path / names[bad]} has shape "
                                f"(6, 6), expected {expected}")

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_one_layout_is_one_array(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        maps = rng.random((5, 3, 4, 6)) * 1e30
        for i, arr in enumerate(maps):
            (tmp_path / f"s{i}.aent").write_bytes(layout_bytes(arr.shape, dtype, arr))
        names = [f"s{i}.aent" for i in range(5)]
        block = FileFeatureSource(tmp_path).get_block("v", range(5), names)
        assert isinstance(block, np.ndarray) and block.shape == (5, 3, 4, 6)
        want = np.stack([read_tensor(tmp_path / n).to_array() for n in names])
        assert block.tobytes() == want.tobytes()

    def test_several_shapes_are_a_data_error_naming_the_file(self, tmp_path):
        write_feature_file(tmp_path / "a.aent", "f64")
        write_feature_file(tmp_path / "b.aent", "other-shape")
        with pytest.raises(DataError) as e:
            FileFeatureSource(tmp_path).get_block("v", range(3), ["a.aent", "b.aent", "a.aent"])
        assert str(e.value) == (f"video 'v': feature file {tmp_path / 'b.aent'} has shape "
                                "(3, 4, 5), expected (3, 6, 6)")

    def test_f32_and_f64_files_of_one_shape_are_one_array(self, tmp_path):
        for name, kind in (("a.aent", "f64"), ("b.aent", "f32")):
            write_feature_file(tmp_path / name, kind)
        block = FileFeatureSource(tmp_path).get_block("v", range(3), ["a.aent", "b.aent", "a.aent"])
        assert block.shape == (3, 3, 6, 6) and block.dtype == np.float64
        assert block[0].tobytes() == block[2].tobytes() == GOOD.tobytes()
        assert block[1].tobytes() == GOOD.astype(np.float32).astype(np.float64).tobytes()


class TestWeightBundles:
    def test_d_model_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            FusionConfig(d_model=10, num_heads=4)

    @pytest.mark.parametrize("field, cap", [
        ("channels", 4096), ("num_heads", 256), ("num_layers", 64),
    ])
    def test_sizes_above_the_cap_are_rejected_naming_field_and_cap(self, field, cap):
        for size in (cap + 1, 100_000_000):
            with pytest.raises(ConfigError, match=rf"^{field} {size} is above the cap of {cap}$"):
                FusionConfig(**{field: size})

    @pytest.mark.parametrize("d_model, count", [
        (4094, 134_254_544), (4096, 134_385_666), (100_000_000, 80_000_004_100_000_002),
    ])
    def test_d_model_is_bounded_by_the_parameter_budget(self, d_model, count):
        """d_model has no cap of its own: at the smallest other sizes the
        budget takes 4093 and refuses 4094, so it refuses 4094 at any sizes."""
        smallest = {"channels": 1, "num_heads": 1, "num_layers": 1, "ff_dim": 1}
        FusionConfig(d_model=4093, **smallest)
        with pytest.raises(ConfigError) as e:
            FusionConfig(d_model=d_model, **smallest)
        assert str(e.value) == (f"the model needs {count} parameters, "
                                f"above the budget of {2**27}")

    @pytest.mark.parametrize("field, value", [
        ("d_model", 64.0), ("channels", 8.5), ("num_layers", True), ("num_heads", "4"),
        ("ff_dim", None), ("d_model", np.float64(64.0)), ("channels", np.True_),
    ])
    def test_non_integer_sizes_are_config_errors(self, field, value):
        with pytest.raises(ConfigError) as e:
            FusionConfig(**{field: value})
        assert str(e.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integer_sizes_are_stored_as_int_and_saved(self, tmp_path):
        cfg = FusionConfig(channels=np.int64(3), d_model=np.int32(8), num_heads=np.int64(2),
                           num_layers=np.uint8(1), ff_dim=np.int64(4))
        assert all(type(getattr(cfg, f.name)) is int for f in dataclasses.fields(cfg))
        save_weights(random_weights(cfg, 0), tmp_path / "w")
        assert load_weights(tmp_path / "w").config == cfg == FusionConfig(3, 8, 2, 1, 4)

    @pytest.mark.parametrize("sizes", [
        {"channels": 4096}, {"num_heads": 256, "d_model": 256}, {"num_layers": 64},
        {"d_model": 2048, "num_layers": 2}, {"d_model": 512, "ff_dim": 2**15},
    ], ids=["channels-cap", "num_heads-cap", "num_layers-cap", "d_model-2048", "wide-ff"])
    def test_configs_within_the_parameter_budget_are_accepted(self, sizes):
        cfg = FusionConfig(**sizes)
        assert sum(math.prod(s) for s in _param_shapes(cfg).values()) <= 2**27

    @pytest.mark.parametrize("sizes, count", [
        ({"d_model": 4096}, 136_954_112),
        ({"d_model": 4096, "num_layers": 8}, 1_091_676_160),
        ({"d_model": 4096, "num_layers": 64}, 8_729_452_544),
        ({"channels": 4096, "d_model": 4096}, 421_609_728),
        ({"ff_dim": 10**12}, 258_000_000_042_752),
        ({"d_model": 2048, "num_layers": 4}, 138_843_136),
    ], ids=["d_model-cap", "8-layers", "64-layers", "channels-and-d_model-caps", "huge-ff",
            "d_model-2048-4-layers"])
    def test_configs_over_the_parameter_budget_are_rejected_with_the_count(self, sizes, count):
        """Built as a config only: random_weights would allocate every parameter."""
        with pytest.raises(ConfigError) as e:
            FusionConfig(**sizes)
        assert str(e.value) == (f"the model needs {count} parameters, "
                                f"above the budget of {2**27}")

    def test_zero_heads_is_a_config_error(self):
        with pytest.raises(ConfigError, match="num_heads must be positive"):
            FusionConfig(num_heads=0)


def _with_params(w, changes, drop=()):
    """w's parameters without the names in drop, with changes set."""
    kept = {name: arr for name, arr in w.params.items() if name not in drop}
    return FusionWeights(w.config, {**kept, **changes})


def _two_layer_env(w):
    """An env stack 3 -> 5 -> 8: the model has one env layer, 3 -> 8."""
    rng = np.random.default_rng(0)
    return _with_params(w, {"env_affine.0.weight": rng.random((5, 3)),
                            "env_affine.0.bias": rng.random(5),
                            "env_affine.1.weight": rng.random((8, 5)),
                            "env_affine.1.bias": rng.random(8)})


class TestFusionWeightsValidation:
    """FusionWeights holds every parameter to its config, so save_weights
    writes the model that load_weights reads."""

    @pytest.mark.parametrize("edit, message", [
        (lambda w: _with_params(w, {name.replace(".0.", ".1."): arr
                                    for name, arr in w.params.items()
                                    if name.startswith("fuse_encoder.0.")}),
         "parameter 'fuse_encoder.1.bk' is not in the model of this config"),
        (lambda w: _with_params(w, {"fuse_encoder.0.ff1_w": np.zeros((16, 7))}),
         "parameter 'fuse_encoder.0.ff1_w' has shape (16, 7), expected (16, 8)"),
        (_two_layer_env, "parameter 'env_affine.0.bias' has shape (5,), expected (8,)"),
        (lambda w: _with_params(w, {}, drop=("env_affine.0.weight", "env_affine.0.bias")),
         "parameter 'env_affine.0.bias' has no value, expected (8,)"),
        (lambda w: _with_params(w, {"patch_proj.bias": np.zeros(7)}),
         "parameter 'patch_proj.bias' has shape (7,), expected (8,)"),
    ], ids=["extra-layer", "ff1_w-shape", "env-hidden-layer", "no-env-layer",
            "patch-bias-length"])
    def test_weights_that_disagree_with_the_config_name_the_parameter(self, edit, message):
        with pytest.raises(ConfigError) as e:
            edit(random_weights(SMALL_CFG, 0))
        assert str(e.value) == message

    def test_encoders_are_views_of_the_parameter_table(self):
        cfg = FusionConfig(channels=3, d_model=8, num_heads=4, num_layers=2, ff_dim=16)
        w = random_weights(cfg, 0)
        for name in ("agent_encoder", "fuse_encoder"):
            enc = getattr(w, name)
            assert enc.num_heads == 4 and len(enc.layers) == 2
            for li, layer in enumerate(enc.layers):
                assert list(layer) == list(_LAYER_PARAMS)
                for p, arr in layer.items():
                    assert arr is w.params[f"{name}.{li}.{p}"]


def _bundle(tmp_path):
    cfg = FusionConfig(channels=3, d_model=8, num_heads=2, num_layers=1, ff_dim=16)
    directory = tmp_path / "bundle"
    save_weights(random_weights(cfg, seed=21), directory)
    return directory


def _edit_index(directory, edit):
    path = directory / "index.json"
    index = json.loads(path.read_text())
    edit(index)
    path.write_text(json.dumps(index))


class TestWeightBundleValidation:
    """A malformed bundle raises ConfigError naming the file and the field."""

    def test_non_json_index(self, tmp_path):
        directory = _bundle(tmp_path)
        (directory / "index.json").write_text("{not json")
        with pytest.raises(InvalidInputError, match=r"index\.json: not valid JSON"):
            load_weights(directory)

    def test_parameter_file_name_with_nul(self, tmp_path):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["params"].__setitem__("patch_proj.bias",
                                                                          "a\0b.aent"))
        with pytest.raises(ConfigError, match=r"index\.json: field 'params\.patch_proj\.bias' "
                                              r"must be a file name"):
            load_weights(directory)

    def test_deeply_nested_index(self, tmp_path):
        directory = _bundle(tmp_path)
        (directory / "index.json").write_text("[" * 100_000)
        with pytest.raises(InvalidInputError, match=r"index\.json: not valid JSON"):
            load_weights(directory)

    def test_non_object_index(self, tmp_path):
        directory = _bundle(tmp_path)
        (directory / "index.json").write_text("[]")
        with pytest.raises(ConfigError, match=r"index\.json: top level must be an object"):
            load_weights(directory)

    @pytest.mark.parametrize("key", ["config", "params"])
    def test_missing_section(self, tmp_path, key):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index.pop(key))
        with pytest.raises(ConfigError, match=rf"index\.json: missing field '{key}'"):
            load_weights(directory)

    @pytest.mark.parametrize("key", ["channels", "d_model", "num_heads", "num_layers",
                                     "ff_dim"])
    def test_missing_config_key(self, tmp_path, key):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["config"].pop(key))
        with pytest.raises(ConfigError, match=rf"index\.json: missing field 'config\.{key}'"):
            load_weights(directory)

    @pytest.mark.parametrize("key,value", [
        ("d_model", "8"), ("d_model", 8.0), ("channels", True), ("num_heads", None),
        ("ff_dim", [16]), ("num_layers", {"n": 1}),
    ])
    def test_wrong_value_type(self, tmp_path, key, value):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["config"].__setitem__(key, value))
        with pytest.raises(ConfigError) as e:
            load_weights(directory)
        assert str(e.value) == (f"{directory / 'index.json'}: field 'config': "
                                f"{key} must be an integer, got {value!r}")

    def test_size_above_the_cap(self, tmp_path):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["config"].__setitem__("num_layers", 10**8))
        with pytest.raises(ConfigError, match=r"index\.json: field 'config': num_layers "
                                              r"100000000 is above the cap of 64"):
            load_weights(directory)

    def test_inconsistent_config(self, tmp_path):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["config"].__setitem__("num_heads", 3))
        with pytest.raises(ConfigError, match=r"index\.json: field 'config': d_model 8"):
            load_weights(directory)

    def test_params_not_an_object(self, tmp_path):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index.__setitem__("params", ["a.aent"]))
        with pytest.raises(ConfigError, match=r"index\.json: field 'params' must be an object"):
            load_weights(directory)

    def test_missing_parameter(self, tmp_path):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["params"].pop("fuse_encoder.0.wq"))
        with pytest.raises(ConfigError,
                           match=r"index\.json: missing field 'params\.fuse_encoder\.0\.wq'"):
            load_weights(directory)

    @pytest.mark.parametrize("edit, field", [
        (lambda index: index.__setitem__("extra", 1), "extra"),
        (lambda index: index["config"].__setitem__("dropout", 0.1), "config.dropout"),
        (lambda index: index["params"].__setitem__(
            "agent_encoder.1.wq", index["params"]["agent_encoder.0.wq"]),
         "params.agent_encoder.1.wq"),
        # fields that bundles written with a configurable env stack and RoIAlign carry
        *((lambda index, k=key, v=value: index["config"].__setitem__(k, v), f"config.{key}")
          for key, value in (("env_hidden", []), ("env_softmax", True),
                             ("roi_grid", [4, 4]), ("roi_samples", [2, 2]))),
    ], ids=["top-level", "config", "params-of-a-layer-the-config-lacks",
            "env_hidden", "env_softmax", "roi_grid", "roi_samples"])
    def test_unknown_field(self, tmp_path, edit, field):
        directory = _bundle(tmp_path)
        _edit_index(directory, edit)
        with pytest.raises(ConfigError) as e:
            load_weights(directory)
        assert str(e.value) == f"{directory / 'index.json'}: unknown field '{field}'"

    def test_parameter_file_name_not_a_string(self, tmp_path):
        directory = _bundle(tmp_path)
        _edit_index(directory, lambda index: index["params"].__setitem__("patch_proj.bias", 3))
        with pytest.raises(ConfigError,
                           match=r"field 'params\.patch_proj\.bias' must be a file name"):
            load_weights(directory)

    @pytest.mark.parametrize("name,shape", [
        ("agent_encoder.0.wq", (8, 4)),
        ("agent_encoder.0.ff1_w", (8, 16)),
        ("fuse_encoder.0.ln2_shift", (7,)),
        ("env_affine.0.weight", (8, 4)),
        ("patch_proj.weight", (8, 3, 16)),
    ])
    def test_wrong_parameter_shape(self, tmp_path, name, shape):
        directory = _bundle(tmp_path)
        fname = json.loads((directory / "index.json").read_text())["params"][name]
        write_tensor(Tensor.from_array(np.zeros(shape)), directory / fname)
        with pytest.raises(ConfigError, match=rf"{fname}: parameter '{name}' has shape"):
            load_weights(directory)
