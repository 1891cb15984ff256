"""Forward-only numerics of the two-pathway snippet representation.

Per snippet: a backbone feature map feeds an environment pathway (global
average pool, fully connected stack, softmax) and an agent pathway
(RoIAlign patches per detected agent, fused through a self-attention
encoder); the two results are fused by a second encoder into one feature
vector per snippet.

All math is float64. Encoders use pre-normalization and carry no
positional encodings: agent sets are unordered, which makes the fusion
permutation-invariant by construction.

`featurize_video` runs a video in blocks of BLOCK_SNIPPETS snippets, and
each layer function takes a whole block, with a single snippet as the
B=1 case. It reads the manifest's snippets as tensorio.Snippets columns:
it maps snippet index to entry row once per video, gathers the agent
boxes into snippet order as one [N, 4] array, and slices each block's
box counts and boxes out of those. A feature source hands over a
block's maps in one call: the stub as one [B, C, H, W] buffer, checked
once; the file source, when its files share one layout, as one such
array, checked once too (else one array per snippet, which the block
groups into one stack per distinct map shape). Per block: one mean over H x W
per stack, and one pooled [B, C] matrix through the environment stack;
one RoIAlign call per stack that holds boxes, over all of them; one
agent-encoder batch [B_n, n, d_model] per agent count n (equal counts
need no attention mask); one fuse-encoder batch for the snippets without
agents (1 token) and one for the rest (2 tokens). Attention over a
single token skips the queries, keys and softmax, which is exactly 1
there. RoIAlign is separable: a bilinear weight is a row weight times
a column weight, and so is its mean over a bin's regular sub-samples, so
each patch is Ay @ map @ Ax^T with Ay [gh, H] and Ax [gw, W] the per-bin
mean interpolation weights. Blocks, not whole videos, bound the size of the
temporaries: 256 snippets of the stub's 8 x 8 x 8 maps are 1 MB, and one
block holds a whole desk-corpus video (T 64..128). Results match the
per-snippet path to rounding (~1e-15). Block size changes the batch that
BLAS sums over, so it changes features in the last bits only: going
from 64- to 256-snippet blocks moved them by at most 1.5e-15.
Layer norm centres its input once and takes the variance as the mean
square of that.

The stub backbone keys one counter-based Philox stream per (seed, video,
snippet). A process builds a single Philox generator, on its first stub
call, and re-keys it for every snippet: counter 0, empty output buffer.
Philox output is a pure function of key and counter (Salmon et al.,
SC 2011), so this gives the same bits as a fresh generator per snippet,
at well under half the cost. Building it lazily keeps numpy.random out
of stages that never run the stub.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np

from tapgen.errors import ConfigError, DataError, InvalidInputError
from tapgen.tensorio import (Snippets, Tensor, read_tensor, tensor_block_from_bytes,
                             tensor_from_bytes, write_json, write_tensor)
from tapgen.timeline import build_grid

LN_EPS = 1e-5
BLOCK_SNIPPETS = 256  # snippets per featurize batch

__all__ = [
    "FeatureMap",
    "FusionConfig",
    "EncoderLayerWeights",
    "EncoderWeights",
    "FusionWeights",
    "stub_backbone",
    "environment_pathway",
    "roi_align",
    "attention_encoder",
    "agent_fusion",
    "ae_fuse",
    "featurize_video",
    "random_weights",
    "save_weights",
    "load_weights",
    "StubFeatureSource",
    "FileFeatureSource",
]


@dataclass(frozen=True)
class FeatureMap:
    """Backbone output for one snippet: values of shape [C, H, W]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        _check_map_shape(v.shape)
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("feature map contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def C(self) -> int:
        return self.values.shape[0]

    @property
    def H(self) -> int:
        return self.values.shape[1]

    @property
    def W(self) -> int:
        return self.values.shape[2]


def _check_map_shape(shape: tuple[int, ...]) -> None:
    if len(shape) != 3:
        raise InvalidInputError(f"feature map must be [C, H, W], got shape {shape}")
    if any(d < 1 for d in shape):
        raise InvalidInputError(f"feature map dims must be positive, got {shape}")


# Past these, weights fail to allocate or grow layer by layer until memory runs out.
_MAX_SIZES = {"channels": 2**12, "d_model": 2**12, "num_heads": 2**8, "num_layers": 2**6}


@dataclass(frozen=True)
class FusionConfig:
    """Architecture hyperparameters; defaults are desk-scale."""

    channels: int = 8
    d_model: int = 64
    num_heads: int = 4
    num_layers: int = 1
    ff_dim: int = 128
    env_hidden: tuple[int, ...] = ()
    roi_grid: tuple[int, int] = (4, 4)  # (gh, gw)
    roi_samples: tuple[int, int] = (2, 2)  # (sh, sw)
    env_softmax: bool = True  # False exposes pre-softmax logits

    def __post_init__(self):
        for name in ("channels", "d_model", "num_heads", "num_layers", "ff_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name, cap in _MAX_SIZES.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} {getattr(self, name)} is above the cap of {cap}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if any(g < 1 for g in self.roi_grid) or any(s < 1 for s in self.roi_samples):
            raise ConfigError("roi grid and sample counts must be positive")


@dataclass(frozen=True)
class EncoderLayerWeights:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ff1_w: np.ndarray
    ff1_b: np.ndarray
    ff2_w: np.ndarray
    ff2_b: np.ndarray
    ln1_scale: np.ndarray
    ln1_shift: np.ndarray
    ln2_scale: np.ndarray
    ln2_shift: np.ndarray


@dataclass(frozen=True)
class EncoderWeights:
    layers: tuple[EncoderLayerWeights, ...]
    num_heads: int

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("encoder needs at least one layer")
        d = self.layers[0].wq.shape[0]
        if d % self.num_heads != 0:
            raise ConfigError(f"d_model {d} not divisible by num_heads {self.num_heads}")


@dataclass(frozen=True)
class FusionWeights:
    """All learnable parameters of the two pathways and the fusion stage."""

    config: FusionConfig
    env_affine: tuple[tuple[np.ndarray, np.ndarray], ...]  # (weight [out, in], bias [out])
    patch_proj: tuple[np.ndarray, np.ndarray]  # C*gh*gw -> d_model
    agent_encoder: EncoderWeights
    fuse_encoder: EncoderWeights

    def __post_init__(self):
        """Hold every parameter to _param_shapes(config), in name order, and
        both encoders to config.num_heads, so a saved bundle is this model."""
        for name in ("agent_encoder", "fuse_encoder"):
            heads = getattr(self, name).num_heads
            if heads != self.config.num_heads:
                raise ConfigError(f"{name} has {heads} heads, expected {self.config.num_heads}")
        got = {name: np.shape(arr) for name, arr in _named_params(self).items()}
        want = _param_shapes(self.config)
        for name in sorted(got.keys() | want.keys()):
            if name not in want:
                raise ConfigError(f"parameter {name!r} is not in the model of this config")
            if got.get(name) != want[name]:
                shape = f"shape {got[name]}" if name in got else "no value"
                raise ConfigError(f"parameter {name!r} has {shape}, expected {want[name]}")


# The stub's one generator per process, built on first use (module
# docstring). Every call overwrites its whole state under the lock.
_stub_lock = threading.Lock()
_stub_rng = None
_ZERO4 = np.zeros(4, dtype=np.uint64)


def stub_backbone(video_id: str, snippet_index, dims: tuple[int, int, int], seed: int):
    """Deterministic stand-in for the convolutional backbone.

    A counter-mode generator keyed on (seed, video_id, snippet_index)
    produces bit-identical maps across platforms and processes. The key
    is the first 16 bytes of a SHA-256 of the three. Values equal
    Generator(Philox(key=key)).random((c, h, w)): the process's one
    Philox generator is re-keyed with counter 0 and an empty buffer,
    which is exactly the state a new Philox(key=key) starts from.

    Returns a FeatureMap for one index; for a sequence of B indices, the
    maps in that order as one [B, c, h, w] array.
    """
    global _stub_rng
    c, h, w = dims
    if c < 1 or h < 1 or w < 1:
        raise InvalidInputError(f"stub dims must be positive, got {dims}")
    single = np.ndim(snippet_index) == 0
    indices = (snippet_index,) if single else snippet_index
    block = np.empty((len(indices), c, h, w), dtype=np.float64)
    with _stub_lock:
        if _stub_rng is None:
            _stub_rng = np.random.Generator(np.random.Philox(0))
        for k, index in enumerate(indices):
            digest = hashlib.sha256(f"{seed}\x00{video_id}\x00{index}".encode("utf-8")).digest()
            _stub_rng.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": _ZERO4, "key": np.frombuffer(digest[:16], dtype=np.uint64)},
                "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            _stub_rng.random(out=block[k])
    if single:
        return FeatureMap(values=block[0])
    if not np.isfinite(block).all():
        raise InvalidInputError("feature map contains non-finite values")
    return block


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def environment_pathway(fmap, w: FusionWeights) -> np.ndarray:
    """Global average pool over H x W, fully connected stack, softmax.

    Returns the scene descriptor as a probability vector of length d_model
    (or raw logits when config.env_softmax is off). Batched form: a list
    of (rows, [b, C, H, W] stack) pairs, one per map shape, whose rows
    together are 0..B-1; returns one row per map, [B, d_model].
    """
    single = isinstance(fmap, FeatureMap)
    stacks = [(np.zeros(1, dtype=np.intp), fmap.values[None])] if single else fmap
    x = np.empty((sum(len(rows) for rows, _ in stacks), w.config.channels))
    for rows, stack in stacks:
        if stack.shape[1] != w.config.channels:
            raise ConfigError(
                f"feature map has {stack.shape[1]} channels, weights expect {w.config.channels}"
            )
        x[rows] = stack.mean(axis=(2, 3))
    last = len(w.env_affine) - 1
    for i, (mat, bias) in enumerate(w.env_affine):
        x = x @ mat.T + bias
        if i < last:
            x = np.maximum(x, 0.0)
    out = _softmax(x) if w.config.env_softmax else x
    return out[0] if single else out


def _bin_weights(lo: np.ndarray, hi: np.ndarray, size: int, bins: int, samples: int) -> np.ndarray:
    """Interpolation weights along one axis, averaged over each bin's samples.

    lo, hi: [N] normalized box edges. Returns [N, bins, size]: row b holds
    the mean bilinear weight of every map cell over the samples of bin b.
    Pixel centers sit at integer index + 0.5; coordinates clamp to the map.
    """
    lo = lo * size
    step = (hi * size - lo) / bins
    offsets = np.arange(bins)[:, None] + (np.arange(samples)[None, :] + 0.5) / samples
    pos = np.clip(lo[:, None, None] + offsets * step[:, None, None] - 0.5, 0.0, size - 1.0)
    near = np.floor(pos).astype(np.int64)
    far = np.minimum(near + 1, size - 1)
    frac = (pos - near)[..., None]
    cells = np.arange(size)
    weights = (cells == near[..., None]) * (1 - frac) + (cells == far[..., None]) * frac
    return weights.mean(axis=2)


def roi_align(
    fmap,
    box,
    out_grid: tuple[int, int] = (4, 4),
    samples_per_bin: tuple[int, int] = (2, 2),
    map_index=None,
) -> np.ndarray:
    """Average-pooled bilinear sampling of a normalized box, shape [C, gh, gw].

    The box is scaled to continuous feature coordinates (x * W, y * H);
    each output bin averages sh x sw samples at regular fractional
    offsets, with no coordinate rounding anywhere.

    Batched form: fmap is a stack [M, C, H, W] of equal-size maps, box an
    [N, 4] array and map_index [N] the map of each box (default map 0);
    returns [N, C, gh, gw]. Each patch is Ay @ map @ Ax^T (module docstring).
    """
    gh, gw = out_grid
    sh, sw = samples_per_bin
    values = fmap.values[None] if isinstance(fmap, FeatureMap) else np.asarray(fmap, np.float64)
    boxes = np.asarray(box, dtype=np.float64)
    single = boxes.ndim == 1
    boxes = boxes.reshape(-1, 4)
    if map_index is None:
        map_index = np.zeros(len(boxes), dtype=np.intp)
    _, _, h, w = values.shape
    ay = _bin_weights(boxes[:, 1], boxes[:, 3], h, gh, sh)  # [N, gh, H]
    ax = _bin_weights(boxes[:, 0], boxes[:, 2], w, gw, sw)  # [N, gw, W]
    patches = ay[:, None] @ values[map_index] @ ax[:, None].transpose(0, 1, 3, 2)
    return patches[0] if single else patches


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    c = x - x.mean(axis=-1, keepdims=True)
    var = (c * c).mean(axis=-1, keepdims=True)  # what x.var computes, without centring again
    return c / np.sqrt(var + LN_EPS) * scale + shift


def _linear(x: np.ndarray, mat: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ mat.T + bias over the last axis, as one 2-D matrix product."""
    flat = x.reshape(-1, x.shape[-1]) @ mat.T + bias
    return flat.reshape(*x.shape[:-1], mat.shape[0])


def _self_attention(
    x: np.ndarray, lw: EncoderLayerWeights, num_heads: int
) -> tuple[np.ndarray, np.ndarray]:
    *lead, n, d = x.shape
    heads = (*lead, n, num_heads, d // num_heads)
    v = _linear(x, lw.wv, lw.bv)
    if n == 1:  # softmax over one key is exactly 1, and einsum's sum of 1 * v is 0.0 + v
        return _linear(v + 0.0, lw.wo, lw.bo), np.ones((*lead, num_heads, 1, 1))
    v = v.reshape(heads)
    q = _linear(x, lw.wq, lw.bq).reshape(heads)
    k = _linear(x, lw.wk, lw.bk).reshape(heads)
    scores = np.einsum("...qhd,...khd->...hqk", q, k) / np.sqrt(heads[-1])
    attn = _softmax(scores, axis=-1)  # [..., heads, n, n]
    mixed = np.einsum("...hqk,...khd->...qhd", attn, v).reshape(x.shape)
    return _linear(mixed, lw.wo, lw.bo), attn


def attention_encoder(
    tokens: np.ndarray, w: EncoderWeights, return_attn: bool = False
):
    """Pre-norm self-attention encoder over an unordered token set.

    tokens: [n, d_model], or [B, n, d_model] for B independent sets of n
    tokens each. With no positional encodings, the map is
    permutation-equivariant. When return_attn is set, also returns the
    per-layer attention tensors [num_heads, n, n] ([B, num_heads, n, n]).
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-2] < 1:
        raise InvalidInputError("attention_encoder needs at least one token")
    d = w.layers[0].wq.shape[0]
    if x.shape[-1] != d:
        raise ConfigError(f"token dim {x.shape[-1]} != encoder d_model {d}")
    attns = []
    for lw in w.layers:
        h = _layer_norm(x, lw.ln1_scale, lw.ln1_shift)
        mixed, attn = _self_attention(h, lw, w.num_heads)
        attns.append(attn)
        x = x + mixed
        h = _layer_norm(x, lw.ln2_scale, lw.ln2_shift)
        ff = _linear(np.maximum(_linear(h, lw.ff1_w, lw.ff1_b), 0.0), lw.ff2_w, lw.ff2_b)
        x = x + ff
    if return_attn:
        return x, attns
    return x


def agent_fusion(patches, w: FusionWeights) -> np.ndarray | None:
    """Fuse per-agent RoI patches into one vector; None when no agents.

    Batched form: an array [B, n, C, gh, gw] of n patches for each of B
    snippets gives [B, d_model].
    """
    if len(patches) == 0:
        return None
    gh, gw = w.config.roi_grid
    expected = (w.config.channels, gh, gw)
    batch = isinstance(patches, np.ndarray) and patches.ndim == 5
    shapes = {patches.shape[2:]} if batch else {np.shape(p) for p in patches}
    if shapes != {expected}:
        raise InvalidInputError(
            f"patch shapes {sorted(shapes)} != expected {expected} (mixed or wrong dims)"
        )
    stacked = patches if batch else np.stack(patches)[None]
    b, n = stacked.shape[:2]
    pw, pb = w.patch_proj
    tokens = _linear(stacked.reshape(b, n, -1), pw, pb)
    fused = attention_encoder(tokens, w.agent_encoder).mean(axis=-2)
    return fused if batch else fused[0]


def ae_fuse(env: np.ndarray, agents: np.ndarray | None, w: FusionWeights) -> np.ndarray:
    """Re-weight scene vs agent information through the fusion encoder.

    env [d_model] (agents the same, or None); or [B, d_model] rows, each
    fused with the agents row of the same index.
    """
    d = w.config.d_model
    if env.ndim not in (1, 2) or env.shape[-1] != d:
        raise ConfigError(f"env vector shape {env.shape} != ({d},)")
    if agents is None:
        tokens = env[..., None, :]
    else:
        if agents.shape != env.shape:
            raise ConfigError(f"agents vector shape {agents.shape} != {env.shape}")
        tokens = np.stack([env, agents], axis=-2)
    return attention_encoder(tokens, w.fuse_encoder).mean(axis=-2)


# ---------------------------------------------------------------------------
# Feature-map sources and the per-video pipeline
# ---------------------------------------------------------------------------

class StubFeatureSource:
    """Seeded deterministic maps, keyed per (video, snippet)."""

    def __init__(self, seed: int, dims: tuple[int, int, int]):
        self.seed = seed
        self.dims = dims

    def get_block(self, video_id: str, indices, feature_files) -> np.ndarray:
        return stub_backbone(video_id, indices, self.dims, self.seed)


class FileFeatureSource:
    """Feature maps read from tensor files named in the manifest, each
    file once; a block of one file layout becomes one array (module
    docstring), any other block is parsed file by file."""

    def __init__(self, base_dir: str | os.PathLike):
        self.base_dir = os.fspath(base_dir)

    def get_block(self, video_id: str, indices, feature_files):
        paths, blobs, failure = [], [], None
        for snippet_index, feature_file in zip(indices, feature_files):
            try:
                path, blob = self._read(video_id, snippet_index, feature_file)
            except (DataError, OSError, ValueError) as e:  # no file, or a bad name for one
                failure = e  # raised below, once the files before it are checked
                break
            paths.append(path)
            blobs.append(blob)
        if failure is None and blobs:
            block = tensor_block_from_bytes(blobs)
            if block is not None and block.ndim == 4:
                return block
        maps = []
        for path, blob in zip(paths, blobs):
            values = tensor_from_bytes(blob, name=path).to_array()  # finite, dims positive
            _check_map_shape(values.shape)
            maps.append(values)
        if failure is not None:
            raise failure
        return maps

    def _read(self, video_id: str, snippet_index: int, feature_file) -> tuple[str, bytes]:
        if feature_file is None:
            raise DataError(f"video {video_id!r}: no feature file for snippet {snippet_index}")
        path = os.path.join(self.base_dir, feature_file)
        try:
            with open(path, "rb") as fh:
                return path, fh.read()
        except FileNotFoundError as e:
            raise DataError(
                f"video {video_id!r}: feature file {path} for snippet {snippet_index} is missing"
            ) from e


def _stacks(maps) -> list[tuple[np.ndarray, np.ndarray]]:
    """A block's maps as (rows, [b, C, H, W] stack) pairs, one per map
    shape in order of first appearance; a 4-D array is one stack already."""
    if isinstance(maps, np.ndarray):
        return [(np.arange(len(maps)), maps)]
    rows: dict[tuple[int, ...], list[int]] = {}
    for k, m in enumerate(maps):
        rows.setdefault(m.shape, []).append(k)
    return [(np.array(r), np.stack([maps[k] for k in r])) for r in rows.values()]


def featurize_video(manifest, w: FusionWeights, source) -> np.ndarray:
    """Run the full two-pathway pipeline over every snippet.

    Returns the [T, d_model] feature matrix with rows in snippet order.
    Snippets absent from the manifest contribute no agent boxes. Snippets
    go through the layers BLOCK_SNIPPETS at a time (module docstring):
    source.get_block(video_id, indices, feature_files) gives a block's
    maps, as one [B, C, H, W] array or as B [C, H, W] arrays in index
    order; feature_files holds each snippet's file name, None where the
    manifest names none.
    """
    T = build_grid(manifest.video).T
    snippets = Snippets.of(manifest.snippets)
    row = np.full(T, -1)  # each snippet's entry row; -1 where the manifest lists none
    listed = np.flatnonzero((snippets.indices >= 0) & (snippets.indices < T))
    row[snippets.indices[listed]] = listed
    present = row >= 0
    counts = np.zeros(T, dtype=np.intp)
    counts[present] = snippets.box_counts[row[present]]
    first = np.zeros(T, dtype=np.intp)  # each snippet's first box in snippets.boxes
    first[present] = (np.cumsum(snippets.box_counts) - snippets.box_counts)[row[present]]
    edges = np.concatenate(([0], np.cumsum(counts)))  # snippet i's boxes in snippet order
    boxes = snippets.boxes[np.repeat(first - edges[:-1], counts) + np.arange(edges[-1])]
    files = [snippets.feature_files[r] if r >= 0 else None for r in row.tolist()]
    out = np.empty((T, w.config.d_model), dtype=np.float64)
    for start in range(0, T, BLOCK_SNIPPETS):
        stop = min(start + BLOCK_SNIPPETS, T)
        stacks = _stacks(source.get_block(manifest.video.video_id, range(start, stop),
                                          files[start:stop]))
        env = environment_pathway(stacks, w)
        block_counts = counts[start:stop]
        agents = _block_agents(stacks, boxes[edges[start]:edges[stop]], block_counts, w)
        block = out[start:stop]
        alone = block_counts == 0
        if alone.any():
            block[alone] = ae_fuse(env[alone], None, w)
        if not alone.all():
            block[~alone] = ae_fuse(env[~alone], agents[~alone], w)
    return out


def _block_agents(stacks, boxes: np.ndarray, counts: np.ndarray, w: FusionWeights) -> np.ndarray:
    """Agent vectors [B, d_model] of one block, from its [N, 4] boxes in
    snippet order, counts[i] of them for snippet i; rows of snippets without
    agents stay zero. Boxes are RoI-aligned per stack, then encoded per
    agent count."""
    cfg = w.config
    owner = np.repeat(np.arange(len(counts)), counts)  # snippet of each box
    patches = np.empty((len(boxes), cfg.channels, *cfg.roi_grid))
    for rows, stack in stacks:
        local = np.full(len(counts), -1)
        local[rows] = np.arange(len(rows))
        sel = local[owner] >= 0
        if sel.any():
            patches[sel] = roi_align(
                stack, boxes[sel], cfg.roi_grid, cfg.roi_samples, local[owner[sel]]
            )
    agents = np.zeros((len(counts), cfg.d_model))
    first = np.cumsum(counts) - counts  # each snippet's first box
    for n in sorted(set(counts.tolist()) - {0}):  # np.unique would import numpy.ma
        snips = np.flatnonzero(counts == n)
        agents[snips] = agent_fusion(patches[first[snips][:, None] + np.arange(n)], w)
    return agents


# ---------------------------------------------------------------------------
# Weight construction and bundles
# ---------------------------------------------------------------------------

_LAYER_PARAMS = tuple(f.name for f in fields(EncoderLayerWeights))


def _named_params(w: FusionWeights) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    for i, (mat, bias) in enumerate(w.env_affine):
        params[f"env_affine.{i}.weight"] = mat
        params[f"env_affine.{i}.bias"] = bias
    params["patch_proj.weight"], params["patch_proj.bias"] = w.patch_proj
    for enc_name, enc in (("agent_encoder", w.agent_encoder), ("fuse_encoder", w.fuse_encoder)):
        for li, layer in enumerate(enc.layers):
            for p in _LAYER_PARAMS:
                params[f"{enc_name}.{li}.{p}"] = getattr(layer, p)
    return params


def save_weights(w: FusionWeights, directory: str | os.PathLike) -> None:
    """Write the bundle: one tensor file per parameter plus a JSON index."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    index = {"config": asdict(w.config), "params": {}}  # tuples as JSON lists
    for name, arr in sorted(_named_params(w).items()):
        fname = name.replace(".", "_") + ".aent"
        write_tensor(Tensor.from_array(arr), os.path.join(directory, fname))
        index["params"][name] = fname
    write_json(os.path.join(directory, "index.json"), index)


def _param_shapes(cfg: FusionConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of a bundle, by name."""
    d, ff = cfg.d_model, cfg.ff_dim
    dims = [cfg.channels, *cfg.env_hidden, d]
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(len(dims) - 1):
        shapes[f"env_affine.{i}.weight"] = (dims[i + 1], dims[i])
        shapes[f"env_affine.{i}.bias"] = (dims[i + 1],)
    gh, gw = cfg.roi_grid
    shapes["patch_proj.weight"] = (d, cfg.channels * gh * gw)
    shapes["patch_proj.bias"] = (d,)
    layer = {p: (d,) for p in _LAYER_PARAMS}
    layer.update(wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d),
                 ff1_w=(ff, d), ff1_b=(ff,), ff2_w=(d, ff))
    for enc_name in ("agent_encoder", "fuse_encoder"):
        for li in range(cfg.num_layers):
            shapes.update({f"{enc_name}.{li}.{p}": shape for p, shape in layer.items()})
    return shapes


def _weights_from_params(cfg: FusionConfig, params: dict[str, np.ndarray]) -> FusionWeights:
    def encoder(enc_name: str) -> EncoderWeights:
        layers = tuple(
            EncoderLayerWeights(**{p: params[f"{enc_name}.{li}.{p}"] for p in _LAYER_PARAMS})
            for li in range(cfg.num_layers)
        )
        return EncoderWeights(layers=layers, num_heads=cfg.num_heads)

    return FusionWeights(
        config=cfg,
        env_affine=tuple(
            (params[f"env_affine.{i}.weight"], params[f"env_affine.{i}.bias"])
            for i in range(1 + len(cfg.env_hidden))
        ),
        patch_proj=(params["patch_proj.weight"], params["patch_proj.bias"]),
        agent_encoder=encoder("agent_encoder"),
        fuse_encoder=encoder("fuse_encoder"),
    )


def random_weights(cfg: FusionConfig, seed: int) -> FusionWeights:
    """Seeded weights, uniform in [-1/sqrt(d_model), +1/sqrt(d_model)];
    layer norms start as the identity."""
    rng = np.random.Generator(np.random.Philox(seed))
    scale = 1.0 / np.sqrt(cfg.d_model)
    params = {}
    for name, shape in _param_shapes(cfg).items():  # draw order fixes the values
        if ".ln" not in name:
            params[name] = rng.uniform(-scale, scale, size=shape)
        else:
            params[name] = np.ones(shape) if name.endswith("scale") else np.zeros(shape)
    return _weights_from_params(cfg, params)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _config_from_index(index, where: str) -> FusionConfig:
    """Validate index.json down to each config field; errors name the field."""
    if not isinstance(index, dict):
        raise ConfigError(f"{where}: top level must be an object")
    for key in ("config", "params"):
        if key not in index:
            raise ConfigError(f"{where}: missing field {key!r}")
        if not isinstance(index[key], dict):
            raise ConfigError(f"{where}: field {key!r} must be an object")
    c = index["config"]

    def field(name: str, ok, kind: str):
        if name not in c:
            raise ConfigError(f"{where}: missing field 'config.{name}'")
        if not ok(c[name]):
            raise ConfigError(f"{where}: field 'config.{name}' must be {kind}, got {c[name]!r}")
        return c[name]

    def int_list(n: int | None):
        return lambda v: (isinstance(v, list) and (n is None or len(v) == n)
                          and all(_is_int(x) and x >= 1 for x in v))

    kwargs = {n: field(n, _is_int, "an integer")
              for n in ("channels", "d_model", "num_heads", "num_layers", "ff_dim")}
    kwargs["env_hidden"] = tuple(field("env_hidden", int_list(None), "a list of positive integers"))
    for name in ("roi_grid", "roi_samples"):
        kwargs[name] = tuple(field(name, int_list(2), "a list of 2 positive integers"))
    kwargs["env_softmax"] = field("env_softmax", lambda v: isinstance(v, bool), "true or false")
    try:
        return FusionConfig(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}: field 'config': {e}") from e


def load_weights(directory: str | os.PathLike) -> FusionWeights:
    """Read a bundle written by save_weights.

    Every index field and every parameter shape is checked; a bad one
    raises ConfigError naming the file and the field.
    """
    directory = os.fspath(directory)
    index_path = os.path.join(directory, "index.json")
    with open(index_path, "r", encoding="utf-8") as fh:
        try:
            index = json.load(fh)
        except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
            raise ConfigError(f"{index_path}: not valid JSON ({e})") from e
    cfg = _config_from_index(index, index_path)
    files = index["params"]
    params = {}
    for name, shape in _param_shapes(cfg).items():
        fname = files.get(name)
        if fname is None:
            raise ConfigError(f"{index_path}: missing field 'params.{name}'")
        if not isinstance(fname, str) or "\0" in fname:
            raise ConfigError(f"{index_path}: field 'params.{name}' must be a file name")
        path = os.path.join(directory, fname)
        params[name] = read_tensor(path).to_array()
        if params[name].shape != shape:
            raise ConfigError(
                f"{path}: parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )
    return _weights_from_params(cfg, params)
