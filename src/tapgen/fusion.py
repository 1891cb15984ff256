"""Forward-only numerics of the two-pathway snippet representation.

Per snippet: a backbone feature map feeds an environment pathway (global
average pool, one affine layer, softmax) and an agent pathway (RoIAlign
patches of a fixed ROI_GRID per detected agent, fused through a
self-attention encoder); the two results are fused by a second encoder
into one feature vector per snippet.

All math is float64. Encoders use pre-normalization and carry no
positional encodings: agent sets are unordered, which makes the fusion
permutation-invariant by construction.

`featurize_video` runs a video in blocks of BLOCK_SNIPPETS snippets, and
each layer function takes a whole block, with a single snippet as the
B=1 case. It reads the manifest's snippets as tensorio.Snippets columns:
it maps snippet index to entry row once per video, gathers the agent
boxes into snippet order as one [N, 4] array, and slices each block's
box counts and boxes out of those. A video's maps share one [C, H, W]
shape, and a feature source hands over a block's maps in one call as
one [B, C, H, W] array: the stub as one buffer, checked once; the file
source as the one array that tensorio.read_tensors reads its files
into, each file opened once, and checked once too. Per block:
one mean over H x W, and one pooled [B, C] matrix through the
environment layer; one RoIAlign call over all its boxes; one
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

The weights are one table: FusionWeights maps each bundle parameter name
(_param_shapes) to its array, and the layers read their parameters from it
by name. Each encoder is a view built once, its layers the table's arrays.

The stub backbone keys one counter-based Philox stream per (seed, video).
Philox output is a pure function of key and counter (Salmon et al.,
SC 2011), so a block of snippets is one draw after advancing the stream to
its first snippet's counter: each map starts on a counter boundary of its
own, and depends on (seed, video, snippet) alone, not on the block edges.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from tapgen.errors import ConfigError, DataError, InvalidInputError
from tapgen.tensorio import (Tensor, check_fields, read_json, read_tensor, read_tensors,
                             write_json, write_tensor)
from tapgen.timeline import build_grid

LN_EPS = 1e-5
BLOCK_SNIPPETS = 256  # snippets per featurize batch
ROI_GRID = (4, 4)  # (gh, gw) bins of each agent's RoIAlign patch
ROI_SAMPLES = (2, 2)  # (sh, sw) samples per bin
ROI_CELLS = 1 << 17  # map cells RoIAlign gathers at once: 1 MiB of float64

__all__ = [
    "FeatureMap",
    "FusionConfig",
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


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Backbone output for one snippet: values of shape [C, H, W]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise InvalidInputError(f"feature map must be [C, H, W], got shape {v.shape}")
        if v.size == 0:
            raise InvalidInputError(f"feature map dims must be positive, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("feature map contains non-finite values")
        object.__setattr__(self, "values", v)


# Past these, weights fail to allocate or grow layer by layer until memory runs out.
_MAX_SIZES = {"channels": 2**12, "num_heads": 2**8, "num_layers": 2**6}
_MAX_PARAMS = 2**27  # float64 parameters of one model (1 GiB), all held before any video


@dataclass(frozen=True)
class FusionConfig:
    """Architecture sizes; defaults are desk-scale."""

    channels: int = 8
    d_model: int = 64
    num_heads: int = 4
    num_layers: int = 1
    ff_dim: int = 128

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            try:
                if isinstance(v, bool):  # which operator.index takes
                    raise TypeError
                object.__setattr__(self, f.name, int(operator.index(v)))  # JSON takes no np.int64
            except TypeError:
                raise ConfigError(f"{f.name} must be an integer, got {v!r}") from None
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be positive")
        for name, cap in _MAX_SIZES.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} {getattr(self, name)} is above the cap of {cap}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        count = sum(math.prod(shape) for shape in _param_shapes(self).values())
        if count > _MAX_PARAMS:
            raise ConfigError(f"the model needs {count} parameters, "
                              f"above the budget of {_MAX_PARAMS}")


# The parameters of one encoder layer; this order is random_weights' draw order.
_LAYER_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ff1_w", "ff1_b", "ff2_w", "ff2_b",
                 "ln1_scale", "ln1_shift", "ln2_scale", "ln2_shift")


@dataclass(frozen=True, eq=False)
class EncoderWeights:
    layers: tuple[Mapping[str, np.ndarray], ...]  # each keyed by _LAYER_PARAMS
    num_heads: int

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("encoder needs at least one layer")
        d = self.layers[0]["wq"].shape[0]
        if d % self.num_heads != 0:
            raise ConfigError(f"d_model {d} not divisible by num_heads {self.num_heads}")


@dataclass(frozen=True, eq=False)
class FusionWeights:
    """All learnable parameters of the two pathways and the fusion stage,
    by bundle name: `env_affine.0.weight`, `patch_proj.bias`,
    `agent_encoder.0.wq`, ... (_param_shapes)."""

    config: FusionConfig
    params: dict[str, np.ndarray]
    agent_encoder: EncoderWeights = field(init=False, repr=False)
    fuse_encoder: EncoderWeights = field(init=False, repr=False)

    def __post_init__(self):
        """Hold every parameter to _param_shapes(config), in name order, so a
        saved bundle is this model; then build the encoder views (module docstring)."""
        got = {name: np.shape(arr) for name, arr in self.params.items()}
        want = _param_shapes(self.config)
        for name in sorted(got.keys() | want.keys()):
            if name not in want:
                raise ConfigError(f"parameter {name!r} is not in the model of this config")
            if got.get(name) != want[name]:
                shape = f"shape {got[name]}" if name in got else "no value"
                raise ConfigError(f"parameter {name!r} has {shape}, expected {want[name]}")
        for enc in ("agent_encoder", "fuse_encoder"):
            layers = tuple({p: self.params[f"{enc}.{li}.{p}"] for p in _LAYER_PARAMS}
                           for li in range(self.config.num_layers))
            object.__setattr__(self, enc, EncoderWeights(layers, self.config.num_heads))


def stub_backbone(video_id: str, start: int, stop: int, dims: tuple[int, int, int],
                  seed: int) -> np.ndarray:
    """Deterministic stand-in for the convolutional backbone: the maps of
    snippets start .. stop - 1, in order, as one [stop - start, c, h, w] array.

    One Philox stream per (seed, video_id), keyed on the first 16 bytes of
    a SHA-256 of the two, gives bit-identical maps across platforms and
    processes. A counter yields four doubles, so with k = ceil(c*h*w / 4)
    snippet i's map is the first c*h*w doubles of counters i*k .. (i+1)*k - 1.
    """
    import hashlib  # here, its one user: a stage that reads feature files never maps OpenSSL

    c, h, w = dims
    if c < 1 or h < 1 or w < 1:
        raise InvalidInputError(f"stub dims must be positive, got {dims}")
    if start < 0 or stop < start:
        raise InvalidInputError(
            f"stub snippets need 0 <= start <= stop, got start {start}, stop {stop}")
    cells = c * h * w
    k = -(-cells // 4)
    digest = hashlib.sha256(f"{seed}\x00{video_id}".encode("utf-8")).digest()
    stream = np.random.Philox(key=np.frombuffer(digest[:16], dtype=np.uint64))
    stream.advance(start * k)
    draw = np.random.Generator(stream).random((stop - start, 4 * k))
    return np.ascontiguousarray(draw[:, :cells]).reshape(stop - start, c, h, w)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def environment_pathway(maps: np.ndarray, w: FusionWeights) -> np.ndarray:
    """Global average pool over H x W, one affine layer, softmax.

    maps [B, C, H, W] gives each map's scene descriptor, a probability
    vector of length d_model, as one row of [B, d_model].
    """
    c, p = w.config.channels, w.params
    if maps.ndim != 4:
        raise ConfigError(f"feature maps must be [B, {c}, H, W], got shape {maps.shape}")
    if maps.shape[1] != c:
        raise ConfigError(f"feature map has {maps.shape[1]} channels, weights expect {c}")
    return _softmax(maps.mean(axis=(2, 3)) @ p["env_affine.0.weight"].T + p["env_affine.0.bias"])


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
    out_grid: tuple[int, int] = ROI_GRID,
    samples_per_bin: tuple[int, int] = ROI_SAMPLES,
    map_index=None,
) -> np.ndarray:
    """Average-pooled bilinear sampling of a normalized box, shape [C, gh, gw].

    The box is scaled to continuous feature coordinates (x * W, y * H);
    each output bin averages sh x sw samples at regular fractional
    offsets, with no coordinate rounding anywhere.

    Batched form: fmap is a stack [M, C, H, W] of equal-size maps, box an
    [N, 4] array and map_index [N] the map of each box (default map 0);
    returns [N, C, gh, gw]. Each patch is Ay @ map @ Ax^T (module docstring).
    Boxes go in chunks whose gathered maps hold at most ROI_CELLS cells
    (one box at least); a patch's products involve its box alone, so the
    chunking moves no bit.
    """
    gh, gw = out_grid
    sh, sw = samples_per_bin
    values = fmap.values[None] if isinstance(fmap, FeatureMap) else np.asarray(fmap, np.float64)
    boxes = np.asarray(box, dtype=np.float64)
    single = boxes.ndim == 1
    boxes = boxes.reshape(-1, 4)
    if map_index is None:
        map_index = np.zeros(len(boxes), dtype=np.intp)
    _, c, h, w = values.shape
    ay = _bin_weights(boxes[:, 1], boxes[:, 3], h, gh, sh)[:, None]  # [N, 1, gh, H]
    axt = _bin_weights(boxes[:, 0], boxes[:, 2], w, gw, sw)[:, None].transpose(0, 1, 3, 2)
    patches = np.empty((len(boxes), c, gh, gw))
    step = max(1, ROI_CELLS // (c * h * w))  # boxes whose maps one gather holds
    for i in range(0, len(boxes), step):
        k = slice(i, i + step)
        patches[k] = ay[k] @ values[map_index[k]] @ axt[k]
    return patches[0] if single else patches


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    c = x - x.mean(axis=-1, keepdims=True)
    var = (c * c).mean(axis=-1, keepdims=True)  # what x.var computes, without centring again
    return c / np.sqrt(var + LN_EPS) * scale + shift


def _linear(x: np.ndarray, mat: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ mat.T + bias over the last axis, as one 2-D matrix product."""
    flat = x.reshape(-1, x.shape[-1]) @ mat.T + bias
    return flat.reshape(*x.shape[:-1], mat.shape[0])


def _self_attention(x: np.ndarray, lw: Mapping[str, np.ndarray], num_heads: int) -> np.ndarray:
    *lead, n, d = x.shape
    heads = (*lead, n, num_heads, d // num_heads)
    v = _linear(x, lw["wv"], lw["bv"])
    if n == 1:  # softmax over one key is exactly 1, and einsum's sum of 1 * v is 0.0 + v
        return _linear(v + 0.0, lw["wo"], lw["bo"])
    v = v.reshape(heads)
    q = _linear(x, lw["wq"], lw["bq"]).reshape(heads)
    k = _linear(x, lw["wk"], lw["bk"]).reshape(heads)
    scores = np.einsum("...qhd,...khd->...hqk", q, k) / np.sqrt(heads[-1])
    attn = _softmax(scores)  # [..., heads, n, n]
    mixed = np.einsum("...hqk,...khd->...qhd", attn, v).reshape(x.shape)
    return _linear(mixed, lw["wo"], lw["bo"])


def attention_encoder(tokens: np.ndarray, w: EncoderWeights) -> np.ndarray:
    """Pre-norm self-attention encoder over an unordered token set.

    tokens: [n, d_model], or [B, n, d_model] for B independent sets of n
    tokens each. With no positional encodings, the map is
    permutation-equivariant.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise InvalidInputError(f"tokens must be [..., n >= 1, d_model], got shape {x.shape}")
    d = w.layers[0]["wq"].shape[0]
    if x.shape[-1] != d:
        raise ConfigError(f"token dim {x.shape[-1]} != encoder d_model {d}")
    for lw in w.layers:
        h = _layer_norm(x, lw["ln1_scale"], lw["ln1_shift"])
        x = x + _self_attention(h, lw, w.num_heads)
        h = _layer_norm(x, lw["ln2_scale"], lw["ln2_shift"])
        hidden = np.maximum(_linear(h, lw["ff1_w"], lw["ff1_b"]), 0.0)
        x = x + _linear(hidden, lw["ff2_w"], lw["ff2_b"])
    return x


def agent_fusion(patches, w: FusionWeights) -> np.ndarray | None:
    """Fuse per-agent RoI patches into one vector; None when no agents.

    Batched form: an array [B, n, C, gh, gw] of n patches for each of B
    snippets gives [B, d_model].
    """
    if len(patches) == 0:
        return None
    expected = (w.config.channels, *ROI_GRID)
    batch = isinstance(patches, np.ndarray) and patches.ndim == 5
    shapes = {patches.shape[2:]} if batch else {np.shape(p) for p in patches}
    if shapes != {expected}:
        raise InvalidInputError(
            f"patch shapes {sorted(shapes)} != expected {expected} (mixed or wrong dims)"
        )
    stacked = patches if batch else np.stack(patches)[None]
    b, n = stacked.shape[:2]
    tokens = _linear(stacked.reshape(b, n, -1), w.params["patch_proj.weight"],
                     w.params["patch_proj.bias"])
    fused = attention_encoder(tokens, w.agent_encoder).mean(axis=-2)
    return fused if batch else fused[0]


def ae_fuse(env: np.ndarray, agents: np.ndarray | None, w: FusionWeights) -> np.ndarray:
    """Re-weight scene vs agent information through the fusion encoder.

    env [B, d_model] rows, each fused with the agents row of the same
    index (agents the same shape, or None); returns [B, d_model].
    """
    d = w.config.d_model
    if env.ndim != 2 or env.shape[1] != d:
        raise ConfigError(f"env shape {env.shape} != (B, {d})")
    if agents is not None and agents.shape != env.shape:
        raise ConfigError(f"agents vector shape {agents.shape} != {env.shape}")
    tokens = env[:, None] if agents is None else np.stack([env, agents], axis=1)
    return attention_encoder(tokens, w.fuse_encoder).mean(axis=1)


# ---------------------------------------------------------------------------
# Feature-map sources and the per-video pipeline
# ---------------------------------------------------------------------------

class StubFeatureSource:
    """Seeded deterministic maps: one Philox stream per video (stub_backbone)."""

    def __init__(self, seed: int, dims: tuple[int, int, int]):
        self.seed = seed
        self.dims = dims

    def get_block(self, video_id: str, indices, feature_files) -> np.ndarray:
        return stub_backbone(video_id, indices.start, indices.stop, self.dims, self.seed)


class FileFeatureSource:
    """Feature maps read from the tensor files named in the manifest, a
    block at a time through read_tensors: each map must be [C, H, W], of
    the shape of the block's first map."""

    def __init__(self, base_dir: str | os.PathLike):
        self.base_dir = os.fspath(base_dir)

    def get_block(self, video_id: str, indices, feature_files) -> np.ndarray:
        files = list(feature_files)
        named = files.index(None) if None in files else len(files)
        prefix = os.path.join(self.base_dir, "")  # so prefix + f is os.path.join's path
        paths = [f if f.startswith(os.sep) else prefix + f for f in files[:named]]

        def check(path: str, dims: tuple[int, ...], first: tuple[int, ...] | None) -> None:
            if len(dims) != 3 or first is not None and dims != first:
                raise DataError(f"video {video_id!r}: feature file {path} has shape {dims}, "
                                f"expected {first or '[C, H, W]'}")

        try:
            block = read_tensors(paths, check)
        except FileNotFoundError as e:
            raise DataError(f"video {video_id!r}: feature file {e.filename} for snippet "
                            f"{indices[paths.index(e.filename)]} is missing") from e
        if named < len(files):
            raise DataError(f"video {video_id!r}: no feature file for snippet {indices[named]}")
        return block


def featurize_video(manifest, w: FusionWeights, source) -> np.ndarray:
    """Run the full two-pathway pipeline over every snippet.

    Returns the [T, d_model] feature matrix with rows in snippet order.
    Snippets absent from the manifest contribute no agent boxes. Snippets
    go through the layers BLOCK_SNIPPETS at a time (module docstring):
    source.get_block(video_id, indices, feature_files) gives the maps of
    the block's range of snippets as one [B, C, H, W] array; feature_files holds
    each snippet's file name, None where the manifest names none. Every
    block's maps must have the first block's [C, H, W] shape.
    """
    T = build_grid(manifest.video).T
    video_id = manifest.video.video_id
    snippets = manifest.snippets
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
        maps = source.get_block(video_id, range(start, stop), files[start:stop])
        if start == 0:
            shape = maps.shape[1:]
        elif maps.shape[1:] != shape:
            raise DataError(f"video {video_id!r}: snippets {start}..{stop - 1} have maps of "
                            f"shape {maps.shape[1:]}, expected {shape} as in snippet 0")
        env = environment_pathway(maps, w)
        block_counts = counts[start:stop]
        agents = _block_agents(maps, boxes[edges[start]:edges[stop]], block_counts, w)
        block = out[start:stop]
        alone = block_counts == 0
        if alone.any():
            block[alone] = ae_fuse(env[alone], None, w)
        if not alone.all():
            block[~alone] = ae_fuse(env[~alone], agents[~alone], w)
    return out


def _block_agents(maps, boxes: np.ndarray, counts: np.ndarray, w: FusionWeights) -> np.ndarray:
    """Agent vectors [B, d_model] of one block of [B, C, H, W] maps, from
    its [N, 4] boxes in snippet order, counts[i] of them for snippet i; rows
    of snippets without agents stay zero. Boxes are RoI-aligned in one call,
    then encoded per agent count."""
    cfg = w.config
    owner = np.repeat(np.arange(len(counts)), counts)  # snippet of each box
    patches = roi_align(maps, boxes, map_index=owner)
    agents = np.zeros((len(counts), cfg.d_model))
    first = np.cumsum(counts) - counts  # each snippet's first box
    for n in sorted(set(counts.tolist()) - {0}):  # np.unique would import numpy.ma
        snips = np.flatnonzero(counts == n)
        agents[snips] = agent_fusion(patches[first[snips][:, None] + np.arange(n)], w)
    return agents


# ---------------------------------------------------------------------------
# Weight construction and bundles
# ---------------------------------------------------------------------------

def save_weights(w: FusionWeights, directory: str | os.PathLike) -> None:
    """Write the bundle: one tensor file per parameter plus a JSON index."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    index = {"config": asdict(w.config), "params": {}}
    for name, arr in sorted(w.params.items()):
        fname = name.replace(".", "_") + ".aent"
        write_tensor(Tensor.from_array(arr), os.path.join(directory, fname))
        index["params"][name] = fname
    write_json(os.path.join(directory, "index.json"), index)


def _param_shapes(cfg: FusionConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of a bundle, by name."""
    d, ff = cfg.d_model, cfg.ff_dim
    gh, gw = ROI_GRID
    shapes = {"env_affine.0.weight": (d, cfg.channels), "env_affine.0.bias": (d,),
              "patch_proj.weight": (d, cfg.channels * gh * gw), "patch_proj.bias": (d,)}
    layer = {p: (d,) for p in _LAYER_PARAMS}
    layer.update(wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d),
                 ff1_w=(ff, d), ff1_b=(ff,), ff2_w=(d, ff))
    for enc_name in ("agent_encoder", "fuse_encoder"):
        for li in range(cfg.num_layers):
            shapes.update({f"{enc_name}.{li}.{p}": shape for p, shape in layer.items()})
    return shapes


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
    return FusionWeights(cfg, params)


def _config_from_index(index, where: str) -> FusionConfig:
    """Validate index.json down to each config field; errors name the field."""
    if not isinstance(index, dict):
        raise ConfigError(f"{where}: top level must be an object")
    check_fields(index, ("config", "params"), where, ConfigError)
    for key in ("config", "params"):
        if not isinstance(index[key], dict):
            raise ConfigError(f"{where}: field {key!r} must be an object")
    c = index["config"]
    check_fields(c, [f.name for f in fields(FusionConfig)], where, ConfigError, "config.")
    try:
        return FusionConfig(**c)
    except ConfigError as e:
        raise ConfigError(f"{where}: field 'config': {e}") from e


def load_weights(directory: str | os.PathLike) -> FusionWeights:
    """Read a bundle written by save_weights.

    Every index field and every parameter shape is checked, and a field
    the config has no use for is rejected; a bad one raises ConfigError
    naming the file and the field. An index.json that does not decode is
    read_json's InvalidInputError.
    """
    directory = os.fspath(directory)
    index_path = os.path.join(directory, "index.json")
    index = read_json(index_path)
    cfg = _config_from_index(index, index_path)
    files, shapes = index["params"], _param_shapes(cfg)
    check_fields(files, shapes, index_path, ConfigError, "params.")
    params = {}
    for name, shape in shapes.items():
        fname = files[name]
        if not isinstance(fname, str) or "\0" in fname:
            raise ConfigError(f"{index_path}: field 'params.{name}' must be a file name")
        path = os.path.join(directory, fname)
        params[name] = read_tensor(path).to_array()
        if params[name].shape != shape:
            raise ConfigError(
                f"{path}: parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )
    return FusionWeights(cfg, params)
