"""Batch command-line front end over manifests and tensor files.

Subcommands: synth, featurize, labels, infer, eval. Options may come from
a JSON config file (--config); explicit flags win. Every run writes a
machine-readable run_summary.json next to its outputs. Exit codes:
0 success, 1 validation/data error, 2 partial failure under --keep-going.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import click

from tapgen import fusion, metrics, synth
from tapgen.errors import DataError, InvalidInputError, TapgenError
from tapgen.inference import InferenceConfig, infer as run_infer
from tapgen.supervision import ScoreGrids, gen_labels
from tapgen.tensorio import (
    Tensor,
    atomic_write_bytes,
    read_manifest,
    read_tensor,
    write_manifest,
    write_tensor,
)
from tapgen.timeline import build_grid

GRID_PARTS = ("start", "end", "cls", "reg")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise click.ClickException(f"config {path} must be a JSON object")
    return doc


def _effective(flag, cfg: dict, key: str, default):
    """Explicit flag wins, then the config file, then the built-in default."""
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _write_json(path: str, obj) -> None:
    payload = json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, payload + b"\n")


def _manifest_paths(manifest_dir: str) -> list[str]:
    paths = sorted(glob.glob(os.path.join(manifest_dir, "*.json")))
    paths = [p for p in paths if not os.path.basename(p).startswith("run_summary")]
    if not paths:
        raise click.ClickException(f"no manifests found in {manifest_dir}")
    return paths


def _run_batch(jobs, workers: int, keep_going: bool):
    """Run (name, callable) jobs; returns (ok_names, error_map)."""
    errors: dict[str, str] = {}
    done: list[str] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {name: pool.submit(fn, *args) for name, fn, args in jobs}
            for name, fut in futures.items():
                try:
                    fut.result()
                    done.append(name)
                except (TapgenError, OSError) as e:
                    errors[name] = str(e)
                    if not keep_going:
                        break
    else:
        for name, fn, args in jobs:
            try:
                fn(*args)
                done.append(name)
            except (TapgenError, OSError) as e:
                errors[name] = str(e)
                if not keep_going:
                    break
    return done, errors


def _finish(command: str, out_dir: str, config: dict, done, errors, t0: float,
            keep_going: bool, extra: dict | None = None) -> None:
    summary = {
        "command": command,
        "config": config,
        "completed": sorted(done),
        "errors": {k: v for k, v in sorted(errors.items())},
        "num_completed": len(done),
        "num_errors": len(errors),
        "wall_time_sec": time.monotonic() - t0,
    }
    if extra:
        summary.update(extra)
    _write_json(os.path.join(out_dir, "run_summary.json"), summary)
    if errors:
        for name, msg in sorted(errors.items()):
            click.echo(f"error: {name}: {msg}", err=True)
        sys.exit(2 if keep_going and done else 1)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON file of default option values; explicit flags win.")
@click.option("--seed", type=int, default=None, help="Global seed override.")
@click.option("--workers", type=int, default=None, help="Parallel worker count.")
@click.option("--keep-going", is_flag=True, default=False,
              help="Collect per-video errors instead of stopping at the first.")
@click.pass_context
def main(ctx, config_path, seed, workers, keep_going):
    """Deterministic temporal action proposal pipeline."""
    cfg = _load_config(config_path)
    ctx.obj = {
        "cfg": cfg,
        "seed": _effective(seed, cfg, "seed", 0),
        "workers": max(1, int(_effective(workers, cfg, "workers", 1))),
        "keep_going": keep_going or bool(cfg.get("keep_going", False)),
    }


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@main.command("synth")
@click.option("--n-videos", type=int, default=None)
@click.option("--max-actions", type=int, default=None)
@click.option("--t-min", type=int, default=None)
@click.option("--t-max", type=int, default=None)
@click.option("--d-policy", type=click.Choice(["full", "half"]), default=None)
@click.option("--grids/--no-grids", "write_grids", default=True,
              help="Also write oracle score grids built from the labels.")
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_synth(ctx, n_videos, max_actions, t_min, t_max, d_policy, write_grids, out):
    """Generate a seeded synthetic corpus of manifests (and oracle grids)."""
    t0 = time.monotonic()
    cfg = ctx.obj["cfg"]
    n_videos = int(_effective(n_videos, cfg, "n_videos", 10))
    max_actions = int(_effective(max_actions, cfg, "max_actions", 3))
    t_min = int(_effective(t_min, cfg, "t_min", 8))
    t_max = int(_effective(t_max, cfg, "t_max", 32))
    d_policy = _effective(d_policy, cfg, "d_policy", "full")
    seed = ctx.obj["seed"]
    if n_videos < 1:
        raise click.ClickException("--n-videos must be >= 1")
    manifest_dir = os.path.join(out, "manifests")
    os.makedirs(manifest_dir, exist_ok=True)
    grid_dir = os.path.join(out, "grids")
    if write_grids:
        os.makedirs(grid_dir, exist_ok=True)
    videos = synth.synth_corpus(n_videos, max_actions, seed, t_min, t_max, d_policy)
    for sv in videos:
        vid = sv.manifest.video.video_id
        write_manifest(sv.manifest, os.path.join(manifest_dir, f"{vid}.json"))
        if write_grids:
            arrays = {
                "start": sv.grids.start_probs,
                "end": sv.grids.end_probs,
                "cls": sv.grids.conf_cls,
                "reg": sv.grids.conf_reg,
            }
            for part, arr in arrays.items():
                write_tensor(
                    Tensor.from_array(arr),
                    os.path.join(grid_dir, f"{vid}.{part}.aent"),
                )
    effective = {
        "n_videos": n_videos, "max_actions": max_actions, "seed": seed,
        "t_min": t_min, "t_max": t_max, "d_policy": d_policy, "grids": write_grids,
    }
    _finish("synth", out, effective,
            [sv.manifest.video.video_id for sv in videos], {}, t0,
            ctx.obj["keep_going"])


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def _featurize_one(manifest_path: str, out_dir: str, weights_dir: str | None,
                   features_dir: str | None, seed: int, fusion_cfg: dict) -> None:
    manifest = read_manifest(manifest_path)
    if weights_dir:
        weights = fusion.load_weights(weights_dir)
    else:
        weights = fusion.random_weights(fusion.FusionConfig(**fusion_cfg), seed)
    if features_dir:
        source = fusion.FileFeatureSource(features_dir)
    else:
        c = weights.config.channels
        source = fusion.StubFeatureSource(seed, (c, 8, 8))
    feats = fusion.featurize_video(manifest, weights, source)
    vid = manifest.video.video_id
    write_tensor(Tensor.from_array(feats), os.path.join(out_dir, f"{vid}.features.aent"))


@main.command("featurize")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--features", "features_dir", type=click.Path(exists=True), default=None,
              help="Directory of per-snippet feature tensors; omit to use the seeded stub.")
@click.option("--weights", "weights_dir", type=click.Path(exists=True), default=None,
              help="Weight bundle directory; omit to generate seeded weights.")
@click.option("--d-model", type=int, default=None)
@click.option("--heads", type=int, default=None)
@click.option("--layers", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_featurize(ctx, manifest_dir, features_dir, weights_dir, d_model, heads, layers, out):
    """Run the two-pathway fusion over every manifest."""
    t0 = time.monotonic()
    cfg = ctx.obj["cfg"]
    os.makedirs(out, exist_ok=True)
    fusion_cfg = {
        "d_model": int(_effective(d_model, cfg, "d_model", 64)),
        "num_heads": int(_effective(heads, cfg, "heads", 4)),
        "num_layers": int(_effective(layers, cfg, "layers", 1)),
        "channels": int(cfg.get("channels", 8)),
    }
    seed = ctx.obj["seed"]
    jobs = []
    for path in _manifest_paths(manifest_dir):
        name = os.path.splitext(os.path.basename(path))[0]
        jobs.append((name, _featurize_one, (path, out, weights_dir, features_dir, seed, fusion_cfg)))
    done, errors = _run_batch(jobs, ctx.obj["workers"], ctx.obj["keep_going"])
    effective = {**fusion_cfg, "seed": seed, "weights": weights_dir, "features": features_dir}
    _finish("featurize", out, effective, done, errors, t0, ctx.obj["keep_going"])


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def _labels_one(manifest_path: str, out_dir: str, d_policy: str) -> None:
    manifest = read_manifest(manifest_path)
    grid = build_grid(manifest.video)
    D = grid.T if d_policy == "full" else max(1, grid.T // 2)
    labels = gen_labels(grid, list(manifest.annotations), D)
    vid = manifest.video.video_id
    for part, arr in (
        ("starts", labels.starts),
        ("ends", labels.ends),
        ("durations", labels.durations),
    ):
        write_tensor(Tensor.from_array(arr), os.path.join(out_dir, f"{vid}.{part}.aent"))


@main.command("labels")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--d-policy", type=click.Choice(["full", "half"]), default=None)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_labels(ctx, manifest_dir, d_policy, out):
    """Write boundary and duration label tensors for every manifest."""
    t0 = time.monotonic()
    cfg = ctx.obj["cfg"]
    d_policy = _effective(d_policy, cfg, "d_policy", "full")
    os.makedirs(out, exist_ok=True)
    jobs = []
    for path in _manifest_paths(manifest_dir):
        name = os.path.splitext(os.path.basename(path))[0]
        jobs.append((name, _labels_one, (path, out, d_policy)))
    done, errors = _run_batch(jobs, ctx.obj["workers"], ctx.obj["keep_going"])
    _finish("labels", out, {"d_policy": d_policy}, done, errors, t0, ctx.obj["keep_going"])


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def read_grids(grid_dir: str, vid: str) -> ScoreGrids:
    """Load the four score tensors written by synth (or an external producer)."""
    arrays = {}
    for part in GRID_PARTS:
        path = os.path.join(grid_dir, f"{vid}.{part}.aent")
        if not os.path.exists(path):
            raise TapgenError(f"video {vid!r}: missing score grid {path}")
        arrays[part] = read_tensor(path).to_array()
    return ScoreGrids(
        start_probs=arrays["start"],
        end_probs=arrays["end"],
        conf_cls=arrays["cls"],
        conf_reg=arrays["reg"],
    )


def _infer_one(manifest_path: str, grid_dir: str, out_dir: str, inf_cfg: dict) -> None:
    manifest = read_manifest(manifest_path)
    grid = build_grid(manifest.video)
    vid = manifest.video.video_id
    grids = read_grids(grid_dir, vid)
    proposals = run_infer(grids, grid, InferenceConfig(**inf_cfg))
    doc = [
        {"t_start_sec": p.start_sec, "t_end_sec": p.end_sec, "score": p.score}
        for p in proposals
    ]
    _write_json(os.path.join(out_dir, f"{vid}.proposals.json"), doc)


@main.command("infer")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--grids", "grid_dir", required=True, type=click.Path(exists=True))
@click.option("--sigma", type=float, default=None)
@click.option("--score-floor", type=float, default=None)
@click.option("--top-k", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_infer(ctx, manifest_dir, grid_dir, sigma, score_floor, top_k, out):
    """Run peak pairing, scoring, and Soft-NMS over stored score grids."""
    t0 = time.monotonic()
    cfg = ctx.obj["cfg"]
    os.makedirs(out, exist_ok=True)
    inf_cfg = {
        "sigma": float(_effective(sigma, cfg, "sigma", 0.4)),
        "score_floor": float(_effective(score_floor, cfg, "score_floor", 0.001)),
        "top_k": int(_effective(top_k, cfg, "top_k", 100)),
    }
    jobs = []
    for path in _manifest_paths(manifest_dir):
        name = os.path.splitext(os.path.basename(path))[0]
        jobs.append((name, _infer_one, (path, grid_dir, out, inf_cfg)))
    done, errors = _run_batch(jobs, ctx.obj["workers"], ctx.obj["keep_going"])
    _finish("infer", out, inf_cfg, done, errors, t0, ctx.obj["keep_going"])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

PROPOSAL_FIELDS = ("t_start_sec", "t_end_sec", "score")


def load_proposals(proposal_dir: str, vid: str) -> list[metrics.ScoredInterval]:
    """Read and validate one video's proposal file; a missing file means none."""
    path = os.path.join(proposal_dir, f"{vid}.proposals.json")
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # integers as floats: an overlong integer becomes inf and fails below
            doc = json.load(fh, parse_int=float)
        except json.JSONDecodeError as e:
            raise InvalidInputError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, list):
        raise InvalidInputError(f"{path}: top level must be a list of proposals")
    out = []
    for k, entry in enumerate(doc):
        where = f"{path}: entry {k}"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{where}: must be an object")
        for name in PROPOSAL_FIELDS:
            if name not in entry:
                raise InvalidInputError(f"{where}: missing field {name!r}")
            v = entry[name]
            if not isinstance(v, float) or not math.isfinite(v):
                raise InvalidInputError(
                    f"{where}: field {name!r} must be a finite number, got {v!r}"
                )
        start, end, score = (entry[name] for name in PROPOSAL_FIELDS)
        if not start < end:
            raise InvalidInputError(
                f"{where}: field 't_end_sec' ({end}) must exceed t_start_sec ({start})"
            )
        if not 0.0 <= score <= 1.0:
            raise InvalidInputError(f"{where}: field 'score' ({score}) outside [0, 1]")
        out.append(metrics.ScoredInterval(start_sec=start, end_sec=end, score=score))
    return out


@main.command("eval")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--proposals", "proposal_dir", required=True, type=click.Path(exists=True))
@click.option("--preset", type=click.Choice(["activitynet", "thumos"]), default=None)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_eval(ctx, manifest_dir, proposal_dir, preset, out):
    """Compute AR@AN and AUC over stored proposal files."""
    t0 = time.monotonic()
    cfg = ctx.obj["cfg"]
    preset = _effective(preset, cfg, "preset", "activitynet")
    thresholds = (
        metrics.ACTIVITYNET_THRESHOLDS if preset == "activitynet" else metrics.THUMOS_THRESHOLDS
    )
    os.makedirs(out, exist_ok=True)
    gts = {}
    props = {}
    try:
        for path in _manifest_paths(manifest_dir):
            manifest = read_manifest(path)
            vid = manifest.video.video_id
            gts[vid] = list(manifest.annotations)
            props[vid] = load_proposals(proposal_dir, vid)
        if not any(props.values()):
            raise DataError("no proposal files match any manifest video id")
        result = metrics.evaluate(props, gts, thresholds=thresholds)
    except TapgenError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    _write_json(os.path.join(out, "eval.json"), result.to_dict())
    atomic_write_bytes(os.path.join(out, "eval.csv"), result.to_csv().encode("utf-8"))
    _finish("eval", out, {"preset": preset}, sorted(gts), {}, t0, ctx.obj["keep_going"],
            extra={"auc": result.auc})
    click.echo(f"AUC: {result.auc:.4f}")


if __name__ == "__main__":
    main()
