"""Batch command-line front end over manifests and tensor files.

Subcommands: synth, featurize, labels, infer, eval. Options may come from
a JSON config file (--config), which becomes click's default map: its
values are typed and checked exactly like flags, and explicit flags win.
Every run writes a machine-readable run_summary.json next to its outputs.
labels, featurize and infer are stages, stage(manifest, out_dir, *args)
of a parsed Manifest, all run by one job body (_run_one) that reads the
manifest; a stage's arguments reach each process once.
Each command imports the heavy modules only it uses (fusion, metrics,
synth, the process pool) itself, so a process pays for no other stage.
Exit codes: 0 success, 1 validation/data error, 2 partial failure under
--keep-going.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING

import click

from tapgen.errors import DataError, TapgenError
from tapgen.inference import InferenceConfig, infer as run_infer
from tapgen.supervision import ScoreGrids, gen_labels
from tapgen.tensorio import (
    _MAX_SNIPPETS,
    Manifest,
    Tensor,
    atomic_write_bytes,
    load_proposals,
    read_manifest,
    read_tensor,
    write_json,
    write_manifest,
    write_proposals,
    write_tensor,
)
from tapgen.timeline import build_grid

if TYPE_CHECKING:
    from tapgen.fusion import FusionWeights

# Score grid files, <video>.<part>.aent, by the ScoreGrids field each holds.
GRID_PARTS = {"start": "start_probs", "end": "end_probs", "cls": "conf_cls", "reg": "conf_reg"}

# Input paths and synth's output switch are per-run choices, given as flags only.
FLAG_ONLY = ("features_dir", "weights_dir", "write_grids")


def _use_config(ctx, param, path: str | None) -> None:
    """Install a JSON config file as the default map of main and every subcommand.

    Each value is checked as the text of its flag would be, so a config value
    resolves exactly like the same flag; a bad file or field exits 1.
    """
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
        raise click.ClickException(f"config {path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise click.ClickException(f"config {path}: must be a JSON object")
    options = {
        p.name: p
        for cmd in (ctx.command, *ctx.command.commands.values())
        for p in cmd.params
        if p.expose_value and not p.required and p.name not in FLAG_ONLY
    }
    doc = {key: str(value) for key, value in doc.items()}
    for key, text in doc.items():
        if key not in options:
            raise click.ClickException(f"config {path}: unknown field {key!r}")
        try:
            options[key].type_cast_value(ctx, text)
        except click.BadParameter as e:
            raise click.ClickException(f"config {path}: field {key!r}: {e.message}") from e
    ctx.default_map = {**doc, **{name: doc for name in ctx.command.commands}}


@contextmanager
def _exit_on_error():
    """Stop the run with `error: ...` and exit code 1 on a TapgenError or OSError."""
    try:
        yield
    except (TapgenError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


def _manifest_paths(manifest_dir: str) -> list[str]:
    paths = sorted(glob.glob(os.path.join(manifest_dir, "*.json")))
    paths = [p for p in paths if not os.path.basename(p).startswith("run_summary")]
    if not paths:
        raise click.ClickException(f"no manifests found in {manifest_dir}")
    return paths


# (stage, args) of the current run, set once per process by _install.
_installed: tuple = ()


def _install(stage, args: tuple) -> None:
    global _installed
    _installed = (stage, args)


def _run_one(path: str) -> str:
    """Run the installed stage on the manifest at path; return its video id."""
    stage, args = _installed
    manifest = read_manifest(path)
    stage(manifest, *args)
    return manifest.video.video_id


def _run_batch(paths, stage, args: tuple, workers: int, keep_going: bool):
    """Run stage(manifest, *args) on the manifest at each path; returns
    (ok_names, error_map), each job named by its manifest's file name.

    (stage, args) reach each process once, by _install: the pool
    initializer in each worker, a direct call on the serial path. A job is
    one _run_one call, which carries only its manifest path and returns
    the video id that names its outputs. Uses at most one process per
    job, and none besides this one for a single job. Any exception a job
    raises is that job's error: a TapgenError or OSError by its message,
    any other by its class and message, with its traceback written to
    stderr. A job whose video id an earlier job returned wrote over that
    job's outputs, in a pool in either order, so both are errors. Jobs are
    recorded in path order, and without keep_going the batch stops at the
    first error, a clash included: serially, no later job starts; in a
    pool, queued jobs are cancelled and the jobs already running finish
    and are reported like the rest.
    """
    errors: dict[str, str] = {}
    done: list[str] = []
    owners: dict[str, tuple[str, str]] = {}  # video id -> (name, manifest path) of its first job

    def record(path, call) -> bool:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            vid = call()
            if vid in owners:
                first, first_path = owners[vid]
                clash = f"manifests {first_path} and {path} both have video id {vid!r}"
                if first in done:
                    done.remove(first)
                    errors[first] = clash
                raise DataError(clash)
            owners[vid] = (name, path)
        except Exception as e:  # even a bug or a MemoryError is one job's error
            if isinstance(e, (TapgenError, OSError)):
                errors[name] = str(e)
            else:
                import traceback

                errors[name] = f"{type(e).__name__}: {e}"
                # a pool attaches the worker's traceback as __cause__; the rest is its own frames
                shown = e.__cause__ if pooled and e.__cause__ is not None else e
                click.echo(f"{name}: " + "".join(traceback.format_exception(shown)),
                           err=True, nl=False)
            return False
        done.append(name)
        return True

    workers = min(workers, len(paths))  # a pool forks all its workers at once
    pooled = workers > 1
    if pooled:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_install, initargs=(stage, args)) as pool:
            futures = [pool.submit(_run_one, path) for path in paths]
            for path, fut in zip(paths, futures):
                if not fut.cancelled() and not record(path, fut.result) and not keep_going:
                    pool.shutdown(cancel_futures=True)
    else:
        _install(stage, args)
        for path in paths:
            if not record(path, lambda: _run_one(path)) and not keep_going:
                break
    return done, errors


def _finish(ctx, out_dir: str, config: dict, done, errors, extra: dict | None = None) -> None:
    summary = {
        "command": ctx.info_name,
        "config": config,
        "completed": sorted(done),
        "errors": {k: v for k, v in sorted(errors.items())},
        "num_completed": len(done),
        "num_errors": len(errors),
        "wall_time_sec": time.monotonic() - ctx.obj["t0"],
    }
    if extra:
        summary.update(extra)
    write_json(os.path.join(out_dir, "run_summary.json"), summary)
    if errors:
        for name, msg in sorted(errors.items()):
            click.echo(f"error: {name}: {msg}", err=True)
        sys.exit(2 if ctx.obj["keep_going"] and done else 1)


def _each_manifest(ctx, manifest_dir: str, out: str, stage, args: tuple, config: dict) -> None:
    """Run stage(manifest, out, *args) on every manifest, then write the summary."""
    with _exit_on_error():  # an --out that is, or lies under, a file
        os.makedirs(out, exist_ok=True)
    done, errors = _run_batch(_manifest_paths(manifest_dir), stage, (out, *args),
                              ctx.obj["workers"], ctx.obj["keep_going"])
    _finish(ctx, out, config, done, errors)


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
              expose_value=False, callback=_use_config,
              help="JSON object of option defaults, checked like flags; explicit flags win.")
@click.option("--seed", type=int, default=0, help="Global seed.")
@click.option("--workers", type=click.IntRange(min=1), default=1, help="Parallel worker count.")
@click.option("--keep-going", is_flag=True, default=False,
              help="Collect per-video errors instead of stopping at the first.")
@click.pass_context
def main(ctx, seed, workers, keep_going):
    """Deterministic temporal action proposal pipeline."""
    ctx.obj = {"t0": time.monotonic(), "seed": seed, "workers": workers,
               "keep_going": keep_going}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@main.command("synth")
@click.option("--n-videos", type=int, default=10)
@click.option("--max-actions", type=int, default=3)
@click.option("--t-min", type=int, default=8)
@click.option("--t-max", type=int, default=32)
@click.option("--d-policy", type=click.Choice(["full", "half"]), default="full")
@click.option("--grids/--no-grids", "write_grids", default=True,
              help="Also write oracle score grids built from the labels.")
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_synth(ctx, n_videos, max_actions, t_min, t_max, d_policy, write_grids, out):
    """Generate a seeded synthetic corpus of manifests (and oracle grids)."""
    from tapgen import synth

    seed = ctx.obj["seed"]
    if n_videos < 1:
        raise click.ClickException("--n-videos must be >= 1")
    if not 1 <= t_min <= t_max <= _MAX_SNIPPETS:  # every later stage rejects a longer video
        raise click.ClickException(f"need 1 <= --t-min <= --t-max <= {_MAX_SNIPPETS}, "
                                   f"got --t-min {t_min} and --t-max {t_max}")
    manifest_dir = os.path.join(out, "manifests")
    grid_dir = os.path.join(out, "grids")
    videos = synth.synth_corpus(n_videos, max_actions, seed, t_min, t_max, d_policy)
    vids = [sv.manifest.video.video_id for sv in videos]
    writes = {manifest_dir: {f"{vid}.json" for vid in vids},
              grid_dir: {f"{vid}.{part}.aent" for vid in vids for part in GRID_PARTS}
              if write_grids else set()}
    with _exit_on_error():  # an --out that is, or lies under, a file
        for d, names in writes.items():  # a later stage would take an earlier run's files
            stale = sorted(set(os.listdir(d)) - names) if os.path.isdir(d) else []
            if stale:
                raise DataError(f"{os.path.join(d, stale[0])}: not a file this run writes; "
                                "remove it or give another --out")
        os.makedirs(manifest_dir, exist_ok=True)
        if write_grids:
            os.makedirs(grid_dir, exist_ok=True)
    for sv in videos:
        vid = sv.manifest.video.video_id
        write_manifest(sv.manifest, os.path.join(manifest_dir, f"{vid}.json"))
        if write_grids:
            for part, name in GRID_PARTS.items():
                write_tensor(Tensor.from_array(getattr(sv.grids, name)),
                             os.path.join(grid_dir, f"{vid}.{part}.aent"))
    effective = {
        "n_videos": n_videos, "max_actions": max_actions, "seed": seed,
        "t_min": t_min, "t_max": t_max, "d_policy": d_policy, "grids": write_grids,
    }
    _finish(ctx, out, effective, vids, {})


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def _featurize_one(manifest: Manifest, out_dir: str, weights: FusionWeights, source) -> None:
    from tapgen import fusion

    feats = fusion.featurize_video(manifest, weights, source)
    write_tensor(Tensor.from_array(feats),
                 os.path.join(out_dir, f"{manifest.video.video_id}.features.aent"))


@main.command("featurize")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--features", "features_dir", type=click.Path(exists=True), default=None,
              help="Directory of per-snippet feature tensors; omit to use the seeded stub.")
@click.option("--weights", "weights_dir", type=click.Path(exists=True), default=None,
              help="Weight bundle directory; omit to generate seeded weights.")
@click.option("--d-model", type=int, default=64)
@click.option("--heads", type=int, default=4)
@click.option("--layers", type=int, default=1)
@click.option("--channels", type=int, default=8, hidden=True)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_featurize(ctx, manifest_dir, features_dir, weights_dir, d_model, heads, layers,
                  channels, out):
    """Run the two-pathway fusion over every manifest."""
    from tapgen import fusion

    seed = ctx.obj["seed"]
    with _exit_on_error():  # once per run; every worker gets this one copy
        if weights_dir:
            weights = fusion.load_weights(weights_dir)
        else:
            weights = fusion.random_weights(fusion.FusionConfig(
                channels=channels, d_model=d_model, num_heads=heads, num_layers=layers,
            ), seed)
    ran = weights.config  # a loaded bundle's own config, not the flags
    source = (fusion.FileFeatureSource(features_dir) if features_dir
              else fusion.StubFeatureSource(seed, (ran.channels, 8, 8)))
    effective = {
        "d_model": ran.d_model, "num_heads": ran.num_heads, "num_layers": ran.num_layers,
        "channels": ran.channels, "seed": seed, "weights": weights_dir, "features": features_dir,
    }
    _each_manifest(ctx, manifest_dir, out, _featurize_one, (weights, source), effective)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def _labels_one(manifest: Manifest, out_dir: str, d_policy: str) -> None:
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
@click.option("--d-policy", type=click.Choice(["full", "half"]), default="full")
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_labels(ctx, manifest_dir, d_policy, out):
    """Write boundary and duration label tensors for every manifest."""
    _each_manifest(ctx, manifest_dir, out, _labels_one, (d_policy,), {"d_policy": d_policy})


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def read_grids(grid_dir: str, vid: str) -> ScoreGrids:
    """Load the four score tensors written by synth (or an external producer)."""
    arrays = {}
    for part, name in GRID_PARTS.items():
        path = os.path.join(grid_dir, f"{vid}.{part}.aent")
        if not os.path.exists(path):
            raise TapgenError(f"video {vid!r}: missing score grid {path}")
        arrays[name] = read_tensor(path).to_array()
    return ScoreGrids(**arrays)


def _infer_one(manifest: Manifest, out_dir: str, grid_dir: str, cfg: InferenceConfig) -> None:
    grid = build_grid(manifest.video)
    vid = manifest.video.video_id
    write_proposals(out_dir, vid, run_infer(read_grids(grid_dir, vid), grid, cfg))


@main.command("infer")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--grids", "grid_dir", required=True, type=click.Path(exists=True))
@click.option("--sigma", type=float, default=0.4)
@click.option("--score-floor", type=float, default=0.001)
@click.option("--top-k", type=int, default=100)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_infer(ctx, manifest_dir, grid_dir, sigma, score_floor, top_k, out):
    """Run peak pairing, scoring, and Soft-NMS over stored score grids."""
    with _exit_on_error():  # checked once, before any video
        cfg = InferenceConfig(sigma=sigma, score_floor=score_floor, top_k=top_k)
    _each_manifest(ctx, manifest_dir, out, _infer_one, (grid_dir, cfg), dataclasses.asdict(cfg))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@main.command("eval")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--proposals", "proposal_dir", required=True, type=click.Path(exists=True))
@click.option("--preset", type=click.Choice(["activitynet", "thumos"]), default="activitynet")
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_eval(ctx, manifest_dir, proposal_dir, preset, out):
    """Compute AR@AN and AUC over stored proposal files."""
    from tapgen import metrics

    thresholds = (
        metrics.ACTIVITYNET_THRESHOLDS if preset == "activitynet" else metrics.THUMOS_THRESHOLDS
    )
    gts = {}
    props = {}
    paths = {}  # video id -> manifest path
    found = 0  # proposal files present
    with _exit_on_error():
        os.makedirs(out, exist_ok=True)
        for path in _manifest_paths(manifest_dir):
            manifest = read_manifest(path)
            vid = manifest.video.video_id
            if vid in paths:
                raise DataError(f"manifests {paths[vid]} and {path} both have video id {vid!r}")
            paths[vid] = path
            gts[vid] = list(manifest.annotations)
            loaded = load_proposals(proposal_dir, vid)
            found += loaded is not None
            props[vid] = loaded or []  # a missing file means no proposals
        if not any(props.values()):
            raise DataError(f"no proposals to evaluate: all {found} proposal files that match "
                            "a manifest video id are empty" if found
                            else "no proposal files match any manifest video id")
        result = metrics.evaluate(props, gts, thresholds=thresholds)
    write_json(os.path.join(out, "eval.json"), result.to_dict())
    atomic_write_bytes(os.path.join(out, "eval.csv"), result.to_csv().encode("utf-8"))
    _finish(ctx, out, {"preset": preset}, sorted(gts), {}, extra={"auc": result.auc})
    click.echo(f"AUC: {result.auc:.4f}")


if __name__ == "__main__":
    main()
