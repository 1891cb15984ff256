"""Batch command-line front end over manifests and tensor files.

Subcommands: synth, featurize, labels, infer, eval. Options may come from
a JSON config file (--config), which becomes click's default map: its
values are typed and checked exactly like flags, and explicit flags win.
Every run writes a machine-readable run_summary.json next to its outputs.
Every command is a stage, stage(manifest, out_dir, *args) of one video's
Manifest, all run by one job body (_run_one) that loads the manifest from
the job's key: a manifest file's path, or for synth a video index. A
stage's arguments reach each process once. eval then pools its stage's
results, one video's proposals each, into AR@AN.
Each command imports the heavy modules only it uses (fusion, metrics,
synth, the process pool) itself, so a process pays for no other stage.
Exit codes: 0 success, 1 validation/data error (on an `error: ...` line: any
TapgenError or OSError outside a job reaches main's one boundary), 2 partial
failure under --keep-going or a usage error that click reports.
The process entry point, run, freezes the collector once main has finished,
so the exit's collections skip what the command left; callers of main do not.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import glob
import os
import sys
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING

import click

from tapgen.errors import DataError, InvalidInputError, TapgenError
from tapgen.inference import InferenceConfig, infer as run_infer
from tapgen.supervision import ScoreGrids, gen_labels, max_duration
from tapgen.tensorio import (
    _MAX_SNIPPETS,
    Manifest,
    Tensor,
    atomic_write_bytes,
    load_proposals,
    read_json,
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
# Label files by the LabelSet field each holds. synth's oracle grids are the
# label arrays under the score grid names, with durations as both conf grids.
LABEL_FILES = {"starts": "starts", "ends": "ends", "durations": "durations"}
ORACLE_GRIDS = {"start": "starts", "end": "ends", "cls": "durations", "reg": "durations"}

# Cap on synth --n-videos. synth builds its job table and the sets of file
# names it writes before the first video: 67 MiB at 10**5 videos with grids
# (tracemalloc), about 0.7 KiB per video.
MAX_VIDEOS = 10**5

# Input paths and synth's output switch are per-run choices, given as flags only.
FLAG_ONLY = ("features_dir", "weights_dir", "write_grids")


def _use_config(ctx, param, path: str | None) -> None:
    """Install a JSON config file as the default map of main and every subcommand.

    Each value is checked as the text of its flag would be, so a config value
    resolves exactly like the same flag; a bad file or field exits 1.
    """
    if path is None:
        return
    options = {
        p.name: p
        for cmd in (ctx.command, *ctx.command.commands.values())
        for p in cmd.params
        if p.expose_value and not p.required and p.name not in FLAG_ONLY
    }
    with _exit_on_error("config "):  # click parses options before the group's boundary
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise InvalidInputError(f"{path}: must be a JSON object")
        doc = {key: str(value) for key, value in doc.items()}
        for key, text in doc.items():
            if key not in options:
                raise InvalidInputError(f"{path}: unknown field {key!r}")
            try:
                options[key].type_cast_value(ctx, text)
            except click.BadParameter as e:
                raise InvalidInputError(f"{path}: field {key!r}: {e.message}") from e
    ctx.default_map = {**doc, **{name: doc for name in ctx.command.commands}}


@contextmanager
def _exit_on_error(prefix: str = ""):
    """Stop the run with `error: <prefix>...` and exit code 1 on a TapgenError or OSError."""
    try:
        yield
    except (TapgenError, OSError) as e:
        click.echo(f"error: {prefix}{e}", err=True)
        sys.exit(1)


def _manifest_paths(manifest_dir: str, out: str) -> dict[str, str]:
    """The path of each manifest in manifest_dir by its name, the file name without .json.

    An out that is manifest_dir is refused: a later stage would read its outputs as manifests.
    """
    if os.path.isdir(out) and os.path.samefile(out, manifest_dir):
        raise DataError(f"{out}: is the --manifests directory; give another --out")
    paths = sorted(glob.glob(os.path.join(glob.escape(manifest_dir), "*.json")))
    paths = [p for p in paths if os.path.basename(p) != "run_summary.json"]
    if not paths:
        raise DataError(f"{manifest_dir}: no manifests found")
    return {os.path.splitext(os.path.basename(p))[0]: p for p in paths}


# (load, stage, args) of the current run, set once per process by _install.
_installed: tuple = ()


def _install(load, stage, args: tuple) -> None:
    global _installed
    _installed = (load, stage, args)


def _run_one(key) -> tuple:
    """Run the installed stage on the manifest load(key); return (video id, stage result)."""
    load, stage, args = _installed
    manifest = load(key)
    return manifest.video.video_id, stage(manifest, *args)


def _run_batch(ctx, jobs: dict, load, out: str, stage, args: tuple):
    """Create out, run stage(load(key), out, *args) for every job key in
    jobs, by name, under the run's --workers and --keep-going, and return
    (done, errors): each job's stage result or error by its name.

    (load, stage, args) reach each process once, by _install: the pool
    initializer in each worker, a direct call on the serial path. A job is
    one _run_one call, which carries only its key and returns the video id
    that names its outputs. Uses at most one process per job and per CPU
    this process may run on, and none besides this one for a single job;
    the count used goes in the run summary as workers. Any exception a job
    raises is that job's error: a TapgenError or OSError by its message, any other by its
    class and message, with its traceback written to stderr. A job whose
    video id an earlier job returned wrote over that job's outputs, in a
    pool in either order, so both are errors. Jobs are recorded in their
    order in jobs, and without --keep-going the batch stops at the first
    error, a clash included: serially, no later job starts; in a pool,
    queued jobs are cancelled and the jobs already running finish and are
    reported like the rest. The errors go to stderr, by name, as the batch
    ends: before any run-level write, which may fail.
    """
    os.makedirs(out, exist_ok=True)
    args = (out, *args)
    errors: dict[str, str] = {}
    done: dict = {}
    owners: dict[str, str] = {}  # video id -> name of its first job

    def record(name, call) -> bool:  # whether the batch goes on
        try:
            vid, result = call()
            if vid in owners:
                first = owners[vid]
                clash = f"manifests {jobs[first]} and {jobs[name]} both have video id {vid!r}"
                if first in done:
                    del done[first]
                    errors[first] = clash
                raise DataError(clash)
            owners[vid] = name
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
            return ctx.obj["keep_going"]
        done[name] = result
        return True

    # a pool forks all its workers at once: no more than the jobs or the CPUs this process may use
    workers = ctx.obj["workers_used"] = min(ctx.obj["workers"], len(jobs),
                                            len(os.sched_getaffinity(0)))
    pooled = workers > 1
    if pooled:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_install,
                                 initargs=(load, stage, args)) as pool:
            futures = [pool.submit(_run_one, key) for key in jobs.values()]
            for name, fut in zip(jobs, futures):
                if not fut.cancelled() and not record(name, fut.result):
                    pool.shutdown(cancel_futures=True)
    else:
        _install(load, stage, args)
        for name, key in jobs.items():
            if not record(name, lambda: _run_one(key)):
                break
    for name, msg in sorted(errors.items()):
        click.echo(f"error: {name}: {msg}", err=True)
    return done, errors


def _finish(ctx, out_dir: str, config: dict, done, errors, extra: dict | None = None,
            line: str | None = None, run_error: str | None = None) -> None:
    """Write run_summary.json, then print line, the run's result, on stdout and
    run_error, an error of the whole run, on stderr; exit 1 on run_error, 1 or
    2 on errors (which _run_batch printed), or 1 if stdout fails."""
    summary = {
        "command": ctx.info_name,
        "config": config,
        "completed": sorted(done),
        "errors": {k: v for k, v in sorted(errors.items())},
        "num_completed": len(done),
        "num_errors": len(errors),
        "workers": ctx.obj["workers_used"],
        "wall_time_sec": time.monotonic() - ctx.obj["t0"],
        **(extra or {}),
        **({"run_error": run_error} if run_error else {}),
    }
    write_json(os.path.join(out_dir, "run_summary.json"), summary)
    if line is not None:
        with _exit_on_error("stdout: "):  # a closed pipe, say
            click.echo(line)
    if run_error:
        click.echo(f"error: {run_error}", err=True)
        sys.exit(1)
    if errors:
        sys.exit(2 if ctx.obj["keep_going"] and done else 1)


class _ErrorBoundary(click.Group):
    """main's group: its invoke runs the command under _exit_on_error, the one boundary."""

    def invoke(self, ctx):
        with _exit_on_error():
            return super().invoke(ctx)


@click.group(cls=_ErrorBoundary)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
              expose_value=False, callback=_use_config,
              help="JSON object of option defaults, checked like flags; explicit flags win.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, help="Global seed.")
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

def _synth_one(manifest: Manifest, manifest_dir: str, grids: str | None, d_policy: str) -> None:
    write_manifest(manifest, os.path.join(manifest_dir, f"{manifest.video.video_id}.json"))
    if grids:
        _labels_one(manifest, grids, d_policy, ORACLE_GRIDS)


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
    if not 1 <= n_videos <= MAX_VIDEOS:  # before the job table is built
        raise InvalidInputError(f"need 1 <= --n-videos <= {MAX_VIDEOS}, got {n_videos}")
    if not 1 <= t_min <= t_max <= _MAX_SNIPPETS:  # every later stage rejects a longer video
        raise InvalidInputError(f"need 1 <= --t-min <= --t-max <= {_MAX_SNIPPETS}, "
                                f"got --t-min {t_min} and --t-max {t_max}")
    if not 0 <= max_actions <= _MAX_SNIPPETS:  # no video holds more actions than snippets
        raise InvalidInputError(f"need 0 <= --max-actions <= {_MAX_SNIPPETS}, "
                                f"got {max_actions}")
    manifest_dir = os.path.join(out, "manifests")
    grid_dir = os.path.join(out, "grids")
    jobs = {synth.VIDEO_ID.format(i): i for i in range(n_videos)}
    writes = {manifest_dir: {f"{vid}.json" for vid in jobs},
              grid_dir: {f"{vid}.{part}.aent" for vid in jobs for part in ORACLE_GRIDS}
              if write_grids else set()}
    for d, names in writes.items():  # a later stage would take an earlier run's files
        stale = sorted(set(os.listdir(d)) - names) if os.path.isdir(d) else []
        if stale:
            raise DataError(f"{os.path.join(d, stale[0])}: not a file this run writes; "
                            "remove it or give another --out")
    if write_grids:
        os.makedirs(grid_dir, exist_ok=True)
    load = functools.partial(synth.synth_manifest, seed, max_actions=max_actions,
                             t_min=t_min, t_max=t_max)
    done, errors = _run_batch(ctx, jobs, load, manifest_dir, _synth_one,
                              (grid_dir if write_grids else None, d_policy))
    effective = {
        "n_videos": n_videos, "max_actions": max_actions, "seed": seed,
        "t_min": t_min, "t_max": t_max, "d_policy": d_policy, "grids": write_grids,
    }
    _finish(ctx, out, effective, done, errors)


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
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_featurize(ctx, manifest_dir, features_dir, weights_dir, d_model, heads, layers, out):
    """Run the two-pathway fusion over every manifest."""
    from tapgen import fusion

    seed = ctx.obj["seed"]
    if weights_dir:  # once per run; every worker gets this one copy
        weights = fusion.load_weights(weights_dir)
    else:
        weights = fusion.random_weights(fusion.FusionConfig(
            d_model=d_model, num_heads=heads, num_layers=layers), seed)
    ran = weights.config  # a loaded bundle's own config, not the flags
    source = (fusion.FileFeatureSource(features_dir) if features_dir
              else fusion.StubFeatureSource(seed, (ran.channels, 8, 8)))
    effective = {
        "d_model": ran.d_model, "num_heads": ran.num_heads, "num_layers": ran.num_layers,
        "channels": ran.channels, "seed": seed, "weights": weights_dir, "features": features_dir,
    }
    done, errors = _run_batch(ctx, _manifest_paths(manifest_dir, out), read_manifest, out,
                              _featurize_one, (weights, source))
    _finish(ctx, out, effective, done, errors)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def _labels_one(manifest: Manifest, out_dir: str, d_policy: str, files: dict) -> None:
    grid = build_grid(manifest.video)
    labels = gen_labels(grid, list(manifest.annotations), max_duration(grid.T, d_policy))
    for part, name in files.items():
        write_tensor(Tensor.from_array(getattr(labels, name)),
                     os.path.join(out_dir, f"{manifest.video.video_id}.{part}.aent"))


@main.command("labels")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--d-policy", type=click.Choice(["full", "half"]), default="full")
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_labels(ctx, manifest_dir, d_policy, out):
    """Write boundary and duration label tensors for every manifest."""
    done, errors = _run_batch(ctx, _manifest_paths(manifest_dir, out), read_manifest, out,
                              _labels_one, (d_policy, LABEL_FILES))
    _finish(ctx, out, {"d_policy": d_policy}, done, errors)


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def read_grids(grid_dir: str, vid: str, T: int) -> ScoreGrids:
    """Load the four score tensors written by synth (or an external producer)
    for T snippets: start and end [T], cls [D, T], reg as cls, each checked on read.
    An error names the file it is about."""
    arrays, paths = {}, {}
    for part, name in GRID_PARTS.items():
        path = paths[name] = os.path.join(grid_dir, f"{vid}.{part}.aent")
        if not os.path.exists(path):
            raise DataError(f"video {vid!r}: missing score grid {path}")
        a = arrays[name] = read_tensor(path).to_array()
        want = (T,) if part in ("start", "end") else (arrays["conf_cls"].shape[0], T)
        if a.shape != want:
            raise DataError(f"{path}: {name} has shape {a.shape}, expected "
                            + (f"(D, {T})" if part == "cls" else str(want)))
    try:
        return ScoreGrids(**arrays)
    except InvalidInputError as e:  # a value check, whose message starts with its grid's name
        raise DataError(f"{paths[str(e).split()[0]]}: {e}") from e


def _infer_one(manifest: Manifest, out_dir: str, grid_dir: str, cfg: InferenceConfig) -> None:
    grid = build_grid(manifest.video)
    vid = manifest.video.video_id
    write_proposals(out_dir, vid, run_infer(read_grids(grid_dir, vid, grid.T), grid, cfg))


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
    cfg = InferenceConfig(sigma=sigma, score_floor=score_floor, top_k=top_k)  # before any video
    done, errors = _run_batch(ctx, _manifest_paths(manifest_dir, out), read_manifest, out,
                              _infer_one, (grid_dir, cfg))
    _finish(ctx, out, dataclasses.asdict(cfg), done, errors)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_one(manifest: Manifest, out_dir: str, proposal_dir: str) -> tuple:
    vid = manifest.video.video_id
    return vid, list(manifest.annotations), load_proposals(proposal_dir, vid)


@main.command("eval")
@click.option("--manifests", "manifest_dir", required=True, type=click.Path(exists=True))
@click.option("--proposals", "proposal_dir", required=True, type=click.Path(exists=True))
@click.option("--preset", type=click.Choice(["activitynet", "thumos"]), default="activitynet")
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_eval(ctx, manifest_dir, proposal_dir, preset, out):
    """Compute AR@AN and AUC over stored proposal files.

    A ground truth is recalled at (tIoU, AN) only through a one-to-one
    maximum matching with its video's top-AN proposals; AN (1..100) is a
    cut per video; AUC is 100 times the area under AR(AN) divided by the AN
    range, 99. tIoU thresholds: 0.5:0.05:0.95, or 0.5:0.05:1.0 under
    --preset thumos. The README lists how this differs from the ActivityNet
    reference evaluation.
    """
    from tapgen import metrics

    thresholds = (
        metrics.ACTIVITYNET_THRESHOLDS if preset == "activitynet" else metrics.THUMOS_THRESHOLDS
    )
    jobs = _manifest_paths(manifest_dir, out)
    done, errors = _run_batch(ctx, jobs, read_manifest, out, _eval_one, (proposal_dir,))
    config = {"preset": preset}
    if not done or errors and not ctx.obj["keep_going"]:  # no AUC over a stopped run
        _finish(ctx, out, config, done, errors)  # exits 1
    gts = {vid: anns for vid, anns, _ in done.values()}
    props = {vid: loaded or [] for vid, _, loaded in done.values()}  # a missing file means none
    found = sum(loaded is not None for _, _, loaded in done.values())
    try:
        if not any(props.values()):  # a refused file may have matched: count it apart
            raise DataError(
                f"no proposals to evaluate: {len(errors)} of {len(jobs)} videos refused, and "
                "every other video's proposal file is missing or empty" if errors
                else f"no proposals to evaluate: all {found} proposal files that match "
                "a manifest video id are empty" if found
                else "no proposal files match any manifest video id")
        result = metrics.evaluate(props, gts, thresholds=thresholds)
    except TapgenError as e:
        _finish(ctx, out, config, done, errors, run_error=str(e))  # exits 1
    write_json(os.path.join(out, "eval.json"), result.to_dict())
    atomic_write_bytes(os.path.join(out, "eval.csv"), result.to_csv().encode("utf-8"))
    _finish(ctx, out, config, done, errors, extra={"auc": result.auc},
            line=f"AUC: {result.auc:.4f}")


def run() -> None:
    """The process entry point: main, then freeze the collector for the exit."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
