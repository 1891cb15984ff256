"""tapgen benchmark: CLI stage walls per workload, or a traced layer breakdown.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its workload's inputs from the seed (`tapgen synth`
plus perfbench/inputs.py), then runs the workload's CLI stages, one
`python -m tapgen.cli` process per stage, as a user would.

--trace 0 sets up SETUP_REPEATS times, then repeats whole passes over
the stages for about S seconds (at least MIN_PASSES passes), and reports
the end-to-end metrics.
--trace 1 runs one untraced pass and one serial pass through launch.py,
which records spans around tapgen's public functions, and reports the
per-layer metrics and the tracing overhead.

Both modes check the outputs: the AUC against perfbench/expected_auc.json,
byte-identical artifacts across repetitions, and parallel featurize
output equal to a serial run's. A human-readable report goes to stdout;
its last line is one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/METRICS.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED_AUC = os.path.join(HERE, "expected_auc.json")

SETUP_REPEATS = 3
MIN_PASSES = 2
PROCESS_LIMIT_S = 150.0  # a stage process still running after this is killed
# While a process runs, a SpeedMeter (METRICS.md, "Noise") times
# PROBE_ITERATIONS of a reference loop every PROBE_INTERVAL_S on the
# process's vCPUs. A probe takes REFERENCE_PROBE_S on the reference
# machine; timed metrics are scaled to that machine's speed.
PROBE_ITERATIONS = 2_000
PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.0014
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DESK_CORPUS = ("--n-videos", "100", "--max-actions", "3", "--t-min", "64", "--t-max", "128")


@dataclass(frozen=True)
class Workload:
    synth_args: tuple[str, ...]
    stages: tuple[str, ...]
    workers: int = 1
    inputs: str | None = None  # perfbench/inputs.py generator, if any


WORKLOADS = {
    "oracle-corpus": Workload(
        synth_args=DESK_CORPUS,
        stages=("labels", "featurize", "infer", "eval"),
    ),
    "dense-grids": Workload(
        synth_args=("--n-videos", "12", "--max-actions", "6", "--t-min", "200",
                    "--t-max", "200", "--d-policy", "full"),
        stages=("labels", "infer", "eval"),
        inputs="noisy-grids",
    ),
    "file-features-parallel": Workload(
        synth_args=DESK_CORPUS + ("--no-grids",),
        stages=("featurize",),
        workers=2,
        inputs="features",
    ),
}

END_TO_END = {"setup_s": "s", "videos_per_s": "videos/s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    scaled_s: float  # wall_s at the reference machine's speed
    rss_mb: float
    code: int
    log: str


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_ENV:
        env[var] = "1"
    return env


def _reference_loop(iterations: int) -> float:
    """Fixed work mixing interpreter steps and small NumPy calls, as
    tapgen's stages do."""
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(iterations):
        acc += float(np.dot(x, x)) + (i * i) % 7
    return acc


class SpeedMeter(threading.Thread):
    """Times a short reference loop on each of `cpus` in turn until stopped.

    The thread asks for real-time priority, so that a probe preempts the
    measured process at once and runs uninterrupted; at normal priority
    the scheduler time-slices the two and the probe measures the sharing
    instead of the vCPU's speed. Probes take 2 to 4% of the vCPU."""

    def __init__(self, cpus: set[int]):
        super().__init__(daemon=True)
        self.cpus = sorted(cpus)
        self.samples: list[float] = []
        self.realtime = False
        self.done = threading.Event()

    def run(self) -> None:
        try:  # this thread only; refused without CAP_SYS_NICE or an RLIMIT_RTPRIO
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
            self.realtime = True
        except PermissionError:
            pass
        k = 0
        while True:
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})
            k += 1
            t0 = time.perf_counter()
            _reference_loop(PROBE_ITERATIONS)
            self.samples.append(time.perf_counter() - t0)
            if self.done.wait(PROBE_INTERVAL_S):
                return

    def stop(self) -> float:
        """Stops sampling; returns the factor from the speed seen to the
        reference machine's. Work done per second is 1 / probe time, so
        the factor averages speeds, not times; that also holds for a pool
        spread over several vCPUs."""
        self.done.set()
        self.join()
        return REFERENCE_PROBE_S * statistics.fmean(1.0 / t for t in self.samples)


def probe_realtime() -> bool:
    meter = SpeedMeter(stage_cpus(1))
    meter.start()
    meter.stop()
    return meter.realtime


def stage_cpus(workers: int) -> set[int]:
    return set(sorted(os.sched_getaffinity(0))[:workers])


def run_process(argv: list[str], log_path: str, workers: int) -> Proc:
    """Run argv to completion on the first `workers` vCPUs. Wall time and
    peak RSS come from wait4, the speed from a SpeedMeter on those vCPUs."""
    cpus = stage_cpus(workers)
    meter = SpeedMeter(cpus)
    with open(log_path, "wb") as log:
        meter.start()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            os.sched_setaffinity(proc.pid, cpus)  # pool workers forked later inherit it
        except ProcessLookupError:  # already exited; wait4 still reaps it
            pass
        timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            meter.stop()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and covers descendants the child reaped
    return Proc(wall, wall * meter.stop(), usage.ru_maxrss / 1024.0, proc.returncode, log_path)


def _tail(path: str, lines: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def tree_digest(directory: str) -> str:
    """SHA-256 over every file's relative path and bytes, run_summary.json
    excluded because it holds wall times."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name == "run_summary.json":
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def recorded_auc(workload: str, seed: int) -> float | None:
    with open(EXPECTED_AUC, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


@dataclass
class Ledger:
    """Videos attempted and failed, plus named correctness checks."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        # a check that runs again keeps its first failure
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.notes.append(f"check failed: {name} {detail}".rstrip())

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    def totals(self) -> tuple[int, int]:
        failed_checks = sum(not ok for ok in self.checks.values())
        return self.attempted + len(self.checks), self.failed + failed_checks


# ---------------------------------------------------------------------------
# Setup and passes
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    root: str
    manifests: str
    grids: str
    features: str | None = None
    weights: str | None = None


def setup(wl: Workload, seed: int, out: str,
          launcher_trace: str | None = None) -> tuple[Inputs, list[Proc]]:
    """Generate the workload's inputs; returns them and the processes run
    (synth first)."""
    os.makedirs(out)
    corpus = os.path.join(out, "corpus")
    cli_args = ["--seed", str(seed), "synth", *wl.synth_args, "--out", corpus]
    if launcher_trace:
        argv = [sys.executable, os.path.join(HERE, "launch.py"), launcher_trace, *cli_args]
    else:
        argv = [sys.executable, "-m", "tapgen.cli", *cli_args]
    procs = [run_process(argv, os.path.join(out, "synth.log"), 1)]
    inputs = Inputs(out, os.path.join(corpus, "manifests"), os.path.join(corpus, "grids"))
    if wl.inputs:
        gen_out = os.path.join(out, wl.inputs)
        argv = [sys.executable, os.path.join(HERE, "inputs.py"), wl.inputs,
                "--corpus", corpus, "--seed", str(seed), "--out", gen_out]
        procs.append(run_process(argv, os.path.join(out, "inputs.log"), 1))
        if wl.inputs == "noisy-grids":
            inputs.grids = gen_out
        else:
            inputs.manifests = os.path.join(gen_out, "manifests")
            inputs.features = os.path.join(gen_out, "features")
            inputs.weights = os.path.join(gen_out, "weights")
    for p in procs:
        if p.code != 0:
            raise SystemExit(f"setup failed (exit {p.code}):\n{_tail(p.log)}")
    return inputs, procs


def stage_args(stage: str, inputs: Inputs, out: str) -> list[str]:
    dest = os.path.join(out, stage)
    if stage == "labels":
        return ["labels", "--manifests", inputs.manifests, "--out", dest]
    if stage == "featurize":
        extra = ["--features", inputs.features, "--weights", inputs.weights] if inputs.features else []
        return ["featurize", "--manifests", inputs.manifests, *extra, "--out", dest]
    if stage == "infer":
        return ["infer", "--manifests", inputs.manifests, "--grids", inputs.grids, "--out", dest]
    if stage == "eval":
        return ["eval", "--manifests", inputs.manifests,
                "--proposals", os.path.join(out, "infer"), "--out", dest]
    raise ValueError(stage)


@dataclass
class StageRun:
    proc: Proc
    summary: dict
    digest: str


@dataclass
class Pass:
    stages: dict[str, StageRun]

    @property
    def wall_s(self) -> float:
        return sum(s.proc.wall_s for s in self.stages.values())

    @property
    def scaled_s(self) -> float:
        return sum(s.proc.scaled_s for s in self.stages.values())

    @property
    def ok(self) -> bool:
        return all(s.proc.code == 0 for s in self.stages.values())


def run_pass(wl: Workload, inputs: Inputs, seed: int, out: str, ledger: Ledger, videos: int,
             workers: int, trace_dir: str | None = None) -> Pass:
    os.makedirs(out)
    stages = {}
    for stage in wl.stages:
        cli_args = ["--seed", str(seed), "--workers", str(workers), *stage_args(stage, inputs, out)]
        if trace_dir:
            trace_file = os.path.join(trace_dir, f"{stage}.json")
            argv = [sys.executable, os.path.join(HERE, "launch.py"), trace_file, *cli_args]
        else:
            argv = [sys.executable, "-m", "tapgen.cli", *cli_args]
        proc = run_process(argv, os.path.join(out, f"{stage}.log"), workers)
        summary_path = os.path.join(out, stage, "run_summary.json")
        summary = {}
        if os.path.exists(summary_path):
            with open(summary_path, "r", encoding="utf-8") as fh:
                summary = json.load(fh)
        if proc.code != 0:
            ledger.notes.append(f"{stage} exited {proc.code}: {_tail(proc.log)}")
        if summary:
            ledger.attempted += summary["num_completed"] + summary["num_errors"]
            ledger.failed += summary["num_errors"]
        else:  # the stage died before it could account for its videos
            ledger.attempted += videos
            ledger.failed += videos
        digest = tree_digest(os.path.join(out, stage)) if os.path.isdir(os.path.join(out, stage)) else ""
        stages[stage] = StageRun(proc, summary, digest)
    return Pass(stages)


def check_pass(p: Pass, reference: Pass, ledger: Ledger, expected_auc: float | None, label: str) -> None:
    for stage, run in p.stages.items():
        ledger.check(f"digest.{stage}", run.digest == reference.stages[stage].digest,
                     f"({label} differs from the first pass)")
    if "eval" in p.stages:
        auc = p.stages["eval"].summary.get("auc")
        first = reference.stages["eval"].summary.get("auc")
        ledger.check("auc.repeatable", auc is not None and auc == first, f"({label}: {auc} vs {first})")
        if expected_auc is not None:
            ledger.check("auc.recorded", auc == expected_auc, f"({label}: {auc} vs {expected_auc})")


def count_videos(manifest_dir: str) -> int:
    return sum(
        1 for n in os.listdir(manifest_dir)
        if n.endswith(".json") and not n.startswith("run_summary")
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except TypeError:  # NumPy without the mode argument
        blas = {"name": "unknown", "version": None}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: "1" for var in THREAD_ENV},
        "platform": platform.platform(),
    }


def describe(name: str, values: list[float], unit: str) -> str:
    label, tail_value = tracing.tail(values)
    return (f"{name}: median {statistics.median(values):.4f} {unit}, "
            f"{label} {tail_value:.4f} {unit} (n={len(values)})")


def emit(ledger: Ledger, metrics: dict[str, tuple[float, str]]) -> None:
    attempted, failed = ledger.totals()
    print(f"error_rate: {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for name, ok in ledger.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for note in ledger.notes:
        print(note)
    result = {
        "correct": ledger.correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def measure(name: str, wl: Workload, seed: int, seconds: float, work: str) -> None:
    ledger = Ledger()
    setups, setups_scaled, digests = [], [], []
    for k in range(SETUP_REPEATS):
        inputs, procs = setup(wl, seed, os.path.join(work, f"setup{k}"))
        setups.append(sum(p.wall_s for p in procs))
        setups_scaled.append(sum(p.scaled_s for p in procs))
        digests.append(tree_digest(inputs.root))
        if k:
            shutil.rmtree(os.path.join(work, f"setup{k - 1}"))
    ledger.check("setup.repeatable", len(set(digests)) == 1)
    videos = count_videos(inputs.manifests)
    expected = recorded_auc(name, seed)

    passes: list[Pass] = []
    t0 = time.perf_counter()
    # stop once the next pass would end more than half a pass past the budget
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t0 + 0.5 * passes[-1].wall_s < seconds):
        out = os.path.join(work, f"pass{len(passes)}")
        p = run_pass(wl, inputs, seed, out, ledger, videos, wl.workers)
        check_pass(p, passes[0] if passes else p, ledger, expected, f"pass {len(passes)}")
        passes.append(p)
        if passes[0] is not p:
            shutil.rmtree(out)
        if not p.ok:
            break
    if wl.workers > 1 and passes[0].ok:
        serial = run_pass(wl, inputs, seed, os.path.join(work, "serial"), ledger, videos, 1)
        for stage, run in serial.stages.items():
            ledger.check(f"serial_equals_parallel.{stage}",
                         run.digest == passes[0].stages[stage].digest)

    print(f"workload: {name}  seed: {seed}  videos: {videos}  passes: {len(passes)}  "
          f"workers: {wl.workers}")
    print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
    print("timings: wall as measured, then scaled to the reference machine"
          f" (probes at real-time priority: {probe_realtime()})")
    print(describe("setup_s", setups, "s"), "|", describe("scaled", setups_scaled, "s"))
    for stage in wl.stages:
        print(describe(f"{stage}_s", [p.stages[stage].proc.wall_s for p in passes], "s"), "|",
              describe("scaled", [p.stages[stage].proc.scaled_s for p in passes], "s"))
    pipeline = statistics.median(p.wall_s for p in passes)
    pipeline_scaled = statistics.median(p.scaled_s for p in passes)
    peak = max(s.proc.rss_mb for p in passes for s in p.stages.values())
    print(f"videos_per_s: {videos / pipeline:.4f} videos/s | scaled "
          f"{videos / pipeline_scaled:.4f} videos/s")
    print(f"peak_rss_mb: {peak:.1f} MB")
    if "eval" in wl.stages:
        auc = passes[0].stages["eval"].summary.get("auc")
        print(f"auc: {auc!r} (recorded: {expected!r})")
    values = {"setup_s": statistics.median(setups_scaled),
              "videos_per_s": videos / pipeline_scaled, "peak_rss_mb": peak}
    emit(ledger, {k: (values[k], unit) for k, unit in END_TO_END.items()})


def trace(name: str, wl: Workload, seed: int, work: str) -> None:
    ledger = Ledger()
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    inputs, setup_procs = setup(wl, seed, os.path.join(work, "setup"),
                                os.path.join(trace_dir, "synth.json"))
    videos = count_videos(inputs.manifests)
    expected = recorded_auc(name, seed)
    untraced = run_pass(wl, inputs, seed, os.path.join(work, "untraced"), ledger, videos, wl.workers)
    check_pass(untraced, untraced, ledger, expected, "untraced pass")
    serial = untraced
    if wl.workers > 1:
        serial = run_pass(wl, inputs, seed, os.path.join(work, "serial"), ledger, videos, 1)
        check_pass(serial, untraced, ledger, expected, "serial pass")
    traced = run_pass(wl, inputs, seed, os.path.join(work, "traced"), ledger, videos, 1, trace_dir)
    check_pass(traced, untraced, ledger, expected, "traced pass")

    stage_traces = {}
    for stage in wl.stages:
        path = os.path.join(trace_dir, f"{stage}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                stage_traces[stage] = json.load(fh)
    with open(os.path.join(trace_dir, "synth.json"), "r", encoding="utf-8") as fh:
        synth_trace = json.load(fh)
    metrics = layer_metrics(stage_traces, synth_trace, setup_procs[0].wall_s,
                            traced, untraced, serial, wl, videos)
    print(f"workload: {name}  seed: {seed}  videos: {videos}  traced: serial")
    print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
    for stage in wl.stages:
        parallel = ""
        if serial is not untraced:
            parallel = f"untraced with {wl.workers} workers {untraced.stages[stage].proc.wall_s:.4f} s, "
        print(f"{stage}_s: {parallel}untraced serial {serial.stages[stage].proc.wall_s:.4f} s, "
              f"traced serial {traced.stages[stage].proc.wall_s:.4f} s")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    emit(ledger, metrics)


def layer_metrics(stage_traces: dict, synth_trace: dict, synth_wall: float, traced: Pass,
                  untraced: Pass, serial: Pass, wl: Workload, videos: int) -> dict:
    """Per-layer metrics from the traced pass; see METRICS.md."""
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    facts: dict[str, list[dict]] = {}
    for doc in stage_traces.values():
        for k, v in tracing.durations_by_name(doc["spans"]).items():
            durations.setdefault(k, []).extend(v)
        for k, v in tracing.self_by_name(doc["spans"]).items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in doc["facts"].items():
            facts.setdefault(k, []).extend(v)

    def calls(n):
        return float(len(durations.get(n, [])))

    def busy(n):
        return float(sum(durations.get(n, [])))

    def fact_sum(n, key):
        return float(sum(f[key] for f in facts.get(n, [])))

    def ms(n, which):
        values = [d * 1e3 for d in durations.get(n, [])]
        if not values:
            return 0.0
        return statistics.median(values) if which == "p50" else tracing.tail(values)[1]

    nms = facts.get("inference.soft_nms", [])
    stops = {"top_k": 0, "floor": 0, "exhausted": 0}
    for f in nms:
        if f["survivors"] == f["top_k"]:
            stops["top_k"] += 1
        elif f["survivors"] == f["candidates"]:
            stops["exhausted"] += 1
        else:
            stops["floor"] += 1
    candidates = [f["candidates"] for f in facts.get("inference.form_proposals", [])]
    survivors = fact_sum("inference.soft_nms", "survivors")
    featurized = videos if "featurize" in wl.stages else 0

    m = {}

    def put(key, value, unit):
        m[key] = (float(value), unit)

    put("fusion.featurize_video.calls", calls("fusion.featurize_video"), "count")
    put("fusion.featurize_video.busy_s", busy("fusion.featurize_video"), "s")
    put("fusion.featurize_video.p50_ms", ms("fusion.featurize_video", "p50"), "ms")
    put("fusion.featurize_video.tail_ms", ms("fusion.featurize_video", "tail"), "ms")
    for n in ("stub_backbone", "environment_pathway", "load_weights"):
        put(f"fusion.{n}.busy_s", busy(f"fusion.{n}"), "s")
    for n in ("roi_align", "attention_encoder"):
        put(f"fusion.{n}.calls", calls(f"fusion.{n}"), "count")
        put(f"fusion.{n}.busy_s", busy(f"fusion.{n}"), "s")
    for n in ("agent_fusion", "ae_fuse"):
        put(f"fusion.{n}.self_s", selfs.get(f"fusion.{n}", 0.0), "s")
    builds = calls("fusion.random_weights") + calls("fusion.load_weights")
    put("fusion.weight_builds_per_video", builds / featurized if featurized else 0.0, "ratio")

    put("supervision.gen_duration_labels.calls", calls("supervision.gen_duration_labels"), "count")
    put("supervision.gen_duration_labels.busy_s", busy("supervision.gen_duration_labels"), "s")
    put("supervision.gen_boundary_labels.busy_s", busy("supervision.gen_boundary_labels"), "s")
    put("supervision.duration_cells", fact_sum("supervision.gen_duration_labels", "cells"), "count")

    for n in ("find_peaks", "form_proposals", "soft_nms"):
        put(f"inference.{n}.busy_s", busy(f"inference.{n}"), "s")
    put("inference.soft_nms.p50_ms", ms("inference.soft_nms", "p50"), "ms")
    put("inference.soft_nms.tail_ms", ms("inference.soft_nms", "tail"), "ms")
    put("inference.candidates", sum(candidates), "count")
    put("inference.candidates_min", min(candidates, default=0), "count")
    put("inference.candidates_max", max(candidates, default=0), "count")
    put("inference.survivors", survivors, "count")
    put("inference.survivor_ratio", survivors / sum(candidates) if candidates and sum(candidates) else 0.0,
        "ratio")
    for reason, n in stops.items():
        put(f"inference.stop.{reason}", n, "count")

    put("metrics.evaluate.busy_s", busy("metrics.evaluate"), "s")
    put("metrics.recall_at.calls", calls("metrics.recall_at"), "count")
    put("metrics.proposals", fact_sum("metrics.evaluate", "proposals"), "count")
    put("metrics.ground_truths", fact_sum("metrics.evaluate", "ground_truths"), "count")

    for caller in ("supervision", "inference", "metrics"):
        key = f"timeline.temporal_iou.calls.{caller}"
        put(key, counts.get(key, 0), "count")

    for n in ("read_tensor", "write_tensor"):
        put(f"tensorio.{n}.calls", calls(f"tensorio.{n}"), "count")
        put(f"tensorio.{n}.busy_s", busy(f"tensorio.{n}"), "s")
        put(f"tensorio.{n}.bytes", fact_sum(f"tensorio.{n}", "bytes"), "bytes")
    put("tensorio.read_manifest.calls", calls("tensorio.read_manifest"), "count")
    put("tensorio.read_manifest.busy_s", busy("tensorio.read_manifest"), "s")

    synth_spans = synth_trace["spans"]
    synth_busy = tracing.durations_by_name(synth_spans).get("synth.synth_corpus", [])
    put("synth.synth_corpus.busy_s", sum(synth_busy), "s")
    put("cli.synth.self_s", synth_wall - tracing.root_busy(synth_spans), "s")

    for stage in ("labels", "featurize", "infer", "eval"):
        value = 0.0
        if stage in stage_traces:
            value = traced.stages[stage].proc.wall_s - tracing.root_busy(stage_traces[stage]["spans"])
        put(f"cli.{stage}.self_s", value, "s")
    put("cli.jobs", sum(s.summary.get("num_completed", 0) + s.summary.get("num_errors", 0)
                        for s in traced.stages.values()), "count")
    efficiency = 0.0
    if "featurize" in stage_traces:
        serial_busy = tracing.root_busy(stage_traces["featurize"]["spans"])
        # both sides at the reference machine's speed: the runs are far apart in time
        traced_proc = traced.stages["featurize"].proc
        serial_busy *= traced_proc.scaled_s / traced_proc.wall_s
        efficiency = serial_busy / (wl.workers * untraced.stages["featurize"].proc.scaled_s)
    put("cli.pool_efficiency", efficiency, "ratio")

    overhead = traced.scaled_s - serial.scaled_s
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_ratio", overhead / serial.scaled_s, "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tapgen benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "tapgen", "cli.py")):
        print(f"error: no tapgen sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # a terminated run still kills its stage process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            trace(args.workload, wl, args.seed, work)
        else:
            measure(args.workload, wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
