"""Spans around calls into tapgen's public functions, and their arithmetic.

The recording half wraps functions where their names are bound: a module
that did `from tapgen.timeline import temporal_iou` calls its own binding,
so each binding is wrapped on its own. A span is (name, start, end,
parent), where parent is the index of the enclosing span or -1. Spans and
counters stay in memory and are written as one JSON file when the traced
process ends.

The analysis half turns span lists into busy time, self time and
percentiles. It imports nothing from tapgen.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name). The attribute is the name the calling
# code looks up at run time, so functions imported by name are wrapped in
# the importing module.
SPANNED = (
    ("tapgen.cli", "read_manifest", "tensorio.read_manifest"),
    ("tapgen.cli", "read_tensor", "tensorio.read_tensor"),
    ("tapgen.cli", "write_tensor", "tensorio.write_tensor"),
    ("tapgen.cli", "write_manifest", "tensorio.write_manifest"),
    ("tapgen.cli", "gen_labels", "supervision.gen_labels"),
    ("tapgen.cli", "run_infer", "inference.infer"),
    ("tapgen.fusion", "read_tensor", "tensorio.read_tensor"),
    ("tapgen.fusion", "featurize_video", "fusion.featurize_video"),
    ("tapgen.fusion", "stub_backbone", "fusion.stub_backbone"),
    ("tapgen.fusion", "environment_pathway", "fusion.environment_pathway"),
    ("tapgen.fusion", "roi_align", "fusion.roi_align"),
    ("tapgen.fusion", "attention_encoder", "fusion.attention_encoder"),
    ("tapgen.fusion", "agent_fusion", "fusion.agent_fusion"),
    ("tapgen.fusion", "ae_fuse", "fusion.ae_fuse"),
    ("tapgen.fusion", "load_weights", "fusion.load_weights"),
    ("tapgen.fusion", "random_weights", "fusion.random_weights"),
    ("tapgen.synth", "synth_corpus", "synth.synth_corpus"),
    ("tapgen.synth", "gen_labels", "supervision.gen_labels"),
    ("tapgen.supervision", "gen_boundary_labels", "supervision.gen_boundary_labels"),
    ("tapgen.supervision", "gen_duration_labels", "supervision.gen_duration_labels"),
    ("tapgen.inference", "find_peaks", "inference.find_peaks"),
    ("tapgen.inference", "form_proposals", "inference.form_proposals"),
    ("tapgen.inference", "soft_nms", "inference.soft_nms"),
    ("tapgen.metrics", "evaluate", "metrics.evaluate"),
    ("tapgen.metrics", "recall_at", "metrics.recall_at"),
)

# Scalar IoU runs millions of times per stage, so it is counted, not timed.
COUNTED = tuple(
    (f"tapgen.{caller}", "temporal_iou", f"timeline.temporal_iou.calls.{caller}")
    for caller in ("supervision", "inference", "metrics")
)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _observe_read(args, kwargs, result):
    return {"bytes": os.stat(_arg(args, kwargs, 0, "source")).st_size}


def _observe_write(args, kwargs, result):
    return {"bytes": os.stat(_arg(args, kwargs, 1, "destination")).st_size}


def _observe_durations(args, kwargs, result):
    grid, gts, D = (_arg(args, kwargs, i, n) for i, n in enumerate(("grid", "gts", "D")))
    return {"cells": D * grid.T * len(gts)}


def _observe_form(args, kwargs, result):
    return {"candidates": len(result)}


def _observe_soft_nms(args, kwargs, result):
    return {
        "candidates": len(_arg(args, kwargs, 0, "proposals")),
        "survivors": len(result),
        "top_k": _arg(args, kwargs, 3, "top_k", 100),
    }


def _observe_evaluate(args, kwargs, result):
    props = _arg(args, kwargs, 0, "proposals_per_video")
    gts = _arg(args, kwargs, 1, "gts_per_video")
    return {
        "proposals": sum(len(p) for p in props.values()),
        "ground_truths": sum(len(g) for g in gts.values()),
    }


# Per-call facts taken from arguments and results, outside the timed span.
OBSERVERS = {
    "tensorio.read_tensor": _observe_read,
    "tensorio.write_tensor": _observe_write,
    "supervision.gen_duration_labels": _observe_durations,
    "inference.form_proposals": _observe_form,
    "inference.soft_nms": _observe_soft_nms,
    "metrics.evaluate": _observe_evaluate,
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.facts: dict[str, list[dict]] = defaultdict(list)

    def spanned(self, fn, name: str):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.stack, self.clock
        facts = self.facts[name] if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observe is not None:
                facts.append(observe(args, kwargs, result))
            return result

        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding in SPANNED and COUNTED with a wrapper."""
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.spanned(getattr(module, attr), name))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.counted(getattr(module, attr), key))

    def dump(self, path: str) -> None:
        doc = {"spans": self.spans, "counts": dict(self.counts), "facts": dict(self.facts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def durations_by_name(spans: list) -> dict[str, list[float]]:
    """Durations of each name's outermost spans (a span nested in a span
    of the same name is already inside its ancestor's time)."""
    out: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name].append(end - start)
    return out


def self_by_name(spans: list) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        out[name] += s
    return out


def root_busy(spans: list) -> float:
    """Time covered by top-level spans: the layer work a process did."""
    return sum(end - start for name, start, end, parent in spans if parent < 0)


# Tail percentiles in permille, tried from the highest down.
TAIL_PERMILLE = (999, 990, 900, 500)


def percentile(values: list[float], permille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-permille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum
    is returned, labelled as such. Empty input gives ("none", 0.0).
    """
    n = len(values)
    if n == 0:
        return "none", 0.0
    for q in TAIL_PERMILLE:
        rank = -(-q * n // 1000)
        if n - rank >= 10:
            return f"p{q / 10:g}", percentile(values, q)
    return "max", max(values)
