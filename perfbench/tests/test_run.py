import json
import os

import pytest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _tree(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.aent").write_bytes(b"AENT\x01\x02\x03")
    (tmp_path / "sub" / "b.json").write_bytes(b'{"x": 1}\n')
    (tmp_path / "run_summary.json").write_bytes(b'{"wall_time_sec": 1.0}')
    return tmp_path


def test_digest_changes_when_one_output_byte_changes(tmp_path):
    root = _tree(tmp_path)
    before = run.tree_digest(str(root))
    assert run.tree_digest(str(root)) == before
    blob = bytearray((root / "a.aent").read_bytes())
    blob[-1] ^= 0x01
    (root / "a.aent").write_bytes(bytes(blob))
    assert run.tree_digest(str(root)) != before


def test_digest_ignores_run_summary_but_not_names(tmp_path):
    root = _tree(tmp_path)
    before = run.tree_digest(str(root))
    (root / "run_summary.json").write_bytes(b'{"wall_time_sec": 2.0}')
    assert run.tree_digest(str(root)) == before
    (root / "sub" / "b.json").rename(root / "sub" / "c.json")
    assert run.tree_digest(str(root)) != before


def test_ledger_counts_failed_checks():
    ledger = run.Ledger(attempted=10, failed=0)
    ledger.check("digest.labels", True)
    ledger.check("auc.recorded", False, "(1 vs 2)")
    ledger.check("auc.recorded", True)  # a later success does not clear it
    assert not ledger.correct
    assert ledger.totals() == (12, 1)


def _fake_pass(stages):
    return run.Pass({
        s: run.StageRun(run.Proc(1.0, 1.0, 30.0, 0, ""), {"num_completed": 2, "num_errors": 0}, "")
        for s in stages
    })


@pytest.mark.skipif(not os.path.exists(BENCHMARK_JSON), reason="no BENCHMARK.json")
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_reported_metrics_match_benchmark_json(name):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    wl = run.WORKLOADS[name]
    p = _fake_pass(wl.stages)
    empty = {"spans": [], "counts": {}, "facts": {}}
    metrics = run.layer_metrics({s: empty for s in wl.stages}, empty, 1.0, p, p, p, wl, 2)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_speed_meter_samples_without_moving_the_caller():
    before = os.sched_getaffinity(0)
    meter = run.SpeedMeter(run.stage_cpus(2))
    meter.start()
    assert meter.stop() > 0 and len(meter.samples) >= 1
    assert os.sched_getaffinity(0) == before
    assert os.sched_getscheduler(0) == os.SCHED_OTHER
    assert run.stage_cpus(64) == before
