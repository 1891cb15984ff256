"""End-to-end tests of the batch command line interface."""

import concurrent.futures
import gc
import glob
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import tapgen
from tapgen import cli
from tapgen.cli import main
from tapgen.errors import DataError
from tapgen.fusion import FusionConfig, random_weights, save_weights
from tapgen.supervision import valid_cell_mask
from tapgen.tensorio import _MAX_SNIPPETS, Tensor, read_tensor, write_tensor


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def allow_cpus(monkeypatch, n: int) -> None:
    """Make the CPUs this process may run on n, as _run_batch reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def tree_digests(root):
    """Map of relative path -> sha256, skipping run summaries (they carry timings)."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "run_summary.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pipeline(runner, root, n_videos=6, seed=0, workers=1, max_actions=1):
    base = [] if workers == 1 else ["--workers", str(workers)]
    r = invoke(runner, base + [
        "--seed", str(seed), "synth", "--n-videos", str(n_videos),
        "--max-actions", str(max_actions), "--out", f"{root}/corpus",
    ])
    assert r.exit_code == 0, r.output
    r = invoke(runner, base + [
        "labels", "--manifests", f"{root}/corpus/manifests", "--out", f"{root}/labels",
    ])
    assert r.exit_code == 0, r.output
    r = invoke(runner, base + [
        "infer", "--manifests", f"{root}/corpus/manifests",
        "--grids", f"{root}/corpus/grids", "--out", f"{root}/proposals",
    ])
    assert r.exit_code == 0, r.output
    r = invoke(runner, base + [
        "eval", "--manifests", f"{root}/corpus/manifests",
        "--proposals", f"{root}/proposals", "--out", f"{root}/eval",
    ])
    assert r.exit_code == 0, r.output
    return r


def write_noisy_grids(grid_dir, out_dir, seed):
    """Blend every score grid with seeded noise, invalid cells kept at zero,
    so each video gets many proposals with distinct scores."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(os.listdir(grid_dir)):
        arr = read_tensor(os.path.join(grid_dir, name)).to_array()
        noisy = 0.7 * arr + 0.3 * rng.random(arr.shape)
        if arr.ndim == 2:
            noisy *= valid_cell_mask(arr.shape[1], arr.shape[0])
        write_tensor(Tensor.from_array(noisy), os.path.join(out_dir, name))


class TestSynth:
    def test_writes_manifests_grids_and_summary(self, runner, tmp_path):
        r = invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        assert len(os.listdir(tmp_path / "manifests")) == 3
        assert len(os.listdir(tmp_path / "grids")) == 12  # four tensors per video
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["command"] == "synth"
        assert summary["num_completed"] == 3
        assert summary["num_errors"] == 0

    def test_byte_identical_across_reruns(self, runner, tmp_path):
        invoke(runner, ["--seed", "7", "synth", "--n-videos", "4", "--out", str(tmp_path / "a")])
        invoke(runner, ["--seed", "7", "synth", "--n-videos", "4", "--out", str(tmp_path / "b")])
        a, b = tree_digests(tmp_path / "a"), tree_digests(tmp_path / "b")
        assert a and a == b

    def test_seed_changes_output(self, runner, tmp_path):
        invoke(runner, ["--seed", "7", "synth", "--n-videos", "4", "--out", str(tmp_path / "a")])
        invoke(runner, ["--seed", "8", "synth", "--n-videos", "4", "--out", str(tmp_path / "b")])
        assert tree_digests(tmp_path / "a") != tree_digests(tmp_path / "b")

    def test_max_actions_zero_gives_empty_annotations(self, runner, tmp_path):
        r = invoke(runner, ["synth", "--n-videos", "2", "--max-actions", "0",
                            "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        for name in os.listdir(tmp_path / "manifests"):
            doc = json.loads((tmp_path / "manifests" / name).read_text())
            assert doc["annotations"] == []

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("max_actions", [-3, _MAX_SNIPPETS + 1, 10**20])
    def test_max_actions_outside_0_to_the_snippet_cap_exits_1_before_any_video(
            self, runner, tmp_path, monkeypatch, via, max_actions):
        from tapgen import synth

        calls = []
        monkeypatch.setattr(synth, "synth_manifest", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_actions": max_actions}))
        head = ["--config", str(cfg)] if via == "config" else []
        given = ["--max-actions", str(max_actions)] if via == "flag" else []
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, [*head, "synth", "--n-videos", "2", *given,
                            "--out", str(tmp_path / "s")])
        assert r.exit_code == 1
        assert r.output == (f"error: need 0 <= --max-actions <= {_MAX_SNIPPETS}, "
                            f"got {max_actions}\n")
        assert calls == [] and not (tmp_path / "s").exists()

    def test_max_actions_at_the_snippet_cap_runs(self, runner, tmp_path):
        r = invoke(runner, ["synth", "--n-videos", "2", "--max-actions", str(_MAX_SNIPPETS),
                            "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("n_videos", [0, -1, cli.MAX_VIDEOS + 1, 10**20])
    def test_n_videos_outside_1_to_the_cap_exits_1_before_the_job_table(
            self, runner, tmp_path, monkeypatch, via, n_videos):
        from tapgen import synth

        class NoVideoIds:  # the job table names every video through VIDEO_ID
            def format(self, i):
                raise AssertionError("job table built")

        monkeypatch.setattr(synth, "VIDEO_ID", NoVideoIds())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_videos": n_videos}))
        head = ["--config", str(cfg)] if via == "config" else []
        given = ["--n-videos", str(n_videos)] if via == "flag" else []
        r = invoke(runner, [*head, "synth", *given, "--out", str(tmp_path / "s")])
        assert r.exit_code == 1
        assert r.output == f"error: need 1 <= --n-videos <= {cli.MAX_VIDEOS}, got {n_videos}\n"
        assert not (tmp_path / "s").exists()

    def test_n_videos_at_the_cap_runs(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_VIDEOS", 3)
        r = invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        assert len(os.listdir(tmp_path / "manifests")) == 3

    @pytest.mark.parametrize("first, second, stale", [
        (["synth", "--n-videos", "4"], ["--seed", "1", "synth", "--n-videos", "2"],
         "manifests/synth_0002.json"),
        (["synth", "--n-videos", "2"], ["synth", "--n-videos", "2", "--no-grids"],
         "grids/synth_0000.cls.aent"),
        (["synth", "--n-videos", "2", "--no-grids"], ["synth", "--n-videos", "1", "--no-grids"],
         "manifests/synth_0001.json"),
    ])
    def test_rerun_that_would_leave_files_behind_exits_1_naming_one(
            self, runner, tmp_path, first, second, stale):
        out = tmp_path / "s"
        invoke(runner, [*first, "--out", str(out)])
        before = {**tree_digests(out), "summary": (out / "run_summary.json").read_bytes()}
        r = invoke(runner, [*second, "--out", str(out)])
        assert r.exit_code == 1
        assert r.output == (f"error: {out / stale}: not a file this run writes; "
                            "remove it or give another --out\n")
        assert {**tree_digests(out), "summary": (out / "run_summary.json").read_bytes()} == before

    @pytest.mark.parametrize("n_first", [2, 3])
    def test_rerun_with_as_many_videos_or_more_writes_a_fresh_corpus(self, runner, tmp_path,
                                                                     n_first):
        invoke(runner, ["--seed", "5", "synth", "--n-videos", str(n_first),
                        "--out", str(tmp_path / "a")])
        r = invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "a")])
        assert r.exit_code == 0, r.output
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "b")])
        assert tree_digests(tmp_path / "a") == tree_digests(tmp_path / "b")

    @pytest.mark.parametrize("t_min, t_max", [(0, 0), (50, 10), (10**15, 10**15)])
    def test_invalid_t_range(self, runner, tmp_path, t_min, t_max):
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["synth", "--n-videos", "2", "--t-min", str(t_min),
                            "--t-max", str(t_max), "--out", str(tmp_path)])
        assert r.exit_code == 1
        assert "--t-min" in r.output

    @pytest.mark.parametrize("blocked", ["manifests/synth_0001.json", "grids/synth_0001.start.aent"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("keep_going, exit_code", [(False, 1), (True, 2)])
    def test_a_video_that_cannot_be_written_is_that_video_s_error(
            self, runner, tmp_path, blocked, workers, keep_going, exit_code):
        (tmp_path / blocked).mkdir(parents=True)  # a directory where the file goes
        base = ["--workers", workers] + (["--keep-going"] if keep_going else [])
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, [*base, "synth", "--n-videos", "3", "--out", str(tmp_path)])
        assert r.exit_code == exit_code
        assert r.output.startswith("error: synth_0001: ") and str(tmp_path / blocked) in r.output
        assert "Traceback" not in r.output
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert list(summary["errors"]) == ["synth_0001"]
        if keep_going:  # the other videos are written in full
            assert summary["completed"] == ["synth_0000", "synth_0002"]
            for vid in summary["completed"]:
                assert (tmp_path / "manifests" / f"{vid}.json").is_file()
                assert (tmp_path / "grids" / f"{vid}.reg.aent").is_file()
        else:  # a pool may finish the job it was already running
            assert summary["completed"][0] == "synth_0000"

    @pytest.mark.parametrize("t_max, exit_code", [(_MAX_SNIPPETS, 0), (_MAX_SNIPPETS + 1, 1)])
    def test_t_max_is_held_to_the_manifest_snippet_cap(self, runner, tmp_path, monkeypatch,
                                                       t_max, exit_code):
        """Every later stage rejects a manifest of more than _MAX_SNIPPETS
        snippets, so synth refuses to write one, before it generates anything."""
        from tapgen import synth

        calls = []
        real = synth.synth_manifest

        def one_snippet(seed, i, **options):  # records the call; writes a one-snippet video
            calls.append((seed, i, options))
            return real(seed, i, options["max_actions"], t_min=1, t_max=1)

        monkeypatch.setattr(synth, "synth_manifest", one_snippet)
        r = invoke(runner, ["synth", "--n-videos", "1", "--t-min", "1", "--t-max", str(t_max),
                            "--out", str(tmp_path)])
        assert r.exit_code == exit_code, r.output
        if exit_code:
            assert calls == []
            assert f"--t-max <= {_MAX_SNIPPETS}, got --t-min 1 and --t-max {t_max}" in r.output
        else:
            assert calls == [(0, 0, {"max_actions": 3, "t_min": 1, "t_max": _MAX_SNIPPETS})]


class TestPipeline:
    def test_oracle_roundtrip_scores_perfectly(self, runner, tmp_path):
        r = run_pipeline(runner, str(tmp_path), n_videos=6, seed=3)
        assert "AUC: 100.0000" in r.output
        doc = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert doc["auc"] == pytest.approx(100.0, abs=1e-9)
        assert all(v == 1.0 for v in doc["ar_at_an"].values())
        assert (tmp_path / "eval" / "eval.csv").exists()

    def test_featurize_produces_feature_tensors(self, runner, tmp_path):
        invoke(runner, ["--seed", "2", "synth", "--n-videos", "2",
                        "--out", str(tmp_path / "corpus")])
        r = invoke(runner, ["--seed", "2", "featurize",
                            "--manifests", str(tmp_path / "corpus/manifests"),
                            "--d-model", "16", "--heads", "2",
                            "--out", str(tmp_path / "feats")])
        assert r.exit_code == 0, r.output
        names = os.listdir(tmp_path / "feats")
        assert sum(n.endswith(".features.aent") for n in names) == 2

    def test_featurize_reports_loaded_bundle_config(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        bundle = tmp_path / "bundle"
        save_weights(random_weights(FusionConfig(d_model=16, num_heads=2), seed=1), bundle)
        r = invoke(runner, ["featurize", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--weights", str(bundle), "--out", str(tmp_path / "feats")])
        assert r.exit_code == 0, r.output
        summary = json.loads((tmp_path / "feats" / "run_summary.json").read_text())
        assert summary["config"]["d_model"] == 16
        assert summary["config"]["num_heads"] == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_serial(self, runner, tmp_path, workers):
        """Every stage, synth included, writes the same bytes under --workers."""
        run_pipeline(runner, str(tmp_path / "serial"), n_videos=5, seed=11, workers=1)
        run_pipeline(runner, str(tmp_path / "par"), n_videos=5, seed=11, workers=workers)
        a = tree_digests(tmp_path / "serial")
        b = tree_digests(tmp_path / "par")
        assert a and a == b

    def test_eval_ranks_by_score_not_file_order(self, runner, tmp_path):
        invoke(runner, ["--seed", "3", "synth", "--n-videos", "6", "--max-actions", "3",
                        "--out", str(tmp_path / "corpus")])
        grid_dir = tmp_path / "corpus" / "grids"
        write_noisy_grids(grid_dir, grid_dir, seed=0)
        manifests = ["--manifests", str(tmp_path / "corpus/manifests")]
        r = invoke(runner, ["infer", *manifests, "--grids", str(grid_dir),
                            "--out", str(tmp_path / "props")])
        assert r.exit_code == 0, r.output

        def auc(prop_dir, out):
            r = invoke(runner, ["eval", *manifests, "--proposals", str(prop_dir),
                                "--out", str(tmp_path / out)])
            assert r.exit_code == 0, r.output
            return json.loads((tmp_path / out / "eval.json").read_text())["auc"]

        os.makedirs(tmp_path / "reversed")
        for name in os.listdir(tmp_path / "props"):
            if name.endswith(".proposals.json"):
                doc = json.loads((tmp_path / "props" / name).read_text())
                assert len({p["score"] for p in doc}) > 1
                (tmp_path / "reversed" / name).write_text(json.dumps(doc[::-1]))
        assert auc(tmp_path / "reversed", "eval_reversed") == auc(tmp_path / "props", "eval")

    def _noisy_proposals(self, runner, tmp_path):
        """Manifests and infer's proposals over seeded noisy grids: many
        scored proposals per video, so the AUC depends on the videos pooled."""
        invoke(runner, ["--seed", "3", "synth", "--n-videos", "6", "--max-actions", "3",
                        "--out", str(tmp_path / "corpus")])
        write_noisy_grids(tmp_path / "corpus/grids", tmp_path / "noisy", seed=0)
        manifests = tmp_path / "corpus" / "manifests"
        r = invoke(runner, ["infer", "--manifests", str(manifests),
                            "--grids", str(tmp_path / "noisy"), "--out", str(tmp_path / "props")])
        assert r.exit_code == 0, r.output
        return manifests, tmp_path / "props"

    def test_pooled_eval_writes_the_serial_bytes(self, runner, tmp_path):
        manifests, props = self._noisy_proposals(runner, tmp_path)
        for workers in ("1", "2"):
            r = invoke(runner, ["--workers", workers, "eval", "--manifests", str(manifests),
                                "--proposals", str(props), "--out", str(tmp_path / workers)])
            assert r.exit_code == 0, r.output
            summary = json.loads((tmp_path / workers / "run_summary.json").read_text())
            assert summary["num_completed"] == 6
        serial = tree_digests(tmp_path / "1")
        assert sorted(serial) == ["eval.csv", "eval.json"]
        assert tree_digests(tmp_path / "2") == serial

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_keep_going_eval_pools_every_other_video(self, runner, tmp_path, workers):
        manifests, props = self._noisy_proposals(runner, tmp_path)

        def run_eval(manifest_dir, out, *base):
            r = invoke(runner, [*base, "eval", "--manifests", str(manifest_dir),
                                "--proposals", str(props), "--out", str(tmp_path / out)])
            return r, json.loads((tmp_path / out / "run_summary.json").read_text())

        _, whole = run_eval(manifests, "whole")
        (props / "synth_0002.proposals.json").write_text("not json")
        r, summary = run_eval(manifests, "eval", "--workers", workers, "--keep-going")
        assert r.exit_code == 2, r.output
        assert list(summary["errors"]) == ["synth_0002"]
        assert summary["errors"]["synth_0002"].startswith(
            f"{props / 'synth_0002.proposals.json'}: not valid JSON")
        assert summary["num_completed"] == 5
        rest = tmp_path / "rest"
        shutil.copytree(manifests, rest)
        os.remove(rest / "synth_0002.json")
        r, without = run_eval(rest, "without")
        assert r.exit_code == 0, r.output
        assert summary["auc"] == without["auc"] != whole["auc"]
        assert tree_digests(tmp_path / "eval") == tree_digests(tmp_path / "without")

    def test_rerun_is_idempotent(self, runner, tmp_path):
        run_pipeline(runner, str(tmp_path), n_videos=4, seed=5)
        before = tree_digests(tmp_path)
        run_pipeline(runner, str(tmp_path), n_videos=4, seed=5)
        assert tree_digests(tmp_path) == before


class TestErrorHandling:
    def _corrupt_one_grid(self, tmp_path):
        grids = sorted(os.listdir(tmp_path / "corpus" / "grids"))
        victim = tmp_path / "corpus" / "grids" / grids[0]
        victim.write_bytes(b"not a tensor")
        return grids[0].split(".")[0]

    def test_stop_on_first_error(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "4", "--out", str(tmp_path / "corpus")])
        self._corrupt_one_grid(tmp_path)
        r = invoke(runner, ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--grids", str(tmp_path / "corpus/grids"),
                            "--out", str(tmp_path / "proposals")])
        assert r.exit_code == 1

    def test_parallel_stop_on_first_error_reports_every_written_output(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "8", "--out", str(tmp_path / "corpus")])
        # sorts first, so the batch stops while most jobs are still queued
        (tmp_path / "corpus" / "manifests" / "aaa_bad.json").write_text("{}")
        out = tmp_path / "feats"
        r = invoke(runner, ["--workers", "2", "featurize",
                            "--manifests", str(tmp_path / "corpus/manifests"),
                            "--d-model", "16", "--heads", "2", "--out", str(out)])
        assert r.exit_code == 1
        summary = json.loads((out / "run_summary.json").read_text())
        assert list(summary["errors"]) == ["aaa_bad"]
        written = {n.split(".")[0] for n in os.listdir(out) if n.endswith(".features.aent")}
        assert written == set(summary["completed"])

    def test_bad_weight_bundle_fails_once(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        bundle = tmp_path / "bundle"
        save_weights(random_weights(FusionConfig(d_model=16, num_heads=2), seed=1), bundle)
        (bundle / "index.json").write_text('{"config": {}}')
        r = invoke(runner, ["featurize", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--weights", str(bundle), "--out", str(tmp_path / "feats")])
        assert r.exit_code == 1
        assert r.output == f"error: {bundle / 'index.json'}: missing field 'params'\n"

    def test_keep_going_partial_failure_exits_2(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "4", "--out", str(tmp_path / "corpus")])
        bad_vid = self._corrupt_one_grid(tmp_path)
        r = invoke(runner, ["--keep-going", "infer",
                            "--manifests", str(tmp_path / "corpus/manifests"),
                            "--grids", str(tmp_path / "corpus/grids"),
                            "--out", str(tmp_path / "proposals")])
        assert r.exit_code == 2
        summary = json.loads((tmp_path / "proposals" / "run_summary.json").read_text())
        assert summary["num_errors"] == 1
        assert summary["num_completed"] == 3
        assert bad_vid in summary["errors"]

    @pytest.mark.parametrize("keep_going, exit_code", [(False, 1), (True, 2)])
    def test_missing_grid_is_a_per_video_data_error(self, runner, tmp_path, keep_going,
                                                    exit_code):
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        grid_dir = tmp_path / "corpus" / "grids"
        path = grid_dir / "synth_0001.cls.aent"
        path.unlink()
        message = f"video 'synth_0001': missing score grid {path}"
        T = read_tensor(grid_dir / "synth_0001.start.aent").dims[0]
        with pytest.raises(DataError) as e:
            cli.read_grids(str(grid_dir), "synth_0001", T)
        assert str(e.value) == message
        out = tmp_path / "proposals"
        base = ["--keep-going"] if keep_going else []
        r = invoke(runner, base + ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                                   "--grids", str(grid_dir), "--out", str(out)])
        assert r.exit_code == exit_code
        if keep_going:  # the other videos' proposals are written
            summary = json.loads((out / "run_summary.json").read_text())
            assert summary["errors"] == {"synth_0001": message}
            assert sorted(n for n in os.listdir(out) if n.endswith(".proposals.json")) == [
                "synth_0000.proposals.json", "synth_0002.proposals.json"]
        else:
            assert r.output == f"error: synth_0001: {message}\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_keep_going_featurize_skips_a_video_whose_maps_differ_in_shape(self, runner, tmp_path,
                                                                           workers):
        invoke(runner, ["synth", "--n-videos", "4", "--out", str(tmp_path / "corpus")])
        manifests, features = tmp_path / "corpus" / "manifests", tmp_path / "features"
        rng = np.random.default_rng(0)
        for path in sorted(manifests.iterdir()):
            doc = json.loads(path.read_text())
            vid = doc["video"]["video_id"]
            os.makedirs(features / vid)
            for entry in doc["snippets"]:
                shape = (8, 4, 4) if (vid, entry["index"]) == ("synth_0002", 3) else (8, 8, 8)
                entry["feature_file"] = f"{vid}/{entry['index']}.aent"
                write_tensor(Tensor.from_array(rng.random(shape)), features / entry["feature_file"])
            path.write_text(json.dumps(doc))

        def featurize(manifest_dir, out, *base):
            r = invoke(runner, [*base, "featurize", "--manifests", str(manifest_dir),
                                "--features", str(features), "--out", str(tmp_path / out)])
            return r, json.loads((tmp_path / out / "run_summary.json").read_text())

        r, summary = featurize(manifests, "feats", "--workers", workers, "--keep-going")
        assert r.exit_code == 2, r.output
        assert summary["errors"] == {"synth_0002": (
            f"video 'synth_0002': feature file {features / 'synth_0002' / '3.aent'} "
            "has shape (8, 4, 4), expected (8, 8, 8)")}
        assert summary["num_completed"] == 3
        rest = tmp_path / "rest"
        shutil.copytree(manifests, rest)
        os.remove(rest / "synth_0002.json")
        r, _ = featurize(rest, "without")
        assert r.exit_code == 0, r.output
        written = tree_digests(tmp_path / "feats")
        assert len(written) == 3 and written == tree_digests(tmp_path / "without")

    @pytest.mark.parametrize("keep_going, exit_code", [(False, 1), (True, 2)])
    def test_non_utf8_manifest_is_a_per_video_error(self, runner, tmp_path, keep_going,
                                                    exit_code):
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        (tmp_path / "corpus" / "manifests" / "aaa_bad.json").write_bytes(b"\xff\xfe{}")
        base = ["--keep-going"] if keep_going else []
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, base + ["labels", "--manifests", str(tmp_path / "corpus/manifests"),
                                   "--out", str(tmp_path / "labels")])
        assert r.exit_code == exit_code
        assert r.output.startswith("error: aaa_bad: ")
        summary = json.loads((tmp_path / "labels" / "run_summary.json").read_text())
        assert list(summary["errors"]) == ["aaa_bad"]
        assert summary["num_completed"] == (3 if keep_going else 0)

    @pytest.mark.parametrize("keep_going, exit_code", [(False, 1), (True, 2)])
    def test_huge_num_frames_is_a_per_video_error(self, runner, tmp_path, keep_going,
                                                  exit_code):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        manifests = tmp_path / "corpus" / "manifests"
        doc = json.loads(next(manifests.iterdir()).read_text())
        doc["video"].update(video_id="aaa_huge", num_frames=16 * 10**12)
        doc["video"].pop("duration_seconds")
        (manifests / "aaa_huge.json").write_text(json.dumps(doc))
        base = ["--keep-going"] if keep_going else []
        # catch_exceptions=False: an allocation error's traceback would fail the test
        r = invoke(runner, base + ["labels", "--manifests", str(manifests),
                                   "--out", str(tmp_path / "labels")])
        assert r.exit_code == exit_code, r.output
        assert r.output.startswith(f"error: aaa_huge: {manifests / 'aaa_huge.json'}"
                                   ".video.num_frames: 1000000000000 snippets, above the cap")
        summary = json.loads((tmp_path / "labels" / "run_summary.json").read_text())
        assert list(summary["errors"]) == ["aaa_huge"]
        assert summary["num_completed"] == (2 if keep_going else 0)

    @pytest.mark.parametrize("vid", ["../../escaped", "a\0b"])
    def test_video_id_that_is_no_file_name_writes_nothing_outside_out(self, runner, tmp_path,
                                                                       vid):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        path = tmp_path / "corpus" / "manifests" / "synth_0000.json"
        doc = json.loads(path.read_text())
        doc["video"]["video_id"] = vid
        path.write_text(json.dumps(doc))
        out = tmp_path / "a" / "b" / "labels"

        def files():
            return {os.path.join(d, n) for d, _, names in os.walk(tmp_path) for n in names}

        before = files()
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["labels", "--manifests", str(path.parent), "--out", str(out)])
        assert r.exit_code == 1, r.output
        assert r.output == (f"error: synth_0000: {path}.video.video_id: "
                            "must hold no path separator or NUL\n")
        assert {os.path.dirname(f) for f in files() - before} == {str(out)}

    @pytest.mark.parametrize("stage", ["labels", "featurize"])
    def test_video_id_with_a_lone_surrogate_is_one_error_line(self, runner, tmp_path, stage):
        """JSON's "\\ud800" reads as an id that UTF-8 cannot encode: refused when
        the manifest is read, before it names an output file or keys the stub."""
        invoke(runner, ["synth", "--n-videos", "1", "--out", str(tmp_path / "corpus")])
        path = tmp_path / "corpus" / "manifests" / "synth_0000.json"
        doc = json.loads(path.read_text())
        doc["video"]["video_id"] = "\ud800x"
        path.write_text(json.dumps(doc))
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, [stage, "--manifests", str(path.parent), "--out", str(tmp_path / "out")])
        assert r.exit_code == 1, r.output
        assert r.output == (f"error: synth_0000: {path}.video.video_id: "
                            "must hold no lone surrogate\n")
        assert "Traceback" not in r.output

    def test_feature_file_with_nul_is_a_per_video_error_naming_it(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "1", "--out", str(tmp_path / "corpus")])
        path = tmp_path / "corpus" / "manifests" / "synth_0000.json"
        doc = json.loads(path.read_text())
        doc["snippets"][0]["feature_file"] = "a\0b.aent"
        path.write_text(json.dumps(doc))
        os.makedirs(tmp_path / "features")
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["featurize", "--manifests", str(path.parent),
                            "--features", str(tmp_path / "features"),
                            "--out", str(tmp_path / "feats")])
        assert r.exit_code == 1, r.output
        assert r.output == (f"error: synth_0000: {path}.snippets[0].feature_file: "
                            "must hold no NUL\n")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("keep_going, exit_code", [(False, 1), (True, 2)])
    def test_unexpected_exception_is_a_per_video_error(self, runner, tmp_path, monkeypatch,
                                                       workers, keep_going, exit_code):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched reader reaches pool workers only through fork")
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        read_manifest = cli.read_manifest

        def buggy_read(path):
            if os.path.basename(path) == "synth_0001.json":
                raise RuntimeError("boom")
            return read_manifest(path)

        monkeypatch.setattr(cli, "read_manifest", buggy_read)
        base = ["--workers", str(workers)] + (["--keep-going"] if keep_going else [])
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, base + ["labels", "--manifests", str(tmp_path / "corpus/manifests"),
                                   "--out", str(tmp_path / "labels")])
        assert r.exit_code == exit_code, r.output
        assert "error: synth_0001: RuntimeError: boom\n" in r.output
        summary = json.loads((tmp_path / "labels" / "run_summary.json").read_text())
        assert summary["errors"] == {"synth_0001": "RuntimeError: boom"}
        if keep_going:
            assert summary["completed"] == ["synth_0000", "synth_0002"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unexpected_exception_traceback_goes_to_stderr(self, runner, tmp_path, monkeypatch,
                                                           workers):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched reader reaches pool workers only through fork")
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        read_manifest = cli.read_manifest

        def buggy_read(path):
            if os.path.basename(path) == "synth_0001.json":
                raise RuntimeError("boom")
            return read_manifest(path)

        monkeypatch.setattr(cli, "read_manifest", buggy_read)
        r = invoke(runner, ["--workers", str(workers), "--keep-going", "labels",
                            "--manifests", str(tmp_path / "corpus/manifests"),
                            "--out", str(tmp_path / "labels")])
        assert r.exit_code == 2, r.output
        assert r.stderr.startswith("synth_0001: ")
        assert "Traceback (most recent call last):" in r.stderr
        assert "in buggy_read" in r.stderr  # the frame that raised, from the worker too
        summary = json.loads((tmp_path / "labels" / "run_summary.json").read_text())
        assert summary["errors"] == {"synth_0001": "RuntimeError: boom"}

    def _share_a_video_id(self, runner, tmp_path):
        """Three manifests: zz_copy.json has synth_0000's video id and no annotations."""
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        manifests = tmp_path / "corpus" / "manifests"
        doc = json.loads((manifests / "synth_0000.json").read_text())
        doc["annotations"] = []
        (manifests / "zz_copy.json").write_text(json.dumps(doc))
        return manifests

    @pytest.mark.parametrize("stage", ["labels", "featurize", "infer", "eval"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("keep_going, exit_code", [(False, 1), (True, 2)])
    def test_manifests_sharing_a_video_id_are_both_errors(self, runner, tmp_path, stage,
                                                           workers, keep_going, exit_code):
        """Outputs are named by video id, so the later manifest's overwrote the
        earlier's; eval would pool one video twice. An eval that stops writes no AUC."""
        manifests = self._share_a_video_id(runner, tmp_path)
        proposals = tmp_path / "proposals"
        proposals.mkdir()
        (proposals / "synth_0001.proposals.json").write_text(json.dumps([self.GOOD]))
        extra = {"labels": [], "featurize": ["--d-model", "16", "--heads", "2"],
                 "infer": ["--grids", str(tmp_path / "corpus" / "grids")],
                 "eval": ["--proposals", str(proposals)]}[stage]
        base = ["--workers", str(workers)] + (["--keep-going"] if keep_going else [])
        out = tmp_path / "out"
        r = invoke(runner, base + [stage, "--manifests", str(manifests), *extra, "--out", str(out)])
        assert r.exit_code == exit_code, r.output
        clash = (f"manifests {manifests / 'synth_0000.json'} and {manifests / 'zz_copy.json'} "
                 "both have video id 'synth_0000'")
        assert f"error: zz_copy: {clash}\n" in r.output
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["errors"] == {"synth_0000": clash, "zz_copy": clash}
        assert summary["completed"] == ["synth_0001"]
        if stage == "eval":
            assert (out / "eval.json").exists() == keep_going

    def test_parallel_run_stops_at_a_video_id_clash(self, runner, tmp_path, monkeypatch):
        """A clash is found when its job is recorded, after the job ran, and
        still cancels the queued jobs, as a serial run stops at it. One
        thread runs the jobs in path order; the third holds it until the
        pool is shut down, so no later job can start before the clash is
        recorded."""
        import threading

        released = threading.Event()
        ran = []
        read_manifest = cli.read_manifest

        class OneThreadPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(1, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        def read(path):
            ran.append(os.path.basename(path))
            if len(ran) == 3:
                released.wait(2)
            return read_manifest(path)

        invoke(runner, ["synth", "--n-videos", "4", "--out", str(tmp_path / "corpus")])
        manifests = tmp_path / "corpus" / "manifests"
        (manifests / "synth_0000b.json").write_text((manifests / "synth_0000.json").read_text())
        monkeypatch.setattr(cli, "read_manifest", read)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThreadPool)
        allow_cpus(monkeypatch, 2)
        out = tmp_path / "labels"
        r = invoke(runner, ["--workers", "2", "labels", "--manifests", str(manifests),
                            "--out", str(out)])
        assert r.exit_code == 1, r.output
        assert ran[:2] == ["synth_0000.json", "synth_0000b.json"]
        assert not {"synth_0002.json", "synth_0003.json"} & set(ran)  # queued behind the clash
        summary = json.loads((out / "run_summary.json").read_text())
        assert sorted(summary["errors"]) == ["synth_0000", "synth_0000b"]
        written = {n.split(".")[0] for n in os.listdir(out) if n.endswith(".starts.aent")}
        assert set(summary["completed"]) <= {"synth_0001"}
        assert written - {"synth_0000"} == set(summary["completed"])

    @pytest.mark.parametrize("option, value", [
        ("--sigma", "0"), ("--sigma", "nan"), ("--score-floor", "nan"), ("--top-k", "0"),
    ])
    def test_bad_inference_option_fails_once_before_any_video(self, runner, tmp_path,
                                                               option, value):
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        r = invoke(runner, ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--grids", str(tmp_path / "corpus/grids"), option, value,
                            "--out", str(tmp_path / "proposals")])
        assert r.exit_code == 1
        field = option[2:].replace("-", "_")
        assert r.output.startswith(f"error: {field} ") and r.output.count("\n") == 1
        assert not (tmp_path / "proposals").exists()

    @pytest.mark.parametrize("shape", ["1-d", "wider-than-T"])
    def test_malformed_score_grid_is_a_per_video_error(self, runner, tmp_path, shape):
        invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
        grid_dir = tmp_path / "corpus" / "grids"
        bad_vid = sorted(os.listdir(grid_dir))[0].split(".")[0]
        T = read_tensor(grid_dir / f"{bad_vid}.start.aent").dims[0]
        dims = (T,) if shape == "1-d" else (T, T + 3)
        for part in ("cls", "reg"):
            write_tensor(Tensor.from_array(np.zeros(dims)), grid_dir / f"{bad_vid}.{part}.aent")
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["--keep-going", "infer",
                            "--manifests", str(tmp_path / "corpus/manifests"),
                            "--grids", str(grid_dir), "--out", str(tmp_path / "proposals")])
        assert r.exit_code == 2
        summary = json.loads((tmp_path / "proposals" / "run_summary.json").read_text())
        assert list(summary["errors"]) == [bad_vid]
        assert "conf_cls" in summary["errors"][bad_vid]
        assert summary["num_completed"] == 2

    @pytest.mark.parametrize("part, name", list(cli.GRID_PARTS.items()))
    def test_grid_a_snippet_short_is_named_by_its_file(self, runner, tmp_path, part, name):
        """Each grid is checked against the manifest's T as it is read, so the
        error names the short grid's file and the shape it should have."""
        invoke(runner, ["synth", "--n-videos", "1", "--t-min", "20", "--t-max", "20",
                        "--out", str(tmp_path / "corpus")])
        path = tmp_path / "corpus" / "grids" / f"synth_0000.{part}.aent"
        short = read_tensor(path).to_array()[..., 1:]
        write_tensor(Tensor.from_array(short), path)
        r = invoke(runner, ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--grids", str(tmp_path / "corpus/grids"),
                            "--out", str(tmp_path / "proposals")])
        assert r.exit_code == 1
        want = {"start": "(20,)", "end": "(20,)", "cls": "(D, 20)", "reg": "(20, 20)"}[part]
        assert r.output == (f"error: synth_0000: {path}: {name} has shape {short.shape}, "
                            f"expected {want}\n")

    @pytest.mark.parametrize("part, check", [(part, "range") for part in cli.GRID_PARTS]
                             + [("cls", "invalid-cell"), ("reg", "invalid-cell")])
    def test_grid_value_errors_are_named_by_their_file(self, runner, tmp_path, part, check):
        """A grid value outside [0, 1], or conf mass on a cell with j + d > T,
        fails its video with an error naming the grid's file."""
        invoke(runner, ["synth", "--n-videos", "1", "--t-min", "20", "--t-max", "20",
                        "--out", str(tmp_path / "corpus")])
        path = tmp_path / "corpus" / "grids" / f"synth_0000.{part}.aent"
        grid = read_tensor(path).to_array()
        if check == "range":
            grid.flat[0] = 1.5
        else:
            grid[-1, -1] = 0.5
        write_tensor(Tensor.from_array(grid), path)
        r = invoke(runner, ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--grids", str(tmp_path / "corpus/grids"),
                            "--out", str(tmp_path / "proposals")])
        assert r.exit_code == 1
        name = cli.GRID_PARTS[part]
        want = ("entries must lie in [0, 1]" if check == "range"
                else "has mass on invalid cells (j + d > T)")
        assert r.output == f"error: synth_0000: {path}: {name} {want}\n"

    def test_eval_with_no_matching_proposals_exits_1(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        os.makedirs(tmp_path / "empty")
        r = invoke(runner, ["eval", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--proposals", str(tmp_path / "empty"),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert "no proposal files" in r.output

    def test_eval_with_only_empty_proposal_files_names_them_empty(self, runner, tmp_path):
        # one-snippet videos give no proposal with a later end peak, so infer writes []
        invoke(runner, ["synth", "--n-videos", "2", "--t-min", "1", "--t-max", "1",
                        "--out", str(tmp_path / "corpus")])
        invoke(runner, ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                        "--grids", str(tmp_path / "corpus/grids"),
                        "--out", str(tmp_path / "proposals")])
        assert sorted(os.listdir(tmp_path / "proposals")) == [
            "run_summary.json", "synth_0000.proposals.json", "synth_0001.proposals.json"]
        r = invoke(runner, ["eval", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--proposals", str(tmp_path / "proposals"),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert r.output == ("error: no proposals to evaluate: all 2 proposal files that "
                            "match a manifest video id are empty\n")

    @pytest.mark.parametrize("other", [None, "[]"], ids=["missing", "empty"])
    def test_eval_refusing_every_proposal_lists_each_video_error_and_writes_a_summary(
            self, runner, tmp_path, other):
        invoke(runner, ["--seed", "1", "synth", "--n-videos", "2", "--max-actions", "2",
                        "--t-min", "8", "--t-max", "12", "--out", str(tmp_path / "corpus")])
        props = tmp_path / "props"
        os.makedirs(props)
        bad = props / "synth_0000.proposals.json"
        bad.write_text('{"a": 1}')
        if other is not None:
            (props / "synth_0001.proposals.json").write_text(other)
        r = invoke(runner, ["--keep-going", "eval", "--manifests",
                            str(tmp_path / "corpus/manifests"), "--proposals", str(props),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert r.output == (
            f"error: synth_0000: {bad}: top level must be a list of proposals\n"
            "error: no proposals to evaluate: 1 of 2 videos refused, and every other "
            "video's proposal file is missing or empty\n")
        summary = json.loads((tmp_path / "eval/run_summary.json").read_text())
        assert summary["completed"] == ["synth_0001"]
        assert list(summary["errors"]) == ["synth_0000"]
        assert "auc" not in summary and not (tmp_path / "eval/eval.json").exists()

    def test_eval_of_a_corpus_without_ground_truths_writes_a_summary(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "2", "--max-actions", "0",
                        "--out", str(tmp_path / "corpus")])
        os.makedirs(tmp_path / "props")
        for vid in ("synth_0000", "synth_0001"):
            (tmp_path / "props" / f"{vid}.proposals.json").write_text(json.dumps([self.GOOD]))
        r = invoke(runner, ["eval", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--proposals", str(tmp_path / "props"),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert r.output == "error: no ground-truth instances in the corpus\n"
        summary = json.loads((tmp_path / "eval/run_summary.json").read_text())
        assert summary["completed"] == ["synth_0000", "synth_0001"]
        assert summary["run_error"] == "no ground-truth instances in the corpus"

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_workers_below_one_is_rejected_like_any_bad_option(self, runner, tmp_path, via,
                                                               value):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": int(value)}))
        option = ["--workers", value] if via == "flag" else ["--config", str(cfg)]
        r = invoke(runner, option + ["labels", "--manifests", str(tmp_path / "corpus/manifests"),
                                     "--out", str(tmp_path / "labels")])
        if via == "flag":
            assert r.exit_code == 2  # click's usage error, as for any bad flag
            assert "Invalid value for '--workers'" in r.output
        else:
            assert r.exit_code == 1
            assert f"config {cfg}: field 'workers'" in r.output
        assert ">=1" in r.output
        assert not (tmp_path / "labels").exists()

    @pytest.mark.parametrize("option, value, expected", [
        ("--d-model", "100000000",
         "the model needs 80000066800000256 parameters, above the budget of 134217728"),
        ("--heads", "0", "num_heads must be positive"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_fusion_size_out_of_bounds_fails_once_naming_it(self, runner, tmp_path, option,
                                                             value, expected, via):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option[2:].replace("-", "_"): int(value)}))
        given = [option, value] if via == "flag" else []
        head = [] if via == "flag" else ["--config", str(cfg)]
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, head + ["featurize", "--manifests", str(tmp_path / "corpus/manifests"),
                                   *given, "--out", str(tmp_path / "features")])
        assert r.exit_code == 1
        assert r.output == f"error: {expected}\n"
        assert not (tmp_path / "features").exists()

    GOOD = {"t_start_sec": 0.0, "t_end_sec": 2.0, "score": 0.5}

    @pytest.mark.parametrize("text, expected", [
        pytest.param("not json", "not valid JSON", id="not-json"),
        pytest.param(json.dumps(GOOD), "top level must be a list", id="not-a-list"),
        pytest.param(json.dumps([GOOD, 3]), "entry 1: must be an object", id="not-an-object"),
        pytest.param(json.dumps([{"t_start_sec": 0.0, "t_end_sec": 2.0}]),
                     "entry 0: missing field 'score'", id="missing-key"),
        pytest.param(json.dumps([GOOD, {**GOOD, "label": "sports"}]),
                     "entry 1: unknown field 'label'\n", id="unknown-key"),
        # a misspelt field is named as unknown, not as the field it stands for
        pytest.param(json.dumps([{"t_start_sec": 0.0, "t_end": 2.0, "score": 0.5}]),
                     "entry 0: unknown field 't_end'\n", id="misspelt-key"),
        pytest.param(json.dumps([{**GOOD, "t_end_sec": "2"}]),
                     "entry 0: field 't_end_sec' must be a finite", id="string"),
        pytest.param(json.dumps([{**GOOD, "score": True}]),
                     "entry 0: field 'score' must be a finite", id="bool"),
        pytest.param(json.dumps([GOOD, {**GOOD, "t_start_sec": float("nan")}]),
                     "entry 1: field 't_start_sec' must be a finite", id="nan"),
        pytest.param(json.dumps([{**GOOD, "t_end_sec": float("inf")}]),
                     "entry 0: field 't_end_sec' must be a finite", id="inf"),
        pytest.param('[{"t_start_sec": 0, "t_end_sec": 1' + "0" * 400 + ', "score": 0.5}]',
                     "entry 0: field 't_end_sec' must be a finite", id="overlong-int"),
        pytest.param(json.dumps([{**GOOD, "t_end_sec": 0.0}]),
                     "entry 0: field 't_end_sec'", id="zero-length"),
        pytest.param(json.dumps([{**GOOD, "t_start_sec": 3.0}]),
                     "entry 0: field 't_end_sec'", id="reversed"),
        pytest.param(json.dumps([{**GOOD, "score": 1.5}]), "entry 0: field 'score'", id="score-high"),
        pytest.param(json.dumps([{**GOOD, "score": -0.1}]), "entry 0: field 'score'", id="score-low"),
        pytest.param(b"\xff\xfe[]", "not valid JSON", id="not-utf8"),
        pytest.param("[" * 100_000, "not valid JSON", id="deep-nesting"),
    ])
    def test_eval_rejects_malformed_proposal_file(self, runner, tmp_path, text, expected):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        vids = sorted(n.split(".")[0] for n in os.listdir(tmp_path / "corpus/manifests")
                      if n != "run_summary.json")
        os.makedirs(tmp_path / "props")
        (tmp_path / "props" / f"{vids[0]}.proposals.json").write_text(json.dumps([self.GOOD]))
        bad = tmp_path / "props" / f"{vids[1]}.proposals.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["eval", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--proposals", str(tmp_path / "props"),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert r.output.startswith(f"error: {vids[1]}: {bad}")
        assert expected in r.output

    @pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
    @pytest.mark.parametrize("stage", ["synth", "labels", "featurize", "infer", "eval"])
    def test_out_that_is_a_file_exits_1_naming_it(self, runner, tmp_path, stage, under):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub" if under else tmp_path / "afile"
        manifests = ["--manifests", str(tmp_path / "corpus/manifests")]
        args = {"synth": [], "labels": manifests, "featurize": manifests,
                "infer": [*manifests, "--grids", str(tmp_path / "corpus/grids")],
                "eval": [*manifests, "--proposals", str(tmp_path / "corpus")]}[stage]
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, [stage, *args, "--out", str(out)])
        assert r.exit_code == 1
        assert r.output.startswith("error: ") and str(tmp_path / "afile") in r.output

    @pytest.mark.parametrize("stage, blocked", [
        ("synth", "run_summary.json"), ("labels", "run_summary.json"),
        ("featurize", "run_summary.json"), ("infer", "run_summary.json"),
        ("eval", "run_summary.json"), ("eval", "eval.json"), ("eval", "eval.csv"),
    ])
    def test_a_run_level_output_that_cannot_be_written_exits_1_naming_it(
            self, runner, tmp_path, stage, blocked):
        """The run summary and eval's outputs are written outside every job, so
        a write of one that fails is the run's one error line."""
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        manifests = ["--manifests", str(tmp_path / "corpus/manifests")]
        grids = ["--grids", str(tmp_path / "corpus/grids")]
        invoke(runner, ["infer", *manifests, *grids, "--out", str(tmp_path / "props")])
        args = {"synth": [], "labels": manifests,
                "featurize": [*manifests, "--d-model", "16", "--heads", "2"],
                "infer": [*manifests, *grids],
                "eval": [*manifests, "--proposals", str(tmp_path / "props")]}[stage]
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)  # a directory where the file goes
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, [stage, *args, "--out", str(out)])
        assert r.exit_code == 1, r.output
        first = r.stderr.splitlines()[0]
        assert first.startswith("error: ") and str(out / blocked) in first
        assert "Traceback" not in r.output

    def _one_refused_video(self, runner, tmp_path, stage):
        """A 2-video corpus and the arguments under which one video of stage is
        refused: a manifest that is no JSON, or a proposal file that is no list.
        Returns (args, the refused video's error line)."""
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        manifests = tmp_path / "corpus/manifests"
        if stage == "labels":
            bad = manifests / "bad.json"
            bad.write_text("{not json")
            return ["--manifests", str(manifests)], f"error: bad: {bad}: not valid JSON"
        invoke(runner, ["infer", "--manifests", str(manifests), "--grids",
                        str(tmp_path / "corpus/grids"), "--out", str(tmp_path / "props")])
        bad = tmp_path / "props/synth_0001.proposals.json"
        bad.write_text('{"a": 1}')
        return (["--manifests", str(manifests), "--proposals", str(tmp_path / "props")],
                f"error: synth_0001: {bad}: top level must be a list of proposals")

    @pytest.mark.parametrize("stage, blocked", [
        ("labels", "run_summary.json"), ("eval", "run_summary.json"), ("eval", "eval.json"),
    ])
    def test_a_video_error_prints_before_a_run_level_write_that_fails(
            self, runner, tmp_path, stage, blocked):
        """Under --keep-going a refused video is named on stderr even when the
        run then fails on an output of its own."""
        args, video_error = self._one_refused_video(runner, tmp_path, stage)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)  # a directory where the file goes
        r = invoke(runner, ["--keep-going", stage, *args, "--out", str(out)])
        assert r.exit_code == 1, r.output
        video_line, run_line = r.stderr.splitlines()
        assert video_line.startswith(video_error)
        assert run_line.startswith("error: [Errno 21] ") and str(out / blocked) in run_line

    def test_a_video_error_prints_before_a_closed_stdout_fails_the_run(self, runner, tmp_path):
        args, video_error = self._one_refused_video(runner, tmp_path, "eval")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            p = subprocess.run([sys.executable, "-m", "tapgen.cli", "--keep-going", "eval",
                                *args, "--out", str(tmp_path / "eval")],
                               env=fresh_env(), stdout=write_end, stderr=subprocess.PIPE,
                               text=True, timeout=60)
        finally:
            os.close(write_end)
        assert p.returncode == 1
        assert p.stderr.splitlines() == [video_error, "error: stdout: [Errno 32] Broken pipe"]
        summary = json.loads((tmp_path / "eval/run_summary.json").read_text())
        assert (summary["completed"], list(summary["errors"])) == (["synth_0000"], ["synth_0001"])

    def test_missing_manifest_dir_contents(self, runner, tmp_path):
        os.makedirs(tmp_path / "empty")
        (tmp_path / "empty/run_summary.json").write_text("{}")  # a summary is not a manifest
        r = invoke(runner, ["labels", "--manifests", str(tmp_path / "empty"),
                            "--out", str(tmp_path / "labels")])
        assert r.exit_code == 1
        assert "no manifests" in r.output
        assert r.stderr == f"error: {tmp_path / 'empty'}: no manifests found\n"
        assert not (tmp_path / "labels").exists()

    @pytest.mark.parametrize("name, sibling", [("br[1]", None), ("a*b", "a-b"), ("q?", "qx")])
    def test_a_manifest_dir_named_like_a_glob_pattern_is_read_as_a_path(
            self, runner, tmp_path, name, sibling):
        """[, * and ? in --manifests are characters of the path: a bracketed name
        is found, and a sibling the name would match as a pattern is not read."""
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / name / "c")])
        if sibling:
            invoke(runner, ["--seed", "1", "synth", "--n-videos", "3",
                            "--out", str(tmp_path / sibling / "c")])
        manifests = tmp_path / name / "c/manifests"
        (manifests / ".hidden.json").write_text("{not json")  # dotfiles are still skipped
        r = invoke(runner, ["labels", "--manifests", str(manifests), "--out", str(tmp_path / "l")])
        assert r.exit_code == 0, r.output
        summary = json.loads((tmp_path / "l/run_summary.json").read_text())
        assert summary["completed"] == ["synth_0000", "synth_0001"]

    def test_a_manifest_whose_name_starts_with_run_summary_is_read(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        corpus = tmp_path / "corpus/manifests"
        os.rename(corpus / "synth_0001.json", corpus / "run_summary_clip.json")
        (corpus / "run_summary.json").write_text("{}")  # only this name is skipped
        r = invoke(runner, ["labels", "--manifests", str(corpus), "--out", str(tmp_path / "l")])
        assert r.exit_code == 0, r.output
        summary = json.loads((tmp_path / "l/run_summary.json").read_text())
        assert summary["completed"] == ["run_summary_clip", "synth_0000"]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "n_videos": 3, "t_max": 16}))
        r = invoke(runner, ["--config", str(cfg), "synth", "--out", str(tmp_path / "a")])
        assert r.exit_code == 0, r.output
        summary = json.loads((tmp_path / "a" / "run_summary.json").read_text())
        assert summary["config"]["n_videos"] == 3
        assert summary["config"]["seed"] == 4
        assert summary["config"]["t_max"] == 16
        # explicit flag overrides the config value
        r = invoke(runner, ["--config", str(cfg), "synth", "--n-videos", "5",
                            "--out", str(tmp_path / "b")])
        summary = json.loads((tmp_path / "b" / "run_summary.json").read_text())
        assert summary["config"]["n_videos"] == 5

    def test_config_equivalent_to_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "n_videos": 4}))
        invoke(runner, ["--config", str(cfg), "synth", "--out", str(tmp_path / "a")])
        invoke(runner, ["--seed", "9", "synth", "--n-videos", "4",
                        "--out", str(tmp_path / "b")])
        assert tree_digests(tmp_path / "a") == tree_digests(tmp_path / "b")

    def test_non_object_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        r = invoke(runner, ["--config", str(cfg), "synth", "--out", str(tmp_path / "a")])
        assert r.exit_code == 1
        assert "JSON object" in r.output

    @pytest.mark.parametrize("doc, stage, exit_code, expected", [
        pytest.param('{"preset": "ActivityNet"}', "eval", 1, "config {cfg}: field 'preset'", id="preset-case"),
        pytest.param('{"d_policy": "Full"}', "labels", 1, "config {cfg}: field 'd_policy'", id="d-policy-case"),
        pytest.param('{"top_k": "ten"}', "infer", 1, "config {cfg}: field 'top_k'", id="top-k-text"),
        pytest.param('{"workers": "two"}', "labels", 1, "config {cfg}: field 'workers'", id="workers-text"),
        pytest.param('{"seed": "abc"}', "synth", 1, "config {cfg}: field 'seed'", id="seed-text"),
        pytest.param('{"seed": null}', "synth", 1, "config {cfg}: field 'seed'", id="seed-null"),
        pytest.param('{"seed": 1', "synth", 1, "config {cfg}: not valid JSON", id="invalid-json"),
        pytest.param("[" * 100_000, "synth", 1, "config {cfg}: not valid JSON", id="deep-nesting"),
        pytest.param('{"topk": 10}', "infer", 1, "config {cfg}: unknown field 'topk'", id="unknown-key"),
        pytest.param('{"channels": 8}', "synth", 1, "config {cfg}: unknown field 'channels'",
                     id="channels-key"),
        # "false" is false, as for a flag: the bad manifest stops the run (exit 1, not 2)
        pytest.param('{"keep_going": "false"}', "labels-bad", 1, "error: aaa_bad: ",
                     id="keep-going-text"),
    ])
    def test_config_values_are_checked_like_flags(self, runner, tmp_path, doc, stage,
                                                  exit_code, expected):
        root = str(tmp_path)
        run_pipeline(runner, root, n_videos=3)
        bad = tmp_path / "bad_manifests"
        os.makedirs(bad)
        for name in os.listdir(tmp_path / "corpus/manifests"):
            (bad / name).write_bytes((tmp_path / "corpus/manifests" / name).read_bytes())
        (bad / "aaa_bad.json").write_text("{}")
        manifests = ["--manifests", f"{root}/corpus/manifests"]
        argv = {
            "synth": ["synth", "--out", f"{root}/synth"],
            "labels": ["labels", *manifests, "--out", f"{root}/out"],
            "labels-bad": ["labels", "--manifests", str(bad), "--out", f"{root}/out"],
            "infer": ["infer", *manifests, "--grids", f"{root}/corpus/grids",
                      "--out", f"{root}/out"],
            "eval": ["eval", *manifests, "--proposals", f"{root}/proposals",
                     "--out", f"{root}/out"],
        }[stage]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["--config", str(cfg), *argv])
        assert r.exit_code == exit_code, r.output
        assert expected.format(cfg=cfg) in r.output


@pytest.mark.parametrize("stage", ["synth", "featurize"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_0_to_2_64_exits_2_as_a_flag_and_1_from_config(runner, tmp_path, stage,
                                                                    seed):
    invoke(runner, ["synth", "--n-videos", "1", "--out", str(tmp_path / "corpus")])
    argv = {"synth": ["synth", "--n-videos", "1"],
            "featurize": ["featurize", "--manifests", str(tmp_path / "corpus/manifests")]}[stage]
    argv += ["--out", str(tmp_path / "out")]
    r = invoke(runner, ["--seed", str(seed), *argv])
    assert r.exit_code == 2
    assert f"Invalid value for '--seed': {seed} is not in the range" in r.output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    r = invoke(runner, ["--config", str(cfg), *argv])
    assert r.exit_code == 1
    assert f"config {cfg}: field 'seed': {seed} is not in the range" in r.output
    assert not (tmp_path / "out").exists()


def test_the_largest_seed_runs(runner, tmp_path):
    seed = ["--seed", str(2**64 - 1)]
    r = invoke(runner, [*seed, "synth", "--n-videos", "1", "--out", str(tmp_path / "corpus")])
    assert r.exit_code == 0, r.output
    r = invoke(runner, [*seed, "featurize", "--manifests", str(tmp_path / "corpus/manifests"),
                        "--out", str(tmp_path / "features")])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("stage", ["featurize", "labels", "infer", "eval"])
def test_out_that_is_the_manifest_directory_exits_1_before_any_job(runner, tmp_path, stage):
    """Its outputs would be read as manifests by every later stage."""
    run_pipeline(runner, str(tmp_path), n_videos=2)
    manifests = tmp_path / "corpus" / "manifests"
    out = f"{tmp_path}/corpus/../corpus/manifests/"  # the same directory, spelt otherwise
    options = {"featurize": [], "labels": [],
               "infer": ["--grids", str(tmp_path / "corpus/grids")],
               "eval": ["--proposals", str(tmp_path / "proposals")]}[stage]
    before = os.listdir(manifests)
    r = invoke(runner, [stage, "--manifests", str(manifests), *options, "--out", out])
    assert r.exit_code == 1
    assert r.output == f"error: {out}: is the --manifests directory; give another --out\n"
    assert os.listdir(manifests) == before


@pytest.mark.parametrize("n_videos, workers, cpus, pools", [
    (3, 8, 8, [3]), (3, 8, 2, [2]), (3, 2, 4, [2]), (1, 4, 8, []), (3, 1, 8, []), (3, 4, 1, []),
])
def test_pool_has_at_most_one_worker_per_job(runner, tmp_path, monkeypatch,
                                             n_videos, workers, cpus, pools):
    """A pool forks all its workers at the first submit, so it is sized to
    the jobs and to the CPUs the process may use; the summary records the
    count used."""
    allow_cpus(monkeypatch, cpus)
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    invoke(runner, ["synth", "--n-videos", str(n_videos), "--out", str(tmp_path / "corpus")])
    r = invoke(runner, ["--workers", str(workers), "labels",
                        "--manifests", str(tmp_path / "corpus/manifests"),
                        "--out", str(tmp_path / "labels")])
    assert r.exit_code == 0, r.output
    assert sizes == pools
    summary = json.loads((tmp_path / "labels" / "run_summary.json").read_text())
    assert summary["num_completed"] == n_videos
    assert summary["workers"] == (pools or [1])[0]

@pytest.mark.parametrize("stage", ["labels", "featurize", "infer", "eval"])
def test_jobs_carry_only_a_manifest_path_and_stage_arguments_reach_a_pool_once(
        runner, tmp_path, monkeypatch, stage):
    """A submitted job is its manifest path alone; the stage and its
    arguments (for featurize, the weights and the feature source) are the
    pool initializer's arguments, given once per pool."""
    from tapgen.fusion import FusionWeights, StubFeatureSource
    from tapgen.inference import InferenceConfig

    pools, submits = [], []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(kwargs)
            super().__init__(max_workers, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            submits.append((args, kwargs))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    allow_cpus(monkeypatch, 2)
    invoke(runner, ["synth", "--n-videos", "3", "--out", str(tmp_path / "corpus")])
    manifests = tmp_path / "corpus" / "manifests"
    proposals = tmp_path / "proposals"
    proposals.mkdir()
    (proposals / "synth_0000.proposals.json").write_text(
        '[{"t_start_sec": 0.0, "t_end_sec": 1.0, "score": 0.5}]')
    options = {"labels": ["--d-policy", "half"], "featurize": ["--d-model", "16", "--heads", "2"],
               "infer": ["--grids", str(tmp_path / "corpus" / "grids")],
               "eval": ["--proposals", str(proposals)]}[stage]
    r = invoke(runner, ["--workers", "2", stage, "--manifests", str(manifests), *options,
                        "--out", str(tmp_path / "out")])
    assert r.exit_code == 0, r.output
    assert submits == [((str(p),), {}) for p in sorted(manifests.glob("*.json"))]
    assert len(pools) == 1 and pools[0]["initializer"] is not None

    def flat(value):
        return [x for v in value for x in flat(v)] if isinstance(value, tuple) else [value]

    carried = flat(pools[0]["initargs"])
    kinds = {type(x) for x in carried}
    assert str(tmp_path / "out") in carried
    assert {"labels": "half" in carried,
            "featurize": {FusionWeights, StubFeatureSource} <= kinds,
            "infer": InferenceConfig in kinds,
            "eval": str(proposals) in carried}[stage]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this tapgen."""
    src = os.path.dirname(os.path.dirname(tapgen.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cli_import_loads_no_stage_only_module():
    """Each command imports its heavy modules itself, so a stage process
    starts without the others' (checked in a fresh interpreter)."""
    stage_only = ("tapgen.fusion", "tapgen.metrics", "tapgen.synth", "concurrent.futures",
                  "multiprocessing", "numpy.random")
    code = ("import sys, tapgen.cli; "
            f"print(*[m for m in {stage_only!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("stub, loaded", [(False, ""), (True, "_hashlib numpy.random")])
def test_featurize_from_files_loads_neither_openssl_nor_numpy_random(runner, tmp_path, stub,
                                                                      loaded):
    """Only the stub backbone hashes and draws: featurize from feature files
    and a weight bundle, in a fresh interpreter, ends without either module,
    and the stub path loads both."""
    invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
    manifests, features = tmp_path / "corpus" / "manifests", tmp_path / "features"
    features.mkdir()
    for path in sorted(manifests.iterdir()):
        doc = json.loads(path.read_text())
        for entry in doc["snippets"]:
            entry["feature_file"] = f"{doc['video']['video_id']}.{entry['index']}.aent"
            write_tensor(Tensor.from_array(np.ones((8, 8, 8))), features / entry["feature_file"])
        path.write_text(json.dumps(doc))
    save_weights(random_weights(FusionConfig(), seed=1), tmp_path / "bundle")
    code = ("import sys\nfrom tapgen.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as e:\n    assert not e.code, e.code\n"
            "print(*[m for m in ('_hashlib', 'numpy.random') if m in sys.modules])")
    args = ["featurize", "--manifests", str(manifests), "--weights", str(tmp_path / "bundle"),
            *([] if stub else ["--features", str(features)]), "--out", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == loaded
    assert len(glob.glob(str(tmp_path / "out" / "*.features.aent"))) == 2


class TestProcessEntryPoint:
    """`python -m tapgen.cli` in a fresh interpreter, through run: the exit
    codes, stderr and stdout that a shell sees."""

    @staticmethod
    def tapgen(*args, stdout=subprocess.PIPE):
        return subprocess.run([sys.executable, "-m", "tapgen.cli", *map(str, args)],
                              env=fresh_env(), stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=60)

    @pytest.fixture
    def corpus(self, runner, tmp_path):
        """A 3-video oracle corpus and its proposals, made in-process: AUC 100."""
        invoke(runner, ["synth", "--n-videos", "3", "--max-actions", "1",
                        "--out", str(tmp_path / "corpus")])
        invoke(runner, ["infer", "--manifests", str(tmp_path / "corpus/manifests"),
                        "--grids", str(tmp_path / "corpus/grids"),
                        "--out", str(tmp_path / "proposals")])
        return tmp_path

    def test_synth_exits_0(self, tmp_path):
        p = self.tapgen("synth", "--n-videos", "2", "--out", tmp_path / "corpus")
        assert p.returncode == 0, p.stderr
        assert len(os.listdir(tmp_path / "corpus/manifests")) == 2

    def test_labels_on_an_empty_directory_exits_1_on_an_error_line(self, tmp_path):
        (tmp_path / "empty").mkdir()
        p = self.tapgen("labels", "--manifests", tmp_path / "empty", "--out", tmp_path / "out")
        assert p.returncode == 1
        assert p.stderr.splitlines()[0] == f"error: {tmp_path / 'empty'}: no manifests found"

    def test_keep_going_with_one_bad_manifest_exits_2_and_writes_a_summary(self, corpus):
        (corpus / "corpus/manifests/bad.json").write_text("{not json")
        p = self.tapgen("--keep-going", "labels", "--manifests", corpus / "corpus/manifests",
                        "--out", corpus / "labels")
        assert p.returncode == 2
        assert p.stderr.startswith("error: bad: ")
        summary = json.loads((corpus / "labels/run_summary.json").read_text())
        assert (summary["num_completed"], list(summary["errors"])) == (3, ["bad"])

    def test_a_flag_value_click_rejects_exits_2_on_its_error_line(self, tmp_path):
        p = self.tapgen("--workers", "0", "synth", "--out", tmp_path / "corpus")
        assert p.returncode == 2
        assert any(line.startswith("Error: Invalid value for '--workers'")
                   for line in p.stderr.splitlines())
        assert not (tmp_path / "corpus").exists()

    def test_eval_prints_its_auc_line(self, corpus):
        p = self.tapgen("eval", "--manifests", corpus / "corpus/manifests",
                        "--proposals", corpus / "proposals", "--out", corpus / "eval")
        assert (p.returncode, p.stdout, p.stderr) == (0, "AUC: 100.0000\n", "")

    def test_eval_into_a_closed_pipe_writes_its_summary_and_exits_1_on_an_error_line(
            self, corpus):
        """The AUC line cannot be written, but the run already wrote what it ran."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            p = self.tapgen("eval", "--manifests", corpus / "corpus/manifests",
                            "--proposals", corpus / "proposals", "--out", corpus / "eval",
                            stdout=write_end)
        finally:
            os.close(write_end)
        assert p.returncode == 1
        assert p.stderr.startswith("error: stdout: ")
        summary = json.loads((corpus / "eval/run_summary.json").read_text())
        assert (summary["num_completed"], summary["auc"]) == (3, 100.0)

    def test_run_freezes_the_collector_and_main_in_process_does_not(self, runner, tmp_path):
        """Objects alive when the command ends are frozen before the exit's
        collections; a caller of main keeps a normal collector."""
        code = ("import atexit, gc\nfrom tapgen import cli\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                "cli.run()\n")
        p = subprocess.run([sys.executable, "-c", code, "synth", "--n-videos", "1",
                            "--out", str(tmp_path / "a")], env=fresh_env(),
                           capture_output=True, text=True, timeout=60)
        assert (p.returncode, p.stdout) == (0, "frozen True\n"), p.stderr
        before = gc.get_freeze_count()
        r = invoke(runner, ["synth", "--n-videos", "1", "--out", str(tmp_path / "b")])
        assert r.exit_code == 0, r.output
        assert gc.get_freeze_count() == before


# sha256 per artifact kind. A change that moves a byte of any of them
# changes a file format or a result, and must record new digests on
# purpose. Features are left out: their last bits may move with the
# summation order of a faster featurize.
GOLDEN_DIGESTS = {
    "manifests": "dfacfd27c8cb671ba757d1f890d7c365134c6df4411d982d8ee1cb3db350c04d",
    "grids": "f0977389900546dcb289d40cde480d181e8d2e868c62e2f59bfde62e8e5a8b51",
    "labels": "63b8c1ad8b5a7f8dc7696b15f3defe55c1889f657512a08222b57133d645a1b4",
    "proposals": "82bde6509713893112b13d746e307e89a27f775144726703925133c957d36f86",
    "eval": "cccf029b4f68a0dfe587ae164e905ec26c5ef990add8e79e7ffda8a587e46d6c",
    "bundle": "0cd6473764b4dd568c0f95f98a91cb700da04d4f9eefcf88b3daab9b0f6ce0f7",
}


def kind_digest(root, *patterns):
    """sha256 over the sorted relative paths matching patterns, each
    followed by its file's bytes."""
    h = hashlib.sha256()
    paths = sorted({p for pat in patterns for p in glob.glob(pat, root_dir=root)})
    assert paths, patterns
    for rel in paths:
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_artifacts_match_the_golden_digests(runner, tmp_path):
    """synth, labels, infer on seeded noisy grids, eval and a non-default
    weight bundle write the same bytes as when the digests were recorded."""
    invoke(runner, ["--seed", "4", "synth", "--n-videos", "5", "--max-actions", "3",
                    "--out", str(tmp_path / "corpus")])
    manifests = ["--manifests", str(tmp_path / "corpus/manifests")]
    write_noisy_grids(tmp_path / "corpus/grids", tmp_path / "noisy", seed=4)
    for args in (["labels", *manifests, "--out", str(tmp_path / "labels")],
                 ["infer", *manifests, "--grids", str(tmp_path / "noisy"),
                  "--out", str(tmp_path / "proposals")],
                 ["eval", *manifests, "--proposals", str(tmp_path / "proposals"),
                  "--out", str(tmp_path / "eval")]):
        r = invoke(runner, args)
        assert r.exit_code == 0, r.output
    save_weights(random_weights(FusionConfig(channels=3, d_model=12, num_heads=3, num_layers=2,
                                             ff_dim=10), seed=2),
                 tmp_path / "bundle")
    got = {
        "manifests": kind_digest(tmp_path, "corpus/manifests/*.json"),
        "grids": kind_digest(tmp_path, "corpus/grids/*"),
        "labels": kind_digest(tmp_path, "labels/*.aent"),
        "proposals": kind_digest(tmp_path, "proposals/*.proposals.json"),
        "eval": kind_digest(tmp_path, "eval/eval.json", "eval/eval.csv"),
        "bundle": kind_digest(tmp_path, "bundle/*"),
    }
    assert got == GOLDEN_DIGESTS
