"""End-to-end tests of the batch command line interface."""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from tapgen.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


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

    def test_invalid_n_videos(self, runner, tmp_path):
        r = invoke(runner, ["synth", "--n-videos", "0", "--out", str(tmp_path)])
        assert r.exit_code == 1


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

    def test_parallel_matches_serial(self, runner, tmp_path):
        run_pipeline(runner, str(tmp_path / "serial"), n_videos=5, seed=11, workers=1)
        run_pipeline(runner, str(tmp_path / "par"), n_videos=5, seed=11, workers=3)
        a = tree_digests(tmp_path / "serial")
        b = tree_digests(tmp_path / "par")
        assert a and a == b

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

    def test_eval_with_no_matching_proposals_exits_1(self, runner, tmp_path):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        os.makedirs(tmp_path / "empty")
        r = invoke(runner, ["eval", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--proposals", str(tmp_path / "empty"),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert "no proposal files" in r.output

    GOOD = {"t_start_sec": 0.0, "t_end_sec": 2.0, "score": 0.5}

    @pytest.mark.parametrize("text, expected", [
        pytest.param("not json", "not valid JSON", id="not-json"),
        pytest.param(json.dumps(GOOD), "top level must be a list", id="not-a-list"),
        pytest.param(json.dumps([GOOD, 3]), "entry 1: must be an object", id="not-an-object"),
        pytest.param(json.dumps([{"t_start_sec": 0.0, "t_end_sec": 2.0}]),
                     "entry 0: missing field 'score'", id="missing-key"),
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
    ])
    def test_eval_rejects_malformed_proposal_file(self, runner, tmp_path, text, expected):
        invoke(runner, ["synth", "--n-videos", "2", "--out", str(tmp_path / "corpus")])
        vids = sorted(n.split(".")[0] for n in os.listdir(tmp_path / "corpus/manifests")
                      if n != "run_summary.json")
        os.makedirs(tmp_path / "props")
        (tmp_path / "props" / f"{vids[0]}.proposals.json").write_text(json.dumps([self.GOOD]))
        bad = tmp_path / "props" / f"{vids[1]}.proposals.json"
        bad.write_text(text)
        # catch_exceptions=False: a traceback would fail the test
        r = invoke(runner, ["eval", "--manifests", str(tmp_path / "corpus/manifests"),
                            "--proposals", str(tmp_path / "props"),
                            "--out", str(tmp_path / "eval")])
        assert r.exit_code == 1
        assert r.output.startswith(f"error: {bad}")
        assert expected in r.output

    def test_missing_manifest_dir_contents(self, runner, tmp_path):
        os.makedirs(tmp_path / "empty")
        r = invoke(runner, ["labels", "--manifests", str(tmp_path / "empty"),
                            "--out", str(tmp_path / "labels")])
        assert r.exit_code == 1
        assert "no manifests" in r.output


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
