import numpy as np
import pytest

import inputs
from tapgen.inference import find_peaks, form_proposals
from tapgen.supervision import ScoreGrids, valid_cell_mask
from tapgen.synth import synth_corpus
from tapgen.timeline import build_grid


@pytest.fixture(scope="module")
def videos():
    return synth_corpus(3, 6, seed=5, t_min=60, t_max=60, d_policy="full")


def _noisy(videos, seed):
    return [inputs.noisy_grids(sv.grids, inputs._rng(seed, inputs.NOISE_TAG, i),
                               inputs.BOUNDARY_NOISE[i])
            for i, sv in enumerate(videos)]


def test_noisy_grids_are_valid_score_grids(videos):
    for sv, g in zip(videos, _noisy(videos, 11)):
        mask = valid_cell_mask(g.T, g.D)
        for a in (g.start_probs, g.end_probs, g.conf_cls, g.conf_reg):
            assert np.all((a >= 0) & (a <= 1))
        assert np.all(g.conf_cls[~mask] == 0) and np.all(g.conf_reg[~mask] == 0)
        # re-validating through the constructor must not raise
        ScoreGrids(g.start_probs, g.end_probs, g.conf_cls, g.conf_reg)
        assert g.T == sv.grids.T and g.D == sv.grids.D


def test_noisy_grids_are_deterministic_per_seed(videos):
    a, b, c = _noisy(videos, 11), _noisy(videos, 11), _noisy(videos, 12)
    for x, y in zip(a, b):
        assert np.array_equal(x.conf_cls, y.conf_cls)
        assert np.array_equal(x.start_probs, y.start_probs)
    assert not np.array_equal(a[0].conf_cls, c[0].conf_cls)


def test_noisy_grids_give_many_candidates(videos):
    for sv, g in zip(videos, _noisy(videos, 11)):
        grid = build_grid(sv.manifest.video)
        props = form_proposals(find_peaks(g.start_probs), find_peaks(g.end_probs), g, grid)
        # oracle grids give a handful; noise must give hundreds even at T = 60
        assert len(props) > 100


def test_feature_files_roundtrip(tmp_path):
    from tapgen import cli, tensorio
    from click.testing import CliRunner

    corpus = tmp_path / "corpus"
    res = CliRunner().invoke(cli.main, ["--seed", "3", "synth", "--n-videos", "2",
                                        "--t-min", "8", "--t-max", "10", "--no-grids",
                                        "--out", str(corpus)])
    assert res.exit_code == 0, res.output
    inputs.write_features(str(corpus), 3, str(tmp_path / "files"))
    m = tensorio.read_manifest(str(tmp_path / "files" / "manifests" / "synth_0000.json"))
    assert all(s.feature_file for s in m.snippets)
    t = tensorio.read_tensor(str(tmp_path / "files" / "features" / m.snippets[0].feature_file))
    assert t.dims == inputs.FEATURE_DIMS
    # snippets past the pool reuse its tensors under their own names
    pooled = m.snippets[inputs.FEATURE_POOL]
    assert pooled.feature_file != m.snippets[0].feature_file
    again = tensorio.read_tensor(str(tmp_path / "files" / "features" / pooled.feature_file))
    assert np.array_equal(again.to_array(), t.to_array())
    assert (tmp_path / "files" / "weights" / "index.json").exists()
