"""One equality rule: a value type that holds an array compares and hashes
by identity, so == returns a bool and never raises; scalar value types and
configs compare by value."""

import copy
import pickle

import numpy as np
import pytest

from tapgen.fusion import FeatureMap, FusionConfig, random_weights
from tapgen.inference import Candidates, InferenceConfig, Proposal
from tapgen.metrics import evaluate
from tapgen.supervision import LossConfig, gen_labels
from tapgen.synth import synth_corpus
from tapgen.tensorio import SnippetEntry, Tensor
from tapgen.timeline import GroundTruthAction, VideoMeta, build_grid

SMALL_CFG = FusionConfig(channels=3, d_model=8, num_heads=2, num_layers=1, ff_dim=4)


def synth_video():
    return synth_corpus(1, 2, seed=0)[0]


def label_set():
    m = synth_video().manifest
    return gen_labels(build_grid(m.video), list(m.annotations), 4)


def eval_result():
    return evaluate({"v": [Proposal(0.0, 1.0, 0.9)]}, {"v": [GroundTruthAction("a", 0.0, 1.0)]})


ARRAY_HOLDERS = {
    "ScoreGrids": lambda: synth_video().grids,
    "LabelSet": label_set,
    "SnippetGrid": lambda: build_grid(VideoMeta("v", 160, 16.0, 16)),
    "FeatureMap": lambda: FeatureMap(np.ones((2, 3, 3))),
    "EncoderWeights": lambda: random_weights(SMALL_CFG, 0).agent_encoder,
    "FusionWeights": lambda: random_weights(SMALL_CFG, 0),
    "EvalResult": eval_result,
    "SynthVideo": synth_video,
    "Manifest": lambda: synth_video().manifest,
    "Snippets": lambda: synth_video().manifest.snippets,
    "Tensor": lambda: Tensor.from_array(np.arange(3.0)),
    "Candidates": lambda: Candidates.of([Proposal(0.0, 1.0, 0.5)]),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(build):
    x = build()
    twin = copy.deepcopy(x)
    assert pickle.dumps(twin) == pickle.dumps(x)  # equal arrays, equal everything
    assert (x == x) is True and (x != x) is False
    assert (x == twin) is False and (x != twin) is True
    assert (x == object()) is False and x not in [twin, 3, None]
    assert isinstance(hash(x), int) and hash(x) == hash(x)
    assert len({x, twin, x}) == 2


SCALAR_VALUES = {
    "VideoMeta": lambda: VideoMeta("v", 160, 16.0, 16),
    "GroundTruthAction": lambda: GroundTruthAction("a", 0.5, 1.5),
    "Proposal": lambda: Proposal(0.5, 1.5, 0.25),
    "SnippetEntry": lambda: SnippetEntry(3, "a.aent", ((0.1, 0.2, 0.5, 0.6),)),
    "FusionConfig": FusionConfig,
    "LossConfig": LossConfig,
    "InferenceConfig": InferenceConfig,
}


@pytest.mark.parametrize("build", SCALAR_VALUES.values(), ids=SCALAR_VALUES.keys())
def test_scalar_values_compare_and_hash_by_value(build):
    x, y = build(), build()
    assert x is not y and x == y and not (x != y)
    assert hash(x) == hash(y) and len({x, y}) == 1
