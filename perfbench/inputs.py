"""Seeded benchmark inputs that the `tapgen synth` stage does not make.

Two generators run after `tapgen synth` has written a corpus:

* `noisy-grids` turns the oracle score grids into noisy ones. Soft-NMS
  and AR@AN matching then see thousands of candidates per video instead
  of the ~2 that oracle grids give.
* `features` gives every snippet its own feature file, writes manifests
  that name those files and a saved weight bundle, so that `featurize
  --features --weights` reads everything from disk.

Every array is drawn from a Philox stream keyed on (seed, tag, video
index), so the output depends on the seed alone and not on the order
in which videos are processed.

Usage:
    python3 perfbench/inputs.py noisy-grids --corpus DIR --seed N --out DIR
    python3 perfbench/inputs.py features --corpus DIR --seed N --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tapgen import fusion  # noqa: E402
from tapgen.supervision import ScoreGrids, valid_cell_mask  # noqa: E402
from tapgen.tensorio import Tensor, read_manifest, read_tensor, write_manifest, write_tensor  # noqa: E402

GRID_PARTS = ("start", "end", "cls", "reg")
NOISE_TAG = 1
FEATURE_TAG = 2
# Oracle cells keep this much of their mass; uniform noise fills the rest.
ORACLE_KEEP = 0.6
# Amplitudes of the boundary noise, used by videos in turn. Wider noise
# pushes more snippets over find_peaks' 0.5 * max threshold, so the levels
# spread the candidate count over roughly 2k..6k at T = 200. Tying the
# level to the video index, not the seed, keeps the corpus's total work
# close across seeds.
BOUNDARY_NOISE = (0.5, 0.575, 0.65, 0.725, 0.8)
CONFIDENCE_NOISE = 0.5
FEATURE_DIMS = (8, 8, 8)  # (C, H, W) as the default FusionConfig expects
# Distinct feature tensors per video. Snippet i's file is a hard link to
# snippet (i mod FEATURE_POOL)'s: creating ~10k distinct files made set-up
# time swing several-fold with the disk, while links keep one path and
# one read per snippet.
FEATURE_POOL = 8


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    key = np.array([seed, (tag << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def noisy_grids(oracle: ScoreGrids, rng: np.random.Generator, amplitude: float) -> ScoreGrids:
    """Clipped noise over the oracle grids, zero on cells with j + d > T."""
    T, D = oracle.T, oracle.D
    mask = valid_cell_mask(T, D)

    def boundary(p: np.ndarray) -> np.ndarray:
        return np.clip(ORACLE_KEEP * p + rng.uniform(0.0, amplitude, T), 0.0, 1.0)

    def confidence(c: np.ndarray) -> np.ndarray:
        noisy = np.clip(ORACLE_KEEP * c + rng.uniform(0.0, CONFIDENCE_NOISE, (D, T)), 0.0, 1.0)
        return np.where(mask, noisy, 0.0)

    return ScoreGrids(
        start_probs=boundary(oracle.start_probs),
        end_probs=boundary(oracle.end_probs),
        conf_cls=confidence(oracle.conf_cls),
        conf_reg=confidence(oracle.conf_reg),
    )


def _video_ids(manifest_dir: str) -> list[str]:
    paths = sorted(glob.glob(os.path.join(manifest_dir, "*.json")))
    return [
        os.path.splitext(os.path.basename(p))[0]
        for p in paths
        if not os.path.basename(p).startswith("run_summary")
    ]


def write_noisy_grids(corpus: str, seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    for i, vid in enumerate(_video_ids(os.path.join(corpus, "manifests"))):
        arrays = [
            read_tensor(os.path.join(corpus, "grids", f"{vid}.{part}.aent")).to_array()
            for part in GRID_PARTS
        ]
        amplitude = BOUNDARY_NOISE[i % len(BOUNDARY_NOISE)]
        grids = noisy_grids(ScoreGrids(*arrays), _rng(seed, NOISE_TAG, i), amplitude)
        for part, arr in zip(
            GRID_PARTS, (grids.start_probs, grids.end_probs, grids.conf_cls, grids.conf_reg)
        ):
            write_tensor(Tensor.from_array(arr), os.path.join(out, f"{vid}.{part}.aent"))


def write_features(corpus: str, seed: int, out: str) -> None:
    """Per-snippet feature files, manifests naming them, and a weight bundle."""
    manifest_dir = os.path.join(out, "manifests")
    os.makedirs(manifest_dir, exist_ok=True)
    for i, vid in enumerate(_video_ids(os.path.join(corpus, "manifests"))):
        manifest = read_manifest(os.path.join(corpus, "manifests", f"{vid}.json"))
        maps = _rng(seed, FEATURE_TAG, i).random((FEATURE_POOL, *FEATURE_DIMS))
        feature_dir = os.path.join(out, "features", vid)
        os.makedirs(feature_dir)
        snippets = []
        for entry in manifest.snippets:
            name = f"{entry.index:05d}.aent"
            path = os.path.join(feature_dir, name)
            if entry.index < FEATURE_POOL:
                write_tensor(Tensor.from_array(maps[entry.index]), path)
            else:
                os.link(os.path.join(feature_dir, f"{entry.index % FEATURE_POOL:05d}.aent"), path)
            snippets.append(dataclasses.replace(entry, feature_file=f"{vid}/{name}"))
        manifest = dataclasses.replace(manifest, snippets=tuple(snippets))
        write_manifest(manifest, os.path.join(manifest_dir, f"{vid}.json"))
    weights = fusion.random_weights(fusion.FusionConfig(channels=FEATURE_DIMS[0]), seed)
    fusion.save_weights(weights, os.path.join(out, "weights"))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("noisy-grids", "features"))
    parser.add_argument("--corpus", required=True, help="output directory of `tapgen synth`")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.kind == "noisy-grids":
        write_noisy_grids(args.corpus, args.seed, args.out)
    else:
        write_features(args.corpus, args.seed, args.out)


if __name__ == "__main__":
    main()
