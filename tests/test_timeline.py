import numpy as np
import pytest

from tapgen.errors import InvalidInputError
from tapgen.timeline import GroundTruthAction, VideoMeta, build_grid, temporal_iou


def test_build_grid_basic():
    meta = VideoMeta(video_id="v", num_frames=160, fps=16.0, snippet_len=16)
    grid = build_grid(meta)
    assert grid.T == 10
    assert grid.centers[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(grid.centers) > 0)


def test_build_grid_single_snippet():
    grid = build_grid(VideoMeta(video_id="v", num_frames=16, fps=16.0, snippet_len=16))
    assert grid.T == 1


def test_build_grid_drops_trailing_frames():
    # 170 frames at delta=16: T = 10, 10 frames dropped
    grid = build_grid(VideoMeta(video_id="v", num_frames=170, fps=16.0, snippet_len=16))
    assert grid.T == 10


def test_build_grid_centers_formula():
    meta = VideoMeta(video_id="v", num_frames=96, fps=12.0, snippet_len=8)
    grid = build_grid(meta)
    for i in range(grid.T):
        assert grid.centers[i] == pytest.approx(8 * (i + 0.5) / 12.0, abs=1e-9)


def test_meta_rejects_short_video():
    with pytest.raises(InvalidInputError):
        VideoMeta(video_id="v", num_frames=8, fps=16.0, snippet_len=16)


def test_meta_rejects_inconsistent_duration():
    with pytest.raises(InvalidInputError):
        VideoMeta(video_id="v", num_frames=160, fps=16.0, snippet_len=16, duration_seconds=11.0)


@pytest.mark.parametrize("kwargs", [
    {"fps": float("inf")},
    {"fps": float("nan")},
    {"fps": 5e-324},  # num_frames / fps overflows to inf
    {"duration_seconds": float("nan")},
    {"duration_seconds": float("inf")},
])
def test_meta_rejects_non_finite_timeline(kwargs):
    with pytest.raises(InvalidInputError):
        VideoMeta(**{"video_id": "v", "num_frames": 160, "fps": 16.0, "snippet_len": 16, **kwargs})


def test_grid_floor_property_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        delta = int(rng.integers(1, 40))
        L = int(rng.integers(delta, 2000))
        grid = build_grid(VideoMeta(video_id="v", num_frames=L, fps=25.0, snippet_len=delta))
        assert grid.T * delta <= L < (grid.T + 1) * delta


def test_temporal_iou_values():
    assert temporal_iou((0, 2), (1, 3)) == pytest.approx(1 / 3)
    assert temporal_iou((0, 2), (0, 2)) == 1.0
    assert temporal_iou((0, 1), (2, 3)) == 0.0


def test_temporal_iou_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        temporal_iou((1, 1), (0, 2))
    with pytest.raises(InvalidInputError):
        temporal_iou((0, 2), (3, 2))


def test_temporal_iou_symmetry_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = np.sort(rng.uniform(0, 10, 2))
        b = np.sort(rng.uniform(0, 10, 2))
        if a[0] == a[1] or b[0] == b[1]:
            continue
        assert temporal_iou(tuple(a), tuple(b)) == temporal_iou(tuple(b), tuple(a))
        assert temporal_iou(tuple(a), tuple(a)) == 1.0


def test_ground_truth_validation():
    GroundTruthAction(label="x", start_sec=0.0, end_sec=1.0)
    with pytest.raises(InvalidInputError):
        GroundTruthAction(label="x", start_sec=2.0, end_sec=1.0)
    with pytest.raises(InvalidInputError):
        GroundTruthAction(label="x", start_sec=-1.0, end_sec=1.0)
