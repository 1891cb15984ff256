import dataclasses
import json
import math
import os
import pickle
import struct
import sys

import numpy as np
import pytest

from tapgen.errors import InvalidInputError, ManifestValidationError, TensorFormatError
from tapgen.tensorio import (
    _MAX_SNIPPETS,
    Manifest,
    SnippetEntry,
    Snippets,
    Tensor,
    load_proposals,
    manifest_from_dict,
    manifest_to_dict,
    read_manifest,
    read_tensor,
    tensor_bytes,
    tensor_from_bytes,
    write_manifest,
    write_proposals,
    write_tensor,
)
from tapgen.inference import Proposal
from tapgen.timeline import GroundTruthAction, VideoMeta


MAGIC_HEADER = b"AENT" + struct.pack("<II", 1, 3)


# ---------------------------------------------------------------------------
# Reference: manifest_from_dict as it was before boxes were checked as one
# array, kept verbatim (helpers renamed), box by box in document order.
# ---------------------------------------------------------------------------

def _ref_require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for k in obj:
        if k not in allowed:
            raise ManifestValidationError(f"{path}.{k}", "unknown field")
    for k in required:
        if k not in obj:
            raise ManifestValidationError(f"{path}.{k}", "missing required field")


def _ref_check_number(v, path: str, *, integer: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ManifestValidationError(path, f"expected a number, got {type(v).__name__}")
    if integer and not isinstance(v, int):
        raise ManifestValidationError(path, f"expected an integer, got {v!r}")
    if not -sys.float_info.max <= v <= sys.float_info.max:  # NaN, inf, or an int beyond float
        raise ManifestValidationError(path, "expected a finite number")
    return v


def reference_manifest_from_dict(doc: dict, name: str = "manifest") -> Manifest:
    """Validate a parsed manifest document and build the Manifest."""
    if not isinstance(doc, dict):
        raise ManifestValidationError(name, "document must be a JSON object")
    _ref_require_keys(doc, {"video", "annotations", "snippets"}, {"video", "annotations"}, name)

    v = doc["video"]
    vpath = f"{name}.video"
    if not isinstance(v, dict):
        raise ManifestValidationError(vpath, "must be an object")
    _ref_require_keys(
        v,
        {"video_id", "num_frames", "fps", "snippet_len", "duration_seconds"},
        {"video_id", "num_frames", "fps", "snippet_len"},
        vpath,
    )
    if not isinstance(v["video_id"], str) or not v["video_id"]:
        raise ManifestValidationError(f"{vpath}.video_id", "must be a non-empty string")
    if any(c and c in v["video_id"] for c in (os.sep, os.altsep, "\0")):
        raise ManifestValidationError(f"{vpath}.video_id", "must hold no path separator or NUL")
    try:
        video = VideoMeta(
            video_id=v["video_id"],
            num_frames=int(_ref_check_number(v["num_frames"], f"{vpath}.num_frames", integer=True)),
            fps=float(_ref_check_number(v["fps"], f"{vpath}.fps")),
            snippet_len=int(_ref_check_number(v["snippet_len"], f"{vpath}.snippet_len", integer=True)),
            duration_seconds=(
                float(_ref_check_number(v["duration_seconds"], f"{vpath}.duration_seconds"))
                if "duration_seconds" in v
                else None
            ),
        )
    except InvalidInputError as e:
        raise ManifestValidationError(vpath, str(e)) from e
    T = video.num_frames // video.snippet_len  # build_grid's T, without allocating the grid

    anns = doc["annotations"]
    if not isinstance(anns, list):
        raise ManifestValidationError(f"{name}.annotations", "must be a list")
    annotations = []
    for i, a in enumerate(anns):
        apath = f"{name}.annotations[{i}]"
        if not isinstance(a, dict):
            raise ManifestValidationError(apath, "must be an object")
        _ref_require_keys(a, {"label", "start_sec", "end_sec"}, {"label", "start_sec", "end_sec"}, apath)
        if not isinstance(a["label"], str):
            raise ManifestValidationError(f"{apath}.label", "must be a string")
        start = float(_ref_check_number(a["start_sec"], f"{apath}.start_sec"))
        end = float(_ref_check_number(a["end_sec"], f"{apath}.end_sec"))
        try:
            gt = GroundTruthAction(label=a["label"], start_sec=start, end_sec=end)
        except InvalidInputError as e:
            raise ManifestValidationError(apath, str(e)) from e
        if gt.end_sec > video.duration_seconds + 1e-9:
            raise ManifestValidationError(
                f"{apath}.end_sec",
                f"annotation ends at {gt.end_sec}, beyond video duration "
                f"{video.duration_seconds}",
            )
        annotations.append(gt)

    raw_snippets = doc.get("snippets", [])
    if not isinstance(raw_snippets, list):
        raise ManifestValidationError(f"{name}.snippets", "must be a list")
    snippets = []
    seen: set[int] = set()
    for i, s in enumerate(raw_snippets):
        spath = f"{name}.snippets[{i}]"
        if not isinstance(s, dict):
            raise ManifestValidationError(spath, "must be an object")
        _ref_require_keys(s, {"index", "feature_file", "agent_boxes"}, {"index"}, spath)
        idx = int(_ref_check_number(s["index"], f"{spath}.index", integer=True))
        if not 0 <= idx < T:
            raise ManifestValidationError(f"{spath}.index", f"index {idx} outside [0, {T})")
        if idx in seen:
            raise ManifestValidationError(f"{spath}.index", f"duplicate snippet index {idx}")
        seen.add(idx)
        feature_file = s.get("feature_file")
        if feature_file is not None and not isinstance(feature_file, str):
            raise ManifestValidationError(f"{spath}.feature_file", "must be a string path")
        if feature_file is not None and "\0" in feature_file:
            raise ManifestValidationError(f"{spath}.feature_file", "must hold no NUL")
        boxes = []
        raw_boxes = s.get("agent_boxes", [])
        if not isinstance(raw_boxes, list):
            raise ManifestValidationError(f"{spath}.agent_boxes", "must be a list")
        for j, b in enumerate(raw_boxes):
            bpath = f"{spath}.agent_boxes[{j}]"
            if not isinstance(b, list) or len(b) != 4:
                raise ManifestValidationError(bpath, "box must be [x1, y1, x2, y2]")
            x1, y1, x2, y2 = (float(_ref_check_number(c, f"{bpath}[{k}]")) for k, c in enumerate(b))
            if not all(0.0 <= c <= 1.0 for c in (x1, y1, x2, y2)):
                raise ManifestValidationError(bpath, f"coordinates outside [0, 1]: {b}")
            if not x1 < x2:
                raise ManifestValidationError(bpath, f"x1 >= x2 in {b}")
            if not y1 < y2:
                raise ManifestValidationError(bpath, f"y1 >= y2 in {b}")
            boxes.append((x1, y1, x2, y2))
        snippets.append(SnippetEntry(index=idx, feature_file=feature_file, agent_boxes=tuple(boxes)))

    return Manifest(video=video, annotations=tuple(annotations), snippets=tuple(snippets))



def minimal_manifest_doc():
    return {
        "video": {"video_id": "v1", "num_frames": 160, "fps": 16.0, "snippet_len": 16},
        "annotations": [{"label": "jump", "start_sec": 1.0, "end_sec": 4.0}],
        "snippets": [{"index": 0, "agent_boxes": []}],
    }


class TestTensorFormat:
    def test_file_layout_size(self, tmp_path):
        # header 4+4+4, dims 2*8, dtype 4, payload 6*8 -> 80 bytes
        t = Tensor.from_array(np.zeros((2, 3)), dtype="f64")
        path = tmp_path / "z.aent"
        write_tensor(t, path)
        assert path.stat().st_size == 80

    def test_roundtrip_f32_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        t = Tensor.from_array(
            rng.random((7, 5, 3)).astype(np.float32).astype(np.float64), dtype="f32"
        )
        blob1 = tensor_bytes(t)
        t2 = tensor_from_bytes(blob1)
        assert tensor_bytes(t2) == blob1
        assert t2.dims == (7, 5, 3)

    def test_roundtrip_f64_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = rng.standard_normal((4, 9))
        path = tmp_path / "t.aent"
        write_tensor(Tensor.from_array(arr), path)
        back = read_tensor(path)
        assert back.dtype == "f64"
        np.testing.assert_array_equal(back.to_array(), arr)

    def test_randomized_roundtrips(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(30):
            ndim = int(rng.integers(1, 4))
            dims = tuple(int(d) for d in rng.integers(1, 6, ndim))
            dtype = "f32" if i % 2 else "f64"
            arr = rng.standard_normal(dims)
            if dtype == "f32":
                arr = arr.astype(np.float32).astype(np.float64)
            t = Tensor.from_array(arr, dtype=dtype)
            assert tensor_bytes(tensor_from_bytes(tensor_bytes(t))) == tensor_bytes(t)

    def test_empty_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            Tensor.from_array(np.array(3.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            Tensor.from_array(np.array([1.0, np.inf]))

    def test_bad_magic(self):
        blob = tensor_bytes(Tensor.from_array(np.ones(3)))
        with pytest.raises(TensorFormatError, match="magic"):
            tensor_from_bytes(b"XXXX" + blob[4:])

    def test_truncated_payload(self):
        blob = tensor_bytes(Tensor.from_array(np.ones(3)))
        with pytest.raises(TensorFormatError, match="size mismatch"):
            tensor_from_bytes(blob[:-4])

    def test_trailing_garbage(self):
        blob = tensor_bytes(Tensor.from_array(np.ones(3)))
        with pytest.raises(TensorFormatError, match="size mismatch"):
            tensor_from_bytes(blob + b"\x00")

    def test_bad_version(self):
        blob = bytearray(tensor_bytes(Tensor.from_array(np.ones(3))))
        blob[4:8] = struct.pack("<I", 9)
        with pytest.raises(TensorFormatError, match="version"):
            tensor_from_bytes(bytes(blob))

    def test_bad_dtype_code(self):
        blob = bytearray(tensor_bytes(Tensor.from_array(np.ones(3))))
        blob[20:24] = struct.pack("<I", 7)  # dtype sits after one u64 dim
        with pytest.raises(TensorFormatError, match="dtype"):
            tensor_from_bytes(bytes(blob))

    def test_zero_dim(self):
        blob = bytearray(tensor_bytes(Tensor.from_array(np.ones(3))))
        blob[12:20] = struct.pack("<Q", 0)
        with pytest.raises(TensorFormatError, match="zero-sized"):
            tensor_from_bytes(bytes(blob))

    def test_dims_product_beyond_int64_rejected(self):
        # 2**96 elements: a product taken in int64 wraps to 0 and matches an empty payload
        blob = MAGIC_HEADER + struct.pack("<3Q", 2**32, 2**32, 2**32) + struct.pack("<I", 2)
        with pytest.raises(TensorFormatError, match="size mismatch"):
            tensor_from_bytes(blob)

    def test_nonfinite_payload(self):
        blob = bytearray(tensor_bytes(Tensor.from_array(np.ones(1))))
        blob[-8:] = struct.pack("<d", float("nan"))
        with pytest.raises(TensorFormatError, match="non-finite"):
            tensor_from_bytes(bytes(blob))


class TestManifest:
    def test_minimal_valid(self):
        m = manifest_from_dict(minimal_manifest_doc())
        assert len(m.annotations) == 1
        assert m.video.duration_seconds == pytest.approx(10.0)

    def test_roundtrip(self, tmp_path):
        m = manifest_from_dict(minimal_manifest_doc())
        path = tmp_path / "m.json"
        write_manifest(m, path)
        back = read_manifest(path)
        assert manifest_to_dict(back) == manifest_to_dict(m)

    def test_annotation_beyond_duration(self):
        doc = minimal_manifest_doc()
        doc["annotations"][0]["end_sec"] = 99.0
        with pytest.raises(ManifestValidationError, match=r"annotations\[0\]"):
            manifest_from_dict(doc)

    @pytest.mark.parametrize("vid, altsep", [("../escaped", None), ("a\0b", None),
                                             ("..\\escaped", "\\")])
    def test_video_id_that_is_no_file_name(self, monkeypatch, vid, altsep):
        monkeypatch.setattr(os, "altsep", altsep)  # "\\" as on Windows
        doc = minimal_manifest_doc()
        doc["video"]["video_id"] = vid
        with pytest.raises(ManifestValidationError,
                           match=r"^m\.video\.video_id: must hold no path separator or NUL$"):
            manifest_from_dict(doc, name="m")

    def test_feature_file_may_name_a_subdirectory_but_hold_no_nul(self):
        doc = minimal_manifest_doc()
        doc["snippets"][0]["feature_file"] = "v1/0.aent"
        assert manifest_from_dict(doc).snippets[0].feature_file == "v1/0.aent"
        doc["snippets"][0]["feature_file"] = "v1/\0.aent"
        with pytest.raises(ManifestValidationError,
                           match=r"^m\.snippets\[0\]\.feature_file: must hold no NUL$"):
            manifest_from_dict(doc, name="m")

    def test_validation_error_survives_pickling(self):
        # pool workers send it to the parent process this way
        err = pickle.loads(pickle.dumps(ManifestValidationError("video.fps", "must be positive")))
        assert (err.path, err.message, str(err)) == (
            "video.fps", "must be positive", "video.fps: must be positive"
        )

    def test_malformed_box(self):
        doc = minimal_manifest_doc()
        doc["snippets"][0]["agent_boxes"] = [[0.5, 0.5, 0.4, 0.9]]
        with pytest.raises(ManifestValidationError, match=r"agent_boxes\[0\]"):
            manifest_from_dict(doc)

    def test_box_outside_unit_square(self):
        doc = minimal_manifest_doc()
        doc["snippets"][0]["agent_boxes"] = [[0.1, 0.1, 1.2, 0.9]]
        with pytest.raises(ManifestValidationError, match=r"\[0, 1\]"):
            manifest_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = minimal_manifest_doc()
        doc["extra"] = 1
        with pytest.raises(ManifestValidationError, match="unknown field"):
            manifest_from_dict(doc)
        doc = minimal_manifest_doc()
        doc["video"]["typo_field"] = 1
        with pytest.raises(ManifestValidationError, match="typo_field"):
            manifest_from_dict(doc)

    def test_duplicate_snippet_index(self):
        doc = minimal_manifest_doc()
        doc["snippets"].append({"index": 0, "agent_boxes": []})
        with pytest.raises(ManifestValidationError, match="duplicate"):
            manifest_from_dict(doc)

    def test_snippet_index_out_of_range(self):
        doc = minimal_manifest_doc()
        doc["snippets"][0]["index"] = 10  # T = 10, valid range [0, 10)
        with pytest.raises(ManifestValidationError, match="outside"):
            manifest_from_dict(doc)

    def test_invariant_breaking_mutations_all_rejected(self):
        mutations = [
            lambda d: d["video"].pop("fps"),
            lambda d: d["video"].update(fps=-1.0),
            lambda d: d["video"].update(num_frames=0),
            lambda d: d["annotations"].__setitem__(0, {"label": "x", "start_sec": 3.0, "end_sec": 1.0}),
            lambda d: d["annotations"].__setitem__(0, {"label": 5, "start_sec": 0.0, "end_sec": 1.0}),
            lambda d: d["snippets"][0].update(index=-1),
            lambda d: d["snippets"][0].update(agent_boxes=[[0.1, 0.5, 0.4]]),
            lambda d: d["snippets"][0].update(agent_boxes=[[0.1, 0.9, 0.4, 0.2]]),
        ]
        for mutate in mutations:
            doc = minimal_manifest_doc()
            mutate(doc)
            with pytest.raises(ManifestValidationError):
                manifest_from_dict(doc)

    @pytest.mark.parametrize("value", [None, 3, "abc", {"index": 0}])
    def test_snippets_must_be_a_list(self, value):
        doc = minimal_manifest_doc()
        doc["snippets"] = value
        with pytest.raises(ManifestValidationError, match=r"\.snippets: must be a list"):
            manifest_from_dict(doc)

    @pytest.mark.parametrize("path", [
        ("video", "fps"), ("video", "duration_seconds"), ("video", "num_frames"),
        ("annotations", 0, "start_sec"), ("annotations", 0, "end_sec"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_number_rejected_naming_field(self, path, bad):
        doc = minimal_manifest_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ManifestValidationError, match=r"\." + path[-1] + ": expected"):
            manifest_from_dict(doc)

    def test_nan_duration_does_not_disable_end_check(self):
        doc = minimal_manifest_doc()
        doc["video"]["duration_seconds"] = math.nan
        doc["annotations"][0]["end_sec"] = 1e6
        with pytest.raises(ManifestValidationError, match="duration_seconds"):
            manifest_from_dict(doc)

    def test_nan_literal_in_file_rejected(self, tmp_path):
        doc = minimal_manifest_doc()
        doc["video"]["fps"] = math.nan
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))  # writes the literal NaN, which json parses back
        with pytest.raises(ManifestValidationError, match=r"video\.fps"):
            read_manifest(path)

    def test_huge_video_parses_without_allocating_its_grid(self):
        doc = minimal_manifest_doc()
        doc["video"]["num_frames"] = 16 * 10**15
        assert manifest_from_dict(doc).video.num_frames == 16 * 10**15

    def test_manifest_file_caps_snippet_count(self, tmp_path):
        doc = minimal_manifest_doc()
        doc["video"]["num_frames"] = 16 * (_MAX_SNIPPETS + 1)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestValidationError, match="above the cap") as info:
            read_manifest(path)
        assert info.value.path == f"{path}.video.num_frames"
        doc["video"]["num_frames"] = 16 * _MAX_SNIPPETS + 15
        path.write_text(json.dumps(doc))
        assert read_manifest(path).video.num_frames == 16 * _MAX_SNIPPETS + 15

    def test_deep_nesting_reported(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ManifestValidationError, match="invalid JSON"):
            read_manifest(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ManifestValidationError, match="invalid JSON"):
            read_manifest(path)

    def test_non_utf8_reported_with_file_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ManifestValidationError, match="invalid JSON") as info:
            read_manifest(path)
        assert info.value.path == str(path)


def columnar_manifest_doc():
    """Four snippets out of index order: 2, 0 and 1 agent boxes, a JSON
    integer coordinate among them, feature files named and not."""
    doc = minimal_manifest_doc()
    doc["snippets"] = [
        {"index": 3, "feature_file": "a.aent", "agent_boxes": [[0.1, 0.2, 0.5, 0.6], [0, 0.25, 1, 0.75]]},
        {"index": 0},
        {"index": 7, "feature_file": None, "agent_boxes": [[0.3, 0.3, 0.4, 0.9]]},
        {"index": 1, "feature_file": "b.aent", "agent_boxes": []},
    ]
    return doc


class TestSnippets:
    """A parsed manifest's Snippets columns behave as the tuple of SnippetEntry
    that the entry-by-entry reference builds."""

    def parsed(self):
        doc = columnar_manifest_doc()
        got = manifest_from_dict(doc).snippets
        want = reference_manifest_from_dict(doc).snippets
        assert isinstance(got, Snippets) and type(want) is tuple
        return got, want

    def test_columns(self):
        got, _ = self.parsed()
        assert got.indices.tolist() == [3, 0, 7, 1]
        assert got.feature_files == ("a.aent", None, None, "b.aent")
        assert got.box_counts.tolist() == [2, 0, 1, 0]
        assert got.boxes.dtype == np.float64 and got.boxes.shape == (3, 4)

    def test_len_indexing_and_iteration(self):
        got, want = self.parsed()
        assert len(got) == len(want) == 4
        for k in range(-5, 5):
            if -4 <= k < 4:
                assert got[k] == want[k]
            else:
                with pytest.raises(IndexError):
                    got[k]
                with pytest.raises(IndexError):
                    want[k]
        assert list(got) == list(want)
        for entry in got:
            assert type(entry.index) is int
            assert all(type(c) is float for box in entry.agent_boxes for c in box)
        assert got[0].agent_boxes[1] == (0.0, 0.25, 1.0, 0.75)

    def test_equality_hash_and_repr(self):
        got, want = self.parsed()
        assert got == want and want == got
        assert got == list(want) and list(want) == got
        assert not (got != want) and not (want != got)
        other = want[:-1] + (dataclasses.replace(want[-1], index=2),)
        assert got != other and other != got
        assert got != want[:-1] and want[:-1] != got
        assert got != 3 and got != "snippets"
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert Snippets.of(()) == () and repr(Snippets.of(())) == "()"

    def test_of_round_trips(self):
        got, want = self.parsed()
        columns = Snippets.of(want)
        assert Snippets.of(got) is got
        assert tuple(columns) == want and columns == got
        for name in ("indices", "box_counts", "boxes"):
            assert np.array_equal(getattr(columns, name), getattr(got, name))
        assert columns.feature_files == got.feature_files

    def test_manifest_value_does_not_depend_on_the_path(self):
        doc = columnar_manifest_doc()
        m, ref = manifest_from_dict(doc), reference_manifest_from_dict(doc)
        assert m == ref and ref == m
        assert hash(m) == hash(ref)
        assert repr(m) == repr(ref)
        assert m.snippet_map() == ref.snippet_map()

    def test_dataclasses_replace_on_entries_and_manifest(self):
        """As a script rewrites a manifest's feature files: replace on each
        iterated entry, then on the manifest with the tuple of them."""
        m = manifest_from_dict(columnar_manifest_doc())
        renamed = tuple(dataclasses.replace(e, feature_file=f"f{e.index}.aent") for e in m.snippets)
        assert [e.feature_file for e in renamed] == ["f3.aent", "f0.aent", "f7.aent", "f1.aent"]
        assert [e.agent_boxes for e in renamed] == [e.agent_boxes for e in m.snippets]
        m2 = dataclasses.replace(m, snippets=renamed)
        assert m2.snippets == renamed and m2 != m
        assert dataclasses.replace(m, snippets=tuple(m.snippets)) == m

    def test_write_read_write_reproduces_a_synth_manifest(self, tmp_path):
        from tapgen.synth import synth_corpus

        for sv in synth_corpus(3, 3, seed=4, t_min=5, t_max=40):
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            write_manifest(sv.manifest, first)
            back = read_manifest(first)
            assert isinstance(back.snippets, Snippets)
            assert back == sv.manifest
            write_manifest(back, second)
            assert second.read_bytes() == first.read_bytes()



def test_load_proposals_tells_a_missing_file_from_an_empty_one(tmp_path):
    assert load_proposals(str(tmp_path), "v") is None
    (tmp_path / "v.proposals.json").write_text("[]")
    assert load_proposals(str(tmp_path), "v") == []
    (tmp_path / "v.proposals.json").write_text(
        json.dumps([{"t_start_sec": 0.5, "t_end_sec": 2, "score": 1}]))
    [p] = load_proposals(str(tmp_path), "v")
    assert (p.start_sec, p.end_sec, p.score) == (0.5, 2.0, 1.0)


def test_write_proposals_round_trips_through_load_proposals(tmp_path):
    props = [Proposal(0.1, 0.3, 0.7), Proposal(2.0, 5.5, 1.0), Proposal(0.0, 1e-9, 0.0)]
    write_proposals(str(tmp_path), "v", props)
    assert load_proposals(str(tmp_path), "v") == props
    text = (tmp_path / "v.proposals.json").read_text()
    assert json.loads(text)[0] == {"score": 0.7, "t_end_sec": 0.3, "t_start_sec": 0.1}
    assert text.startswith('[\n  {\n    "score": 0.7,') and text.endswith("}\n]\n")
