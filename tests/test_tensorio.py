import copy
import dataclasses
import json
import math
import os
import pickle
import stat
import struct
import sys

import numpy as np
import pytest

from tapgen.errors import InvalidInputError, ManifestValidationError, TensorFormatError
from tapgen.tensorio import (
    _MAX_SNIPPETS,
    _snippets_at_once,
    Manifest,
    SnippetEntry,
    Snippets,
    Tensor,
    atomic_write_bytes,
    load_proposals,
    manifest_from_dict,
    manifest_to_dict,
    read_manifest,
    read_tensor,
    read_tensors,
    write_json,
    write_manifest,
    write_proposals,
    write_tensor,
)
from tapgen.fusion import FusionConfig, load_weights, random_weights, save_weights
from tapgen.inference import Candidates, Proposal
from tapgen.timeline import GroundTruthAction, VideoMeta


MAGIC_HEADER = b"AENT" + struct.pack("<II", 1, 3)


def layout_bytes(dims, dtype, values) -> bytes:
    """The file layout of the module docstring, field by field: a raw
    writer for what write_tensor does not write, f32 and malformed files.
    tapgen writes only f64 but reads f32 files of other producers too."""
    code, np_dtype = {"f32": (1, "<f4"), "f64": (2, "<f8")}[dtype]
    return (b"AENT" + struct.pack("<II", 1, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
            + struct.pack("<I", code) + np.asarray(values, dtype=np_dtype).tobytes())


def read_blob(tmp_path, blob: bytes) -> Tensor:
    """read_tensor of a file holding blob."""
    path = tmp_path / "t.aent"
    path.write_bytes(blob)
    return read_tensor(path)


def whole_file_read_tensor(path) -> Tensor:
    """read_tensor as it was before it read the payload in place: the
    file's bytes parsed whole, the payload copied out with astype."""
    with open(path, "rb") as fh:
        blob = fh.read()
    name = os.fspath(path)
    if len(blob) < 12:
        raise TensorFormatError(f"{name}: truncated header ({len(blob)} bytes)")
    if blob[:4] != b"AENT":
        raise TensorFormatError(f"{name}: bad magic {blob[:4]!r}")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise TensorFormatError(f"{name}: unsupported version {version}")
    if ndim == 0:
        raise TensorFormatError(f"{name}: zero-dimensional tensor")
    off = 12
    if len(blob) < off + 8 * ndim + 4:
        raise TensorFormatError(f"{name}: truncated dims block")
    dims = struct.unpack_from(f"<{ndim}Q", blob, off)
    off += 8 * ndim
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"{name}: zero-sized dimension in {dims}")
    if any(d > 2**32 for d in dims):
        raise TensorFormatError(f"{name}: dimension overflow in {dims}")
    (code,) = struct.unpack_from("<I", blob, off)
    off += 4
    if code not in (1, 2):
        raise TensorFormatError(f"{name}: unknown dtype code {code}")
    np_dtype = np.dtype("<f4" if code == 1 else "<f8")
    count = math.prod(dims)
    expected = off + count * np_dtype.itemsize
    if len(blob) != expected:
        raise TensorFormatError(
            f"{name}: payload size mismatch, expected {expected} bytes, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype=np_dtype, count=count, offset=off).astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise TensorFormatError(f"{name}: non-finite values in payload")
    return Tensor(data.reshape(dims))


def read_outcome(read, path):
    """(dims, float64 values' bytes) of read(path), or its error's type and message."""
    try:
        t = read(path)
    except TensorFormatError as e:
        return type(e), str(e)
    assert t.array.dtype == np.float64
    return t.dims, t.array.tobytes()


# ---------------------------------------------------------------------------
# Reference: manifest_from_dict as it was before boxes were checked as one
# array, kept verbatim (helpers renamed), box by box in document order, with
# one rule added since: a video_id or feature_file must hold no lone surrogate.
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


def _ref_encodes(s: str) -> bool:
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
    if not _ref_encodes(v["video_id"]):
        raise ManifestValidationError(f"{vpath}.video_id", "must hold no lone surrogate")
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
        if feature_file is not None and not _ref_encodes(feature_file):
            raise ManifestValidationError(f"{spath}.feature_file", "must hold no lone surrogate")
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


ONES = layout_bytes((3,), "f64", np.ones(3))  # a valid [3] tensor file


class TestTensorFormat:
    def test_file_layout_size(self, tmp_path):
        # header 4+4+4, dims 2*8, dtype 4, payload 6*8 -> 80 bytes
        t = Tensor.from_array(np.zeros((2, 3)))
        path = tmp_path / "z.aent"
        write_tensor(t, path)
        assert path.stat().st_size == 80

    def test_roundtrip_f32_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.random((7, 5, 3)).astype(np.float32).astype(np.float64)
        t = read_blob(tmp_path, layout_bytes(arr.shape, "f32", arr))
        assert t.dims == (7, 5, 3)
        assert t.array.dtype == np.float64 and t.array.tobytes() == arr.tobytes()

    def test_roundtrip_f64_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = rng.standard_normal((4, 9))
        path = tmp_path / "t.aent"
        write_tensor(Tensor.from_array(arr), path)
        back = read_tensor(path)
        assert back.array.dtype == np.float64
        np.testing.assert_array_equal(back.to_array(), arr)

    def test_randomized_roundtrips(self, tmp_path):
        """An f32 or f64 file read and written again is its values' f64 file."""
        rng = np.random.default_rng(7)
        for i in range(30):
            ndim = int(rng.integers(1, 4))
            dims = tuple(int(d) for d in rng.integers(1, 6, ndim))
            dtype = "f32" if i % 2 else "f64"
            arr = rng.standard_normal(dims)
            if dtype == "f32":
                arr = arr.astype(np.float32).astype(np.float64)
            write_tensor(read_blob(tmp_path, layout_bytes(dims, dtype, arr)), tmp_path / "w.aent")
            assert (tmp_path / "w.aent").read_bytes() == layout_bytes(dims, "f64", arr)

    def test_empty_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            Tensor.from_array(np.array(3.0))

    def test_zero_sized_dims_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^dims must be positive, got \(2, 0\)$"):
            Tensor.from_array(np.zeros((2, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            Tensor.from_array(np.array([1.0, np.inf]))

    def test_tensors_compare_and_hash_by_identity(self):
        a, b = Tensor.from_array(np.ones(3)), Tensor.from_array(np.ones(3))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_bad_magic(self, tmp_path):
        with pytest.raises(TensorFormatError, match="magic"):
            read_blob(tmp_path, b"XXXX" + ONES[4:])

    def test_truncated_payload(self, tmp_path):
        with pytest.raises(TensorFormatError, match="size mismatch"):
            read_blob(tmp_path, ONES[:-4])

    def test_trailing_garbage(self, tmp_path):
        with pytest.raises(TensorFormatError, match="size mismatch"):
            read_blob(tmp_path, ONES + b"\x00")

    def test_bad_version(self, tmp_path):
        blob = bytearray(ONES)
        blob[4:8] = struct.pack("<I", 9)
        with pytest.raises(TensorFormatError, match="version"):
            read_blob(tmp_path, bytes(blob))

    def test_bad_dtype_code(self, tmp_path):
        blob = bytearray(ONES)
        blob[20:24] = struct.pack("<I", 7)  # dtype sits after one u64 dim
        with pytest.raises(TensorFormatError, match="dtype"):
            read_blob(tmp_path, bytes(blob))

    def test_zero_dim(self, tmp_path):
        blob = bytearray(ONES)
        blob[12:20] = struct.pack("<Q", 0)
        with pytest.raises(TensorFormatError, match="zero-sized"):
            read_blob(tmp_path, bytes(blob))

    def test_dims_product_beyond_int64_rejected(self, tmp_path):
        # 2**96 elements: a product taken in int64 wraps to 0 and matches an empty payload
        blob = MAGIC_HEADER + struct.pack("<3Q", 2**32, 2**32, 2**32) + struct.pack("<I", 2)
        with pytest.raises(TensorFormatError, match="size mismatch"):
            read_blob(tmp_path, blob)

    def test_nonfinite_payload(self, tmp_path):
        blob = bytearray(layout_bytes((1,), "f64", np.ones(1)))
        blob[-8:] = struct.pack("<d", float("nan"))
        with pytest.raises(TensorFormatError, match="non-finite"):
            read_blob(tmp_path, bytes(blob))


class TestReadTensorInPlace:
    """read_tensor reads the header, then the payload into its array; it
    returns and raises what parsing the whole file did."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("dims", [(1,), (3, 5), (2, 3, 4)])
    def test_values_equal_the_whole_file_read(self, tmp_path, dtype, dims):
        values = np.random.default_rng(3).standard_normal(dims)
        path = tmp_path / "t.aent"
        path.write_bytes(layout_bytes(dims, dtype, values))
        got = read_outcome(read_tensor, path)
        assert got == read_outcome(whole_file_read_tensor, path)
        widened = values.astype(np.float32 if dtype == "f32" else np.float64).astype(np.float64)
        assert got == (dims, widened.tobytes())

    def test_an_f64_payload_is_the_one_array_held(self, tmp_path):
        path = tmp_path / "t.aent"
        path.write_bytes(layout_bytes((4, 4), "f64", np.ones((4, 4))))
        t = read_tensor(path)
        base = t.array.base  # the reader's one [1, 4, 4] block, or the array itself
        assert base is None or base.nbytes == t.array.nbytes
        assert t.array.flags.writeable and t.array.flags.c_contiguous

    @pytest.mark.parametrize("blob", [
        pytest.param(b"", id="empty"),
        pytest.param(b"AENT\x01\x00\x00", id="short-header"),
        pytest.param(b"AENX" + struct.pack("<II", 1, 1), id="bad-magic"),
        pytest.param(b"AENT" + struct.pack("<II", 2, 1), id="bad-version"),
        pytest.param(b"AENT" + struct.pack("<II", 1, 0), id="zero-dim-tensor"),
        pytest.param(b"AENT" + struct.pack("<II", 1, 2) + struct.pack("<Q", 3), id="short-dims"),
        # a claimed 2**32 - 1 dims in a file of 16 bytes: no read of that size
        pytest.param(b"AENT" + struct.pack("<III", 1, 2**32 - 1, 0), id="huge-ndim"),
        pytest.param(b"AENT" + struct.pack("<IIQI", 1, 1, 0, 2), id="zero-sized"),
        pytest.param(b"AENT" + struct.pack("<IIQI", 1, 1, 2**32 + 1, 2), id="dim-overflow"),
        pytest.param(b"AENT" + struct.pack("<IIQI", 1, 1, 1, 3) + bytes(8), id="bad-dtype"),
        pytest.param(b"AENT" + struct.pack("<II3QI", 1, 3, 2**32, 2**32, 2**32, 2),
                     id="product-beyond-int64"),
    ])
    def test_bad_headers_raise_the_whole_file_errors(self, tmp_path, blob):
        path = tmp_path / "t.aent"
        path.write_bytes(blob)
        got = read_outcome(read_tensor, path)
        assert got[0] is TensorFormatError
        assert got == read_outcome(whole_file_read_tensor, path)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("change", ["truncated", "oversized", "nan", "inf", "-inf"])
    def test_bad_payloads_raise_the_whole_file_errors(self, tmp_path, dtype, change):
        blob = layout_bytes((2, 3), dtype, np.arange(6.0))
        size = 4 if dtype == "f32" else 8
        if change == "truncated":
            blob = blob[:-1]
        elif change == "oversized":
            blob += bytes(size)
        else:
            blob = blob[:-size] + np.array([float(change)], f"<f{size}").tobytes()
        path = tmp_path / "t.aent"
        path.write_bytes(blob)
        got = read_outcome(read_tensor, path)
        assert got[0] is TensorFormatError
        assert got == read_outcome(whole_file_read_tensor, path)


class TestReadTensors:
    """read_tensors reads files of one dims into one [B, *dims] array."""

    def test_f32_and_f64_files_of_one_shape_are_one_array(self, tmp_path):
        values = np.random.default_rng(5).standard_normal((3, 2, 4)) * 1e30
        paths = [tmp_path / f"t{i}.aent" for i in range(3)]
        for path, dtype, v in zip(paths, ["f32", "f64", "f32"], values):
            path.write_bytes(layout_bytes(v.shape, dtype, v))
        block = read_tensors(paths)
        assert block.dtype == np.float64 and block.shape == (3, 2, 4)
        assert block.tobytes() == np.stack([read_tensor(p).array for p in paths]).tobytes()
        assert block[0].tobytes() == values[0].astype(np.float32).astype(np.float64).tobytes()
        assert block[1].tobytes() == values[1].tobytes()

    def test_a_check_that_refuses_a_later_file_waits_for_the_earlier_ones(self, tmp_path):
        """check sees each fully parsed file, and a file it refuses is
        raised only once the files before it are known to be finite."""
        paths = [tmp_path / f"t{i}.aent" for i in range(3)]
        paths[0].write_bytes(layout_bytes((2, 3), "f64", [1.0, 2.0, np.inf, 4.0, 5.0, 6.0]))
        paths[1].write_bytes(layout_bytes((2, 3), "f64", np.arange(6.0)))  # as t0's header
        paths[2].write_bytes(layout_bytes((2, 3), "f32", np.arange(6.0)))
        seen = []

        def check(name, dims, first):
            seen.append((os.path.basename(name), dims, first))
            if name.endswith("t2.aent"):
                raise ValueError("refused")

        with pytest.raises(TensorFormatError) as e:
            read_tensors(paths, check)
        assert str(e.value) == f"{paths[0]}: non-finite values in payload"
        assert seen == [("t0.aent", (2, 3), None), ("t2.aent", (2, 3), (2, 3))]
        paths[0].write_bytes(layout_bytes((2, 3), "f64", np.arange(6.0)))
        with pytest.raises(ValueError, match="^refused$"):
            read_tensors(paths, check)

    def test_a_payload_read_in_short_pieces_is_read_whole(self, tmp_path, monkeypatch):
        """One read may return less than it was asked for (on Linux, one
        read stops short of 2 GiB), so the payload is read until it is full;
        a later file whose one readv came short is read checked."""
        real_readv = os.readv

        def short_readv(fd, buffers):
            return real_readv(fd, [memoryview(buffers[0]).cast("B")[:7]])

        values = np.random.default_rng(6).standard_normal((3, 4, 5))
        paths = [tmp_path / f"t{i}.aent" for i in range(3)]
        for path, v in zip(paths, values):
            path.write_bytes(layout_bytes(v.shape, "f64", v))
        monkeypatch.setattr(os, "readv", short_readv)
        assert read_tensors(paths).tobytes() == values.tobytes()

    def test_a_file_that_shrank_after_fstat_is_a_size_mismatch(self, tmp_path, monkeypatch):
        """A payload read that ends early, as in a file truncated after its
        size was checked, is refused rather than left part unread."""
        real_readv = os.readv
        path = tmp_path / "t.aent"
        path.write_bytes(ONES)
        monkeypatch.setattr(os, "readv", lambda fd, buffers: 0 if len(buffers) == 1
                            else real_readv(fd, buffers))
        with pytest.raises(TensorFormatError, match=rf"^{path}: payload size mismatch, "
                                                    r"expected 48 bytes, got 24$"):
            read_tensors([path])


class TestTensorWrites:
    """write_tensor writes a header and then the array's own buffer."""

    def test_write_tensor_bytes_of_a_2x3_array(self, tmp_path):
        path = tmp_path / "t.aent"
        write_tensor(Tensor.from_array(np.arange(6.0).reshape(2, 3)), path)
        assert path.read_bytes() == bytes.fromhex(
            "41454e54" "01000000" "02000000"  # magic, version 1, ndim 2
            "0200000000000000" "0300000000000000" "02000000"  # dims 2, 3; dtype code 2 (f64)
            "0000000000000000" "000000000000f03f" "0000000000000040"  # 0.0, 1.0, 2.0
            "0000000000000840" "0000000000001040" "0000000000001440"  # 3.0, 4.0, 5.0
        )

    def test_from_array_holds_a_c_contiguous_f64_array_uncopied(self):
        arr = np.arange(6.0).reshape(2, 3)
        t = Tensor.from_array(arr)
        assert np.shares_memory(t.array, arr) and t.dims == (2, 3)

    @pytest.mark.parametrize("source", ["transposed", "strided"])
    def test_a_view_is_written_as_its_contiguous_copy(self, tmp_path, source):
        arr = np.random.default_rng(11).standard_normal((4, 6))
        view = arr.T if source == "transposed" else np.repeat(arr, 2, axis=1)[:, ::2]
        assert not view.flags.c_contiguous
        write_tensor(Tensor.from_array(view), tmp_path / "view.aent")
        write_tensor(Tensor.from_array(np.ascontiguousarray(view)), tmp_path / "copy.aent")
        got = (tmp_path / "view.aent").read_bytes()
        assert got == (tmp_path / "copy.aent").read_bytes() == layout_bytes(view.shape, "f64", view)
        np.testing.assert_array_equal(read_tensor(tmp_path / "view.aent").array, view)

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_chunk_that_fails_leaves_no_file(self, tmp_path, existing):
        path = tmp_path / "t.aent"
        if existing:
            path.write_bytes(b"earlier")
        with pytest.raises(ValueError, match="not C-contiguous"):
            atomic_write_bytes(path, b"AENT", np.arange(6.0)[::2], b"never written")
        assert sorted(os.listdir(tmp_path)) == (["t.aent"] if existing else [])
        if existing:
            assert path.read_bytes() == b"earlier"

    def test_atomic_write_bytes_joins_its_chunks_in_order(self, tmp_path):
        path = tmp_path / "j.bin"
        atomic_write_bytes(path, b"ab", np.array([1.5]), b"", memoryview(b"cd"))
        assert path.read_bytes() == b"ab" + struct.pack("<d", 1.5) + b"cd"

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_written_files_get_the_mode_open_gives(self, tmp_path, monkeypatch, umask):
        """Each write leaves one file, of open's mode under the umask, a
        replaced file and one named relative to the working directory too."""
        (tmp_path / "old.json").write_bytes(b"[]\n")
        os.chmod(tmp_path / "old.json", 0o600)
        monkeypatch.chdir(tmp_path)
        old = os.umask(umask)
        try:
            write_tensor(Tensor.from_array(np.ones(3)), tmp_path / "t.aent")
            write_json(tmp_path / "old.json", {"a": 1})
            write_json("cwd.json", [])
            (tmp_path / "plain").write_bytes(b"")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["t.aent", "old.json", "cwd.json", "plain"], 0o666 & ~umask)


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

    @pytest.mark.parametrize("field, path", [("video_id", "video.video_id"),
                                             ("feature_file", "snippets[0].feature_file")])
    def test_name_with_a_lone_surrogate_is_refused(self, tmp_path, field, path):
        """JSON's "\\ud800" reads as a str that UTF-8 cannot encode, so it
        can name no file; a surrogate pair reads as one character and can."""
        doc = minimal_manifest_doc()
        where = doc["video"] if field == "video_id" else doc["snippets"][0]
        where[field] = "\ud800x"
        file = tmp_path / "m.json"
        file.write_text(json.dumps(doc))
        assert '"\\ud800x"' in file.read_text()
        with pytest.raises(ManifestValidationError) as info:
            read_manifest(file)
        assert str(info.value) == f"{file}.{path}: must hold no lone surrogate"
        where[field] = "\ud83d\ude00"  # escaped apart, as a pair
        file.write_text(json.dumps(doc))
        m = read_manifest(file)
        got = m.video.video_id if field == "video_id" else m.snippets[0].feature_file
        assert got == "\U0001f600"

    def test_first_failure_at_the_snippet_cap(self):
        """Of two faulty boxes in the last of _MAX_SNIPPETS entries, the
        earlier is named, as the reference names it, though the whole-list
        coordinate check meets the later one's string first."""
        doc = minimal_manifest_doc()
        doc["video"]["num_frames"] = 16 * _MAX_SNIPPETS
        box = [0.1, 0.2, 0.5, 0.6]
        doc["snippets"] = [{"index": i, "agent_boxes": [box]} for i in range(_MAX_SNIPPETS)]
        doc["snippets"][-1]["agent_boxes"] = [box, [0.5, 0.2, 0.5, 0.6], box, [0.1, "0.2", 0.5, 0.6]]
        want = (f"m.snippets[{_MAX_SNIPPETS - 1}].agent_boxes[1]: "
                "x1 >= x2 in [0.5, 0.2, 0.5, 0.6]")
        for parse in (manifest_from_dict, reference_manifest_from_dict):
            with pytest.raises(ManifestValidationError) as info:
                parse(copy.deepcopy(doc), name="m")
            assert str(info.value) == want
        with pytest.raises(ManifestValidationError) as info:
            _snippets_at_once(doc["snippets"], _MAX_SNIPPETS, "m")
        assert str(info.value) == (f"m.snippets[{_MAX_SNIPPETS - 1}].agent_boxes[3][1]: "
                                   "expected a number, got str")

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

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda d: d.update(video=[]), ".video: must be an object", id="video"),
        pytest.param(lambda d: d.update(annotations={}), ".annotations: must be a list",
                     id="annotations"),
        pytest.param(lambda d: d["annotations"].__setitem__(0, "jump"),
                     ".annotations[0]: must be an object", id="annotation"),
        pytest.param(lambda d: d["video"].update(snippet_len=0),
                     ".video: snippet_len must be positive, got 0", id="snippet_len"),
    ])
    def test_manifest_file_refusals_name_the_file_and_field(self, tmp_path, mutate, message):
        doc = minimal_manifest_doc()
        mutate(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestValidationError) as e:
            read_manifest(path)
        assert str(e.value) == f"{path}{message}"

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

    @pytest.mark.parametrize("video, snippets", [
        ({"num_frames": 16 * 10**15}, [{"index": 0}]),  # rejected before any grid is allocated
        # an index beyond intp, in range of a T beyond the cap: no snippet path sees it
        ({"num_frames": 2**70, "snippet_len": 1}, [{"index": 2**64}]),
    ], ids=["huge-video", "index-beyond-intp"])
    def test_snippet_cap_is_checked_before_the_snippets(self, video, snippets):
        doc = minimal_manifest_doc()
        doc["video"].update(video)
        doc["snippets"] = snippets
        with pytest.raises(ManifestValidationError, match="above the cap") as info:
            manifest_from_dict(doc, name="m")
        assert info.value.path == "m.video.num_frames"

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
        with pytest.raises(InvalidInputError, match="not valid JSON") as info:
            read_manifest(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError, match="not valid JSON") as info:
            read_manifest(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_non_utf8_reported_with_file_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InvalidInputError, match="not valid JSON") as info:
            read_manifest(path)
        assert str(info.value).startswith(f"{path}: ")


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


# The rows of columnar_manifest_doc's snippets, written out by hand.
COLUMNAR_ENTRIES = (
    SnippetEntry(3, "a.aent", ((0.1, 0.2, 0.5, 0.6), (0.0, 0.25, 1.0, 0.75))),
    SnippetEntry(0, None),
    SnippetEntry(7, None, ((0.3, 0.3, 0.4, 0.9),)),
    SnippetEntry(1, "b.aent"),
)


class TestSnippets:
    """A parsed manifest's Snippets columns hold the rows of the document,
    and index and iterate as those SnippetEntry values."""

    def parsed(self):
        doc = columnar_manifest_doc()
        m = manifest_from_dict(doc)
        assert isinstance(m.snippets, Snippets) and m == reference_manifest_from_dict(doc)
        return m.snippets, COLUMNAR_ENTRIES

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

    def test_equality(self):
        got, want = self.parsed()
        assert got == Snippets.of(want) and Snippets.of(want) == got
        assert not (got != Snippets.of(want))
        first = want[0]
        for other in (
            want[:-1] + (dataclasses.replace(want[-1], index=2),),
            want[:-1] + (dataclasses.replace(want[-1], feature_file="c.aent"),),
            (dataclasses.replace(first, agent_boxes=((0.1, 0.2, 0.5, 0.6),
                                                     (0.0, 0.25, 1.0, 0.7500000000000001))),
             *want[1:]),
            # the same boxes in the same order, one moved to the next entry
            (dataclasses.replace(first, agent_boxes=first.agent_boxes[:1]),
             dataclasses.replace(want[1], agent_boxes=first.agent_boxes[1:]), *want[2:]),
            want[:-1],
        ):
            assert got != Snippets.of(other) and Snippets.of(other) != got
        for other in (want, list(want), 3, "snippets"):  # columns equal no sequence
            assert got != other and other != got
        assert Snippets.of(()) == Snippets.of([]) != ()

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
        assert list(m.snippets) == list(ref.snippets)

    def test_dataclasses_replace_on_entries_and_manifest(self):
        """As a script rewrites a manifest's feature files: replace on each
        iterated entry, then on the manifest with the tuple of them."""
        m = manifest_from_dict(columnar_manifest_doc())
        renamed = tuple(dataclasses.replace(e, feature_file=f"f{e.index}.aent") for e in m.snippets)
        assert [e.feature_file for e in renamed] == ["f3.aent", "f0.aent", "f7.aent", "f1.aent"]
        assert [e.agent_boxes for e in renamed] == [e.agent_boxes for e in m.snippets]
        m2 = dataclasses.replace(m, snippets=renamed)
        assert isinstance(m2.snippets, Snippets) and tuple(m2.snippets) == renamed
        assert m2.snippets == Snippets.of(renamed) and m2 != m
        assert dataclasses.replace(m, snippets=tuple(m.snippets)) == m

    def test_every_manifest_holds_columns(self, tmp_path):
        """Read, synth, tuple-built and replaced manifests alike, and one
        built from an iterator of entries, which is read once."""
        from tapgen.synth import synth_manifest

        built = Manifest(VideoMeta("v", 160, 16.0, 16), (), COLUMNAR_ENTRIES)
        write_manifest(built, tmp_path / "m.json")
        for m in (built, read_manifest(tmp_path / "m.json"), synth_manifest(0, 0, 2, 5, 20),
                  dataclasses.replace(built, snippets=list(COLUMNAR_ENTRIES)),
                  Manifest(built.video, ())):
            assert isinstance(m.snippets, Snippets)
        assert built.snippets == Snippets.of(COLUMNAR_ENTRIES)
        assert Manifest(built.video, (), iter(COLUMNAR_ENTRIES)) == built
        assert len(Manifest(built.video, ()).snippets) == 0

    def test_writer_builds_no_entry_and_writes_coordinates_as_floats(self, monkeypatch):
        """manifest_to_dict writes from the columns. A tuple-built manifest's
        integer coordinates come out as floats, as a read manifest's do."""
        import tapgen.tensorio as tensorio

        m = Manifest(VideoMeta("v", 160, 16.0, 16), (),
                     (SnippetEntry(2, "a.aent", ((0, 0.25, 1, 0.75),)), SnippetEntry(0, None)))
        monkeypatch.setattr(tensorio, "SnippetEntry", None)  # building a row now fails
        snippets = manifest_to_dict(m)["snippets"]
        assert snippets == [
            {"index": 2, "feature_file": "a.aent", "agent_boxes": [[0.0, 0.25, 1.0, 0.75]]},
            {"index": 0, "feature_file": None, "agent_boxes": []},
        ]
        assert all(type(c) is float for c in snippets[0]["agent_boxes"][0])
        assert type(snippets[0]["index"]) is int

    def test_write_read_write_reproduces_a_synth_manifest(self, tmp_path):
        from tapgen.synth import synth_corpus

        for sv in synth_corpus(3, 3, seed=4, t_min=5, t_max=40):
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            write_manifest(sv.manifest, first)
            back = read_manifest(first)
            assert all(isinstance(m.snippets, Snippets) for m in (back, sv.manifest))
            assert back == sv.manifest
            write_manifest(back, second)
            assert second.read_bytes() == first.read_bytes()



def test_load_proposals_tells_a_missing_file_from_an_empty_one(tmp_path):
    assert load_proposals(str(tmp_path), "v") is None
    (tmp_path / "v.proposals.json").write_text("[]")
    empty = load_proposals(str(tmp_path), "v")
    assert isinstance(empty, Candidates) and list(empty) == []
    (tmp_path / "v.proposals.json").write_text(
        json.dumps([{"t_start_sec": 0.5, "t_end_sec": 2, "score": 1}]))
    [p] = load_proposals(str(tmp_path), "v")
    assert (p.start_sec, p.end_sec, p.score) == (0.5, 2.0, 1.0)


def test_write_proposals_round_trips_through_load_proposals(tmp_path):
    props = [Proposal(0.1, 0.3, 0.7), Proposal(2.0, 5.5, 1.0), Proposal(0.0, 1e-9, 0.0)]
    write_proposals(str(tmp_path), "v", props)
    loaded = load_proposals(str(tmp_path), "v")
    assert isinstance(loaded, Candidates) and list(loaded) == props
    text = (tmp_path / "v.proposals.json").read_text()
    assert text == ('[{"score": 0.7, "t_end_sec": 0.3, "t_start_sec": 0.1}, '
                    '{"score": 1.0, "t_end_sec": 5.5, "t_start_sec": 2.0}, '
                    '{"score": 0.0, "t_end_sec": 1e-09, "t_start_sec": 0.0}]\n')


def test_files_in_the_earlier_indented_layout_read_as_their_one_line_rewrites(tmp_path):
    """A manifest, a proposal file and a bundle index.json are written on one
    line; indented as earlier versions wrote them, they read the same."""
    write_manifest(manifest_from_dict(columnar_manifest_doc()), tmp_path / "m.json")
    write_proposals(str(tmp_path), "v", [Proposal(0.1, 0.3, 0.7), Proposal(0.0, 1e-9, 0.0)])
    cfg = FusionConfig(channels=3, d_model=8, num_heads=2, num_layers=1, ff_dim=4)
    save_weights(random_weights(cfg, seed=3), tmp_path / "w")

    def read_all():
        return (read_manifest(tmp_path / "m.json"), load_proposals(str(tmp_path), "v"),
                load_weights(tmp_path / "w"))

    manifest, proposals, weights = read_all()
    for path in (tmp_path / "m.json", tmp_path / "v.proposals.json", tmp_path / "w/index.json"):
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        path.write_text(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n")
    got_manifest, got_proposals, got_weights = read_all()
    assert got_manifest == manifest
    assert all(np.array_equal(getattr(got_proposals, k), getattr(proposals, k))
               for k in ("starts", "ends", "scores"))
    assert got_weights.config == weights.config
    assert got_weights.params.keys() == weights.params.keys()
    assert all(np.array_equal(got_weights.params[k], v) for k, v in weights.params.items())


@pytest.mark.parametrize("rows", [
    [],
    [(0.1, 0.1 + 0.2, 1 / 3), (16 / 30, 7 * 16 / 30, 5e-324), (0.0, 1e-300, 1.0), (2.0, 2.5, 0.0)],
])
def test_write_proposals_writes_the_same_bytes_from_columns_as_from_their_rows(tmp_path, rows):
    cols = Candidates(*(np.array([r[k] for r in rows], dtype=np.float64) for k in range(3)))
    assert list(cols) == [Proposal(*r) for r in rows]
    written = []
    for name, proposals in (("columns", cols), ("rows", list(cols))):
        (tmp_path / name).mkdir()
        write_proposals(str(tmp_path / name), "v", proposals)
        written.append((tmp_path / name / "v.proposals.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0]) == [
        {"t_start_sec": a, "t_end_sec": b, "score": c} for a, b, c in rows
    ]
