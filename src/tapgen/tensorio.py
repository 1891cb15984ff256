"""Bit-exact tensor serialization; tapgen's JSON files, written and parsed.

Tensor file layout (little-endian throughout):

    bytes 0..3    magic "AENT"
    u32           version (1)
    u32           ndim
    u64 * ndim    dims
    u32           dtype code (1 = f32, 2 = f64)
    payload       raw row-major values

Manifests are strict JSON: unknown keys are rejected and every invariant is
checked at load, with errors naming the offending field path. Snippet
entries are checked as whole lists: entry types and keys, indices (type,
range, duplicates), feature file and box list types, then all agent boxes
as one array. Only when one of these checks fails are the entries checked
again one by one, to name the first failure. A manifest file may
describe at most _MAX_SNIPPETS snippets.

A parsed manifest keeps its snippets as Snippets columns, with no object
per entry: indices, feature file names, box counts, and the [N, 4]
float64 agent boxes of all entries in entry order, which the box checks
built. Indexing or iterating them builds SnippetEntry values, and they
equal, hash and print as the tuple of those entries, so a Manifest built
from a tuple of SnippetEntry (Snippets.of turns one into columns) is the
same value.

Every JSON file tapgen writes (manifests, proposal files, eval.json, run
summaries, a weight bundle's index.json) goes through write_json: indent
2, sorted keys, a final newline, written atomically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from tapgen.errors import InvalidInputError, ManifestValidationError, TensorFormatError
from tapgen.inference import Proposal
from tapgen.timeline import GroundTruthAction, VideoMeta

MAGIC = b"AENT"
VERSION = 1
_DTYPE_CODES = {"f32": 1, "f64": 2}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_MAX_DIM = 2**32  # sanity cap per axis; desk-scale files are far smaller
# Cap on the snippet count T of a manifest file. Stages allocate [D, T]
# grids with D up to T, so without it a huge num_frames fails as an
# allocation deep in a stage. At the cap a [T, T] float64 grid is 2 GiB; a
# two-hour video at 30 fps in 16-frame snippets has 13,500 snippets.
_MAX_SNIPPETS = 2**14

__all__ = [
    "Tensor",
    "SnippetEntry",
    "Snippets",
    "Manifest",
    "write_tensor",
    "read_tensor",
    "read_manifest",
    "write_manifest",
    "write_json",
    "write_proposals",
    "load_proposals",
    "atomic_write_bytes",
]


@dataclass(frozen=True)
class Tensor:
    """Dense finite real tensor with an explicit storage dtype."""

    dims: tuple[int, ...]
    dtype: str  # "f32" | "f64"
    data: np.ndarray  # flat, row-major, float64 in memory

    @staticmethod
    def from_array(arr: np.ndarray, dtype: str = "f64") -> "Tensor":
        if dtype not in _DTYPE_CODES:
            raise InvalidInputError(f"unknown dtype {dtype!r}")
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise InvalidInputError("tensor must have at least one dimension")
        if any(d < 1 for d in arr.shape):
            raise InvalidInputError(f"dims must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("tensor values must be finite")
        return Tensor(dims=tuple(arr.shape), dtype=dtype, data=arr.ravel().copy())

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.dims)


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Write to a temp file in the destination directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tensor_bytes(t: Tensor) -> bytes:
    """Serialize a tensor to its binary representation."""
    np_dtype = _CODE_DTYPES[_DTYPE_CODES[t.dtype]]
    payload = np.ascontiguousarray(t.data, dtype=np_dtype).tobytes()
    header = MAGIC + struct.pack("<II", VERSION, len(t.dims))
    header += struct.pack(f"<{len(t.dims)}Q", *t.dims)
    header += struct.pack("<I", _DTYPE_CODES[t.dtype])
    return header + payload


def write_tensor(t: Tensor, destination: str | os.PathLike) -> None:
    atomic_write_bytes(destination, tensor_bytes(t))


def read_tensor(source: str | os.PathLike) -> Tensor:
    with open(source, "rb") as fh:
        blob = fh.read()
    return tensor_from_bytes(blob, name=os.fspath(source))


def tensor_from_bytes(blob: bytes, name: str = "<bytes>") -> Tensor:
    if len(blob) < 12:
        raise TensorFormatError(f"{name}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise TensorFormatError(f"{name}: bad magic {blob[:4]!r}")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
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
    if any(d > _MAX_DIM for d in dims):
        raise TensorFormatError(f"{name}: dimension overflow in {dims}")
    (code,) = struct.unpack_from("<I", blob, off)
    off += 4
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"{name}: unknown dtype code {code}")
    np_dtype = _CODE_DTYPES[code]
    count = math.prod(dims)  # exact; an int64 product of large dims wraps around
    expected = off + count * np_dtype.itemsize
    if len(blob) != expected:
        raise TensorFormatError(
            f"{name}: payload size mismatch, expected {expected} bytes, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype=np_dtype, count=count, offset=off).astype(np.float64)
    if not np.all(np.isfinite(data)):
        raise TensorFormatError(f"{name}: non-finite values in payload")
    dtype = "f32" if code == 1 else "f64"
    return Tensor(dims=tuple(int(d) for d in dims), dtype=dtype, data=data)


def tensor_block_from_bytes(blobs: Sequence[bytes]) -> np.ndarray | None:
    """Tensors of one layout as one [B, *dims] float64 array; None when
    tensor_from_bytes would reject any of them or their layouts differ.

    blobs[0] is parsed in full. Every other blob must have its length and
    header bytes, so every header and size check holds for it as well;
    one finiteness check then covers all payloads. Values are the bits
    tensor_from_bytes gives, f32 widened the same way.
    """
    try:
        first = tensor_from_bytes(blobs[0])
    except TensorFormatError:
        return None
    np_dtype = _CODE_DTYPES[_DTYPE_CODES[first.dtype]]
    size = len(blobs[0])
    head = size - first.data.size * np_dtype.itemsize
    header = blobs[0][:head]
    if not all(len(b) == size and b.startswith(header) for b in blobs):
        return None
    block = np.empty((len(blobs), *first.dims))
    for row, blob in zip(block.reshape(len(blobs), -1), blobs):
        row[...] = np.frombuffer(blob, dtype=np_dtype, offset=head)
    return block if np.isfinite(block).all() else None


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnippetEntry:
    """Per-snippet detector output: optional feature file and agent boxes."""

    index: int
    feature_file: str | None
    agent_boxes: tuple[tuple[float, float, float, float], ...] = ()


@dataclass(frozen=True, eq=False, repr=False)
class Snippets(Sequence):
    """Snippet entries as columns, one row per entry in entry order.

    indices and box_counts are intp arrays, feature_files holds str or
    None, and boxes stacks every entry's agent boxes in order, [N, 4]
    float64. Rows are not checked here: _snippets_at_once builds them
    from checked entries, Snippets.of from SnippetEntry values.
    """

    indices: np.ndarray
    feature_files: tuple[str | None, ...]
    box_counts: np.ndarray
    boxes: np.ndarray

    @classmethod
    def of(cls, entries: Sequence[SnippetEntry]) -> Snippets:
        """The columns of a sequence of SnippetEntry, in its order."""
        if isinstance(entries, Snippets):
            return entries
        return cls(
            np.array([s.index for s in entries], dtype=np.intp),
            tuple(s.feature_file for s in entries),
            np.array([len(s.agent_boxes) for s in entries], dtype=np.intp),
            np.array([b for s in entries for b in s.agent_boxes], dtype=np.float64).reshape(-1, 4),
        )

    def __len__(self) -> int:
        return len(self.feature_files)

    def __getitem__(self, k: int) -> SnippetEntry:
        k = range(len(self))[k]  # a negative or out-of-range k as a tuple takes it
        return next(itertools.islice(self, k, None))

    def __iter__(self):
        rows = map(tuple, self.boxes.tolist())  # plain floats, as the JSON held them
        return (SnippetEntry(i, f, tuple(itertools.islice(rows, n))) for i, f, n in
                zip(self.indices.tolist(), self.feature_files, self.box_counts.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Manifest:
    """One video's metadata, annotations, and per-snippet agent boxes.

    snippets is a tuple of SnippetEntry or, as read_manifest gives it,
    their Snippets columns; either is the same value.
    """

    video: VideoMeta
    annotations: tuple[GroundTruthAction, ...]
    snippets: Sequence[SnippetEntry] = ()

    def snippet_map(self) -> dict[int, SnippetEntry]:
        return {s.index: s for s in self.snippets}


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for k in obj:
        if k not in allowed:
            raise ManifestValidationError(f"{path}.{k}", "unknown field")
    for k in required:
        if k not in obj:
            raise ManifestValidationError(f"{path}.{k}", "missing required field")


def _check_number(v, path: str, *, integer: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ManifestValidationError(path, f"expected a number, got {type(v).__name__}")
    if integer and not isinstance(v, int):
        raise ManifestValidationError(path, f"expected an integer, got {v!r}")
    if not -sys.float_info.max <= v <= sys.float_info.max:  # NaN, inf, or an int beyond float
        raise ManifestValidationError(path, "expected a finite number")
    return v


def manifest_from_dict(doc: dict, name: str = "manifest") -> Manifest:
    """Validate a parsed manifest document and build the Manifest."""
    if not isinstance(doc, dict):
        raise ManifestValidationError(name, "document must be a JSON object")
    _require_keys(doc, {"video", "annotations", "snippets"}, {"video", "annotations"}, name)

    v = doc["video"]
    vpath = f"{name}.video"
    if not isinstance(v, dict):
        raise ManifestValidationError(vpath, "must be an object")
    _require_keys(
        v,
        {"video_id", "num_frames", "fps", "snippet_len", "duration_seconds"},
        {"video_id", "num_frames", "fps", "snippet_len"},
        vpath,
    )
    if not isinstance(v["video_id"], str) or not v["video_id"]:
        raise ManifestValidationError(f"{vpath}.video_id", "must be a non-empty string")
    if any(c and c in v["video_id"] for c in (os.sep, os.altsep, "\0")):  # it names output files
        raise ManifestValidationError(f"{vpath}.video_id", "must hold no path separator or NUL")
    try:
        video = VideoMeta(
            video_id=v["video_id"],
            num_frames=int(_check_number(v["num_frames"], f"{vpath}.num_frames", integer=True)),
            fps=float(_check_number(v["fps"], f"{vpath}.fps")),
            snippet_len=int(_check_number(v["snippet_len"], f"{vpath}.snippet_len", integer=True)),
            duration_seconds=(
                float(_check_number(v["duration_seconds"], f"{vpath}.duration_seconds"))
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
        _require_keys(a, {"label", "start_sec", "end_sec"}, {"label", "start_sec", "end_sec"}, apath)
        if not isinstance(a["label"], str):
            raise ManifestValidationError(f"{apath}.label", "must be a string")
        start = float(_check_number(a["start_sec"], f"{apath}.start_sec"))
        end = float(_check_number(a["end_sec"], f"{apath}.end_sec"))
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
    snippets = _snippets_at_once(raw_snippets, T, name)
    if snippets is None:  # a check failed: repeat them in order, to raise the first
        snippets = _snippets_one_by_one(raw_snippets, T, name)
    return Manifest(video=video, annotations=tuple(annotations), snippets=snippets)


_SNIPPET_KEYS = frozenset({"index", "feature_file", "agent_boxes"})


def _snippets_at_once(raw_snippets: list, T: int, name: str) -> Snippets | None:
    """The snippets as columns, each check made once over the whole list;
    None if any fails.

    Only exact dicts, ints, strs and lists pass the type checks (bool
    indices do not), only plain int and float coordinates pass the box
    check, and an int beyond float range fails its range check or its
    conversion, so what this accepts _snippets_one_by_one accepts too,
    with equal values.
    """
    if not all(type(s) is dict and s.keys() <= _SNIPPET_KEYS and "index" in s
               for s in raw_snippets):
        return None
    indices = [s["index"] for s in raw_snippets]
    if not all(type(i) is int for i in indices):
        return None
    if indices and not (min(indices) >= 0 and max(indices) < T
                        and len(set(indices)) == len(indices)):
        return None
    files = [s.get("feature_file") for s in raw_snippets]
    box_lists = [s.get("agent_boxes", []) for s in raw_snippets]
    if not (all(f is None or (type(f) is str and "\0" not in f) for f in files)
            and all(type(b) is list for b in box_lists)):
        return None
    raw = [b for boxes in box_lists for b in boxes]
    if not all(type(b) is list and len(b) == 4 for b in raw):
        return None
    if not set(map(type, itertools.chain.from_iterable(raw))) <= {float, int}:
        return None
    try:
        a = np.array(raw, dtype=np.float64).reshape(-1, 4)
        columns = Snippets(np.array(indices, dtype=np.intp), tuple(files),
                           np.array([len(b) for b in box_lists], dtype=np.intp), a)
    except OverflowError:  # a coordinate beyond float, or an index below a huge T
        return None
    if not (((a >= 0.0) & (a <= 1.0)).all()  # NaN fails too
            and (a[:, 0] < a[:, 2]).all() and (a[:, 1] < a[:, 3]).all()):
        return None
    return columns


def _snippets_one_by_one(raw_snippets: list, T: int, name: str) -> tuple[SnippetEntry, ...]:
    """The snippets, checked entry by entry and box by box: the first
    failure raises, naming its field down to snippets[i].agent_boxes[j][k]."""
    snippets = []
    seen: set[int] = set()
    for i, s in enumerate(raw_snippets):
        spath = f"{name}.snippets[{i}]"
        if not isinstance(s, dict):
            raise ManifestValidationError(spath, "must be an object")
        _require_keys(s, _SNIPPET_KEYS, {"index"}, spath)
        idx = int(_check_number(s["index"], f"{spath}.index", integer=True))
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
        raw_boxes = s.get("agent_boxes", [])
        if not isinstance(raw_boxes, list):
            raise ManifestValidationError(f"{spath}.agent_boxes", "must be a list")
        boxes = []
        for j, b in enumerate(raw_boxes):
            bpath = f"{spath}.agent_boxes[{j}]"
            if not isinstance(b, list) or len(b) != 4:
                raise ManifestValidationError(bpath, "box must be [x1, y1, x2, y2]")
            x1, y1, x2, y2 = (float(_check_number(c, f"{bpath}[{k}]")) for k, c in enumerate(b))
            if not all(0.0 <= c <= 1.0 for c in (x1, y1, x2, y2)):
                raise ManifestValidationError(bpath, f"coordinates outside [0, 1]: {b}")
            if not x1 < x2:
                raise ManifestValidationError(bpath, f"x1 >= x2 in {b}")
            if not y1 < y2:
                raise ManifestValidationError(bpath, f"y1 >= y2 in {b}")
            boxes.append((x1, y1, x2, y2))
        snippets.append(SnippetEntry(index=idx, feature_file=feature_file, agent_boxes=tuple(boxes)))
    return tuple(snippets)


def read_manifest(source: str | os.PathLike) -> Manifest:
    name = os.fspath(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
        raise ManifestValidationError(name, f"invalid JSON: {e}") from e
    m = manifest_from_dict(doc, name=name)
    T = m.video.num_frames // m.video.snippet_len
    if T > _MAX_SNIPPETS:
        raise ManifestValidationError(
            f"{name}.video.num_frames", f"{T} snippets, above the cap of {_MAX_SNIPPETS}"
        )
    return m


def manifest_to_dict(m: Manifest) -> dict:
    return {
        "video": {
            "video_id": m.video.video_id,
            "num_frames": m.video.num_frames,
            "fps": m.video.fps,
            "snippet_len": m.video.snippet_len,
            "duration_seconds": m.video.duration_seconds,
        },
        "annotations": [
            {"label": a.label, "start_sec": a.start_sec, "end_sec": a.end_sec}
            for a in m.annotations
        ],
        "snippets": [
            {
                "index": s.index,
                "feature_file": s.feature_file,
                "agent_boxes": [list(b) for b in s.agent_boxes],
            }
            for s in m.snippets
        ],
    }


def write_json(destination: str | os.PathLike, doc) -> None:
    """Write doc as every tapgen JSON file is written (module docstring)."""
    payload = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    atomic_write_bytes(destination, payload + b"\n")


def write_manifest(m: Manifest, destination: str | os.PathLike) -> None:
    write_json(destination, manifest_to_dict(m))


PROPOSAL_FIELDS = ("t_start_sec", "t_end_sec", "score")


def _proposal_path(proposal_dir: str, vid: str) -> str:
    return os.path.join(proposal_dir, f"{vid}.proposals.json")


def write_proposals(proposal_dir: str, vid: str, proposals: Sequence[Proposal]) -> None:
    """Write one video's proposal file, in the order given."""
    write_json(_proposal_path(proposal_dir, vid),
               [dict(zip(PROPOSAL_FIELDS, (p.start_sec, p.end_sec, p.score))) for p in proposals])


def load_proposals(proposal_dir: str, vid: str) -> list[Proposal] | None:
    """Read and validate one video's proposal file; None if it is missing."""
    path = _proposal_path(proposal_dir, vid)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # integers as floats: an overlong integer becomes inf and fails below
            doc = json.load(fh, parse_int=float)
        except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
            raise InvalidInputError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, list):
        raise InvalidInputError(f"{path}: top level must be a list of proposals")
    out = []
    for k, entry in enumerate(doc):
        where = f"{path}: entry {k}"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{where}: must be an object")
        for name in PROPOSAL_FIELDS:
            if name not in entry:
                raise InvalidInputError(f"{where}: missing field {name!r}")
            v = entry[name]
            if not isinstance(v, float) or not math.isfinite(v):
                raise InvalidInputError(
                    f"{where}: field {name!r} must be a finite number, got {v!r}"
                )
        start, end, score = (entry[name] for name in PROPOSAL_FIELDS)
        if not start < end:
            raise InvalidInputError(
                f"{where}: field 't_end_sec' ({end}) must exceed t_start_sec ({start})"
            )
        if not 0.0 <= score <= 1.0:
            raise InvalidInputError(f"{where}: field 'score' ({score}) outside [0, 1]")
        out.append(Proposal(start_sec=start, end_sec=end, score=score))
    return out
