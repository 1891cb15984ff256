"""Bit-exact tensor serialization; tapgen's JSON files, written and parsed.

A Tensor in memory is one float64 array. Its file layout (little-endian
throughout) is written as the header and then the array's own buffer,
copied only when it is not C-contiguous, always as f64, through
atomic_write_bytes, which gives every file tapgen writes open's mode.
read_tensors reads every tensor file, f32 or f64, read_tensor being its
one-file case: the header (_parse_header), then the payload straight into
its row, f32 widened bit for bit. Each file after a block's first is
read with one readv, and parsed only if its size or header bytes differ
from the first's. The file layout:

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
as one array. Types are checked once per distinct type, so a dict, list,
str, int or float subclass passes as its base type does. A check that
fails names its first offender; the same checks, run on shorter prefixes,
locate the first failure. A manifest may describe at most _MAX_SNIPPETS
snippets, checked first. No file name holds NUL or a lone surrogate.

A Manifest always holds its snippets as Snippets columns, with no object
per entry: indices, feature file names, box counts, and the [N, 4]
float64 agent boxes of all entries in entry order. Parsing builds them in
the box checks, a Manifest given SnippetEntry values converts them once,
and manifest_to_dict writes from them. Indexing or iterating them builds
SnippetEntry values, a row view for library callers. Like every tapgen type
that holds an array, Snippets and Manifest compare and hash by identity.

Every JSON file tapgen writes (manifests, proposal files, eval.json, run
summaries, a weight bundle's index.json) goes through write_json: one line,
sorted keys, a final newline, atomically. read_json reads every JSON file
(those, indented by earlier versions too, and a --config file).
"""

from __future__ import annotations

import bisect
import errno
import itertools
import json
import math
import os
import re
import stat
import struct
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from tapgen.errors import InvalidInputError, ManifestValidationError, TensorFormatError
from tapgen.inference import Candidates, Proposal
from tapgen.timeline import GroundTruthAction, VideoMeta

MAGIC = b"AENT"
VERSION = 1
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}  # read; only f64 is written
_F64 = 2
_MAX_DIM = 2**32  # sanity cap per axis; desk-scale files are far smaller
# Cap on the snippet count T of a manifest. Stages allocate [D, T]
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
    "read_tensors",
    "read_manifest",
    "write_manifest",
    "read_json",
    "check_fields",
    "write_json",
    "write_proposals",
    "load_proposals",
    "atomic_write_bytes",
]


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense finite real tensor: one float64 array, whatever dtype its file held."""

    array: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @staticmethod
    def from_array(arr: np.ndarray) -> "Tensor":
        """arr as a tensor; a float64 array is held as it is, not copied."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise InvalidInputError("tensor must have at least one dimension")
        if any(d < 1 for d in arr.shape):
            raise InvalidInputError(f"dims must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("tensor values must be finite")
        return Tensor(arr)

    def to_array(self) -> np.ndarray:
        return self.array


def atomic_write_bytes(path: str | os.PathLike, *chunks) -> None:
    """Write the chunks in order to a new temp file in the destination
    directory, then rename. The file gets the mode open gives a new file:
    0o666 less the umask."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(t: Tensor, destination: str | os.PathLike) -> None:
    """Write t as an f64 tensor file: the header, then the array's own
    buffer, copied only when it is not C-contiguous."""
    a = t.array
    header = MAGIC + struct.pack(f"<II{a.ndim}QI", VERSION, a.ndim, *a.shape, _F64)
    atomic_write_bytes(destination, header, np.ascontiguousarray(a, dtype=_CODE_DTYPES[_F64]))


def read_tensor(source: str | os.PathLike) -> Tensor:
    """The tensor of one file: read_tensors of that file alone."""
    return Tensor(read_tensors([source])[0])


def read_tensors(paths: Sequence[str | os.PathLike], check=None) -> np.ndarray:
    """Tensor files of one dims as one [B, *dims] float64 array, (0,) for none.

    Each file is opened once. The first is read checked: its header parsed
    in full, then its payload. Each later file is read with one readv into
    a header buffer, its own row of the block (an f32 file's through one
    reused f32 buffer, widened bit for bit) and a sentinel byte past the
    first file's size. That read stands when it gave exactly the first
    file's size and header bytes; else the same fd is read checked from its
    start. check(name, dims, first dims or None for the first itself) may
    refuse a file read checked, and after it the reader refuses other dims
    than the first's. A file that fails is raised only once the files
    before it are known to be finite, so the error is always the first
    refused file's.
    """
    names = [os.fspath(p) for p in paths]
    block = np.empty(0)
    for i, name in enumerate(names):
        done = ()  # file i's payload, once read in full
        try:
            fd = os.open(name, os.O_RDONLY)
            try:
                parsed = True  # read checked
                if i:
                    out = block[i]
                    try:
                        parsed = (os.readv(fd, [seen, out if wide is None else wide, past])
                                  != size0 or seen != head0)
                    except OSError:  # a directory, say: the checked read raises open's error
                        pass
                if parsed:
                    size, head, dims, np_dtype = _parse_header(fd, name)
                    if i == 0:
                        block = np.empty((len(names), *dims))
                        size0, head0, dims0 = size, head, dims
                        seen, past = bytearray(len(head)), bytearray(1)
                        wide = None if np_dtype == block.dtype else np.empty(dims, np_dtype)
                    # f32, or a file of other dims, goes through a temporary array
                    out = block[i] if dims == dims0 else np.empty(dims)
                    buf = out if np_dtype == out.dtype else np.empty(dims, np_dtype)
                    view, got = memoryview(buf).cast("B"), 0
                    # each readv stops short of 2 GiB
                    while got < len(view) and (n := os.readv(fd, [view[got:]])):
                        got += n
                    if got != len(view):  # the file shrank after fstat
                        raise TensorFormatError(f"{name}: payload size mismatch, expected {size} "
                                                f"bytes, got {size - len(view) + got}")
                    out[...] = buf  # widened bit for bit; numpy skips assigning out to itself
                else:
                    dims = dims0
                    if wide is not None:
                        out[...] = wide  # widened bit for bit
                done = (out,)
            finally:
                os.close(fd)
            if parsed and check is not None:
                check(name, dims, dims0 if i else None)
            if dims != dims0:
                raise TensorFormatError(f"{name}: dims {dims}, expected {dims0} as in {names[0]}")
        except Exception:  # raised once the files before it are known to be finite
            _raise_first_non_finite([*block[:i], *done], names)
            raise
    if not np.isfinite(block).all():
        _raise_first_non_finite(block, names)
    return block


def _parse_header(fd: int, name: str) -> tuple[int, bytes, tuple[int, ...], np.dtype]:
    """(size, header bytes, dims, payload dtype) of the tensor file open at
    fd, read from its start, every header and size check made."""
    st = os.fstat(fd)
    if stat.S_ISDIR(st.st_mode):  # open's error; os.open opens a directory
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
    size = st.st_size
    os.lseek(fd, 0, os.SEEK_SET)
    head = os.read(fd, 12)
    if len(head) == 12 and size > 12:  # the dims block and dtype code, as far as the file has them
        head += os.read(fd, min(8 * struct.unpack_from("<I", head, 8)[0] + 4, size - 12))
    if size < 12:
        raise TensorFormatError(f"{name}: truncated header ({size} bytes)")
    if head[:4] != MAGIC:
        raise TensorFormatError(f"{name}: bad magic {head[:4]!r}")
    version, ndim = struct.unpack_from("<II", head, 4)
    if version != VERSION:
        raise TensorFormatError(f"{name}: unsupported version {version}")
    if ndim == 0:
        raise TensorFormatError(f"{name}: zero-dimensional tensor")
    if size < 12 + 8 * ndim + 4:  # else head holds the whole header
        raise TensorFormatError(f"{name}: truncated dims block")
    dims = struct.unpack_from(f"<{ndim}Q", head, 12)
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"{name}: zero-sized dimension in {dims}")
    if any(d > _MAX_DIM for d in dims):
        raise TensorFormatError(f"{name}: dimension overflow in {dims}")
    (code,) = struct.unpack_from("<I", head, 12 + 8 * ndim)
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"{name}: unknown dtype code {code}")
    np_dtype = _CODE_DTYPES[code]
    expected = len(head) + math.prod(dims) * np_dtype.itemsize  # exact; an int64 product wraps
    if size != expected:
        raise TensorFormatError(f"{name}: payload size mismatch, expected {expected} bytes, "
                                f"got {size}")
    return size, head, tuple(int(d) for d in dims), np_dtype


def _raise_first_non_finite(rows, names: Sequence[str]) -> None:
    """Raise the error of the first of rows, in names' order, that holds a non-finite value."""
    for row, name in zip(rows, names):
        if not np.isfinite(row).all():
            raise TensorFormatError(f"{name}: non-finite values in payload")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnippetEntry:
    """Per-snippet detector output: optional feature file and agent boxes."""

    index: int
    feature_file: str | None
    agent_boxes: tuple[tuple[float, float, float, float], ...] = ()


@dataclass(frozen=True, eq=False)
class Snippets(Sequence):
    """Snippet entries as columns, one row per entry in entry order.

    indices and box_counts are intp arrays, feature_files holds str or
    None, and boxes stacks every entry's agent boxes in order, [N, 4]
    float64. Rows are not checked here: _snippets_at_once builds them
    from checked entries, synth from its draws, Snippets.of from
    SnippetEntry values.
    """

    indices: np.ndarray
    feature_files: tuple[str | None, ...]
    box_counts: np.ndarray
    boxes: np.ndarray

    @classmethod
    def of(cls, entries: Iterable[SnippetEntry]) -> Snippets:
        """The columns of SnippetEntry values, in their order."""
        if isinstance(entries, Snippets):
            return entries
        entries = tuple(entries)  # read once per column, so an iterator serves too
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


@dataclass(frozen=True, eq=False)
class Manifest:
    """One video's metadata, annotations, and per-snippet agent boxes.

    snippets is always Snippets columns: a sequence of SnippetEntry given
    here, or through dataclasses.replace, becomes columns once.
    """

    video: VideoMeta
    annotations: tuple[GroundTruthAction, ...]
    snippets: Snippets = ()

    def __post_init__(self):
        object.__setattr__(self, "snippets", Snippets.of(self.snippets))


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
    if _UNNAMEABLE.search(v["video_id"]):  # a NUL is refused above
        raise ManifestValidationError(f"{vpath}.video_id", "must hold no lone surrogate")
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
    if T > _MAX_SNIPPETS:
        raise ManifestValidationError(
            f"{vpath}.num_frames", f"{T} snippets, above the cap of {_MAX_SNIPPETS}"
        )

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
    try:
        snippets = _snippets_at_once(raw_snippets, T, name)
    except ManifestValidationError:  # a check's first offender; the same checks on shorter
        # prefixes find the list's first failure: its entry i, then its box j in that entry
        i = _first_offender(raw_snippets, lambda entries: _passes(entries, T))
        head, last = raw_snippets[:i], raw_snippets[i]
        if isinstance(last, dict) and isinstance(boxes := last.get("agent_boxes"), list):
            j = _first_offender(boxes, lambda v: _passes([*head, {**last, "agent_boxes": v}], T))
            last = {**last, "agent_boxes": boxes[:j + 1]}
        _snippets_at_once([*head, last], T, name)  # raises that failure, the one fault left
        raise
    return Manifest(video=video, annotations=tuple(annotations), snippets=snippets)


_SNIPPET_KEYS = frozenset({"index", "feature_file", "agent_boxes"})
_UNNAMEABLE = re.compile("[\0\ud800-\udfff]")  # NUL, or a lone surrogate, which UTF-8 cannot encode


def _of_types(values, *kinds) -> bool:
    """Whether every value is an instance of one of kinds and none is a bool,
    checked once per distinct type rather than once per value."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, values)))


def _first_offender(values: list, passes) -> int | None:
    """None if values pass passes, a check of a whole list; else the index of
    its first offender, the end of the shortest prefix that fails, found by
    bisection, as a prefix fails once it holds an offender."""
    if passes(values):
        return None
    return bisect.bisect_left(range(1, len(values) + 1), True, key=lambda k: not passes(values[:k]))


def _keyed(entries: list) -> bool:
    """Whether entries are dicts that hold an index and no key but _SNIPPET_KEYS."""
    return (_of_types(entries, dict) and all("index" in s for s in entries)
            and _SNIPPET_KEYS.issuperset(itertools.chain.from_iterable(entries)))


def _nameable(files: list) -> bool:
    """Whether each of files is None or a str that can name a file."""
    named = [f for f in files if f is not None]
    return _of_types(named, str) and not _UNNAMEABLE.search("".join(named))


def _unit_boxes(rows: list) -> np.ndarray | None:
    """rows, lists of four, as an [N, 4] float64 array if each coordinate is
    an int or float (not a bool) in [0, 1], else None."""
    if not _of_types(itertools.chain.from_iterable(rows), int, float):  # numpy parses a str
        return None
    try:
        a = np.array(rows, dtype=np.float64).reshape(-1, 4)
    except OverflowError:  # an int beyond float
        return None
    return a if ((a >= 0.0) & (a <= 1.0)).all() else None  # NaN fails too


def _snippets_at_once(raw_snippets: list, T: int, name: str) -> Snippets:
    """The snippets as columns, each check made once over the whole list.

    Entries must be dicts, indices ints (not bools), feature files strs or
    None, box lists and boxes lists, and coordinates ints or floats (not
    bools), subclasses included. A check that fails raises the error of its
    first offender, worded as one entry's fields are checked in order.
    """
    at = f"{name}.snippets"
    if (i := _first_offender(raw_snippets, _keyed)) is not None:
        if not isinstance(raw_snippets[i], dict):
            raise ManifestValidationError(f"{at}[{i}]", "must be an object")
        _require_keys(raw_snippets[i], _SNIPPET_KEYS, {"index"}, f"{at}[{i}]")
    indices = [s["index"] for s in raw_snippets]
    if (i := _first_offender(indices, lambda v: _of_types(v, int)
                             and (not v or min(v) >= 0 and max(v) < T))) is not None:
        _check_number(indices[i], f"{at}[{i}].index", integer=True)
        raise ManifestValidationError(f"{at}[{i}].index", f"index {indices[i]} outside [0, {T})")
    if (i := _first_offender(indices, lambda v: len(set(v)) == len(v))) is not None:
        raise ManifestValidationError(f"{at}[{i}].index", f"duplicate snippet index {indices[i]}")
    files = [s.get("feature_file") for s in raw_snippets]
    if (i := _first_offender(files, _nameable)) is not None:
        raise ManifestValidationError(f"{at}[{i}].feature_file", (
            "must be a string path" if not isinstance(files[i], str) else
            "must hold no NUL" if "\0" in files[i] else "must hold no lone surrogate"))
    box_lists = [s.get("agent_boxes", []) for s in raw_snippets]
    if (i := _first_offender(box_lists, lambda v: _of_types(v, list))) is not None:
        raise ManifestValidationError(f"{at}[{i}].agent_boxes", "must be a list")
    counts = np.array([len(b) for b in box_lists], dtype=np.intp)
    raw = [b for boxes in box_lists for b in boxes]

    def box_path(r: int) -> str:  # raw[r]'s field path
        i = int(np.searchsorted(np.cumsum(counts), r, side="right"))
        return f"{at}[{i}].agent_boxes[{r - counts[:i].sum()}]"

    if (r := _first_offender(raw, lambda v: _of_types(v, list)
                             and set(map(len, v)) <= {4})) is not None:
        raise ManifestValidationError(box_path(r), "box must be [x1, y1, x2, y2]")
    if (a := _unit_boxes(raw)) is None:
        r = _first_offender(raw, lambda v: _unit_boxes(v) is not None)
        for k, c in enumerate(raw[r]):  # each coordinate's type and finiteness first
            _check_number(c, f"{box_path(r)}[{k}]")
        raise ManifestValidationError(box_path(r), f"coordinates outside [0, 1]: {raw[r]}")
    x_ok, y_ok = a[:, 0] < a[:, 2], a[:, 1] < a[:, 3]
    if not (x_ok.all() and y_ok.all()):
        r = int(np.argmin(x_ok & y_ok))
        raise ManifestValidationError(box_path(r), ("y1 >= y2" if x_ok[r] else "x1 >= x2")
                                      + f" in {raw[r]}")
    return Snippets(np.array(indices, dtype=np.intp), tuple(files), counts, a)


def _passes(entries: list, T: int) -> bool:
    """Whether _snippets_at_once accepts entries."""
    try:
        _snippets_at_once(entries, T, "")
    except ManifestValidationError:
        return False
    return True


def read_manifest(source: str | os.PathLike) -> Manifest:
    return manifest_from_dict(read_json(source), name=os.fspath(source))


def manifest_to_dict(m: Manifest) -> dict:
    s = m.snippets
    rows = iter(s.boxes.tolist())  # plain floats, as the JSON held them
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
            {"index": i, "feature_file": f, "agent_boxes": list(itertools.islice(rows, n))}
            for i, f, n in zip(s.indices.tolist(), s.feature_files, s.box_counts.tolist())
        ],
    }


def read_json(source: str | os.PathLike, **options):
    """The document of the JSON file source, read as UTF-8 with the json options
    given. One that does not decode (bad JSON or UTF-8, or nesting too deep) is
    an InvalidInputError that starts with its path; an OSError propagates."""
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh, **options)
    except (ValueError, RecursionError) as e:
        raise InvalidInputError(f"{os.fspath(source)}: not valid JSON ({e})") from e


def check_fields(obj: dict, fields, where: str, error=InvalidInputError, prefix: str = "") -> None:
    """Refuse a key of obj that is not in fields, then a field that obj lacks,
    as error("<where>: unknown field '<prefix><key>'") or "... missing field ..."."""
    for key in obj:
        if key not in fields:
            raise error(f"{where}: unknown field {prefix + key!r}")
    for name in fields:
        if name not in obj:
            raise error(f"{where}: missing field {prefix + name!r}")


def write_json(destination: str | os.PathLike, doc) -> None:
    """Write doc as every tapgen JSON file is written (module docstring), through
    json's C encoder: no indent, and no cycle check, as a doc is a tree."""
    payload = json.dumps(doc, sort_keys=True, check_circular=False).encode("utf-8")
    atomic_write_bytes(destination, payload, b"\n")


def write_manifest(m: Manifest, destination: str | os.PathLike) -> None:
    write_json(destination, manifest_to_dict(m))


PROPOSAL_FIELDS = ("t_start_sec", "t_end_sec", "score")


def _proposal_path(proposal_dir: str, vid: str) -> str:
    return os.path.join(proposal_dir, f"{vid}.proposals.json")


def write_proposals(proposal_dir: str, vid: str, proposals: Sequence[Proposal]) -> None:
    """Write one video's proposal file from Candidates or Proposals, in the order given."""
    c = Candidates.of(proposals)
    rows = zip(c.starts.tolist(), c.ends.tolist(), c.scores.tolist())
    write_json(_proposal_path(proposal_dir, vid), [dict(zip(PROPOSAL_FIELDS, r)) for r in rows])


def load_proposals(proposal_dir: str, vid: str) -> Candidates | None:
    """Read and validate one video's proposal file as columns; None if it is missing."""
    path = _proposal_path(proposal_dir, vid)
    if not os.path.exists(path):
        return None
    # integers as floats: an overlong integer becomes inf and fails below
    doc = read_json(path, parse_int=float)
    if not isinstance(doc, list):
        raise InvalidInputError(f"{path}: top level must be a list of proposals")
    for k, entry in enumerate(doc):
        where = f"{path}: entry {k}"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{where}: must be an object")
        check_fields(entry, PROPOSAL_FIELDS, where)
        for name in PROPOSAL_FIELDS:
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
    return Candidates(*(np.array([entry[name] for entry in doc], dtype=np.float64)
                        for name in PROPOSAL_FIELDS))
