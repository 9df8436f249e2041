"""Readers and writers for point clouds and tensors.

Three formats, all with bit-exact round trips on machine-representable
values:

* XYZ text: one point per line, ``x y z f1 ... fn [label]``.
* PLY: ASCII or binary-little-endian, element ``vertex`` with x/y/z and
  optional red/green/blue (uchar, mapped to features in [0, 1]).
* TensorFile: magic ``PGTN1\\n``, one ASCII header line
  ``<dtype> <rank> <dims...>``, then a row-major little-endian payload.

Readers and writers are reentrant and share no state.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import DomainError, PointCloud, _count

TENSOR_MAGIC = b"PGTN1\n"
_TENSOR_DTYPES = {"f8": "<f8", "f4": "<f4", "i8": "<i8"}
_DIMS_PRODUCT_CAP = 1 << 48  # refuse absurd headers before allocating
_MAX_RANK = 64  # the most dimensions a NumPy array can have
_INT64_END = 1 << 63  # labels are stored as int64
_BLOCK_LINES = 1024  # lines the text readers parse per bulk step; bounds their memory

PathLike = Union[str, Path]


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(value))


def _label(token: str, lineno: int, low: int) -> int:
    """Parse one label token; it must be an integer in [low, 2**63)."""
    try:
        label = int(token)
    except ValueError:
        raise DomainError("parse-error", f"line {lineno}: label {token!r} is not an integer") from None
    if not low <= label < _INT64_END:
        raise DomainError("parse-error", f"line {lineno}: label {token!r} is outside [{low}, 2**63)")
    return label


def _blocks(path: PathLike):
    """A text file's lines, read with ``errors="surrogateescape"``, in blocks of
    at most 1,024: yields (line number of the block's first line, lines)."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        start = 1
        while block := list(islice(fh, _BLOCK_LINES)):
            yield start, block
            start += len(block)


def _check_block_utf8(block: list) -> None:
    """Raise UnicodeEncodeError if any line of a :func:`_blocks` block held undecodable bytes."""
    text = "".join(block)
    if not text.isascii():
        text.encode("utf-8")


def _check_utf8(line: str, lineno: int) -> None:
    """Reject a line, read with ``errors="surrogateescape"``, that held undecodable bytes."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise DomainError("parse-error", f"line {lineno} is not UTF-8 text") from None


# ---------------------------------------------------------------------------
# XYZ text format
# ---------------------------------------------------------------------------

def read_xyz(path: PathLike, feature_dim: Optional[int] = None, has_label: bool = False) -> PointCloud:
    """Parse a whitespace-separated XYZ file into a PointCloud.

    Every line must carry exactly ``3 + feature_dim`` tokens, plus one
    trailing nonnegative integer label when ``has_label`` is set.  Values
    are read by Python's ``float`` and labels by ``int``, token by token,
    so any token those accept is accepted.  A blank first line is skipped.
    ``feature_dim=None`` infers it from the first line read: its tokens
    less 3 coordinates and the label.  A first line too short for the
    coordinates is then a ``token-count-mismatch`` at its line number.
    File order is preserved.

    The file is parsed in blocks of 1,024 lines, each converted in bulk
    into arrays.  Only one block's per-token Python objects are alive at a
    time, so the parse adds little memory beyond the arrays it returns.  A
    block that fails is walked line by line to report its first bad line,
    which is the first bad line of the file: the error kinds, messages and
    line numbers are those of a line-at-a-time parse.

    Raises:
        DomainError: ``token-count-mismatch`` or ``parse-error`` with the
            1-based line number; cloud invariant violations propagate.
    """
    # coordinates plus features: the tokens of a line without its label
    width = None if feature_dim is None else 3 + _count(feature_dim, "feature_dim", "invalid-spec", 0)
    values, labels = [], []
    for start, block in _blocks(path):
        if start == 1 and block[0] == "\n":
            block, start = block[1:], 2  # so a file holding one newline reads as empty
        if width is None:
            width = max(len(block[0].split()) - (1 if has_label else 0), 3) if block else 3
        try:
            block_values, block_labels = _parse_xyz_block(block, width, has_label)
        except (ValueError, OverflowError, UnicodeEncodeError):
            _raise_first_bad_line(block, start, width, has_label)
            raise
        values.append(block_values)
        labels.append(block_labels)
    n_points = sum(len(v) for v in values) // width if values else 0  # an empty file has no width
    if not n_points:
        raise DomainError("empty-cloud", f"{path} contains no points")
    table = np.concatenate(values).reshape(n_points, width)
    return PointCloud(
        coords=table[:, :3],
        features=table[:, 3:],
        labels=np.concatenate(labels) if has_label else None,
    )


def _parse_xyz_block(block: list, width: int, has_label: bool):
    """Bulk-convert one block of lines: (flat float64 values, int64 labels or None).

    Raises ValueError, OverflowError or UnicodeEncodeError when any line of
    the block is bad; :func:`_raise_first_bad_line` then names it.
    """
    _check_block_utf8(block)
    rows = list(map(str.split, block))
    expected = width + (1 if has_label else 0)
    if set(map(len, rows)) - {expected}:
        raise ValueError("token count")
    tokens = list(chain.from_iterable(rows))
    labels = None
    if has_label:
        labels = np.array(list(map(int, tokens[width::expected])), dtype=np.int64)
        if labels.size and labels.min() < 0:
            raise ValueError("negative label")
        del tokens[width::expected]
    return np.array(list(map(float, tokens)), dtype=np.float64), labels


def _raise_first_bad_line(block: list, start: int, width: int, has_label: bool) -> None:
    """Raise the DomainError of the first bad line of a block, numbered from ``start``."""
    expected = width + (1 if has_label else 0)
    for lineno, line in enumerate(block, start=start):
        _check_utf8(line, lineno)
        tokens = line.split()
        if len(tokens) != expected:
            raise DomainError(
                "token-count-mismatch",
                f"line {lineno} has {len(tokens)} tokens, expected {expected}",
            )
        try:
            list(map(float, tokens[:width]))
        except ValueError:
            raise DomainError("parse-error", f"line {lineno}: non-numeric token") from None
        if has_label:
            _label(tokens[-1], lineno, 0)


def write_xyz(path: PathLike, cloud: PointCloud) -> None:
    """Write a cloud as XYZ text; labels become a final column when present."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(cloud.num_points):
            tokens = [_fmt(v) for v in cloud.coords[i]]
            tokens += [_fmt(v) for v in cloud.features[i]]
            if cloud.labels is not None:
                tokens.append(str(int(cloud.labels[i])))
            fh.write(" ".join(tokens) + "\n")


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_PLY_SCALARS = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def read_ply(path: PathLike) -> PointCloud:
    """Read an ASCII or binary-little-endian PLY vertex cloud.

    Vertex x/y/z become coordinates; red/green/blue (uchar) are divided by
    255 and become the 3 feature channels.  Clouds without RGB are rejected:
    PointCloud requires at least one feature channel.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header_end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply") or header_end < 0:
        raise DomainError("unsupported-format", f"{path} is not a PLY file")
    header_lines = blob[:header_end].decode("ascii", errors="replace").splitlines()
    body = blob[header_end + len(b"end_header\n"):]

    fmt = None
    elements = []  # (name, count, [(prop_name, prop_type)])
    for line in header_lines[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if len(parts) < {"format": 2, "element": 3, "property": 3}.get(parts[0], 0):
            raise DomainError("parse-error", f"PLY header line {line!r} is incomplete")
        if parts[0] == "format":
            if parts[1] == "ascii":
                fmt = "ascii"
            elif parts[1] == "binary_little_endian":
                fmt = "binary"
            else:
                raise DomainError("unsupported-format", f"PLY format {parts[1]!r} is not supported")
        elif parts[0] == "element":
            try:
                count = int(parts[2])
            except ValueError:
                count = -1
            if count < 0:
                raise DomainError("parse-error", f"PLY element count {parts[2]!r} is not a nonnegative integer")
            elements.append((parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise DomainError("unsupported-format", "property before any element")
            if parts[1] == "list":
                elements[-1][2].append((parts[-1], "list"))
            else:
                elements[-1][2].append((parts[-1], parts[1]))
    if fmt is None:
        raise DomainError("unsupported-format", "PLY header lacks a format line")
    if not elements or elements[0][0] != "vertex":
        raise DomainError("missing-vertex-element", "PLY must declare element vertex first")
    _, count, props = elements[0]
    if any(ptype == "list" for _, ptype in props):
        raise DomainError("unsupported-format", "list properties in element vertex are not supported")
    unknown = sorted({ptype for _, ptype in props} - set(_PLY_SCALARS))
    if unknown:
        raise DomainError("unsupported-format", f"vertex property types {unknown} are not supported")
    names = [p[0] for p in props]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DomainError("parse-error", f"vertex property {name!r} is declared more than once")
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise DomainError("missing-vertex-element", f"vertex lacks property {axis}")
    has_rgb = all(c in names for c in ("red", "green", "blue"))
    if not has_rgb:
        raise DomainError("no-features", "vertex has no red/green/blue properties")

    if fmt == "binary":
        dtype = np.dtype([(name, "<" + _PLY_SCALARS[ptype]) for name, ptype in props])
        if len(body) < count * dtype.itemsize:
            raise DomainError("parse-error", "PLY payload shorter than vertex data")
        table = np.frombuffer(body, dtype=dtype, count=count)
        column = lambda name: table[name].astype(np.float64)  # noqa: E731
    else:
        rows = body.decode("ascii", errors="replace").splitlines()
        if len(rows) < count:
            raise DomainError("parse-error", "PLY has fewer data lines than vertices")
        lines = [rows[i].split() for i in range(count)]
        for i, tokens in enumerate(lines):
            if len(tokens) != len(props):
                raise DomainError("token-count-mismatch",
                                  f"vertex row {i} carries {len(tokens)} tokens, expected {len(props)}")
        try:
            grid = np.array([[float(t) for t in tokens] for tokens in lines], dtype=np.float64)
        except ValueError:
            raise DomainError("parse-error", "non-numeric token in PLY vertex data") from None
        index = {name: i for i, name in enumerate(names)}
        column = lambda name: grid[:, index[name]]  # noqa: E731

    coords = np.stack([column("x"), column("y"), column("z")], axis=1)
    rgb = np.stack([column("red"), column("green"), column("blue")], axis=1)
    return PointCloud(coords=coords, features=rgb / 255.0)


def write_ply(path: PathLike, cloud: PointCloud, binary: bool = True) -> None:
    """Write coords (double) plus 3 feature channels as uchar RGB.

    Features are clipped to [0, 1] and scaled by 255; a binary round trip
    through :func:`read_ply` is bit-identical.
    """
    if cloud.feature_dim != 3:
        raise DomainError("dimension-mismatch", f"write_ply needs 3 feature channels, cloud has {cloud.feature_dim}")
    rgb = np.rint(np.clip(cloud.features, 0.0, 1.0) * 255.0).astype(np.uint8)
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {cloud.num_points}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = np.dtype([(n, "<f8") for n in "xyz"] + [(c, "u1") for c in ("red", "green", "blue")])
            table = np.empty(cloud.num_points, dtype=dtype)
            for j, n in enumerate("xyz"):
                table[n] = cloud.coords[:, j]
            for j, c in enumerate(("red", "green", "blue")):
                table[c] = rgb[:, j]
            fh.write(table.tobytes())
        else:
            for i in range(cloud.num_points):
                line = " ".join(_fmt(v) for v in cloud.coords[i])
                line += " " + " ".join(str(int(v)) for v in rgb[i])
                fh.write((line + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# TensorFile
# ---------------------------------------------------------------------------

def _storable(array) -> tuple:
    """The dtype tag and array a TensorFile stores for ``array``; raises if it cannot store it."""
    arr = np.asarray(array)
    if arr.dtype == np.float64:
        tag = "f8"
    elif arr.dtype == np.float32:
        tag = "f4"
    elif np.issubdtype(arr.dtype, np.integer):
        tag, arr = "i8", arr.astype(np.int64)
    else:
        raise DomainError("unsupported-format", f"tensor dtype {arr.dtype} is not storable")
    if arr.size > _DIMS_PRODUCT_CAP:
        raise DomainError("dims-overflow", f"tensor with {arr.size} elements exceeds the format cap")
    return tag, arr


def write_tensor(path: PathLike, array: np.ndarray) -> None:
    """Serialize one array: magic, header line, little-endian payload."""
    tag, arr = _storable(array)
    header = " ".join([tag, str(arr.ndim)] + [str(d) for d in arr.shape])
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write((header + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(arr).astype("<" + tag, copy=False).tobytes())


def read_tensor(path: PathLike) -> np.ndarray:
    """Read a TensorFile back into a native-endian array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(TENSOR_MAGIC):
        raise DomainError("unsupported-format", f"{path} lacks the PGTN1 magic")
    newline = blob.find(b"\n", len(TENSOR_MAGIC))
    if newline < 0:
        raise DomainError("parse-error", "tensor header line is unterminated")
    fields = blob[len(TENSOR_MAGIC):newline].decode("ascii", errors="replace").split()
    if len(fields) < 2 or fields[0] not in _TENSOR_DTYPES:
        raise DomainError("parse-error", "malformed tensor header")
    try:
        tag, rank = fields[0], int(fields[1])
        dims = [int(d) for d in fields[2:]]
    except ValueError:
        raise DomainError("parse-error", f"tensor header {' '.join(fields)!r} has a non-integer field") from None
    if len(dims) != rank or any(d < 0 for d in dims):
        raise DomainError("parse-error", f"tensor header rank {rank} disagrees with dims {dims}")
    if rank > _MAX_RANK:
        raise DomainError("dims-overflow", f"rank {rank} exceeds {_MAX_RANK}")
    size = 1
    for d in dims:
        size *= d
        if size > _DIMS_PRODUCT_CAP:
            raise DomainError("dims-overflow", f"dims {dims} overflow the format cap")
    payload = blob[newline + 1:]
    dtype = np.dtype(_TENSOR_DTYPES[tag])
    if len(payload) != size * dtype.itemsize:
        raise DomainError(
            "parse-error",
            f"payload is {len(payload)} bytes, header implies {size * dtype.itemsize}",
        )
    arr = np.frombuffer(payload, dtype=dtype, count=size).reshape(dims)
    return arr.astype(dtype.newbyteorder("="), copy=True)


def save_tensor_dir(path: PathLike, tensors: dict) -> None:
    """Write a named set of tensors: one TensorFile each plus a manifest.

    The manifest lists ``name rank dims...`` per line, sorted by name, so
    directory contents are byte-stable for identical inputs.  Before anything
    is written, each name must be one manifest field and one file inside the
    directory: a string with no whitespace, ``/``, ``\\`` or NUL, not ``.`` or ``..``;
    and each tensor must be storable, as :func:`write_tensor` requires.
    """
    for name, value in tensors.items():
        if not isinstance(name, str) or name.split() != [name] or name in (".", "..") or set("/\\\0") & set(name):
            raise DomainError("invalid-spec", f"tensor {name!r} is not a plain file name")
        _storable(value)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        write_tensor(root / f"{name}.pgtn", arr)
        lines.append(" ".join([name, str(arr.ndim)] + [str(d) for d in arr.shape]))
    (root / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_tensor_dir(path: PathLike) -> dict:
    """Read back a tensor directory written by :func:`save_tensor_dir`.

    Each manifest line must name a new tensor and give a rank equal to the
    number of dims that follow it.  A name is a plain file name inside the
    directory: no ``/`` or ``\\``, and not ``.`` or ``..``.
    """
    root = Path(path)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise DomainError("parse-error", f"{root} has no manifest.txt")
    out = {}
    lines = manifest.read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        name = fields[0]
        where = f"manifest line {lineno}: tensor {name!r}"
        if "/" in name or "\\" in name or name in (".", ".."):
            raise DomainError("parse-error", f"{where} is not a plain file name")
        if name in out:
            raise DomainError("parse-error", f"{where} repeats an earlier line")
        if len(fields) < 2:
            raise DomainError("parse-error", f"{where} has no rank")
        try:
            rank, *declared = (int(f) for f in fields[1:])
        except ValueError:
            raise DomainError("parse-error", f"{where} has a non-integer rank or dim") from None
        declared = tuple(declared)
        if rank != len(declared):
            raise DomainError("parse-error", f"{where} has rank {rank} but {len(declared)} dims")
        if not (root / f"{name}.pgtn").is_file():
            raise DomainError("parse-error", f"{where} has no file")
        arr = read_tensor(root / f"{name}.pgtn")
        if arr.shape != declared:
            raise DomainError("parse-error", f"tensor {name} has shape {arr.shape}, manifest says {declared}")
        out[name] = arr
    return out


def write_labels(path: PathLike, labels: np.ndarray) -> None:
    """Write one integer class id per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(labels).ravel():
            fh.write(f"{int(v)}\n")


def read_labels(path: PathLike) -> np.ndarray:
    """Read one integer class id per line; blank lines are skipped.

    Each label is read by Python's ``int`` and must fit in int64.  Like
    :func:`read_xyz`, the file is parsed in blocks of 1,024 lines, and a
    block that fails is walked line by line to raise its first bad line's
    ``parse-error`` with that line's number.
    """
    labels = [np.empty(0, dtype=np.int64)]
    for start, block in _blocks(path):
        try:
            _check_block_utf8(block)
            labels.append(np.array([int(t) for t in map(str.strip, block) if t], dtype=np.int64))
        except (ValueError, OverflowError, UnicodeEncodeError):
            for lineno, line in enumerate(block, start=start):
                _check_utf8(line, lineno)
                if token := line.strip():
                    _label(token, lineno, -_INT64_END)
            raise
    return np.concatenate(labels)
