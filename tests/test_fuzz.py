"""Fuzz the readers: malformed input may only ever end as a DomainError.

Each test draws inputs around a valid file (or a valid tensor set) and
checks that reading either succeeds or raises ``DomainError``; for the CLI
that means exit code 1 and a ``pgrain: <kind>: `` line on stderr.  The
example counts are fixed, so the suite's wall time stays bounded.
"""

import contextlib
import io
import json
import re
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from pgrain import DomainError, PointCloud, StageSpec, ToyPipelineConfig
from pgrain import eval as ev
from pgrain import io as pio
from pgrain.cli import main
from pgrain.pagwn import (
    check_pagwn_tensors,
    init_mlp_params,
    init_pagwn_params,
    pagwn_forward_batch,
    pagwn_input_from_tensors,
)

from conftest import OneWindow

FUZZ = settings(max_examples=30, deadline=None)
_KIND_LINE = re.compile(r"pgrain: [a-z-]+: ")

# tokens a numeric text reader must survive
_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2.5", "-3", "1e-3", "nan", "-inf", "1e400", "0x1",
                     "99999999999999999999999", "-99999999999999999999999",
                     "1_0", "１", "zero", "", "�"]),
    st.text(max_size=4),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=7).map(" ".join), max_size=5)
_TEXT_BYTES = st.one_of(
    _LINES.map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.tuples(_LINES, st.binary(min_size=1, max_size=4)).map(
        lambda pair: "\n".join(pair[0]).encode("utf-8") + pair[1]),
    st.binary(max_size=48),
)


def _write(tmp_path_factory, name: str, blob: bytes):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(blob)
    return path


def _only_domain_errors(read, *args):
    try:
        return read(*args)
    except DomainError:
        return None


def _cli_fails_cleanly(argv) -> None:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        assert code == 1
        assert _KIND_LINE.match(stderr.getvalue()), stderr.getvalue()


def read_xyz_reference(path, feature_dim, has_label):
    """The line-at-a-time XYZ parser that the block reader must match: the
    same language, arrays and DomainErrors."""
    if feature_dim < 0:
        raise DomainError("invalid-spec", f"feature_dim must be >= 0, got {feature_dim}")

    def label(token, lineno):
        try:
            value = int(token)
        except ValueError:
            raise DomainError("parse-error", f"line {lineno}: label {token!r} is not an integer") from None
        if not 0 <= value < 2**63:
            raise DomainError("parse-error", f"line {lineno}: label {token!r} is outside [0, 2**63)")
        return value

    expected = 3 + feature_dim + (1 if has_label else 0)
    coords, feats, labels = [], [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DomainError("parse-error", f"line {lineno} is not UTF-8 text") from None
            tokens = line.split()
            if not tokens and lineno == 1 and line in ("", "\n"):
                continue
            if len(tokens) != expected:
                raise DomainError("token-count-mismatch",
                                  f"line {lineno} has {len(tokens)} tokens, expected {expected}")
            try:
                values = [float(t) for t in tokens[: 3 + feature_dim]]
            except ValueError:
                raise DomainError("parse-error", f"line {lineno}: non-numeric token") from None
            if has_label:
                labels.append(label(tokens[-1], lineno))
            coords.append(values[:3])
            feats.append(values[3:])
    if not coords:
        raise DomainError("empty-cloud", f"{path} contains no points")
    return PointCloud(
        coords=np.asarray(coords, dtype=np.float64),
        features=np.asarray(feats, dtype=np.float64).reshape(len(coords), feature_dim),
        labels=np.asarray(labels, dtype=np.int64) if has_label else None,
    )


def read_labels_reference(path):
    """The line-at-a-time label parser that the block reader must match."""
    out = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DomainError("parse-error", f"line {lineno} is not UTF-8 text") from None
            token = line.strip()
            if not token:
                continue
            try:
                value = int(token)
            except ValueError:
                raise DomainError("parse-error", f"line {lineno}: label {token!r} is not an integer") from None
            if not -2**63 <= value < 2**63:
                raise DomainError("parse-error", f"line {lineno}: label {token!r} is outside [{-2**63}, 2**63)")
            out.append(value)
    return np.asarray(out, dtype=np.int64)


def _outcome(read, *args):
    """A read's arrays as (bytes, dtype, shape), or its DomainError's kind and message."""
    try:
        cloud = read(*args)
    except DomainError as exc:
        return exc.kind, str(exc)
    return [None if a is None else (a.tobytes(), a.dtype, a.shape)
            for a in (cloud.coords, cloud.features, cloud.labels)]


class TestTextReaders:
    @FUZZ
    @given(blob=_TEXT_BYTES, feature_dim=st.integers(-1, 3), has_label=st.booleans(),
           block_lines=st.sampled_from([1, 2, pio._BLOCK_LINES]))
    def test_read_xyz(self, tmp_path_factory, blob, feature_dim, has_label, block_lines):
        """The block reader gives the line parser's arrays or DomainError."""
        path = _write(tmp_path_factory, "c.xyz", blob)
        # small blocks put the corpus's few lines on block boundaries
        with mock.patch.object(pio, "_BLOCK_LINES", block_lines):
            got = _outcome(pio.read_xyz, path, feature_dim, has_label)
        assert got == _outcome(read_xyz_reference, path, feature_dim, has_label)

    @FUZZ
    @given(blob=_TEXT_BYTES, has_label=st.booleans())
    def test_sample_cli_infers_the_feature_dim(self, tmp_path_factory, blob, has_label):
        path = _write(tmp_path_factory, "c.xyz", blob)
        _cli_fails_cleanly(["sample", str(path), "--count", "1", "--out", str(path.with_suffix(".out"))]
                           + (["--has-label"] if has_label else []))

    @FUZZ
    @given(blob=_TEXT_BYTES, block_lines=st.sampled_from([1, 2, pio._BLOCK_LINES]))
    def test_read_labels(self, tmp_path_factory, blob, block_lines):
        """The block reader gives the line parser's labels or DomainError."""
        path = _write(tmp_path_factory, "l.txt", blob)

        def outcome(read):
            try:
                labels = read(path)
            except DomainError as exc:
                return exc.kind, str(exc)
            return labels.tobytes(), labels.dtype, labels.shape

        with mock.patch.object(pio, "_BLOCK_LINES", block_lines):
            got = outcome(pio.read_labels)
        assert got == outcome(read_labels_reference)


_PLY_TYPES = st.sampled_from(["double", "float", "uchar", "int", "short", "half", "list", "x"])
_PLY_NAMES = st.sampled_from(["x", "y", "z", "red", "green", "blue", "alpha"])


@st.composite
def _ply_files(draw):
    fmt = draw(st.sampled_from(["ascii", "binary_little_endian", "binary_big_endian", "", "x"]))
    count = draw(st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["", "1.5", "x", "10**9"])))
    props = draw(st.lists(st.tuples(_PLY_TYPES, _PLY_NAMES), max_size=8))
    header = [f"format {fmt} 1.0", f"element vertex {count}"]
    header += [f"property {ptype} {name}" for ptype, name in props]
    header += draw(st.lists(st.sampled_from(["comment hi", "element face 1", "property", "element", ""]),
                            max_size=2))
    text = "ply\n" + "\n".join(draw(st.permutations(header))) + "\nend_header\n"
    body = draw(st.one_of(st.binary(max_size=96),
                          _LINES.map(lambda lines: "\n".join(lines).encode("utf-8"))))
    return text.encode("utf-8") + body


class TestPly:
    @FUZZ
    @given(blob=st.one_of(_ply_files(), st.binary(max_size=64)))
    def test_read_ply(self, tmp_path_factory, blob):
        cloud = _only_domain_errors(pio.read_ply, _write(tmp_path_factory, "c.ply", blob))
        assert cloud is None or isinstance(cloud, PointCloud)


_HEADER_FIELD = st.one_of(st.sampled_from(["f8", "f4", "i8", "u1"]), st.integers(-2, 70).map(str),
                          st.text(max_size=3))


@st.composite
def _well_formed_tensors(draw):
    dims = draw(st.lists(st.integers(0, 1), max_size=70))
    header = f"f8 {len(dims)} " + " ".join(map(str, dims))
    return pio.TENSOR_MAGIC + header.encode() + b"\n" + b"\0" * (8 * int(np.prod(dims)))


class TestTensors:
    @FUZZ
    @given(magic=st.sampled_from([pio.TENSOR_MAGIC, b"PGTN1", b""]),
           header=st.one_of(st.lists(_HEADER_FIELD, max_size=72).map(" ".join).map(str.encode),
                            st.binary(max_size=16)),
           newline=st.booleans(), payload=st.binary(max_size=72), whole=st.none() | _well_formed_tensors())
    def test_read_tensor(self, tmp_path_factory, magic, header, newline, payload, whole):
        blob = whole or magic + header + (b"\n" if newline else b"") + payload
        arr = _only_domain_errors(pio.read_tensor, _write(tmp_path_factory, "t.pgtn", blob))
        assert arr is None or isinstance(arr, np.ndarray)

    @FUZZ
    @given(which=st.sampled_from(["pagwn", "mlp", "input"]), data=st.data())
    def test_tensor_dir_loaders(self, tmp_path_factory, which, data):
        if which == "pagwn":
            tensors, load = init_pagwn_params(2, seed=1), check_pagwn_tensors
        elif which == "mlp":
            # no command reads an MLP checkpoint back, so only the directory reader meets it
            tensors, load = init_mlp_params((2, 3, 4), seed=1), None
        else:
            tensors = OneWindow(np.zeros(3), np.zeros(2), np.ones((4, 3)), np.ones((4, 2)))._asdict()
            # read, then run through the block, as ``pgrain pagwn-forward`` does
            params = init_pagwn_params(2, seed=1)
            load = lambda window: pagwn_forward_batch(  # noqa: E731
                *pagwn_input_from_tensors(window), params, mode="inference")
        names = sorted(tensors)
        for name in data.draw(st.lists(st.sampled_from(names), max_size=3)):
            action = data.draw(st.sampled_from(["drop", "reshape", "scalar", "nan"]))
            if action == "drop":
                tensors.pop(name, None)
            elif action == "reshape":
                dims = data.draw(st.lists(st.integers(0, 3), max_size=3))
                tensors[name] = np.full(dims, 0.5)
            else:
                tensors[name] = np.float64(data.draw(st.sampled_from([-1, 0, 0.5, 1.5, 1e300]))
                                          if action == "scalar" else np.nan)
        root = tmp_path_factory.mktemp("dir")
        pio.save_tensor_dir(root, tensors)
        manifest = root / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        for _ in range(data.draw(st.integers(0, 2))):
            extra = data.draw(st.lists(st.text(max_size=6), min_size=1, max_size=4).map(" ".join))
            if lines and data.draw(st.booleans()):
                lines[data.draw(st.integers(0, len(lines) - 1))] = extra
            else:
                lines.append(extra)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        loaded = _only_domain_errors(pio.load_tensor_dir, root)
        if loaded is not None and load is not None:
            _only_domain_errors(load, loaded)


# ---------------------------------------------------------------------------
# train-toy JSON configs, read through the CLI
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.sampled_from([2**63, -2**63, 10**30]),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_TOP_KEYS = ["stages", "num_classes", "head_hidden", "epochs", "learning_rate", "batch_size", "seed",
             "aggregator", "epsilon", "bq_radius", "scenes", "optimizer"]


class _Accepted(Exception):
    """Raised in place of building scenes or training: the config was read."""


def _accept(*args, **kwargs):
    raise _Accepted


@st.composite
def _configs(draw):
    stage = {"m_points": 8, "k": 4, "split": 2}
    scenes = {"kind": "density_imbalanced", "train": 1, "test": 1, "base_seed": 0}
    config = {"stages": [stage], "num_classes": 2, "epochs": 1, "aggregator": "pagwn", "scenes": scenes}
    for target, keys in ((stage, ["m_points", "k", "split", "stride"]),
                         (scenes, ["kind", "train", "test", "base_seed"]),
                         (config, _TOP_KEYS)):
        for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
            if draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = draw(_JSON)
    return json.dumps(config).encode("utf-8")


class TestTrainToyConfig:
    @FUZZ
    @given(blob=st.one_of(_configs(), st.binary(max_size=32)))
    def test_config_is_read_or_rejected(self, tmp_path_factory, blob):
        path = _write(tmp_path_factory, "toy.json", blob)
        # scene building and training are replaced: only reading is under test
        with mock.patch.object(ev, "run_toy_pipeline", _accept), \
                mock.patch.object(ev, "density_imbalanced_scene", _accept), \
                mock.patch.object(ev, "constant_label_scene", _accept):
            try:
                _cli_fails_cleanly(["train-toy", "--config", str(path), "--out", str(path.with_suffix(".csv"))])
            except _Accepted:
                pass

    @FUZZ
    @given(fields=st.fixed_dictionaries({}, optional={
        name: st.one_of(_JSON, st.just(np.int64(2)), st.just(np.float64(0.5)), st.just(np.arange(2)))
        for name in ["stages", "num_classes", "head_hidden", "epochs", "learning_rate", "batch_size",
                     "seed", "aggregator", "epsilon", "bq_radius"]}),
        stage=st.builds(StageSpec, _JSON, _JSON, _JSON))
    def test_config_fields_never_raise_type_error(self, fields, stage):
        _only_domain_errors(lambda: ToyPipelineConfig(**{"stages": (stage,), "num_classes": 2, **fields}))
