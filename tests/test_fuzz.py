"""Fuzz the readers: malformed input may only ever end as a DomainError.

Each test draws inputs around a valid file (or a valid tensor set) and
checks that reading either succeeds or raises ``DomainError``; for the CLI
that means exit code 1 and a ``pgrain: <kind>: `` line on stderr.  The
example counts are fixed, so the suite's wall time stays bounded.  A table
runs the cloud, window and training commands on inputs scaled to extreme
magnitudes under the same rule, and with no NumPy warning.  Another calls
the library's entry points with malformed counts, real values and
coordinate arrays: each must end as a DomainError.
"""

import contextlib
import io
import json
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgrain import (
    DomainError,
    NeighborIndex,
    PointCloud,
    StageSpec,
    ToyPipelineConfig,
    ball_query_batch,
    brute_force_knn,
    build_index,
    compute_metrics,
    farthest_point_sample,
    knn_batch,
    random_sample,
    sigma_map,
    window_normalize,
)
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
from pgrain.sampling import fps_coords

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
        raise DomainError("invalid-spec", f"feature_dim must be a non-negative integer, got {feature_dim}")

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


# ---------------------------------------------------------------------------
# Extreme magnitudes: exact output or one DomainError line, never a NumPy warning
# ---------------------------------------------------------------------------

_SCALES = (1e-300, 1e-150, 1e150, 1e300, 1e308)


def _extreme_argv(tmp_path, command: str, scale: float):
    """argv of one command on a 100-point cloud, or on windows cut from it, scaled by ``scale``;
    or of a two-epoch toy training run whose learning rate is ``scale``."""
    if command in ("train-toy", "ablate-m"):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"stages": [{"m_points": 32, "k": 8}], "num_classes": 2, "epochs": 2,
                                      "learning_rate": scale, "scenes": {"train": 2, "test": 1}}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "m.csv")]
        return argv + (["--m", "1,2"] if command == "ablate-m" else [])
    rows = np.random.default_rng(2026).uniform(-1.0, 1.0, size=(100, 6)) * scale
    cloud = tmp_path / "cloud.xyz"
    pio.write_xyz(cloud, PointCloud(rows[:, :3], rows[:, 3:]))
    if command in ("fps", "random"):
        return ["sample", str(cloud), "--method", command, "--count", "100", "--out", str(tmp_path / "s.xyz")]
    if command == "sigma-map":
        return ["sigma-map", str(cloud), "--k", "4", "--out", str(tmp_path / "f.xyz")]
    if command == "normalize":
        pio.write_tensor(tmp_path / "c.pgtn", rows[0, 3:])
        pio.write_tensor(tmp_path / "n.pgtn", rows[1:8, 3:])
        return ["normalize", "--center", str(tmp_path / "c.pgtn"), "--neighbors", str(tmp_path / "n.pgtn"),
                "--m", "3", "--out", str(tmp_path / "o.pgtn")]
    window = OneWindow(rows[0, :3], rows[0, 3:], rows[1:7, :3], rows[1:7, 3:])
    pio.save_tensor_dir(tmp_path / "inp", window._asdict())
    pio.save_tensor_dir(tmp_path / "par", init_pagwn_params(3, seed=5))
    return ["pagwn-forward", "--input", str(tmp_path / "inp"), "--params", str(tmp_path / "par"),
            "--out", str(tmp_path / "o.pgtn")]


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("command", ["fps", "random", "sigma-map", "normalize", "pagwn-forward",
                                         "train-toy", "ablate-m"])
    def test_output_or_one_domain_error_line(self, command, scale, tmp_path, capsys):
        # a NumPy warning raises here, since the suite turns warnings into errors
        argv = _extreme_argv(tmp_path, command, scale)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 1
            assert _KIND_LINE.match(err) and err.count("\n") == 1, err

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_fps_picks_are_scale_free_where_squares_stay_normal(self, scale, tmp_path):
        picks = []
        for factor in (1.0, scale):
            folder = tmp_path / str(factor)
            folder.mkdir()
            assert main(_extreme_argv(folder, "fps", factor)) == 0
            picks.append((folder / "s.xyz.idx").read_text(encoding="utf-8"))
        assert picks[0] == picks[1]


# ---------------------------------------------------------------------------
# Argument checks: a malformed count, real value or coordinate array is one DomainError
# ---------------------------------------------------------------------------

_ROWS = np.random.default_rng(24).uniform(-1.0, 1.0, size=(20, 6))
_CLOUD = PointCloud(_ROWS[:, :3], _ROWS[:, 3:])
_QUERIES = _ROWS[:5, :3] + 0.01
_WINDOWS = OneWindow(_ROWS[0, :3], _ROWS[0, 3:], _ROWS[1:7, :3], _ROWS[1:7, 3:])
_SINGLE_ROW = OneWindow(_ROWS[0, :3], _ROWS[0, 3:], _ROWS[1:2, :3], _ROWS[1:2, 3:])
_PARAMS = init_pagwn_params(3, seed=5)
_REGION = (ev.RegionSpec("plane", 20, 2.0, 0),)


def _pagwn(window, m):
    return pagwn_forward_batch(*window.batch(), _PARAMS, m=m, mode="inference").aggregated


# each entry point's count arguments: name -> (call taking the count, a valid count)
_COUNTS = {
    "knn_batch.k": (lambda v: knn_batch(build_index(_CLOUD), _QUERIES, v), 4),
    "brute_force_knn.k": (lambda v: brute_force_knn(_CLOUD, _QUERIES, v), 4),
    "ball_query_batch.k_max": (lambda v: ball_query_batch(build_index(_CLOUD), _QUERIES, 0.5, v), 4),
    "sigma_map.k": (lambda v: sigma_map(_CLOUD, v, threshold=0.5), 4),
    "farthest_point_sample.m": (lambda v: farthest_point_sample(_CLOUD, v, 0), 5),
    "farthest_point_sample.seed": (lambda v: farthest_point_sample(_CLOUD, 5, v), 3),
    "random_sample.m": (lambda v: random_sample(_CLOUD, v, 0), 5),
    "random_sample.seed": (lambda v: random_sample(_CLOUD, 5, v), 3),
    "compute_metrics.num_classes": (lambda v: compute_metrics([0, 1, 2], [1, 1, 2], v), 3),
    "init_pagwn_params.n": (lambda v: init_pagwn_params(v, seed=5), 3),
    "init_pagwn_params.seed": (lambda v: init_pagwn_params(3, v), 5),
    "init_mlp_params.seed": (lambda v: init_mlp_params((3, 4), v), 5),
    "init_mlp_params.dims": (lambda v: init_mlp_params((3, v), 0), 4),
    "SyntheticSceneSpec.seed": (lambda v: ev.generate_scene(ev.SyntheticSceneSpec(_REGION, seed=v)), 3),
}
# group splits, for which None is valid: it normalizes all rows as one group
_SPLITS = {
    "window_normalize.m": (lambda v: window_normalize(_WINDOWS.neighbor_features[None],
                                                      _WINDOWS.center_feature[None], m=v), 2),
    "pagwn_forward_batch.m": (lambda v: _pagwn(_WINDOWS, v), 2),
    "pagwn_forward_batch.m-one-row": (lambda v: _pagwn(_SINGLE_ROW, v), 2),
}
_NOT_INTEGERS = {"2.5": 2.5, "True": True, "str": "3", "None": None, "float64": np.float64(3.0)}
_NOT_COUNTS = [pytest.param(call, value, id=f"{arg}-{name}")
               for table in (_COUNTS, _SPLITS) for arg, (call, _) in table.items()
               for name, value in _NOT_INTEGERS.items() if not (value is None and table is _SPLITS)]

# calls with one malformed count or coordinate array each: (call, the DomainError kind it must end in)
_MALFORMED_CALLS = {
    "knn_batch-k-2.5": (lambda: knn_batch(build_index(_CLOUD), _QUERIES, 2.5), "invalid-spec"),
    "knn_batch-k-True": (lambda: knn_batch(build_index(_CLOUD), _QUERIES, True), "invalid-spec"),
    "brute_force_knn-k-2.5": (lambda: brute_force_knn(_CLOUD, _QUERIES, 2.5), "invalid-spec"),
    "ball_query_batch-k_max-2.5": (lambda: ball_query_batch(build_index(_CLOUD), _QUERIES, 0.3, 2.5),
                                   "invalid-spec"),
    "sigma_map-k-2.5": (lambda: sigma_map(_CLOUD, 2.5), "invalid-spec"),
    "farthest_point_sample-m-2.5": (lambda: farthest_point_sample(_CLOUD, 2.5, 0), "invalid-spec"),
    "random_sample-m-2.5": (lambda: random_sample(_CLOUD, 2.5, 0), "invalid-spec"),
    "window_normalize-m-1.5": (lambda: _SPLITS["window_normalize.m"][0](1.5), "invalid-spec"),
    "pagwn_forward_batch-m-1.5": (lambda: _pagwn(_WINDOWS, 1.5), "invalid-spec"),
    "pagwn_forward_batch-one-row-m-1.5": (lambda: _pagwn(_SINGLE_ROW, 1.5), "invalid-spec"),
    "NeighborIndex-ragged": (lambda: NeighborIndex([[0, 0, 0], [1, 2]]), "dimension-mismatch"),
    "build_index-str": (lambda: build_index("abc"), "dimension-mismatch"),
    "compute_metrics-classes-2.5": (lambda: compute_metrics([0, 1], [1, 0], 2.5), "invalid-spec"),
    # counts whose float64 arrays NumPy cannot describe: more than 2**60 - 1 entries
    "compute_metrics-classes-2**60": (lambda: compute_metrics([0, 1], [1, 0], 2 ** 60), "label-out-of-range"),
    "init_mlp_params-dims-2**60": (lambda: init_mlp_params((1, 2 ** 60), 0), "invalid-spec"),
    "init_pagwn_params-n-2**30": (lambda: init_pagwn_params(2 ** 30, 0), "invalid-spec"),
    "init_pagwn_params-seed--1": (lambda: init_pagwn_params(3, -1), "invalid-spec"),
    "init_mlp_params-seed--1": (lambda: init_mlp_params((3, 4), -1), "invalid-spec"),
    "init_mlp_params-dims--1": (lambda: init_mlp_params((3, -1), 0), "shape-mismatch"),
    "init_mlp_params-dims-0": (lambda: init_mlp_params((3, 0), 0), "shape-mismatch"),
    "init_mlp_params-dims-str": (lambda: init_mlp_params("ab", 0), "invalid-spec"),
    "init_mlp_params-dims-True": (lambda: init_mlp_params((True, 2), 0), "invalid-spec"),
    "SyntheticSceneSpec-seed--1": (lambda: ev.SyntheticSceneSpec(_REGION, seed=-1), "invalid-spec"),
    "init_mlp_params-dims-int": (lambda: init_mlp_params(3, 0), "invalid-spec"),
    "SyntheticSceneSpec-regions-int": (lambda: ev.SyntheticSceneSpec(5), "invalid-spec"),
    "SyntheticSceneSpec-regions-str-entry": (lambda: ev.SyntheticSceneSpec(("x",)), "invalid-spec"),
}
# block tensors NumPy cannot read as float64: name -> a value
_UNREADABLE_TENSORS = {"lb1_bn.eps": 10 ** 400, "lb1_weight": "abc", "lb1_bias": object(),
                       "lb2_weight": [[1.0, 2.0], [3.0]]}


def _config(**fields):
    return ToyPipelineConfig((StageSpec(8, 4, 2),), num_classes=2, **fields)


def _region(**fields):
    return ev.generate_scene(ev.SyntheticSceneSpec((replace(_REGION[0], **fields),), seed=1))


def _bn_tensors(name, value):
    return check_pagwn_tensors({**_PARAMS, name: value})


# each real argument: name -> (call taking the value, a valid value exact in float32, values outside its interval)
_REALS = {
    "ToyPipelineConfig.learning_rate": (lambda v: _config(learning_rate=v), 1.0, (0.0, -1.0, np.inf)),
    "ToyPipelineConfig.epsilon": (lambda v: _config(epsilon=v), 1.0, (0.0, np.inf)),
    "window_normalize.epsilon": (lambda v: window_normalize(_WINDOWS.neighbor_features[None],
                                                            _WINDOWS.center_feature[None], m=2, epsilon=v),
                                 1.0, (0.0, -1e-5, np.inf)),
    "pagwn_forward_batch.epsilon": (lambda v: pagwn_forward_batch(*_WINDOWS.batch(), _PARAMS, m=2, epsilon=v,
                                                                  mode="inference").aggregated,
                                    1.0, (0.0, np.inf)),
    "RegionSpec.density_scale": (lambda v: _region(density_scale=v), 2.0, (0.0, -2.0, np.inf)),
    "RegionSpec.feature_noise_sigma": (lambda v: _region(feature_noise_sigma=v), 1.0, (-0.5, np.inf)),
    "check_pagwn_tensors.eps": (lambda v: _bn_tensors("lb1_bn.eps", v), 1.0, (-1e-5, np.inf)),
    "check_pagwn_tensors.momentum": (lambda v: _bn_tensors("lb2_bn.momentum", v), 0.5, (0.0, 1.0, -0.5)),
    "ball_query_batch.radius": (lambda v: ball_query_batch(build_index(_CLOUD), _QUERIES, v, 4), 1.0,
                                (0.0, -1.0, -np.inf)),
    "ToyPipelineConfig.bq_radius-pagwn": (lambda v: _config(bq_radius=v), 1.0, (0.0, -1.0)),
    "ToyPipelineConfig.bq_radius-bq_baseline": (lambda v: _config(aggregator="bq_baseline", bq_radius=v), 1.0,
                                                (0.0, -1.0)),
    "sigma_map.threshold": (lambda v: sigma_map(_CLOUD, 4, threshold=v), 0.5, ()),
}
_NOT_NUMBERS = {"str": "0.3", "None": None, "True": True, "beyond-float": 10 ** 400}
# batch-norm scalars arrive as tensors read as float64, so only their value can be wrong;
# a bq_radius left out (None) is valid where the aggregator does not read it
_BAD_REALS = [pytest.param(call, value, id=f"{arg}-{name}")
              for arg, (call, _, outside) in _REALS.items()
              for name, value in [*_NOT_NUMBERS.items(), ("nan", np.nan), *((repr(v), v) for v in outside)]
              if not (arg.startswith("check_pagwn_tensors") and name in _NOT_NUMBERS)
              and not (arg == "ToyPipelineConfig.bq_radius-pagwn" and value is None)]
# closed ends of an interval are valid values
_CLOSED_ENDS = [("ball_query_batch.radius", np.inf), ("ToyPipelineConfig.bq_radius-bq_baseline", np.inf),
                ("sigma_map.threshold", np.inf), ("sigma_map.threshold", -np.inf),
                ("RegionSpec.feature_noise_sigma", 0.0), ("check_pagwn_tensors.eps", 0.0)]


def _result_bytes(out):
    """Every array and number of a result, as (dtype, shape, bytes), in order."""
    if isinstance(out, dict):
        return _result_bytes(sorted(out.items()))
    if isinstance(out, (tuple, list)):
        return [entry for item in out for entry in _result_bytes(item)]
    if hasattr(out, "__dataclass_fields__"):
        return _result_bytes([getattr(out, name) for name in out.__dataclass_fields__])
    arr = np.asarray(out)
    return [(arr.dtype.str, arr.shape, arr.tobytes())]


class TestArgumentChecks:
    @pytest.mark.parametrize("call, kind", _MALFORMED_CALLS.values(), ids=_MALFORMED_CALLS.keys())
    def test_malformed_call_is_one_domain_error(self, call, kind):
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.kind == kind

    @pytest.mark.parametrize("call, value", _NOT_COUNTS)
    def test_a_count_that_is_not_an_integer_is_invalid_spec(self, call, value):
        with pytest.raises(DomainError) as exc:
            call(value)
        assert exc.value.kind == "invalid-spec"

    @pytest.mark.parametrize("arg", [*_COUNTS, *_SPLITS])
    def test_int64_counts_give_the_same_bytes(self, arg):
        call, good = {**_COUNTS, **_SPLITS}[arg]
        assert _result_bytes(call(np.int64(good))) == _result_bytes(call(good))

    @pytest.mark.parametrize("call, value", _BAD_REALS)
    def test_a_real_that_is_not_a_number_in_its_interval_is_invalid_spec(self, call, value):
        with pytest.raises(DomainError) as exc:
            call(value)
        assert exc.value.kind == "invalid-spec"

    @pytest.mark.parametrize("arg", _REALS)
    def test_numpy_and_int_reals_give_the_same_bytes(self, arg):
        call, good, _ = _REALS[arg]
        same = [np.float64(good), np.float32(good)] + ([int(good)] if good == int(good) else [])
        for value in same:
            assert _result_bytes(call(value)) == _result_bytes(call(good)), type(value)

    @pytest.mark.parametrize("arg, value", _CLOSED_ENDS, ids=[f"{a}-{v}" for a, v in _CLOSED_ENDS])
    def test_the_closed_end_of_an_interval_is_accepted(self, arg, value):
        _REALS[arg][0](value)

    def test_a_value_beyond_float_range_is_not_echoed(self):
        with pytest.raises(DomainError) as exc:
            _config(learning_rate=10 ** 400)
        assert str(exc.value) == "invalid-spec: learning_rate must be in (0, inf), got a value beyond float range"

    @pytest.mark.parametrize("name", _UNREADABLE_TENSORS)
    @pytest.mark.parametrize("entry", ["check_pagwn_tensors", "pagwn_forward_batch"])
    def test_an_unreadable_tensor_is_one_invalid_spec_naming_it(self, entry, name):
        params = {**_PARAMS, name: _UNREADABLE_TENSORS[name]}
        calls = {
            "check_pagwn_tensors": lambda: check_pagwn_tensors(params),
            "pagwn_forward_batch": lambda: pagwn_forward_batch(*_WINDOWS.batch(), params, mode="inference"),
        }
        with pytest.raises(DomainError) as exc:
            calls[entry]()
        assert str(exc.value) == f"invalid-spec: tensor {name!r} is not an array of real numbers"

    def test_a_single_row_is_one_group_for_any_split(self):
        assert _result_bytes(_pagwn(_SINGLE_ROW, None)) == _result_bytes(_pagwn(_SINGLE_ROW, 3))

    @pytest.mark.parametrize("coords, kind", [
        ([[0, 0, 0], [1, 2]], "dimension-mismatch"),
        ("abc", "dimension-mismatch"),
        (object(), "dimension-mismatch"),
        (np.zeros((4, 2)), "dimension-mismatch"),
        (np.zeros(3), "dimension-mismatch"),
        ([[0, 0, np.nan]], "non-finite-value"),
        ([[0, np.inf, 0]], "non-finite-value"),
    ], ids=["ragged", "str", "object", "width-2", "1-d", "nan", "inf"])
    @pytest.mark.parametrize("entry", ["NeighborIndex", "knn_batch", "ball_query_batch", "brute_force_knn",
                                       "fps_coords"])
    def test_malformed_coordinates_are_one_domain_error(self, entry, coords, kind):
        calls = {
            "NeighborIndex": lambda: NeighborIndex(coords),
            "knn_batch": lambda: knn_batch(build_index(_CLOUD), coords, 1),
            "ball_query_batch": lambda: ball_query_batch(build_index(_CLOUD), coords, 0.3, 1),
            "brute_force_knn": lambda: brute_force_knn(_CLOUD, coords, 1),
            "fps_coords": lambda: fps_coords(coords, 1, 0),
        }
        with pytest.raises(DomainError) as exc:
            calls[entry]()
        assert exc.value.kind == kind
