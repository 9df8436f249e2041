import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgrain import DomainError, PointCloud
from pgrain import io as pio

from conftest import random_cloud


class TestXyz:
    def test_direct_transcription(self, tmp_path):
        path = tmp_path / "two.xyz"
        path.write_text("0 0 0 1.5\n1 0 0 2.5\n")
        cloud = pio.read_xyz(path, feature_dim=1)
        assert cloud.num_points == 2
        np.testing.assert_array_equal(cloud.features, [[1.5], [2.5]])
        np.testing.assert_array_equal(cloud.coords[1], [1.0, 0.0, 0.0])

    def test_token_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0\n")
        with pytest.raises(DomainError) as exc:
            pio.read_xyz(path, feature_dim=0)
        assert exc.value.kind == "token-count-mismatch"
        assert "line 1" in str(exc.value)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0 1.0\n0 0 zero 2.0\n")
        with pytest.raises(DomainError) as exc:
            pio.read_xyz(path, feature_dim=1)
        assert "line 2" in str(exc.value)

    def test_label_column(self, tmp_path):
        path = tmp_path / "lab.xyz"
        path.write_text("0 0 0 0.5 2\n1 1 1 0.25 0\n")
        cloud = pio.read_xyz(path, feature_dim=1, has_label=True)
        np.testing.assert_array_equal(cloud.labels, [2, 0])

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "lab.xyz"
        path.write_text("0 0 0 0.5 -1\n")
        with pytest.raises(DomainError) as exc:
            pio.read_xyz(path, feature_dim=1, has_label=True)
        assert exc.value.kind == "parse-error"

    def test_round_trip_is_identity(self, rng, tmp_path):
        for trial in range(25):
            cloud = random_cloud(rng, feature_dim=int(rng.integers(1, 5)), labeled=True)
            path = tmp_path / f"t{trial}.xyz"
            pio.write_xyz(path, cloud)
            back = pio.read_xyz(path, feature_dim=cloud.feature_dim, has_label=True)
            np.testing.assert_array_equal(back.coords, cloud.coords)
            np.testing.assert_array_equal(back.features, cloud.features)
            np.testing.assert_array_equal(back.labels, cloud.labels)


class TestXyzBlocks:
    """Files longer than one parse block: 3,000 lines against 1,024-line blocks."""

    def test_round_trip_is_bit_identical(self, rng, tmp_path):
        cloud = random_cloud(rng, n_points=3000, feature_dim=2, labeled=True)
        first, second = tmp_path / "a.xyz", tmp_path / "b.xyz"
        pio.write_xyz(first, cloud)
        back = pio.read_xyz(first, feature_dim=2, has_label=True)
        for got, want in ((back.coords, cloud.coords), (back.features, cloud.features),
                          (back.labels, cloud.labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        pio.write_xyz(second, back)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("lineno", [1024, 1025, 2500])
    @pytest.mark.parametrize("line, kind, message", [
        ("0 0 zero 0.5 1", "parse-error", "line {}: non-numeric token"),
        ("0 0 0 0.5", "token-count-mismatch", "line {} has 4 tokens, expected 5"),
        ("0 0 0 0.5 -1", "parse-error", "line {}: label '-1' is outside [0, 2**63)"),
        (f"0 0 0 0.5 {2**63}", "parse-error", f"line {{}}: label '{2**63}' is outside [0, 2**63)"),
    ])
    def test_bad_line_reports_its_absolute_number(self, tmp_path, lineno, line, kind, message):
        lines = ["1 2 3 0.25 4"] * 3000
        lines[lineno - 1] = line
        lines[2900] = "0 0 0 late-error 0"  # only the first bad line is reported
        path = tmp_path / "bad.xyz"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError) as exc:
            pio.read_xyz(path, feature_dim=1, has_label=True)
        assert exc.value.kind == kind
        assert str(exc.value) == f"{kind}: {message.format(lineno)}"


class TestLabelBlocks:
    """Label files longer than one parse block."""

    def test_round_trip_with_blank_lines(self, rng, tmp_path):
        labels = rng.integers(-2**63, 2**63 - 1, size=3000, endpoint=True)
        path = tmp_path / "l.txt"
        pio.write_labels(path, labels)
        lines = path.read_text().splitlines()
        lines[1023:1023] = ["", "  "]  # blank lines straddling a block edge are skipped
        path.write_text("\n".join(lines) + "\n")
        back = pio.read_labels(path)
        assert back.dtype == np.int64 and back.tobytes() == labels.astype(np.int64).tobytes()

    @pytest.mark.parametrize("lineno", [1024, 1025, 2500])
    @pytest.mark.parametrize("line, message", [
        ("zero", "line {}: label 'zero' is not an integer"),
        (f"{2**63}", f"line {{}}: label '{2**63}' is outside [{-2**63}, 2**63)"),
        (f"{-2**63 - 1}", f"line {{}}: label '{-2**63 - 1}' is outside [{-2**63}, 2**63)"),
    ])
    def test_bad_line_reports_its_absolute_number(self, tmp_path, lineno, line, message):
        lines = ["3"] * 3000
        lines[lineno - 1] = line
        lines[2900] = "late-error"  # only the first bad line is reported
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError) as exc:
            pio.read_labels(path)
        assert str(exc.value) == f"parse-error: {message.format(lineno)}"


class TestPly:
    def _ascii_ply(self, body, count):
        return (
            "ply\nformat ascii 1.0\n"
            f"element vertex {count}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n" + body
        )

    def test_single_vertex_rgb_scaling(self, tmp_path):
        path = tmp_path / "one.ply"
        path.write_text(self._ascii_ply("0 0 0 255 0 0\n", 1))
        cloud = pio.read_ply(path)
        np.testing.assert_array_equal(cloud.features, [[1.0, 0.0, 0.0]])

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "be.ply"
        path.write_text(
            "ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(DomainError) as exc:
            pio.read_ply(path)
        assert exc.value.kind == "unsupported-format"

    def test_missing_vertex_element(self, tmp_path):
        path = tmp_path / "novert.ply"
        path.write_text("ply\nformat ascii 1.0\nelement face 0\nend_header\n")
        with pytest.raises(DomainError) as exc:
            pio.read_ply(path)
        assert exc.value.kind == "missing-vertex-element"

    def test_featureless_cloud_rejected(self, tmp_path):
        path = tmp_path / "norgb.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n")
        with pytest.raises(DomainError) as exc:
            pio.read_ply(path)
        assert exc.value.kind == "no-features"

    def test_binary_round_trip_bit_identical(self, rng, tmp_path):
        # start from uchar-exact features so the 255 scaling is lossless
        rgb = rng.integers(0, 256, size=(64, 3))
        cloud = PointCloud(coords=rng.normal(size=(64, 3)), features=rgb / 255.0)
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        pio.write_ply(first, cloud, binary=True)
        back = pio.read_ply(first)
        np.testing.assert_array_equal(back.coords, cloud.coords)
        np.testing.assert_array_equal(back.features, cloud.features)
        pio.write_ply(second, back, binary=True)
        assert first.read_bytes() == second.read_bytes()

    def test_ascii_round_trip(self, rng, tmp_path):
        rgb = rng.integers(0, 256, size=(16, 3))
        cloud = PointCloud(coords=rng.normal(size=(16, 3)), features=rgb / 255.0)
        path = tmp_path / "a.ply"
        pio.write_ply(path, cloud, binary=False)
        back = pio.read_ply(path)
        np.testing.assert_array_equal(back.coords, cloud.coords)
        np.testing.assert_array_equal(back.features, cloud.features)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("header,kind", [
        ("element vertex 1.5\nproperty double x\n", "parse-error"),
        ("element vertex -1\nproperty double x\n", "parse-error"),
        ("element vertex\nproperty double x\n", "parse-error"),
        ("element vertex 1\nproperty half x\n", "unsupported-format"),
        ("element vertex 1\nproperty double x\nproperty double x\n", "parse-error"),
    ])
    def test_malformed_header_rejected_alike_on_both_formats(self, tmp_path, fmt, header, kind):
        path = tmp_path / "bad.ply"
        path.write_bytes((
            f"ply\nformat {fmt} 1.0\n{header}"
            "property double y\nproperty double z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n").encode("ascii") + b"\x00" * 64)
        with pytest.raises(DomainError) as exc:
            pio.read_ply(path)
        assert exc.value.kind == kind

    @pytest.mark.parametrize("binary", [False, True])
    def test_duplicate_property_is_rejected_by_name(self, tmp_path, binary):
        # well-formed data for every declared column: only the repeated name is wrong
        path = tmp_path / "dup.ply"
        header = ("ply\nformat " + ("binary_little_endian" if binary else "ascii") + " 1.0\nelement vertex 1\n"
                  "property double x\nproperty double y\nproperty double z\nproperty double y\n"
                  "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")
        body = np.array([1.0, 2.0, 3.0, 4.0], dtype="<f8").tobytes() + bytes([0, 255, 0]) if binary else b"1 2 3 4 0 255 0\n"
        path.write_bytes(header.encode("ascii") + body)
        with pytest.raises(DomainError) as exc:
            pio.read_ply(path)
        assert exc.value.kind == "parse-error"
        assert "'y'" in str(exc.value)

    @pytest.mark.parametrize("body,kind,where", [
        ("0 0 0 1 2 3\n0 0 0 1 2\n", "token-count-mismatch", "row 1"),
        ("0 0 0 1 2 3 4\n0 0 0 1 2 3\n", "token-count-mismatch", "row 0"),
        ("0 0 0 1 2 3\n0 0 zero 1 2 3\n", "parse-error", "non-numeric"),
    ])
    def test_malformed_ascii_rows_rejected(self, tmp_path, body, kind, where):
        path = tmp_path / "rows.ply"
        path.write_text(self._ascii_ply(body, 2))
        with pytest.raises(DomainError) as exc:
            pio.read_ply(path)
        assert exc.value.kind == kind
        assert where in str(exc.value)

    def test_extra_scalar_properties_skipped(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float intensity\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n1 2 3 0.5 0 255 0\n")
        cloud = pio.read_ply(path)
        np.testing.assert_array_equal(cloud.coords, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(cloud.features, [[0.0, 1.0, 0.0]])


class TestTensorFile:
    def test_round_trip_2x3(self, tmp_path):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "t.pgtn"
        pio.write_tensor(path, arr)
        back = pio.read_tensor(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

    def test_scalar_rank_zero(self, tmp_path):
        path = tmp_path / "s.pgtn"
        pio.write_tensor(path, np.float64(0.25))
        back = pio.read_tensor(path)
        assert back.shape == ()
        assert float(back) == 0.25

    def test_dims_overflow_rejected(self, tmp_path):
        path = tmp_path / "big.pgtn"
        path.write_bytes(b"PGTN1\nf8 2 268435456 16777216\n")
        with pytest.raises(DomainError) as exc:
            pio.read_tensor(path)
        assert exc.value.kind == "dims-overflow"

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "short.pgtn"
        path.write_bytes(b"PGTN1\nf8 1 4\n" + b"\x00" * 16)
        with pytest.raises(DomainError) as exc:
            pio.read_tensor(path)
        assert exc.value.kind == "parse-error"

    @pytest.mark.parametrize("header", [b"f8 x 3", b"f8 1 x", b"f8 1 2.0", b"f8 1 \xff"])
    def test_non_integer_header_is_parse_error(self, tmp_path, header):
        path = tmp_path / "bad.pgtn"
        path.write_bytes(b"PGTN1\n" + header + b"\n" + b"\x00" * 24)
        with pytest.raises(DomainError) as exc:
            pio.read_tensor(path)
        assert exc.value.kind == "parse-error"

    def test_rank_beyond_numpy_limit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgtn"
        path.write_bytes(b"PGTN1\nf8 65" + b" 1" * 65 + b"\n" + b"\x00" * 8)
        with pytest.raises(DomainError) as exc:
            pio.read_tensor(path)
        assert exc.value.kind == "dims-overflow"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pgtn"
        path.write_bytes(b"NOPE!\nf8 0\n" + b"\x00" * 8)
        with pytest.raises(DomainError) as exc:
            pio.read_tensor(path)
        assert exc.value.kind == "unsupported-format"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_round_trips_bit_identical(self, data, tmp_path_factory):
        dims = data.draw(st.lists(st.integers(0, 6), min_size=0, max_size=3))
        dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if np.issubdtype(dtype, np.floating):
            arr = rng.normal(size=dims).astype(dtype)
        else:
            arr = rng.integers(-2**40, 2**40, size=dims).astype(dtype)
        path = tmp_path_factory.mktemp("tensors") / "r.pgtn"
        pio.write_tensor(path, arr)
        back = pio.read_tensor(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_tensor_dir_round_trip(self, rng, tmp_path):
        tensors = {
            "a.weight": rng.normal(size=(3, 4)),
            "b.bias": rng.normal(size=5),
            "count": np.int64(7),
        }
        pio.save_tensor_dir(tmp_path / "ckpt", tensors)
        back = pio.load_tensor_dir(tmp_path / "ckpt")
        assert set(back) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(back[name], tensors[name])

    @pytest.mark.parametrize("manifest, lineno", [
        ("a 2 2 2\nb\n", 2),            # no rank
        ("a x 2 2\nb 1 3\n", 1),        # rank is not an integer
        ("a 7 2 2\nb 1 3\n", 1),        # rank disagrees with the dims listed
        ("a 2 2 2\nb 2 3\n", 2),
        ("a 2 2 2\nb 1 3\na 2 2 2\n", 3),  # a name seen before
    ])
    def test_malformed_manifest_line_is_parse_error(self, tmp_path, manifest, lineno):
        pio.save_tensor_dir(tmp_path, {"a": np.zeros((2, 2)), "b": np.zeros(3)})
        (tmp_path / "manifest.txt").write_text(manifest, encoding="utf-8")
        with pytest.raises(DomainError) as exc:
            pio.load_tensor_dir(tmp_path)
        assert exc.value.kind == "parse-error"
        assert f"manifest line {lineno}:" in str(exc.value)

    @pytest.mark.parametrize("name", ["../outside/secret", "sub/b", "..\\outside\\secret", ".", ".."])
    def test_name_that_is_not_a_plain_file_name_is_parse_error(self, tmp_path, name):
        # every named file exists and holds a (3,) tensor, so only the name is at fault
        root = tmp_path / "dir"
        for target in (tmp_path / "outside" / "secret.pgtn", root / "sub" / "b.pgtn", root / f"{name}.pgtn"):
            target.parent.mkdir(parents=True, exist_ok=True)
            pio.write_tensor(target, np.arange(3.0))
        (root / "manifest.txt").write_text(f"{name} 1 3\n", encoding="utf-8")
        with pytest.raises(DomainError) as exc:
            pio.load_tensor_dir(root)
        assert exc.value.kind == "parse-error"
        assert f"manifest line 1: tensor {name!r} is not a plain file name" in str(exc.value)

    @pytest.mark.parametrize("name", ["../leak", "sub/b", "a\\b", "a b", "", "x\ny", "tab\tname", "nul\0",
                                      ".", ".."])
    def test_save_rejects_a_name_the_loader_refuses_before_writing(self, tmp_path, name):
        # "0ok" sorts before most bad names, so a late check would already have written it
        with pytest.raises(DomainError) as exc:
            pio.save_tensor_dir(tmp_path / "out" / "ck", {"0ok": np.zeros(2), name: np.zeros(3)})
        assert exc.value.kind == "invalid-spec"
        assert f"tensor {name!r} is not a plain file name" in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_save_rejects_an_unstorable_tensor_before_writing(self, tmp_path):
        # "a" sorts first and is storable, so a check at write time would already have written it
        with pytest.raises(DomainError) as exc:
            pio.save_tensor_dir(tmp_path / "t" / "ck", {"a": np.zeros(2), "b": np.array(["x"])})
        assert exc.value.kind == "unsupported-format"
        assert not (tmp_path / "t").exists()

    @settings(max_examples=80, deadline=None)
    @given(names=st.lists(st.text(max_size=12), min_size=1, max_size=4, unique=True))
    def test_every_name_save_accepts_loads_back(self, names, tmp_path_factory):
        root = tmp_path_factory.mktemp("names") / "ck"
        tensors = {name: np.arange(i + 1.0) * 0.1 for i, name in enumerate(names)}
        refused = [n for n in names
                   if n.split() != [n] or n in (".", "..") or any(c in n for c in "/\\\0")]
        if refused:
            with pytest.raises(DomainError) as exc:
                pio.save_tensor_dir(root, tensors)
            assert exc.value.kind == "invalid-spec"
            assert list(root.parent.iterdir()) == []
            return
        pio.save_tensor_dir(root, tensors)
        back = pio.load_tensor_dir(root)
        assert list(back) == sorted(names)
        for name, arr in tensors.items():
            assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes()
