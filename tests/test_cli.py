import ctypes
import hashlib
import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from pgrain import farthest_point_sample
from pgrain import io as pio
from pgrain.cli import main
from pgrain.eval import compute_metrics, density_imbalanced_scene, metrics_csv
from pgrain.norm import sigma_map
from pgrain.pagwn import init_pagwn_params, pagwn_forward_batch

from conftest import GwnWindow
from test_pagwn import random_input


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pgrain.cli", *args],
        capture_output=True, text=True,
    )


def main_stderr(capsys, *args):
    """Run the CLI in process; an escaping exception fails the test."""
    capsys.readouterr()
    code = main(list(args))
    return code, capsys.readouterr().err


@pytest.fixture
def scene_file(tmp_path):
    cloud = density_imbalanced_scene(5, dense_count=96, sparse_count=48)
    path = tmp_path / "scene.xyz"
    pio.write_xyz(path, cloud)
    return path, cloud


class TestSample:
    def test_fps_matches_library_call(self, scene_file, tmp_path):
        path, cloud = scene_file
        out = tmp_path / "sampled.xyz"
        assert main(["sample", str(path), "--has-label", "--method", "fps",
                     "--count", "7", "--seed", "3", "--out", str(out)]) == 0
        expected = farthest_point_sample(cloud, 7, seed=3)
        got = np.loadtxt(out.with_suffix(".xyz.idx"), dtype=np.int64)
        np.testing.assert_array_equal(got, expected)
        back = pio.read_xyz(out, feature_dim=3, has_label=True)
        np.testing.assert_array_equal(back.coords, cloud.coords[expected])

    def test_count_zero_is_domain_error(self, scene_file, tmp_path):
        path, _ = scene_file
        result = run_cli("sample", str(path), "--has-label", "--count", "0",
                         "--out", str(tmp_path / "x.xyz"))
        assert result.returncode == 1
        assert "m-out-of-range" in result.stderr

    def test_missing_required_flag_is_usage_error(self, scene_file):
        path, _ = scene_file
        result = run_cli("sample", str(path))
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_undecodable_bytes_are_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.xyz"
        for blob, extra, line in ((b"\xff\xfe\n", (), 1), (b"\xff\xfe\n", ("--feature-dim", "1"), 1),
                                  (b"0 0 0 1\n0 0 0 \xff\n", (), 2)):
            path.write_bytes(blob)
            code, err = main_stderr(capsys, "sample", str(path), "--count", "1",
                                    "--out", str(tmp_path / "o.xyz"), *extra)
            assert code == 1
            assert err.startswith(f"pgrain: parse-error: line {line} "), err

    def test_feature_dim_inferred_past_a_blank_first_line(self, tmp_path):
        # read_xyz skips a blank first line, so the inference must too
        path = tmp_path / "blank.xyz"
        path.write_text("\n0 0 0 1 2 3\n1 0 0 4 5 6\n0 2 0 7 8 9\n", encoding="utf-8")
        out = tmp_path / "o.xyz"
        assert main(["sample", str(path), "--count", "2", "--out", str(out)]) == 0
        cloud = pio.read_xyz(path, feature_dim=3)
        picked = np.loadtxt(out.with_suffix(".xyz.idx"), dtype=np.int64)
        np.testing.assert_array_equal(pio.read_xyz(out, feature_dim=3).features, cloud.features[picked])

    def test_single_point_output(self, scene_file, tmp_path):
        path, _ = scene_file
        out = tmp_path / "one.xyz"
        assert main(["sample", str(path), "--has-label", "--method", "fps",
                     "--count", "1", "--seed", "7", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1


class TestSigmaMap:
    def test_matches_library(self, scene_file, tmp_path, capsys):
        path, cloud = scene_file
        out = tmp_path / "flagged.xyz"
        assert main(["sigma-map", str(path), "--has-label", "--k", "12",
                     "--threshold", "0.2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        flagged = sigma_map(cloud, k=12, threshold=0.2)
        assert str(flagged.size) in printed
        back = pio.read_xyz(out, feature_dim=3, has_label=True)
        np.testing.assert_array_equal(back.coords, cloud.coords[flagged])

    def test_threshold_zero_flags_everything(self, scene_file, tmp_path, capsys):
        path, cloud = scene_file
        out = tmp_path / "flagged.xyz"
        assert main(["sigma-map", str(path), "--has-label", "--k", "8",
                     "--threshold", "0", "--out", str(out)]) == 0
        assert f"{cloud.num_points} points" in capsys.readouterr().out

    def test_nan_threshold_is_invalid_spec_before_any_neighbor_search(self, scene_file, tmp_path, capsys,
                                                                      monkeypatch):
        def no_search(*args):
            raise AssertionError("sigma-map searched neighbors for a NaN threshold")

        monkeypatch.setattr("pgrain.norm.build_index", no_search)
        out = tmp_path / "flagged.xyz"
        code, err = main_stderr(capsys, "sigma-map", str(scene_file[0]), "--has-label", "--k", "4",
                                "--threshold", "nan", "--out", str(out))
        assert code == 1
        assert err.startswith("pgrain: invalid-spec: ") and "Traceback" not in err
        assert not out.exists()


class TestNormalize:
    def test_matches_library_plain_and_grouped(self, rng, tmp_path):
        center = rng.normal(size=4)
        neighbors = rng.normal(size=(6, 4))
        pio.write_tensor(tmp_path / "c.pgtn", center)
        pio.write_tensor(tmp_path / "n.pgtn", neighbors)
        out = tmp_path / "out.pgtn"
        window = GwnWindow(center_feature=center, neighbor_features=neighbors)

        assert main(["normalize", "--center", str(tmp_path / "c.pgtn"),
                     "--neighbors", str(tmp_path / "n.pgtn"), "--out", str(out)]) == 0
        np.testing.assert_array_equal(pio.read_tensor(out), window.normalize()[0])

        assert main(["normalize", "--center", str(tmp_path / "c.pgtn"),
                     "--neighbors", str(tmp_path / "n.pgtn"), "--m", "2", "--out", str(out)]) == 0
        np.testing.assert_array_equal(pio.read_tensor(out), window.normalize(m=2)[0])

    # label: (center, neighbors, extra flags, kind); the first failing check names the kind
    REJECTED = {
        "center d != neighbors d": (np.zeros(3), np.ones((4, 2)), (), "shape-mismatch"),
        "1-d neighbors": (np.zeros(4), np.ones(4), (), "shape-mismatch"),
        "3-d neighbors": (np.zeros(4), np.ones((2, 3, 4)), (), "shape-mismatch"),
        "K = 0": (np.zeros(3), np.ones((0, 3)), (), "degenerate-window"),
        "d = 0": (np.zeros(0), np.ones((4, 0)), (), "degenerate-window"),
        "one entry": (np.zeros(1), np.ones((1, 1)), (), "degenerate-window"),
        "NaN entry": (np.zeros(2), np.array([[1.0, 2.0], [np.nan, 0.0]]), (), "non-finite-value"),
        "sigma overflows": (np.zeros(2), np.full((3, 2), 1e200), (), "non-finite-value"),
        "epsilon 0": (np.zeros(2), np.ones((3, 2)), ("--epsilon", "0"), "invalid-spec"),
        "epsilon nan": (np.zeros(2), np.ones((3, 2)), ("--epsilon", "nan"), "invalid-spec"),
        "epsilon inf": (np.zeros(2), np.ones((3, 2)), ("--epsilon", "inf"), "invalid-spec"),
        "m = 0": (np.zeros(2), np.ones((4, 2)), ("--m", "0"), "bad-split"),
        "m = K": (np.zeros(2), np.ones((4, 2)), ("--m", "4"), "bad-split"),
        "m = 1 with K = 1": (np.zeros(2), np.ones((1, 2)), ("--m", "1"), "bad-split"),
        "one-entry group": (np.zeros(1), np.array([[1.0], [2.0], [3.0]]), ("--m", "1"), "degenerate-group"),
        "NaN entry and epsilon 0": (np.zeros(2), np.array([[np.nan, 1.0], [1.0, 1.0]]), ("--epsilon", "0"),
                                    "non-finite-value"),
    }

    @pytest.mark.parametrize("label", [
        pytest.param(label, marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
                     if label == "sigma overflows" else ())
        for label in REJECTED])
    def test_malformed_window_rejected(self, label, tmp_path, capsys):
        center, neighbors, extra, kind = self.REJECTED[label]
        pio.write_tensor(tmp_path / "c.pgtn", center)
        pio.write_tensor(tmp_path / "n.pgtn", neighbors)
        out = tmp_path / "out.pgtn"
        code, err = main_stderr(capsys, "normalize", "--center", str(tmp_path / "c.pgtn"),
                                "--neighbors", str(tmp_path / "n.pgtn"), *extra, "--out", str(out))
        assert code == 1, label
        assert err.startswith(f"pgrain: {kind}: "), (label, err)
        assert "Traceback" not in err, label
        assert not out.exists(), label

    def test_matrix_center_is_shape_mismatch(self, tmp_path, capsys):
        # (2, 3) holds as many entries as a (6,) center; it is still no vector
        pio.write_tensor(tmp_path / "c.pgtn", np.zeros((2, 3)))
        pio.write_tensor(tmp_path / "n.pgtn", np.ones((4, 6)))
        out = tmp_path / "out.pgtn"
        code, err = main_stderr(capsys, "normalize", "--center", str(tmp_path / "c.pgtn"),
                                "--neighbors", str(tmp_path / "n.pgtn"), "--out", str(out))
        assert code == 1
        assert err.startswith("pgrain: shape-mismatch: "), err
        assert not out.exists()


class TestPagwnForward:
    def test_serialized_round_trip_equals_in_process(self, rng, tmp_path):
        n, k = 4, 6
        inp = random_input(rng, n, k)
        params = init_pagwn_params(n, seed=5)
        pio.save_tensor_dir(tmp_path / "inp", inp._asdict())
        pio.save_tensor_dir(tmp_path / "par", params)
        out = tmp_path / "agg.pgtn"
        assert main(["pagwn-forward", "--input", str(tmp_path / "inp"),
                     "--params", str(tmp_path / "par"), "--m", "3", "--out", str(out)]) == 0
        expected = pagwn_forward_batch(*inp.batch(), params, m=3, mode="inference").aggregated[0]
        np.testing.assert_array_equal(pio.read_tensor(out), expected)

    def test_split_below_one_rejected_on_one_neighbor_window(self, rng, tmp_path):
        pio.save_tensor_dir(tmp_path / "inp", random_input(rng, 3, 1)._asdict())
        pio.save_tensor_dir(tmp_path / "par", init_pagwn_params(3, seed=5))
        result = run_cli("pagwn-forward", "--input", str(tmp_path / "inp"), "--params",
                         str(tmp_path / "par"), "--m", "0", "--out", str(tmp_path / "agg.pgtn"))
        assert result.returncode == 1
        assert result.stderr.startswith("pgrain: bad-split: ")
        assert "Traceback" not in result.stderr


class TestPagwnForwardRejects:
    """Tensor directories that are missing a tensor, hold a vector where a
    scalar belongs, a wrong shape or a non-finite value, or carry a
    malformed manifest line."""

    def _dirs(self, rng):
        # a valid window and parameter set; each test breaks one of them
        return random_input(rng, 3, 4)._asdict(), init_pagwn_params(3, seed=5)

    def _assert_rejected(self, capsys, tmp_path, inp, params, kind, name):
        pio.save_tensor_dir(tmp_path / "inp", inp)
        if params is not None:
            pio.save_tensor_dir(tmp_path / "par", params)
        code, err = main_stderr(capsys, "pagwn-forward", "--input", str(tmp_path / "inp"), "--params",
                                str(tmp_path / "par"), "--out", str(tmp_path / "agg.pgtn"))
        assert code == 1
        assert err.startswith(f"pgrain: {kind}: "), err
        assert name in err
        assert not (tmp_path / "agg.pgtn").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sigma_is_non_finite_value(self, rng, tmp_path, capsys):
        # finite entries whose group sigma overflows would aggregate to all zeros
        inp, params = self._dirs(rng)
        inp["neighbor_features"] = np.full((4, 3), 1e200)
        self._assert_rejected(capsys, tmp_path, inp, params, "non-finite-value", "sigma")

    def test_missing_bn_eps_is_parse_error(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        del params["lb1_bn.eps"]
        self._assert_rejected(capsys, tmp_path, inp, params, "parse-error", "lb1_bn.eps")

    def test_negative_bn_eps_is_invalid_spec(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        params["lb1_bn.eps"] = np.float64(-0.5)
        self._assert_rejected(capsys, tmp_path, inp, params, "invalid-spec", "eps")

    def test_missing_center_coord_is_parse_error(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        del inp["center_coord"]
        self._assert_rejected(capsys, tmp_path, inp, params, "parse-error", "center_coord")

    def test_vector_momentum_is_shape_mismatch(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        params["lb1_bn.momentum"] = np.array([0.1, 0.1])
        self._assert_rejected(capsys, tmp_path, inp, params, "shape-mismatch", "lb1_bn.momentum")

    @pytest.mark.parametrize("name", ["lb2_weight", "lb1_bn.gamma", "lb2_bn.running_mean"])
    def test_nan_in_params_is_non_finite_value(self, rng, tmp_path, capsys, name):
        inp, params = self._dirs(rng)
        params[name].flat[-1] = np.nan
        self._assert_rejected(capsys, tmp_path, inp, params, "non-finite-value", name)

    def test_negative_running_var_is_non_finite_value(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        params["lb1_bn.running_var"] = np.array([1.0, -1.0, 1.0])
        self._assert_rejected(capsys, tmp_path, inp, params, "non-finite-value", "lb1_bn.running_var")

    def test_short_lb1_weight_is_shape_mismatch(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        params["lb1_weight"] = np.zeros((5, 3))  # (n+2, n); the block needs (n+3, n)
        self._assert_rejected(capsys, tmp_path, inp, params, "shape-mismatch", "lb1_weight")

    def test_f4_params_give_the_output_of_their_f8_values(self, rng, tmp_path):
        inp, params = self._dirs(rng)
        pio.save_tensor_dir(tmp_path / "inp", inp)
        outputs = []
        for dtype in (np.float32, np.float64):
            # the same values, stored as f4 and as f8
            pio.save_tensor_dir(tmp_path / dtype.__name__,
                                {name: value.astype(np.float32).astype(dtype) for name, value in params.items()})
            out = tmp_path / f"{dtype.__name__}.pgtn"
            assert main(["pagwn-forward", "--input", str(tmp_path / "inp"), "--params",
                         str(tmp_path / dtype.__name__), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert (tmp_path / "float32" / "lb1_weight.pgtn").read_bytes().startswith(pio.TENSOR_MAGIC + b"f4 ")
        assert outputs[0] == outputs[1]

    def test_malformed_manifest_line_is_parse_error(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        pio.save_tensor_dir(tmp_path / "par", params)
        manifest = tmp_path / "par" / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines = ["lb1_bias 1 x" if line.startswith("lb1_bias ") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._assert_rejected(capsys, tmp_path, inp, None, "parse-error", "lb1_bias")

    @pytest.mark.parametrize("name", ["center_coord", "center_feature", "neighbor_coords", "neighbor_features"])
    def test_nan_in_window_is_non_finite_value(self, rng, tmp_path, capsys, name):
        inp, params = self._dirs(rng)
        inp[name].flat[-1] = np.nan
        self._assert_rejected(capsys, tmp_path, inp, params, "non-finite-value", name)

    def test_window_without_neighbors_is_degenerate(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        inp["neighbor_coords"], inp["neighbor_features"] = np.zeros((0, 3)), np.zeros((0, 3))
        self._assert_rejected(capsys, tmp_path, inp, params, "degenerate-window", "neighbor")

    def test_matrix_center_feature_is_shape_mismatch(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        inp["center_feature"] = inp["center_feature"][None]  # (1, n): the right entries, the wrong rank
        self._assert_rejected(capsys, tmp_path, inp, params, "shape-mismatch", "center_feature")

    def test_four_channel_neighbor_coords_are_shape_mismatch(self, rng, tmp_path, capsys):
        inp, params = self._dirs(rng)
        inp["neighbor_coords"] = rng.normal(size=(4, 4))
        self._assert_rejected(capsys, tmp_path, inp, params, "shape-mismatch", "coordinate")


class TestEval:
    def test_undecodable_label_file_is_parse_error(self, tmp_path, capsys):
        (tmp_path / "pred.txt").write_bytes(b"1\n\xff\n")
        (tmp_path / "truth.txt").write_text("1\n0\n", encoding="utf-8")
        code, err = main_stderr(capsys, "eval", "--pred", str(tmp_path / "pred.txt"), "--truth",
                                str(tmp_path / "truth.txt"), "--classes", "2", "--out", str(tmp_path / "r.csv"))
        assert code == 1
        assert err.startswith("pgrain: parse-error: line 2 ")

    def test_matches_compute_metrics(self, rng, tmp_path):
        pred = rng.integers(0, 3, size=50)
        truth = rng.integers(0, 3, size=50)
        pio.write_labels(tmp_path / "pred.txt", pred)
        pio.write_labels(tmp_path / "truth.txt", truth)
        out = tmp_path / "report.csv"
        assert main(["eval", "--pred", str(tmp_path / "pred.txt"),
                     "--truth", str(tmp_path / "truth.txt"),
                     "--classes", "3", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == metrics_csv(compute_metrics(pred, truth, 3))

    def test_many_classes_score_in_memory_linear_in_the_class_count(self, tmp_path):
        # a C x C confusion matrix at C = 100,000 would need 74.5 GiB
        for name in ("pred.txt", "truth.txt"):
            (tmp_path / name).write_text("0\n1\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["eval", "--pred", str(tmp_path / "pred.txt"), "--truth", str(tmp_path / "truth.txt"),
                     "--classes", "100000", "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 100_004


def toy_config(tmp_path, **kw):
    """A tiny train-toy JSON config; keyword arguments override its keys."""
    config = {
        "stages": [{"m_points": 32, "k": 8, "split": 3}],
        "num_classes": 2, "head_hidden": [8], "epochs": 3,
        "learning_rate": 0.1, "batch_size": 2, "seed": 1,
        "aggregator": "pagwn",
        "scenes": {"kind": "density_imbalanced", "train": 2, "test": 1, "base_seed": 0},
    }
    config.update(kw)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestTrainToy:
    def test_neither_scipy_nor_numpy_ma_is_imported(self, tmp_path):
        # each costs set-up time and resident memory that the benchmark bounds
        config, out = toy_config(tmp_path, epochs=1), tmp_path / "metrics.csv"
        script = (
            "import sys\n"
            "import pgrain.cli\n"
            f"assert pgrain.cli.main(['train-toy', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
            "print(sorted(name for name in ('scipy', 'numpy.ma') if name in sys.modules))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_train_writes_metrics_and_checkpoint(self, tmp_path):
        config = toy_config(tmp_path)
        out = tmp_path / "metrics.csv"
        ckpt = tmp_path / "ckpt"
        assert main(["train-toy", "--config", str(config), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "class,iou,acc"
        assert (ckpt / "manifest.txt").exists()
        tensors = pio.load_tensor_dir(ckpt)
        assert "stage0.lb1_weight" in tensors
        assert "head.layer0.weight" in tensors

    def test_unknown_config_key_rejected(self, tmp_path):
        stage = {"m_points": 32, "k": 8, "split": 3}
        scenes = {"kind": "density_imbalanced", "train": 2, "test": 1, "base_seed": 0}
        malformed = {
            "unknown key": dict(optimizer="adam"),
            "unknown stage key": dict(stages=[dict(stage, stride=2)]),
            "missing stage key": dict(stages=[{"m_points": 32}]),
            "non-integer stage field": dict(stages=[dict(stage, k="8")]),
            "non-numeric bq_radius": dict(aggregator="bq_baseline", bq_radius="wide"),
            "non-numeric num_classes": dict(num_classes="two"),
            "non-integer layer size": dict(head_hidden=["8"]),
            "non-numeric scene count": dict(scenes=dict(scenes, train="two")),
            "unhashable scene kind": dict(scenes=dict(scenes, kind=["a"])),
            "negative scene count": dict(scenes=dict(scenes, train=-3)),
            "zero test scenes": dict(scenes=dict(scenes, test=0)),
            "fractional scene count": dict(scenes=dict(scenes, train=2.5)),
            "negative base seed": dict(scenes=dict(scenes, base_seed=-1)),
            "unknown scenes key": dict(scenes=dict(scenes, bas_seed=4)),
            "fractional epochs": dict(epochs=1.9),
            "string num_classes": dict(num_classes="2"),
        }
        texts = {
            "top-level array": "[1, 2]",
            "invalid JSON": '{"stages": [',
            "missing scenes": json.dumps({"stages": [stage], "num_classes": 2}),
        }
        cases = {}
        for label in [*malformed, *texts]:
            folder = tmp_path / label.replace(" ", "_")
            folder.mkdir()
            if label in malformed:
                cases[label] = toy_config(folder, **malformed[label])
            else:
                cases[label] = folder / "toy.json"
                cases[label].write_text(texts[label], encoding="utf-8")
        for label, config in cases.items():
            result = run_cli("train-toy", "--config", str(config),
                             "--out", str(tmp_path / "m.csv"))
            assert result.returncode == 1, label
            assert result.stderr.startswith("pgrain: invalid-spec: "), (label, result.stderr)
            assert "Traceback" not in result.stderr, label

    @pytest.mark.parametrize("head_hidden", [{}, "ab", 8], ids=["object", "string", "number"])
    def test_head_hidden_that_is_not_an_array_is_rejected(self, tmp_path, capsys, head_hidden):
        # as a tuple, {} would be a head with no hidden layer and "ab" the layer sizes ('a', 'b')
        config = toy_config(tmp_path, head_hidden=head_hidden)
        code, err = main_stderr(capsys, "train-toy", "--config", str(config), "--out", str(tmp_path / "m.csv"))
        assert code == 1
        assert err.startswith("pgrain: invalid-spec: head_hidden must be a list"), err
        assert not (tmp_path / "m.csv").exists()

    def test_infinite_epsilon_rejected(self, tmp_path, capsys):
        config = toy_config(tmp_path, epsilon=float("inf"))  # json writes Infinity
        assert "Infinity" in config.read_text(encoding="utf-8")
        code, err = main_stderr(capsys, "train-toy", "--config", str(config),
                                "--out", str(tmp_path / "m.csv"))
        assert code == 1
        assert err.startswith("pgrain: invalid-spec: "), err
        assert not (tmp_path / "m.csv").exists()

    def test_ablate_non_integer_m_rejected(self, tmp_path):
        result = run_cli("ablate-m", "--config", str(toy_config(tmp_path)), "--m", "1,x",
                         "--out", str(tmp_path / "ablation.csv"))
        assert result.returncode == 1
        assert result.stderr.startswith("pgrain: invalid-spec: ")
        assert "Traceback" not in result.stderr

    def test_ablate_empty_m_list_rejected(self, tmp_path, capsys):
        config = toy_config(tmp_path)
        for m_list in ("", ","):
            code, err = main_stderr(capsys, "ablate-m", "--config", str(config), "--m", m_list,
                                    "--out", str(tmp_path / "ablation.csv"))
            assert code == 1
            assert err.startswith("pgrain: invalid-spec: "), err
            assert not (tmp_path / "ablation.csv").exists()

    def test_ablate_emits_one_row_per_m(self, tmp_path):
        config = toy_config(tmp_path)
        out = tmp_path / "ablation.csv"
        assert main(["ablate-m", "--config", str(config), "--m", "1,2,3,4",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,miou,macc,oa"
        assert len(lines) == 5


def _no_process_handle(name):
    raise OSError("no process handle")


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set through glibc's mallopt")
    @pytest.mark.parametrize("aggregator", ["pagwn", "bq_baseline"])
    def test_second_training_op_reuses_the_freed_heap(self, tmp_path, aggregator):
        # the criterion-8 run for 2 epochs; under glibc's default thresholds each
        # scene faulted its freed temporaries in again, 3,900-8,200 faults per op
        config = toy_config(
            tmp_path, stages=[{"m_points": 256, "k": 16, "split": 3}], head_hidden=[16], epochs=2,
            learning_rate=0.05, batch_size=4, seed=0, aggregator=aggregator,
            scenes={"kind": "density_imbalanced", "train": 14, "test": 6, "base_seed": 0},
            **({"bq_radius": 0.15} if aggregator == "bq_baseline" else {}))
        script = (
            "import contextlib, io, resource, sys\n"
            "import pgrain.cli\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert pgrain.cli.main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        result = subprocess.run([sys.executable, "-c", script, "train-toy", "--config", str(config),
                                 "--out", str(tmp_path / "metrics.csv")], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.splitlines()[-1]) < 1000

    @pytest.mark.parametrize("cdll", [_no_process_handle, lambda name: object()], ids=["no handle", "no mallopt"])
    def test_main_runs_where_mallopt_cannot_be_found(self, monkeypatch, scene_file, tmp_path, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        path, _ = scene_file
        out = tmp_path / "sampled.xyz"
        assert main(["sample", str(path), "--has-label", "--count", "5", "--out", str(out)]) == 0
        assert len(pio.read_xyz(out, feature_dim=3, has_label=True).coords) == 5


class TestDeterminism:
    def test_sample_is_byte_identical_across_runs(self, scene_file, tmp_path):
        path, _ = scene_file
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.xyz"
            result = run_cli("sample", str(path), "--has-label", "--method", "random",
                             "--count", "9", "--seed", "11", "--out", str(out))
            assert result.returncode == 0
            outs.append(out.read_bytes() + (out.parent / (out.name + ".idx")).read_bytes())
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Byte identity: sha256 of stdout plus every output file, pinned per command
# ---------------------------------------------------------------------------

_TWO_STAGES = [{"m_points": 32, "k": 8, "split": 3}, {"m_points": 8, "k": 4, "split": 2}]


def _train_case(tmp_path, **kw):
    config = toy_config(tmp_path, stages=_TWO_STAGES, **kw)
    out, ckpt = tmp_path / "metrics.csv", tmp_path / "ckpt"
    return ["train-toy", "--config", str(config), "--out", str(out),
            "--checkpoint", str(ckpt)], [out, ckpt]


def _normalize_case(tmp_path, *extra):
    rng = np.random.default_rng(4242)
    pio.write_tensor(tmp_path / "c.pgtn", rng.normal(size=4))
    pio.write_tensor(tmp_path / "n.pgtn", rng.normal(size=(7, 4)))
    out = tmp_path / "out.pgtn"
    return ["normalize", "--center", str(tmp_path / "c.pgtn"),
            "--neighbors", str(tmp_path / "n.pgtn"), *extra, "--out", str(out)], [out]


def _pagwn_case(tmp_path, k, *extra):
    rng = np.random.default_rng(4243)
    pio.save_tensor_dir(tmp_path / "inp", random_input(rng, 4, k)._asdict())
    pio.save_tensor_dir(tmp_path / "par", init_pagwn_params(4, seed=5))
    out = tmp_path / "agg.pgtn"
    return ["pagwn-forward", "--input", str(tmp_path / "inp"), "--params", str(tmp_path / "par"),
            *extra, "--out", str(out)], [out]


def _sigma_case(tmp_path):
    scene = tmp_path / "scene.xyz"
    pio.write_xyz(scene, density_imbalanced_scene(9))
    out = tmp_path / "flagged.xyz"
    return ["sigma-map", str(scene), "--has-label", "--k", "8", "--threshold", "0.3",
            "--out", str(out)], [out]


# Recorded before the GWN kernel, the aggregator table and the sigma_map
# chunk loop were collapsed; any change to these bytes is a behaviour change.
BYTE_CASES = {
    "train_pagwn": (_train_case,
        "b25089a806ab48fd29f44a1627be1c8cac70b2bed241ab1a0b6d262eedfa35c3"),
    "train_knn": (lambda tmp: _train_case(tmp, aggregator="knn_baseline"),
        "d8cfca2bc3f979b091588a2e955aeacf50add2c1a8258a78c9cf52a73a0eb409"),
    "train_bq": (lambda tmp: _train_case(tmp, aggregator="bq_baseline", bq_radius=0.15),
        "74369773897f3a4d3a76bbee053d98f28db1dcea598a5d20b2aa6f75cffc6398"),
    "normalize_plain": (_normalize_case,
        "22b606d1862ee1db769e1b75a9939de957cc35fcf61305499e4d3b129bc9d92e"),
    "normalize_grouped": (lambda tmp: _normalize_case(tmp, "--m", "2"),
        "988899d59b4c34f4135fe998b2da9d82a9edc1640dea177a12ed9e1e560b5028"),
    "pagwn_forward": (lambda tmp: _pagwn_case(tmp, 6, "--m", "3"),
        "82932bfdf60f69e42d5fb48d1d38cea99dd2afce2d63cd7ae2a7af16e47bc9d2"),
    "pagwn_forward_k1": (lambda tmp: _pagwn_case(tmp, 1),
        "95f89105b62cef5ecc015fc9b44f3d909434a476dd80aedfae1cd90b0fafef5c"),
    "pagwn_forward_training": (lambda tmp: _pagwn_case(tmp, 6, "--mode", "training"),
        "339559429274fed40153045d0ce49ac1321c550aafddcbc15917a422d7cf309f"),
    "sigma_map": (_sigma_case,
        "3db14d0c6605ffc4b0fd402241d0a080b9d5155b9ac81763baa831cc7f38ba90"),
}


def _output_digest(stdout, root, paths):
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(b"\0" + f.relative_to(root).as_posix().encode("utf-8") + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_outputs_are_byte_identical_to_recorded(case, tmp_path, capsys):
    build, expected = BYTE_CASES[case]
    argv, outputs = build(tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    assert _output_digest(capsys.readouterr().out.replace(str(tmp_path), "<tmp>"),
                          tmp_path, outputs) == expected
