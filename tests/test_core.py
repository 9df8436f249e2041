import copy
import pickle

import numpy as np
import pytest

from pgrain import (
    DomainError,
    PointCloud,
    init_mlp_params,
    init_pagwn_params,
)
from pgrain.pagwn import aggregate_precomputed, check_pagwn_tensors

from conftest import random_cloud


class TestDomainError:
    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_survives_pickle_and_copy(self, clone):
        error = DomainError("divergence", "loss: nan at epoch 3")
        error.add_note("scene 7")
        got = clone(error)
        assert type(got) is DomainError and got is not error
        assert got.kind == "divergence" and str(got) == "divergence: loss: nan at epoch 3"
        assert got.args == error.args and got.__notes__ == ["scene 7"]

class TestPointCloud:
    def test_empty_cloud_rejected(self):
        with pytest.raises(DomainError) as exc:
            PointCloud(coords=np.zeros((0, 3)), features=np.zeros((0, 1)))
        assert exc.value.kind == "empty-cloud"

    def test_ragged_features_name_offending_index(self):
        with pytest.raises(DomainError) as exc:
            PointCloud(coords=np.zeros((2, 3)), features=[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
        assert exc.value.kind == "dimension-mismatch"
        assert "row 1" in str(exc.value)

    def test_well_formed_cloud_passes(self, rng):
        cloud = random_cloud(rng, n_points=100)
        # read-only arrays: the invariants checked at construction hold for the cloud's lifetime
        assert not (cloud.coords.flags.writeable or cloud.features.flags.writeable)
        assert cloud.num_points == 100
        assert cloud.feature_dim == 3

    def test_non_finite_names_row(self):
        coords = np.zeros((3, 3))
        coords[2, 1] = np.nan
        with pytest.raises(DomainError) as exc:
            PointCloud(coords=coords, features=np.ones((3, 1)))
        assert exc.value.kind == "non-finite-value"
        assert "row 2" in str(exc.value)

    def test_label_length_mismatch(self):
        with pytest.raises(DomainError) as exc:
            PointCloud(coords=np.zeros((2, 3)), features=np.ones((2, 1)), labels=np.array([0]))
        assert exc.value.kind == "dimension-mismatch"

    def test_negative_label_rejected(self):
        with pytest.raises(DomainError) as exc:
            PointCloud(coords=np.zeros((2, 3)), features=np.ones((2, 1)), labels=np.array([0, -1]))
        assert exc.value.kind == "label-out-of-range"

    def test_zero_feature_dim_rejected(self):
        with pytest.raises(DomainError) as exc:
            PointCloud(coords=np.zeros((2, 3)), features=np.ones((2, 0)))
        assert exc.value.kind == "no-features"

    def test_arrays_are_immutable(self, rng):
        cloud = random_cloud(rng, n_points=4)
        with pytest.raises(ValueError):
            cloud.coords[0, 0] = 99.0


def _rejected(tensors):
    with pytest.raises(DomainError) as exc:
        check_pagwn_tensors(tensors)
    return exc.value


class TestBatchNormTensors:
    """Batch-norm tensors as the inits make them and as ``check_pagwn_tensors`` accepts them."""

    def test_initial_is_identity_stats(self):
        params = init_pagwn_params(4, seed=0)
        assert np.array_equal(params["lb1_bn.gamma"], np.ones(4))
        assert np.array_equal(params["lb1_bn.running_var"], np.ones(4))
        assert np.array_equal(params["lb2_bn.running_mean"], np.zeros(8))
        for prefix in ("lb1_bn.", "lb2_bn."):
            assert type(params[prefix + "momentum"]) is np.float64 and params[prefix + "momentum"] == 0.1
            assert type(params[prefix + "eps"]) is np.float64 and params[prefix + "eps"] == 1e-5
        mlp = init_mlp_params((3, 5, 2), seed=0)
        assert type(mlp["num_layers"]) is np.int64 and mlp["num_layers"] == 2
        assert np.array_equal(mlp["layer1.bn.gamma"], np.ones(2)) and mlp["layer1.bn.eps"] == 1e-5

    def test_momentum_bounds(self):
        for momentum in (0.0, 1.0):
            err = _rejected({**init_pagwn_params(2, seed=0), "lb2_bn.momentum": np.float64(momentum)})
            assert err.kind == "invalid-spec" and "lb2_bn.momentum" in str(err)

    def test_eps_must_be_finite_and_nonnegative(self):
        for eps in (-0.5, np.nan, np.inf):
            err = _rejected({**init_pagwn_params(2, seed=0), "lb1_bn.eps": np.float64(eps)})
            assert err.kind == "invalid-spec" and "lb1_bn.eps" in str(err)
        assert check_pagwn_tensors({**init_pagwn_params(2, seed=0), "lb1_bn.eps": np.float64(0.0)})["lb1_bn.eps"] == 0.0

    def test_negative_running_var_rejected(self):
        err = _rejected({**init_pagwn_params(2, seed=0), "lb1_bn.running_var": np.array([1.0, -0.5])})
        assert err.kind == "non-finite-value" and "lb1_bn.running_var" in str(err)

    def test_training_forward_reports_batch_statistics_and_keeps_the_state(self):
        # the training loop folds these into the checkpoint; the forward never changes a tensor
        mlp = {**init_mlp_params((2, 2), seed=0), "layer0.weight": np.eye(2)}
        before = {name: np.copy(value) for name, value in mlp.items()}
        rows = np.array([[-1.0, -1.0], [3.0, 5.0]])
        out = aggregate_precomputed(rows, np.array([[0, 1]]), mlp)
        mean, var = out.batch_stats["layer0.bn."]
        assert np.array_equal(mean, [1.0, 2.0]) and np.array_equal(var, [4.0, 9.0])
        assert all(np.array_equal(mlp[name], value) for name, value in before.items())
        assert np.array_equal(mlp["layer0.bn.running_mean"], np.zeros(2))


class TestPagwnTensors:
    """``check_pagwn_tensors``, the one check of a block's tensors from outside."""

    def test_dimension_contract_enforced(self):
        n = 4
        err = _rejected({**init_pagwn_params(n, seed=0), "lb1_weight": np.zeros((n + 2, n))})  # must be n+3 rows
        assert err.kind == "shape-mismatch" and "lb1_weight" in str(err)
        # no block has zero feature channels, as init_pagwn_params refuses n = 0
        err = _rejected({**init_pagwn_params(1, seed=0), "lb1_weight": np.zeros((3, 0))})
        assert err.kind == "shape-mismatch" and "n >= 1" in str(err)

    @pytest.mark.parametrize("name, shape", [("lb1_bias", (5,)), ("lb2_weight", (8, 4)), ("lb2_bias", (4,)),
                                             ("lb1_bn.beta", (8,)), ("lb2_bn.running_mean", (4,)),
                                             ("lb2_bn.eps", (1,))], ids=lambda value: str(value))
    def test_every_tensor_shape_is_checked(self, name, shape):
        err = _rejected({**init_pagwn_params(4, seed=0), name: np.ones(shape)})
        assert err.kind == "shape-mismatch" and name in str(err)

    def test_missing_tensor_is_parse_error(self):
        params = init_pagwn_params(3, seed=0)
        del params["lb2_bn.beta"]
        err = _rejected(params)
        assert err.kind == "parse-error" and "lb2_bn.beta" in str(err)

    @pytest.mark.parametrize("changes, missing, message", [
        # a wrong shape before a missing tensor, and a missing tensor before a wrong shape
        ({"lb1_bias": np.ones(5)}, "lb2_bn.beta",
         "shape-mismatch: tensor 'lb1_bias' must have shape (4,), got (5,)"),
        ({"lb2_bias": np.ones(5)}, "lb1_bn.gamma", "parse-error: tensor 'lb1_bn.gamma' is missing"),
        # the first tensor in init order with either value defect is named
        ({"lb1_bias": np.array([0.0, np.nan, 0.0, 0.0]), "lb2_bn.running_var": -np.ones(8)}, None,
         "non-finite-value: lb1_bias contains a non-finite entry"),
        ({"lb1_bn.running_var": np.array([1.0, -1e-300, 1.0, 1.0]), "lb2_weight": np.full((8, 8), np.inf)}, None,
         "non-finite-value: lb1_bn.running_var entries must be >= 0"),
        ({"lb1_bn.running_var": np.array([1.0, np.nan, 1.0, 1.0])}, None,
         "non-finite-value: lb1_bn.running_var contains a non-finite entry"),
        # momentum and eps come before any value check
        ({"lb2_bn.momentum": np.float64(1.0), "lb1_weight": np.full((7, 4), np.nan)}, None,
         "invalid-spec: lb2_bn.momentum must be in (0, 1), got 1.0"),
    ], ids=["shape-then-missing", "missing-then-shape", "nan-then-negative-var", "negative-var-then-inf",
            "nan-var", "momentum-then-nan"])
    def test_first_defect_is_reported(self, changes, missing, message):
        tensors = {**init_pagwn_params(4, seed=0), **changes}
        if missing is not None:
            del tensors[missing]
        err = _rejected(tensors)
        assert (err.kind, str(err)) == (message.split(":")[0], message)

    def test_f4_and_i8_tensors_read_as_float64(self):
        params = init_pagwn_params(5, seed=0)
        sent = {name: value.astype(np.float32) for name, value in params.items()}
        sent["lb1_bias"] = np.arange(5, dtype=np.int64)
        sent["other"] = np.zeros(2)  # names outside the block are left out
        checked = check_pagwn_tensors(sent)
        assert list(checked) == list(params)
        for name, value in checked.items():
            assert value.dtype == np.float64 and np.array_equal(value, sent[name].astype(np.float64)), name
