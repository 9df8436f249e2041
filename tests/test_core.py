import numpy as np
import pytest
from hypothesis import given, strategies as st

from pgrain import (
    BatchNormState,
    DomainError,
    MlpLayer,
    MlpParams,
    PagwnParams,
    PointCloud,
    WindowStats,
    validate_cloud,
)
from pgrain.pagwn import aggregate_precomputed

from conftest import random_cloud


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
        validate_cloud(cloud)  # re-validation of a constructed cloud is a no-op
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


class TestWindowStats:
    @given(
        sigma=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        epsilon=st.floats(min_value=1e-12, max_value=1.0, allow_nan=False),
    )
    def test_lambda_times_sigma_plus_eps_is_one(self, sigma, epsilon):
        stats = WindowStats(sigma=sigma, epsilon=epsilon)
        assert abs(stats.lam * (sigma + epsilon) - 1.0) < 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            WindowStats(sigma=-1.0, epsilon=1e-5)

    def test_group_split_recorded(self):
        stats = WindowStats(sigma=1.0, epsilon=1e-5, m=3)
        assert stats.m == 3


class TestBatchNormState:
    def test_initial_is_identity_stats(self):
        bn = BatchNormState.initial(4)
        assert np.array_equal(bn.gamma, np.ones(4))
        assert np.array_equal(bn.running_var, np.ones(4))
        assert bn.mode == "training"

    def test_momentum_bounds(self):
        with pytest.raises(DomainError):
            BatchNormState.initial(2, momentum=0.0)
        with pytest.raises(DomainError):
            BatchNormState.initial(2, momentum=1.0)

    def test_eps_must_be_finite_and_nonnegative(self):
        for eps in (-0.5, np.nan, np.inf):
            with pytest.raises(DomainError) as exc:
                BatchNormState.initial(2, eps=eps)
            assert exc.value.kind == "invalid-spec"
        assert BatchNormState.identity(2).eps == 0.0

    def test_negative_running_var_rejected(self):
        with pytest.raises(DomainError):
            BatchNormState(gamma=np.ones(2), beta=np.zeros(2),
                           running_mean=np.zeros(2), running_var=np.array([1.0, -0.5]))

    def test_training_forward_reports_batch_statistics_and_keeps_the_state(self):
        # the training loop folds these into the checkpoint; the state itself never changes
        bn = BatchNormState.initial(2, momentum=0.1)
        layer = MlpLayer(weight=np.eye(2), bias=np.zeros(2), bn=bn)
        rows = np.array([[-1.0, -1.0], [3.0, 5.0]])
        out = aggregate_precomputed(rows, np.array([[0, 1]]), np.array([True]), MlpParams((layer,)))
        mean, var = out.batch_stats["layer0.bn."]
        assert np.array_equal(mean, [1.0, 2.0]) and np.array_equal(var, [4.0, 9.0])
        assert np.array_equal(bn.running_mean, np.zeros(2)) and np.array_equal(bn.running_var, np.ones(2))
        assert not bn.running_mean.flags.writeable


class TestPagwnParams:
    def test_dimension_contract_enforced(self):
        n = 4
        with pytest.raises(DomainError) as exc:
            PagwnParams(
                lb1_weight=np.zeros((n + 2, n)),  # must be n+3 rows
                lb1_bias=np.zeros(n),
                lb1_bn=BatchNormState.initial(n),
                lb2_weight=np.zeros((2 * n, 2 * n)),
                lb2_bias=np.zeros(2 * n),
                lb2_bn=BatchNormState.initial(2 * n),
            )
        assert exc.value.kind == "shape-mismatch"

    def test_n_property(self):
        n = 5
        params = PagwnParams(
            lb1_weight=np.zeros((n + 3, n)),
            lb1_bias=np.zeros(n),
            lb1_bn=BatchNormState.initial(n),
            lb2_weight=np.zeros((2 * n, 2 * n)),
            lb2_bias=np.zeros(2 * n),
            lb2_bn=BatchNormState.initial(2 * n),
        )
        assert params.n == n
        assert params.with_mode("inference").lb1_bn.mode == "inference"
