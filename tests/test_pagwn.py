import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgrain import (
    DomainError,
    PointCloud,
    ball_query_batch,
    build_index,
    init_mlp_params,
    init_pagwn_params,
    knn_batch,
    pagwn_backward,
    pagwn_forward_batch,
)
from pgrain import io as pio
from pgrain.norm import DEFAULT_EPSILON, _gwn_backward, _gwn_forward
from pgrain.pagwn import (
    _colsum,
    _layer_backward,
    _layer_forward,
    _pagwn_block,
    _pagwn_lift,
    _pagwn_param_backward,
    _scatter_rows,
    aggregate_precomputed,
    baseline_backward,
    check_pagwn_tensors,
    pagwn_input_from_tensors,
)

from pgrain.sampling import fps_coords

from conftest import GwnWindow, OneWindow, random_cloud


def identity_params(n):
    """Zero weights and biases, and batch norms that pass values through unchanged in inference mode."""
    return {**init_pagwn_params(n, seed=0), "lb1_weight": np.zeros((n + 3, n)), "lb2_weight": np.zeros((2 * n, 2 * n)),
            "lb1_bn.eps": np.float64(0.0), "lb2_bn.eps": np.float64(0.0)}


def random_input(rng, n, k):
    return OneWindow(
        center_coord=rng.normal(size=3),
        center_feature=rng.normal(size=n),
        neighbor_coords=rng.normal(size=(k, 3)),
        neighbor_features=rng.normal(size=(k, n)),
    )


def grad_close(analytic, numeric, tol=1e-4):
    """Relative error with a small-magnitude floor: finite-difference noise
    dominates directions whose true gradient is zero (e.g. biases absorbed
    by training-mode batch norm)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
    return float(np.max(np.abs(analytic - numeric) / denom)) < tol


def lb1_rows(window, params, m):
    """The pre-abstraction LB1(GWN(rows)) of an inference forward: the first n channels of LB2's input, (M, K, n)."""
    out = pagwn_forward_batch(*window, params, m=m, mode="inference")
    m_win, k, n = out.cache.shapes
    return out.cache.layers["lb2_"][0].reshape(m_win, k, 2 * n)[:, :, :n]


class TestPreAbstract:
    def test_zero_weights_identity_bn_gives_zero_rows(self, rng):
        n, k = 4, 6
        inp = random_input(rng, n, k)
        out = lb1_rows(inp.batch(), identity_params(n), m=3)
        assert out.shape == (1, k, n)
        assert np.all(out == 0.0)

    def test_identity_like_lb1_reproduces_gwn_feature_channels(self, rng):
        # weight [0 | I]: select the feature channels of the normalized rows
        n, k, m = 5, 8, 3
        inp = random_input(rng, n, k)
        weight = np.zeros((n + 3, n))
        weight[3:, :] = np.eye(n)
        params = {**identity_params(n), "lb1_weight": weight}
        got = lb1_rows(inp.batch(), params, m=m)[0]
        window = GwnWindow(
            center_feature=np.concatenate([inp.center_coord, inp.center_feature]),
            neighbor_features=np.hstack([inp.neighbor_coords, inp.neighbor_features]),
        )
        expected = window.normalize(m=m)[0][:, 3:]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_output_shape_contract(self, rng, n, k):
        inp = random_input(rng, n, k)
        params = init_pagwn_params(n, seed=0)
        assert lb1_rows(inp.batch(), params, m=2).shape == (1, k, n)

    def test_bad_split_rejected(self, rng):
        inp = random_input(rng, 3, 4)
        with pytest.raises(DomainError) as exc:
            pagwn_forward_batch(*inp.batch(), identity_params(3), m=4, mode="inference")
        assert exc.value.kind == "bad-split"
        # a one-neighbor window is never split, but m < 1 is still no group size
        lone = random_input(rng, 3, 1)
        for m in (0, -2):
            with pytest.raises(DomainError) as exc:
                pagwn_forward_batch(*lone.batch(), identity_params(3), m=m, mode="inference")
            assert exc.value.kind == "bad-split"


class TestForward:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sigma_is_non_finite_value(self, rng):
        # finite entries whose group sigma overflows would normalize every row to 0
        inp = random_input(rng, 3, 4)._replace(neighbor_features=np.full((4, 3), 1e200))
        with pytest.raises(DomainError) as exc:
            pagwn_forward_batch(*inp.batch(), init_pagwn_params(3, seed=0), m=2)
        assert exc.value.kind == "non-finite-value"

    def test_zero_lb2_gives_zero_output(self, rng):
        n, k = 3, 5
        inp = random_input(rng, n, k)
        params = {**identity_params(n), "lb1_weight": rng.normal(size=(n + 3, n))}
        out = pagwn_forward_batch(*inp.batch(), params, m=2, mode="inference")
        assert out.aggregated.shape == (1, 2 * n)
        assert np.all(out.aggregated == 0.0)

    def test_single_neighbor_maxpool_is_identity(self, rng):
        # K=1: the pooled row IS the single LB2 row
        n = 3
        inp = random_input(rng, n, 1)
        params = {**identity_params(n),
                  "lb1_weight": rng.normal(size=(n + 3, n)),
                  "lb2_weight": rng.normal(size=(2 * n, 2 * n))}
        out = pagwn_forward_batch(*inp.batch(), params, m=1, mode="inference")
        dev = np.hstack([inp.neighbor_coords, inp.neighbor_features[None][0]]) \
            - np.concatenate([inp.center_coord, inp.center_feature])
        sigma = np.sqrt((dev * dev).sum() / (n + 3 - 1))
        gwn_row = dev / (sigma + 1e-5)
        row1 = gwn_row @ params["lb1_weight"]
        row2 = np.concatenate([row1.ravel(), inp.center_feature]) @ params["lb2_weight"]
        np.testing.assert_allclose(out.aggregated[0], np.maximum(row2, 0.0), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_aggregated_dimension_is_2n(self, rng, n):
        inp = random_input(rng, n, 6)
        params = init_pagwn_params(n, seed=1)
        out = pagwn_forward_batch(*inp.batch(), params, m=3, mode="inference")
        assert out.aggregated.shape == (1, 2 * n)
        assert np.all(out.aggregated >= 0.0)

    def test_within_group_permutation_invariance(self, rng):
        n, k, m = 4, 9, 3
        params = init_pagwn_params(n, seed=2)
        for _ in range(30):
            inp = random_input(rng, n, k)
            perm = np.concatenate([rng.permutation(m), m + rng.permutation(k - m)])
            permuted = inp._replace(neighbor_coords=inp.neighbor_coords[perm],
                                    neighbor_features=inp.neighbor_features[perm])
            a = pagwn_forward_batch(*inp.batch(), params, m=m).aggregated
            b = pagwn_forward_batch(*permuted.batch(), params, m=m).aggregated
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_global_translation_invariance(self, rng):
        n, k = 3, 7
        inp = random_input(rng, n, k)
        params = init_pagwn_params(n, seed=3)
        shift = rng.uniform(-4, 4, size=3)
        shifted = inp._replace(center_coord=inp.center_coord + shift,
                               neighbor_coords=inp.neighbor_coords + shift)
        a = pagwn_forward_batch(*inp.batch(), params, m=3).aggregated
        b = pagwn_forward_batch(*shifted.batch(), params, m=3).aggregated
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)

    def test_inference_forward_is_bit_deterministic(self, rng):
        n, k = 5, 6
        inp = random_input(rng, n, k)
        params = init_pagwn_params(n, seed=4)
        a = pagwn_forward_batch(*inp.batch(), params, m=2, mode="inference").aggregated
        b = pagwn_forward_batch(*inp.batch(), params, m=2, mode="inference").aggregated
        assert np.array_equal(a, b)

    def test_batch_matches_stacked_singles_in_inference(self, rng):
        # inference-mode batch norm has no cross-window coupling
        n, k, m_windows = 3, 5, 4
        params = init_pagwn_params(n, seed=5)
        inputs = [random_input(rng, n, k) for _ in range(m_windows)]
        batch = pagwn_forward_batch(
            np.stack([i.neighbor_coords for i in inputs]),
            np.stack([i.neighbor_features for i in inputs]),
            np.stack([i.center_coord for i in inputs]),
            np.stack([i.center_feature for i in inputs]),
            params, m=2, mode="inference",
        )
        for row, inp in enumerate(inputs):
            single = pagwn_forward_batch(*inp.batch(), params, m=2, mode="inference").aggregated[0]
            np.testing.assert_allclose(batch.aggregated[row], single, rtol=1e-12, atol=1e-14)

    def test_unknown_mode_is_invalid_spec(self, rng):
        inp = random_input(rng, 3, 4)
        with pytest.raises(DomainError) as exc:
            pagwn_forward_batch(*inp.batch(), init_pagwn_params(3, seed=0), m=2, mode="eval")
        assert exc.value.kind == "invalid-spec" and "'eval'" in str(exc.value)

    def test_running_stats_update_only_in_training(self, rng):
        # a training forward reports each batch norm's batch (mean, var) under its
        # checkpoint name, for the training loop to fold; inference reports none
        n, k = 3, 6
        inp = random_input(rng, n, k)
        params = init_pagwn_params(n, seed=6)
        train_out = pagwn_forward_batch(*inp.batch(), params, m=2)
        assert set(train_out.batch_stats) == {"lb1_bn.", "lb2_bn."}
        assert all(name + "running_mean" in params for name in train_out.batch_stats)
        cache = train_out.cache
        z1 = cache.layers["lb1_"][0] @ params["lb1_weight"] + params["lb1_bias"]
        z2 = cache.layers["lb2_"][0] @ params["lb2_weight"] + params["lb2_bias"]
        for name, z in (("lb1_bn.", z1), ("lb2_bn.", z2)):
            mean, var = train_out.batch_stats[name]
            np.testing.assert_allclose(mean, z.mean(axis=0), rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(var, z.var(axis=0), rtol=1e-12, atol=1e-15)
        infer_out = pagwn_forward_batch(*inp.batch(), params, m=2, mode="inference")
        assert infer_out.batch_stats == {}


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self, rng):
        n, k = 3, 5
        inp = random_input(rng, n, k)
        out = pagwn_forward_batch(*inp.batch(), init_pagwn_params(n, seed=7), m=2)
        grads, inputs = pagwn_backward(out.cache, np.zeros((1, 2 * n)))
        for value in (grads["lb1_weight"], grads["lb2_weight"], inputs["neighbor_features"],
                      inputs["center_features"]):
            assert np.all(value == 0.0)

    def test_inference_cache_is_stale(self, rng):
        n, k = 3, 5
        inp = random_input(rng, n, k)
        out = pagwn_forward_batch(*inp.batch(), init_pagwn_params(n, seed=8), m=2, mode="inference")
        with pytest.raises(DomainError) as exc:
            pagwn_backward(out.cache, np.zeros((1, 2 * n)))
        assert exc.value.kind == "stale-cache"

    @pytest.mark.parametrize("n,k,m", [(2, 3, 1), (3, 5, 2), (4, 6, 3)])
    def test_gradients_match_finite_differences(self, rng, n, k, m):
        params = init_pagwn_params(n, seed=n * 100 + k)
        inp = random_input(rng, n, k)
        upstream = rng.normal(size=2 * n)
        h = 1e-5

        def loss(p, i):
            return float(np.sum(pagwn_forward_batch(*i.batch(), p, m=m).aggregated[0] * upstream))

        out = pagwn_forward_batch(*inp.batch(), params, m=m)
        grads, inputs = pagwn_backward(out.cache, upstream[None])

        def fd_array(base, rebuild):
            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                delta = np.zeros_like(base)
                delta[ix] = h
                fd[ix] = (loss(*rebuild(base + delta)) - loss(*rebuild(base - delta))) / (2 * h)
            return fd

        checks = [
            (grads[name], params[name], lambda a, name=name: ({**params, name: a}, inp))
            for name in ("lb1_weight", "lb2_weight", "lb1_bn.gamma", "lb2_bn.beta")
        ] + [
            (inputs["neighbor_features"][0], inp.neighbor_features,
             lambda a: (params, inp._replace(neighbor_features=a))),
            (inputs["center_features"][0], inp.center_feature,
             lambda a: (params, inp._replace(center_feature=a))),
        ]
        for analytic, base, rebuild in checks:
            assert grad_close(analytic, fd_array(base, rebuild))


class TestZeroSigmaWindows:
    """The texture group (rows < m) at and near group sigma 0, where GWN scales by up to 1/eps.

    Sigma 0 comes from duplicate points: every texture row equals the center
    in coordinates and features.
    """

    N, K, M = 3, 6, 3

    def _input(self, rng, sigma):
        """A random window whose texture group has sigma ``sigma`` over [coords || features]."""
        inp = random_input(rng, self.N, self.K)
        dev = rng.normal(size=(self.M, self.N + 3))
        dev *= sigma / np.sqrt(np.sum(dev * dev) / (dev.size - 1))
        rows = np.concatenate([inp.neighbor_coords, inp.neighbor_features], axis=1)
        rows[:self.M] = np.concatenate([inp.center_coord, inp.center_feature]) + dev
        return OneWindow(inp.center_coord, inp.center_feature, rows[:, :3], rows[:, 3:])

    def test_duplicate_points_give_finite_forward_and_backward(self, rng):
        params = init_pagwn_params(self.N, seed=31)
        out = pagwn_forward_batch(*self._input(rng, 0.0).batch(), params, m=self.M)
        sigmas = out.cache.gwn_cache[1]
        assert sigmas[0][0] == 0.0 and sigmas[1][0] > 0.0
        assert np.array_equal(out.cache.layers["lb1_"][0][:self.M], np.zeros((self.M, self.N + 3)))
        assert np.isfinite(out.aggregated).all()
        grads, inputs = pagwn_backward(out.cache, rng.normal(size=2 * self.N)[None])
        for name, value in {**grads, **inputs}.items():
            assert np.isfinite(value).all(), name

    @pytest.mark.parametrize("sigma", [DEFAULT_EPSILON / 10, DEFAULT_EPSILON, 10 * DEFAULT_EPSILON])
    def test_gradients_match_finite_differences_near_zero_sigma(self, rng, sigma):
        params = init_pagwn_params(self.N, seed=32)
        inp = self._input(rng, sigma)
        upstream = rng.normal(size=2 * self.N)
        out = pagwn_forward_batch(*inp.batch(), params, m=self.M)
        np.testing.assert_allclose(out.cache.gwn_cache[1][0][0], sigma, rtol=1e-6)
        _, inputs = pagwn_backward(out.cache, upstream[None])
        h = sigma * 1e-3  # a fixed step would be larger than sigma itself

        def loss(rows, center):
            moved = OneWindow(center[:3], center[3:], rows[:, :3], rows[:, 3:])
            return float(np.sum(pagwn_forward_batch(*moved.batch(), params, m=self.M).aggregated[0] * upstream))

        rows = np.concatenate([inp.neighbor_coords, inp.neighbor_features], axis=1)
        center = np.concatenate([inp.center_coord, inp.center_feature])
        fd_rows, fd_center = np.zeros((self.M, self.N + 3)), np.zeros(self.N + 3)
        for ix in np.ndindex(fd_rows.shape):
            delta = np.zeros_like(rows)
            delta[ix] = h
            fd_rows[ix] = (loss(rows + delta, center) - loss(rows - delta, center)) / (2 * h)
        for c in range(self.N + 3):
            delta = np.zeros_like(center)
            delta[c] = h
            fd_center[c] = (loss(rows, center + delta) - loss(rows, center - delta)) / (2 * h)
        analytic_rows = np.concatenate([inputs["neighbor_coords"][0], inputs["neighbor_features"][0]],
                                       axis=1)[:self.M]
        assert grad_close(analytic_rows, fd_rows)
        assert grad_close(np.concatenate([inputs["center_coords"][0], inputs["center_features"][0]]), fd_center)

    def test_zero_sigma_subgradient_matches_central_differences(self, rng):
        # sigma(h) = |h| / sqrt(denom) is even in h, so a central difference
        # cancels the sigma path and leaves the direct path g / epsilon
        d = self.N + 3
        centers = rng.normal(size=(1, d))
        windows = centers[:, None, :] + rng.normal(size=(1, self.K, d))
        windows[:, :self.M] = centers[:, None, :]
        g = rng.normal(size=(1, self.K, d))
        _, cache = _gwn_forward(windows, centers, self.M, DEFAULT_EPSILON)
        assert cache[1][0][0] == 0.0
        analytic = _gwn_backward(g, cache)
        np.testing.assert_array_equal(analytic[:, :self.M], g[:, :self.M] / DEFAULT_EPSILON)
        h = DEFAULT_EPSILON * 1e-5
        fd = np.zeros((self.M, d))
        for ix in np.ndindex(fd.shape):
            delta = np.zeros_like(windows)
            delta[(0, *ix)] = h
            plus = np.sum(g * _gwn_forward(windows + delta, centers, self.M, DEFAULT_EPSILON)[0])
            minus = np.sum(g * _gwn_forward(windows - delta, centers, self.M, DEFAULT_EPSILON)[0])
            fd[ix] = (plus - minus) / (2 * h)
        assert grad_close(analytic[0, :self.M], fd)


class TestBatchNormConstantChannel:
    """Training-mode batch norm where one channel is the same in every row.

    Its batch variance is 0, so it is scaled by 1/sqrt(eps), about 316.
    With a constant whose row sum is exact (2.5 over 8 or 4,096 rows) the
    batch mean is the constant and x_hat is exactly 0.  Otherwise the mean
    carries the rounding of the row sum and x_hat is that rounding times
    316, tiny but not 0.
    """

    @pytest.mark.parametrize("rows", [2, 8, 4096])
    @pytest.mark.parametrize("channels", [1, 3, 6])
    def test_forward_backward_and_running_stats_are_finite(self, rng, rows, channels):
        const = 1 if channels > 1 else 0  # the constant column, at C == 1 the only one
        x = rng.normal(size=(rows, channels))
        x[:, const] = 2.5
        mlp = {**init_mlp_params((channels, channels), seed=0), "layer0.weight": np.eye(channels),
               "layer0.bn.gamma": rng.uniform(0.5, 2.0, channels), "layer0.bn.beta": rng.normal(size=channels)}
        # the identity weight and zero bias hand x to batch norm unchanged
        y, cache = _layer_forward(x, mlp, "layer0.", "training")
        x_hat = cache[1][1]
        dz, grads = _layer_backward(rng.normal(size=(rows, channels)), mlp, "layer0.", cache)
        dgamma, dbeta = grads["layer0.bn.gamma"], grads["layer0.bn.beta"]
        # the batch statistics a training forward reports, folded as run_toy_pipeline folds them
        out = aggregate_precomputed(x, np.arange(rows)[:, None], mlp)
        mean, var = out.batch_stats["layer0.bn."]
        momentum = float(mlp["layer0.bn.momentum"])
        running_mean = (1.0 - momentum) * mlp["layer0.bn.running_mean"] + momentum * mean
        running_var = (1.0 - momentum) * mlp["layer0.bn.running_var"] + momentum * var
        for arr in (y, x_hat, dz, dgamma, dbeta, running_mean, running_var):
            assert np.isfinite(arr).all()
        assert np.array_equal(x_hat[:, const], np.zeros(rows))
        assert cache[1][4][const] == 0.0 and var[const] == 0.0
        assert running_mean[const] == 0.1 * 2.5 and running_var[const] == 0.9

    def test_inexact_constant_gives_rounding_level_x_hat(self):
        x = np.full((4096, 2), 0.1)
        x[:, 1] = np.arange(4096.0)
        mlp = {**init_mlp_params((2, 2), seed=0), "layer0.weight": np.eye(2)}
        _, cache = _layer_forward(x, mlp, "layer0.", "training")
        assert np.abs(cache[1][1][:, 0]).max() < 1e-10


def _knn_baseline(cloud, centers, k, mlp, mode="inference"):
    """The MLP baseline over each center's KNN window."""
    hoods, _ = knn_batch(build_index(cloud), cloud.coords[centers], k)
    return aggregate_precomputed(cloud.features, hoods, mlp, mode=mode)


def _bq_baseline(cloud, centers, radius, k_max, mlp):
    """The MLP baseline in inference mode over each on-cloud center's ball-query window."""
    batch = ball_query_batch(build_index(cloud), cloud.coords[centers], radius, k_max)
    return aggregate_precomputed(cloud.features, batch.indices, mlp, mode="inference")


class TestBaselines:
    def _identity_mlp(self, n):
        """One layer whose weight and inference-mode batch norm pass values through unchanged."""
        return {**init_mlp_params((n, n), seed=0), "layer0.weight": np.eye(n), "layer0.bn.eps": np.float64(0.0)}

    def test_knn_identity_mlp_single_neighbor(self, rng):
        cloud = PointCloud(coords=rng.normal(size=(10, 3)),
                           features=rng.uniform(0.1, 1.0, size=(10, 3)))
        out = _knn_baseline(cloud, [4], 1, self._identity_mlp(3))
        # the nearest neighbor of an on-cloud center is the center itself
        np.testing.assert_allclose(out.aggregated[0], cloud.features[4], rtol=1e-12)

    @pytest.mark.parametrize("radius", [0.05, 1e-200], ids=["small", "square-underflows"])
    @pytest.mark.parametrize("m", [2, 100], ids=["scan", "grid"])  # the grid path runs above 64 queries
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
    def test_bq_on_cloud_centers_never_empty(self, rng, radius, m, duplicates):
        # why the baseline aggregates every window: a ball around an FPS center holds the center
        coords = random_cloud(rng, n_points=200).coords
        if duplicates:
            coords = np.concatenate([coords, coords[:100], coords[:20]])
        centers = fps_coords(coords, m, seed=1)
        batch = ball_query_batch(build_index(coords), coords[centers], radius, 4)
        assert batch.occupied.all()
        assert np.array_equal(batch.distances[:, 0], np.zeros(m))
        assert np.array_equal(coords[batch.indices[:, 0]], coords[centers])

    def test_bq_identity_mlp_lone_point_in_radius(self, rng):
        # the only point within a tiny radius of an on-cloud center is itself
        coords = np.array([[0, 0, 0], [5, 0, 0], [0, 5, 0], [0, 0, 5]], dtype=float)
        cloud = PointCloud(coords=coords, features=rng.uniform(0.1, 1.0, size=(4, 3)))
        out = _bq_baseline(cloud, [1], 0.5, 3, self._identity_mlp(3))
        np.testing.assert_allclose(out.aggregated[0], cloud.features[1], rtol=1e-12)

    def test_bq_matches_knn_when_radius_covers_cloud(self, rng):
        # with every point in range and k_max = N, BQ and KNN windows coincide
        cloud = random_cloud(rng, n_points=15)
        mlp = init_mlp_params((3, 6), seed=4)
        a = _bq_baseline(cloud, [0, 7], 50.0, 15, mlp)
        b = _knn_baseline(cloud, [0, 7], 15, mlp)
        np.testing.assert_allclose(a.aggregated, b.aggregated, rtol=1e-12)

    def test_batch_stats_name_each_training_layer(self, rng):
        # every layer's batch (mean, var) over all the windows' rows, under
        # its checkpoint name; none in inference mode
        features = rng.normal(size=(12, 3))
        hoods = rng.integers(0, 12, size=(4, 5))
        mlp = init_mlp_params((3, 4, 6), seed=2)
        out = aggregate_precomputed(features, hoods, mlp)
        assert list(out.batch_stats) == ["layer0.bn.", "layer1.bn."]
        assert all(name + "running_mean" in mlp for name in out.batch_stats)
        x = features[hoods.reshape(-1)]
        for i, (mean, var) in enumerate(out.batch_stats.values()):
            z = x @ mlp[f"layer{i}.weight"] + mlp[f"layer{i}.bias"]
            np.testing.assert_allclose(mean, z.mean(axis=0), rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(var, z.var(axis=0), rtol=1e-12, atol=1e-15)
            y = (mlp[f"layer{i}.bn.gamma"] * (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + mlp[f"layer{i}.bn.eps"])
                 + mlp[f"layer{i}.bn.beta"])
            x = np.maximum(y, 0.0)
        inference = aggregate_precomputed(features, hoods, mlp, mode="inference")
        assert inference.batch_stats == {}

    @pytest.mark.parametrize("deleted, reported", [
        (("layer0.bn.eps",), "layer0.bn.eps"),
        (("num_layers",), "num_layers"),
        (("layer1.weight", "layer0.bn.eps"), "layer0.bn.eps"),  # the first in checkpoint order
    ], ids=["eps", "num_layers", "two missing"])
    def test_missing_tensor_is_parse_error(self, deleted, reported):
        mlp = init_mlp_params((3, 4, 5), seed=0)
        for name in deleted:
            del mlp[name]
        with pytest.raises(DomainError) as exc:
            aggregate_precomputed(np.ones((4, 3)), np.zeros((1, 2), dtype=np.int64), mlp)
        assert exc.value.kind == "parse-error"
        assert repr(reported) in str(exc.value)

    @pytest.mark.parametrize("num_layers", [0, -1])
    def test_num_layers_below_one_is_invalid_spec(self, num_layers):
        mlp = {**init_mlp_params((3, 4), seed=0), "num_layers": np.int64(num_layers)}
        with pytest.raises(DomainError) as exc:
            aggregate_precomputed(np.ones((4, 3)), np.zeros((1, 2), dtype=np.int64), mlp)
        assert exc.value.kind == "invalid-spec"
        assert "num_layers" in str(exc.value)

    def test_neighbor_permutation_invariance(self, rng):
        cloud = random_cloud(rng, n_points=30)
        mlp = init_mlp_params((3, 6), seed=1)
        base = _knn_baseline(cloud, [2, 7], 8, mlp)
        hoods = base.cache.neighbor_indices.copy()
        for row in hoods:
            rng.shuffle(row)
        permuted = aggregate_precomputed(cloud.features, hoods, mlp, mode="inference")
        np.testing.assert_allclose(base.aggregated, permuted.aggregated, rtol=1e-12, atol=1e-14)

    def test_matches_direct_reference_evaluation(self, rng):
        # independent per-row loop with explicit inference batch norm math
        cloud = random_cloud(rng, n_points=25)
        mlp = {**init_mlp_params((3, 5), seed=3),
               "layer0.bn.gamma": rng.uniform(0.5, 2, size=5), "layer0.bn.beta": rng.normal(size=5),
               "layer0.bn.running_mean": rng.normal(size=5), "layer0.bn.running_var": rng.uniform(0.5, 2, size=5)}
        out = _knn_baseline(cloud, [0, 3, 9], 4, mlp)
        for row, hood in enumerate(out.cache.neighbor_indices):
            transformed = []
            for j in hood:
                z = cloud.features[j] @ mlp["layer0.weight"] + mlp["layer0.bias"]
                zn = mlp["layer0.bn.gamma"] * (z - mlp["layer0.bn.running_mean"]) / np.sqrt(
                    mlp["layer0.bn.running_var"] + mlp["layer0.bn.eps"]) + mlp["layer0.bn.beta"]
                transformed.append(np.maximum(zn, 0.0))
            expected = np.max(np.stack(transformed), axis=0)
            np.testing.assert_allclose(out.aggregated[row], expected, rtol=1e-12)

    def test_backward_matches_finite_differences(self, rng):
        cloud = PointCloud(coords=rng.normal(size=(12, 3)),
                           features=rng.normal(size=(12, 3)))
        mlp = init_mlp_params((3, 4), seed=5)
        centers = [1, 4, 8]
        upstream = rng.normal(size=(3, 4))
        h = 1e-5

        def loss(features, params):
            out = aggregate_precomputed(features, base.cache.neighbor_indices, params)
            return float(np.sum(out.aggregated * upstream))

        base = _knn_baseline(cloud, centers, 5, mlp, mode="training")
        grads, d_features = baseline_backward(base.cache, upstream)

        fd_w = np.zeros_like(mlp["layer0.weight"])
        it = np.nditer(fd_w, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            delta = np.zeros_like(fd_w)
            delta[ix] = h
            up = {**mlp, "layer0.weight": mlp["layer0.weight"] + delta}
            dn = {**mlp, "layer0.weight": mlp["layer0.weight"] - delta}
            fd_w[ix] = (loss(cloud.features, up) - loss(cloud.features, dn)) / (2 * h)
        assert grad_close(grads["layer0.weight"], fd_w)

        fd_x = np.zeros_like(d_features)
        it = np.nditer(fd_x, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            delta = np.zeros_like(fd_x)
            delta[ix] = h
            fd_x[ix] = (loss(cloud.features + delta, mlp) - loss(cloud.features - delta, mlp)) / (2 * h)
        assert grad_close(d_features, fd_x)

    @pytest.mark.parametrize("shape", [(2, 6), (3, 5), (4, 6)], ids=["fewer-rows", "fewer-channels", "more-rows"])
    def test_upstream_of_the_wrong_shape_is_shape_mismatch(self, rng, shape):
        out = aggregate_precomputed(rng.normal(size=(10, 3)), rng.integers(0, 10, size=(3, 4)),
                                    init_mlp_params((3, 6), seed=12))
        with pytest.raises(DomainError) as exc:
            baseline_backward(out.cache, np.ones(shape))
        assert exc.value.kind == "shape-mismatch"


# checkpoint tensors that training folds or reads but never steps
_UNTRAINED = ("running_mean", "running_var", "momentum", "eps", "num_layers")


def _trainable(tensors):
    return {name: value for name, value in tensors.items() if not name.endswith(_UNTRAINED)}


class TestGradientKeys:
    """Backward passes name their gradients as the checkpoint does."""

    def test_pagwn_grads_are_the_trainable_checkpoint_tensors(self, rng):
        n, k, m_win = 3, 5, 4
        params = init_pagwn_params(n, seed=11)
        window = (rng.normal(size=(m_win, k, 3)), rng.normal(size=(m_win, k, n)),
                  rng.normal(size=(m_win, 3)), rng.normal(size=(m_win, n)))
        out = pagwn_forward_batch(*window, params, m=2)
        grads, inputs = pagwn_backward(out.cache, rng.normal(size=(m_win, 2 * n)))
        trainable = _trainable(params)
        assert len(trainable) == 8 and set(grads) == set(trainable)
        for name, value in grads.items():
            assert value.shape == trainable[name].shape, name
        arg_names = list(inspect.signature(pagwn_forward_batch).parameters)[:4]
        assert list(inputs) == arg_names
        for name, sent in zip(arg_names, window):
            assert inputs[name].shape == sent.shape, name

    def test_baseline_grads_are_the_trainable_checkpoint_tensors(self, rng):
        features = rng.normal(size=(10, 3))
        hoods = rng.integers(0, 10, size=(3, 4))
        mlp = init_mlp_params((3, 4, 6), seed=12)
        out = aggregate_precomputed(features, hoods, mlp)
        grads, d_features = baseline_backward(out.cache, rng.normal(size=(3, 6)))
        trainable = _trainable(mlp)
        assert len(trainable) == 8 and set(grads) == set(trainable)
        for name, value in grads.items():
            assert value.shape == trainable[name].shape, name
        assert d_features.shape == features.shape


class TestLiftedRows:
    """Rows lifted once, without the deviations only the lower reads, serve many parameter sets."""

    def test_block_on_kept_rows_matches_fresh_forward_and_backward(self, rng):
        n, k, m_win, m = 3, 6, 5, 2
        window = (rng.normal(size=(m_win, k, 3)), rng.normal(size=(m_win, k, n)),
                  rng.normal(size=(m_win, 3)), rng.normal(size=(m_win, n)))
        gwn, gwn_cache = _pagwn_lift(*window, m, DEFAULT_EPSILON)
        kept = (gwn, (None, *gwn_cache[1:]))
        for seed in (1, 2):
            params = init_pagwn_params(n, seed)
            upstream = rng.normal(size=(m_win, 2 * n))
            fresh = pagwn_forward_batch(*window, params, m=m)
            out = _pagwn_block(*kept, window[3], params, "training")
            assert np.array_equal(out.aggregated, fresh.aggregated)
            assert list(out.batch_stats) == list(fresh.batch_stats)
            for name, pair in fresh.batch_stats.items():
                assert all(np.array_equal(a, b) for a, b in zip(out.batch_stats[name], pair)), name
            assert all(np.array_equal(a, b) for a, b in zip(out.cache.gwn_cache[1], fresh.cache.gwn_cache[1]))
            grads, _ = _pagwn_param_backward(out.cache, upstream)
            want, _ = pagwn_backward(fresh.cache, upstream)
            assert list(grads) == list(want)
            for name, value in want.items():
                assert np.array_equal(grads[name], value), name


class TestCheckpoints:
    def test_pagwn_round_trip_preserves_forward(self, rng, tmp_path):
        n, k = 4, 6
        params = init_pagwn_params(n, seed=9)
        pio.save_tensor_dir(tmp_path / "ckpt", params)
        loaded = pio.load_tensor_dir(tmp_path / "ckpt")
        checked = check_pagwn_tensors(loaded)
        assert list(checked) == list(params)
        assert all(_same_bytes(checked[name], np.asarray(value)) for name, value in params.items())
        inp = random_input(rng, n, k)
        a = pagwn_forward_batch(*inp.batch(), params, m=2, mode="inference").aggregated
        b = pagwn_forward_batch(*inp.batch(), loaded, m=2, mode="inference").aggregated
        assert np.array_equal(a, b)

    def test_mlp_round_trip(self, tmp_path):
        mlp = init_mlp_params((3, 8, 4), seed=2)
        pio.save_tensor_dir(tmp_path / "m", mlp)
        loaded = pio.load_tensor_dir(tmp_path / "m")
        assert list(loaded) == sorted(mlp) and int(loaded["num_layers"]) == 2
        for name, value in mlp.items():
            assert _same_bytes(loaded[name], np.asarray(value)), name

    def test_input_round_trip(self, rng, tmp_path):
        inp = random_input(rng, 3, 5)
        pio.save_tensor_dir(tmp_path / "inp", inp._asdict())
        loaded = pagwn_input_from_tensors(pio.load_tensor_dir(tmp_path / "inp"))
        for got, sent in zip(loaded, inp.batch()):
            np.testing.assert_array_equal(got, sent)


@st.composite
def _colsum_operands(draw):
    """(a, b) pairs shaped like the training step's column sums.

    2-D (N, C) or 3-D (M, K, C); C == 1 and N == 1 included; values at
    scales e^-5 to e^5 with signed zeros mixed in; and, as views, the last
    axis cut out of a wider array (like ``dh[:, :, n:]``), that cut
    reshaped to rows (like ``dh[:, :, :n].reshape(M*K, n)``), or every
    other row.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12]))
    lead = ((draw(st.integers(1, 600)),) if draw(st.booleans())
            else (draw(st.integers(1, 40)), draw(st.integers(1, 24))))
    view = draw(st.sampled_from(["contiguous", "last-axis cut", "cut as rows", "every other row"]))

    def operand():
        scale = np.exp(rng.uniform(-5.0, 5.0))
        if view == "last-axis cut":
            wide = rng.normal(size=(*lead, 2 * c)) * scale
            arr = wide[..., c:]
        elif view == "cut as rows" and len(lead) == 2:
            wide = rng.normal(size=(*lead, 2 * c)) * scale
            arr = wide[..., :c].reshape(lead[0] * lead[1], c)
        elif view == "every other row":
            arr = (rng.normal(size=(*lead[:-1], 2 * lead[-1], c)) * scale)[..., ::2, :]
        else:
            arr = rng.normal(size=(*lead, c)) * scale
        zeros = rng.random(arr.shape) < 0.05
        arr[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        return arr

    return operand(), operand()


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestSummationKernels:
    """The training step's column sums and scatters must add in exactly the
    order of the NumPy calls they replace; a NumPy upgrade that changes
    einsum's or bincount's loop order fails here first."""

    @settings(max_examples=300, deadline=None)
    @given(operands=_colsum_operands())
    def test_colsum_matches_add_reduce_bit_for_bit(self, operands):
        a, b = operands
        assert _same_bytes(_colsum(a), np.add.reduce(a, axis=-2))
        assert _same_bytes(_colsum(a, b), np.add.reduce(a * b, axis=-2))
        assert _same_bytes(_colsum(a, a), np.add.reduce(a * a, axis=-2))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), c=st.integers(1, 6),
           count=st.sampled_from([0, 1, 2, 17, 500, 4000]), split=st.floats(0.0, 1.0))
    def test_scatter_matches_add_at_bit_for_bit(self, seed, n, c, count, split):
        rng = np.random.default_rng(seed)
        # few distinct targets: many duplicates, and slots that receive nothing
        idx = rng.integers(0, max(1, n // 3), size=count) * 3 % n
        rows = rng.normal(size=(count, c)) * np.exp(rng.uniform(-5.0, 5.0))
        rows[rng.random(rows.shape) < 0.05] = -0.0
        expected = np.zeros((n, c))
        # two calls, as the neighbor rows and then the center rows were added
        cut = int(split * count)
        np.add.at(expected, idx[:cut], rows[:cut])
        np.add.at(expected, idx[cut:], rows[cut:])
        assert _same_bytes(_scatter_rows(idx, rows, n), expected)
