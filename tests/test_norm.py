import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pgrain import DomainError, PointCloud, sigma_map, window_normalize
from pgrain.eval import RegionSpec, SyntheticSceneSpec, generate_scene
from pgrain.norm import DEFAULT_EPSILON
from pgrain.spatial import build_index, knn_batch

from conftest import GwnWindow, random_cloud

SQRT2 = math.sqrt(2.0)


def sigma_oracle(center, neighbors):
    """Single-pass fsum reference for the window standard deviation."""
    terms = []
    for row in neighbors:
        for c, x in zip(center, row):
            terms.append((x - c) * (x - c))
    return math.sqrt(math.fsum(terms) / (len(terms) - 1))


def random_window(rng, k=None, d=None):
    k = k or int(rng.integers(1, 12))
    d = d or int(rng.integers(1, 8))
    if k * d < 2:
        k = 2
    return GwnWindow(
        center_feature=rng.uniform(-2, 2, size=d),
        neighbor_features=rng.uniform(-2, 2, size=(k, d)),
    )


def sigma_of(w):
    _, (sigma,) = w.normalize()
    return sigma


class TestWindowSigma:
    def test_all_neighbors_equal_center_gives_zero(self):
        w = GwnWindow(center_feature=np.full(3, 0.7), neighbor_features=np.full((5, 3), 0.7))
        assert sigma_of(w) == 0.0

    def test_hand_case_sqrt_two(self):
        w = GwnWindow(center_feature=np.zeros(1), neighbor_features=np.array([[1.0], [-1.0]]))
        assert abs(sigma_of(w) - SQRT2) < 1e-15

    def test_matches_single_pass_oracle(self, rng):
        for _ in range(300):
            w = random_window(rng)
            expected = sigma_oracle(w.center_feature, w.neighbor_features)
            got = sigma_of(w)
            assert abs(got - expected) <= 1e-12 * max(expected, 1e-300)

    def test_degenerate_window_rejected(self):
        w = GwnWindow(center_feature=np.zeros(1), neighbor_features=np.zeros((1, 1)))
        with pytest.raises(DomainError) as exc:
            sigma_of(w)
        assert exc.value.kind == "degenerate-window"

    def test_scale_response_is_exact(self, rng):
        # scaling all deviations by alpha scales sigma by alpha
        w = random_window(rng, k=6, d=3)
        alpha = 3.5
        scaled = GwnWindow(
            center_feature=w.center_feature,
            neighbor_features=w.center_feature + alpha * (w.neighbor_features - w.center_feature),
        )
        assert abs(sigma_of(scaled) - alpha * sigma_of(w)) <= 1e-12 * sigma_of(scaled)


class TestWindowNormalize:
    def test_constant_window_is_all_zero(self):
        w = GwnWindow(center_feature=np.full(2, 1.5), neighbor_features=np.full((4, 2), 1.5))
        values, _ = w.normalize(epsilon=1e-5)
        assert np.all(values == 0.0)

    def test_hand_case(self):
        w = GwnWindow(center_feature=np.zeros(1), neighbor_features=np.array([[1.0], [-1.0]]))
        values, (sigma,) = w.normalize(epsilon=1e-5)
        expected = np.array([[1.0 / (SQRT2 + 1e-5)], [-1.0 / (SQRT2 + 1e-5)]])
        np.testing.assert_allclose(values, expected, rtol=1e-15)
        assert abs(sigma - SQRT2) < 1e-15

    def test_translation_equivariance(self, rng):
        w = random_window(rng, k=7, d=4)
        shift = rng.uniform(-5, 5, size=4)
        shifted = GwnWindow(
            center_feature=w.center_feature + shift,
            neighbor_features=w.neighbor_features + shift,
        )
        a = w.normalize()[0]
        b = shifted.normalize()[0]
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_near_scale_invariance(self, rng):
        # with epsilon -> 0 the normalized values are exactly alpha-invariant;
        # with finite epsilon the drift is bounded by the epsilon perturbation
        w = random_window(rng, k=6, d=3)
        alpha, eps = 7.0, 1e-9
        scaled = GwnWindow(
            center_feature=w.center_feature,
            neighbor_features=w.center_feature + alpha * (w.neighbor_features - w.center_feature),
        )
        a = w.normalize(epsilon=eps)[0]
        b = scaled.normalize(epsilon=eps)[0]
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_epsilon_must_be_positive(self, rng):
        with pytest.raises(DomainError):
            random_window(rng).normalize(epsilon=0.0)

    @pytest.mark.parametrize("windows, centers", [
        (np.ones((3, 4)), np.zeros((3, 4))),     # one window, not a batch
        (np.ones((2, 3, 4)), np.zeros(4)),       # a center vector, not a batch
        (np.ones((2, 3, 4)), np.zeros((3, 4))),  # M disagrees
        (np.ones((2, 3, 4)), np.zeros((2, 5))),  # d disagrees
    ])
    def test_shapes_that_are_no_batch_are_shape_mismatch(self, windows, centers):
        with pytest.raises(DomainError) as exc:
            window_normalize(windows, centers)
        assert exc.value.kind == "shape-mismatch"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_sigma_overflow_is_non_finite_value(self):
        # every entry is finite, but their squares sum past the largest float
        windows = np.full((2, 3, 2), 1e200)
        windows[0] = 1.0
        with pytest.raises(DomainError) as exc:
            window_normalize(windows, np.zeros((2, 2)))
        assert exc.value.kind == "non-finite-value"

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 24), k=st.integers(2, 24),
           d=st.integers(1, 12), log_scale=st.integers(-6, 5), data=st.data())
    def test_batch_equals_its_batch_of_one_calls(self, seed, count, k, d, log_scale, data):
        # the contract that lets the CLI (a batch of one) and training (M windows) share one kernel
        m = data.draw(st.none() | st.integers(1, k - 1), label="m")
        assume(m is None or min(m, k - m) * d >= 2)
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-2, 2, size=(count, d))
        windows = centers[:, None, :] + 10.0 ** log_scale * rng.normal(size=(count, k, d))
        values, sigmas = window_normalize(windows, centers, m=m)
        ones = [window_normalize(windows[i:i + 1], centers[i:i + 1], m=m) for i in range(count)]
        assert len(sigmas) == (1 if m is None else 2)
        assert values.tobytes() == np.concatenate([v for v, _ in ones]).tobytes()
        for g, sig in enumerate(sigmas):
            assert sig.shape == (count,)
            assert sig.tobytes() == np.concatenate([s[g] for _, s in ones]).tobytes()


class TestCalibrate:
    """The rectified rows x* = x_hat + x_center = lam * x + (1 - lam) * x_center, lam = 1 / (sigma + eps)."""

    def test_sigma_zero_returns_center(self):
        center = np.array([2.0, -1.0])
        w = GwnWindow(center_feature=center, neighbor_features=np.tile(center, (3, 1)))
        values, _ = w.normalize()
        rectified = values + center
        np.testing.assert_array_equal(rectified, np.tile(center, (3, 1)))

    def test_both_forms_of_the_rectification_agree(self, rng):
        for _ in range(200):
            w = random_window(rng)
            values, (sigma,) = w.normalize()
            direct = values + w.center_feature
            lam = 1.0 / (sigma + DEFAULT_EPSILON)
            convex = lam * w.neighbor_features + (1.0 - lam) * w.center_feature
            np.testing.assert_allclose(direct, convex, rtol=1e-12, atol=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 16), d=st.integers(1, 6))
    def test_mean_identity(self, seed, k, d):
        # sample mean of rectified rows = lam * mean(x) + (1 - lam) * center
        rng = np.random.default_rng(seed)
        w = GwnWindow(center_feature=rng.uniform(-2, 2, size=d),
                      neighbor_features=rng.uniform(-2, 2, size=(k, d)))
        values, (sigma,) = w.normalize()
        rectified = values + w.center_feature
        lam = 1.0 / (sigma + DEFAULT_EPSILON)
        lhs = rectified.mean(axis=0)
        rhs = lam * w.neighbor_features.mean(axis=0) + (1 - lam) * w.center_feature
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-13)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 16), d=st.integers(1, 6))
    def test_variance_identity(self, seed, k, d):
        # sample variance of rectified rows = lam^2 * variance(x), channel-wise
        rng = np.random.default_rng(seed)
        w = GwnWindow(center_feature=rng.uniform(-2, 2, size=d),
                      neighbor_features=rng.uniform(-2, 2, size=(k, d)))
        values, (sigma,) = w.normalize()
        rectified = values + w.center_feature
        lam = 1.0 / (sigma + DEFAULT_EPSILON)
        lhs = rectified.var(axis=0, ddof=1)
        rhs = lam * lam * w.neighbor_features.var(axis=0, ddof=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-13)

    def test_unbiasedness_preserved(self, rng):
        # neighbors symmetric around the center: rectified mean stays there
        d, k = 3, 8
        center = np.zeros(d)
        half = rng.uniform(-1, 1, size=(k // 2, d))
        w = GwnWindow(center_feature=center,
                      neighbor_features=np.concatenate([half, -half]))
        values, _ = w.normalize()
        rectified = values + center
        np.testing.assert_allclose(rectified.mean(axis=0), center, atol=1e-12)


class TestGroupWise:
    def test_hand_case(self):
        eps = 1e-5
        w = GwnWindow(center_feature=np.zeros(1),
                      neighbor_features=np.array([[1.0], [-1.0], [3.0], [-3.0]]))
        values, (s1, s2) = w.normalize(m=2, epsilon=eps)
        assert abs(s1 - SQRT2) < 1e-15
        assert abs(s2 - math.sqrt(18.0)) < 1e-14
        expected = np.array([
            [1.0 / (SQRT2 + eps)], [-1.0 / (SQRT2 + eps)],
            [3.0 / (math.sqrt(18.0) + eps)], [-3.0 / (math.sqrt(18.0) + eps)],
        ])
        np.testing.assert_allclose(values, expected, rtol=1e-14)

    def test_constant_groups_are_zero(self):
        center = np.array([1.0, 2.0])
        w = GwnWindow(center_feature=center, neighbor_features=np.tile(center, (5, 1)))
        values, _ = w.normalize(m=2)
        assert np.all(values == 0.0)

    def test_each_group_matches_subwindow_normalize(self, rng):
        # the group split is exactly window normalization of each sub-window
        for _ in range(100):
            k = int(rng.integers(2, 12))
            d = int(rng.integers(1, 6))
            m = int(rng.integers(1, k))
            if m * d < 2 or (k - m) * d < 2:
                continue
            w = random_window(rng, k=k, d=d)
            values, sigmas = w.normalize(m=m)
            near_values, near_sigmas = GwnWindow(w.center_feature, w.neighbor_features[:m]).normalize()
            far_values, far_sigmas = GwnWindow(w.center_feature, w.neighbor_features[m:]).normalize()
            np.testing.assert_allclose(values[:m], near_values, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(values[m:], far_values, rtol=1e-13, atol=1e-15)
            assert sigmas[0] == pytest.approx(near_sigmas[0], rel=1e-13)
            assert sigmas[1] == pytest.approx(far_sigmas[0], rel=1e-13)

    def test_bad_split_rejected(self, rng):
        w = random_window(rng, k=4, d=2)
        for m in (0, 4, 7):
            with pytest.raises(DomainError) as exc:
                w.normalize(m=m)
            assert exc.value.kind == "bad-split"

    def test_degenerate_group_rejected(self):
        w = GwnWindow(center_feature=np.zeros(1), neighbor_features=np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(DomainError) as exc:
            w.normalize(m=1)  # texture group has a single entry
        assert exc.value.kind == "degenerate-group"


class TestSigmaMap:
    def test_threshold_zero_returns_everything(self, rng):
        cloud = random_cloud(rng, n_points=60)
        flagged = sigma_map(cloud, k=8, threshold=0.0)
        assert flagged.size == 60

    def test_tight_blob_has_no_high_sigma_points(self, rng):
        # coordinates and features both vary far below unit scale
        scale = 1e-3
        cloud = PointCloud(
            coords=rng.normal(scale=scale, size=(100, 3)),
            features=np.full((100, 3), 0.5),
        )
        assert sigma_map(cloud, k=16, threshold=1.0).size == 0

    def test_k_out_of_range(self, rng):
        cloud = random_cloud(rng, n_points=10)
        with pytest.raises(DomainError):
            sigma_map(cloud, k=11)

    def test_monotone_sparsity_rank_correlation(self):
        # lower density (larger neighbor distances) gives larger sigma
        spec = SyntheticSceneSpec(
            regions=(
                RegionSpec("plane", 600, 400.0, class_label=0, feature_noise_sigma=0.0),
                RegionSpec("plane", 600, 25.0, class_label=0, feature_noise_sigma=0.0),
            ),
            seed=11,
        )
        cloud = generate_scene(spec)
        k = 12
        indices, distances = knn_batch(build_index(cloud), cloud.coords, k)
        matrix = np.hstack([cloud.coords, cloud.features])
        dev = matrix[indices] - matrix[:, None, :]
        sigmas = np.sqrt((dev * dev).sum(axis=(1, 2)) / (k * matrix.shape[1] - 1))
        mean_dist = distances.mean(axis=1)

        def ranks(x):
            r = np.empty_like(x)
            r[np.argsort(x)] = np.arange(x.size)
            return r

        rho = np.corrcoef(ranks(sigmas), ranks(mean_dist))[0, 1]
        assert rho > 0.9
