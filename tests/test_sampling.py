import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgrain import DomainError, PointCloud, farthest_point_sample, random_sample
from pgrain.sampling import fps_coords

from conftest import random_cloud


def _cloud_from_coords(coords):
    coords = np.asarray(coords, dtype=np.float64)
    return PointCloud(coords=coords, features=np.zeros((coords.shape[0], 1)))


def fps_oracle_step(coords, selected):
    """Brute-force max-min pick: the smallest index attaining the maximum
    over unselected points of the minimum distance to the selected set."""
    selected = list(selected)
    best_idx, best_val = None, -1.0
    for i in range(coords.shape[0]):
        if i in selected:
            continue
        dmin = min(np.sum((coords[i] - coords[j]) ** 2) for j in selected)
        if dmin > best_val:
            best_idx, best_val = i, dmin
    return best_idx


def fps_reference(coords, m, first):
    """Oracle for fps_coords: the plain loop that allocates a fresh distance
    array per pick, summed as (dx*dx + dy*dy) + dz*dz; picks must match."""

    def sq_dist(q):
        d = coords - q
        return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]

    selected = [first]
    min_d2 = sq_dist(coords[first])
    min_d2[first] = -np.inf
    for _ in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected.append(nxt)
        min_d2 = np.minimum(min_d2, sq_dist(coords[nxt]))
        min_d2[nxt] = -np.inf
    return np.array(selected, dtype=np.int64)


@st.composite
def _fps_cases(draw):
    """(coords, m, seed, first_index): tie-heavy grids, duplicates, flat planes
    and scattered floats, N from 1 to a few hundred."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "plane", "scattered"]))
    if kind == "grid":
        coords = rng.integers(-3, 4, size=(n, 3)) * draw(st.sampled_from([0.1, 0.3, 1.0, 2.0**-3]))
    elif kind == "duplicates":
        distinct = draw(st.integers(1, 4))
        coords = rng.normal(size=(distinct, 3))[rng.integers(0, distinct, size=n)]
    elif kind == "plane":
        coords = rng.uniform(-1.0, 1.0, size=(n, 3))
        coords[:, draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, 0.3, -7.5]))
    else:
        coords = rng.uniform(-1.0, 1.0, size=(n, 3)) * 10.0 ** draw(st.integers(-3, 3))
    m = draw(st.one_of(st.just(n), st.integers(1, n)))
    first_index = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return coords, m, draw(st.integers(0, 1000)), first_index


class TestFps:
    @settings(max_examples=60, deadline=None)
    @given(case=_fps_cases())
    def test_matches_reference_loop_and_keeps_prefixes(self, case):
        coords, m, seed, first_index = case
        picks = fps_coords(coords, m, seed, first_index)
        first = int(np.random.default_rng(seed).integers(len(coords))) if first_index is None else first_index
        np.testing.assert_array_equal(picks, fps_reference(coords, m, first))
        assert picks.dtype == np.int64
        if m > 1:
            np.testing.assert_array_equal(fps_coords(coords, m - 1, seed, first_index), picks[:-1])

    def test_unit_square_opposite_corner(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        picks = farthest_point_sample(cloud, 2, seed=0, first_index=0)
        assert picks[0] == 0
        assert picks[1] == 3  # the diagonal corner maximizes min distance

    def test_m_equals_n_is_permutation(self, rng):
        cloud = random_cloud(rng, n_points=33)
        picks = farthest_point_sample(cloud, 33, seed=5)
        assert sorted(picks.tolist()) == list(range(33))

    def test_m_one_is_the_seeded_first_pick(self, rng):
        cloud = random_cloud(rng, n_points=20)
        first = int(np.random.default_rng(42).integers(20))
        picks = farthest_point_sample(cloud, 1, seed=42)
        assert picks.tolist() == [first]

    def test_deterministic_per_seed(self, rng):
        cloud = random_cloud(rng, n_points=64)
        a = farthest_point_sample(cloud, 16, seed=9)
        b = farthest_point_sample(cloud, 16, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_prefix_property(self, rng):
        cloud = random_cloud(rng, n_points=40)
        for m in range(1, 40):
            small = farthest_point_sample(cloud, m, seed=3)
            large = farthest_point_sample(cloud, m + 1, seed=3)
            np.testing.assert_array_equal(large[:m], small)

    def test_step_optimality_against_oracle(self, rng):
        for _ in range(15):
            cloud = random_cloud(rng, n_points=int(rng.integers(3, 32)))
            m = cloud.num_points
            picks = farthest_point_sample(cloud, m, seed=1)
            for t in range(1, m):
                expected = fps_oracle_step(cloud.coords, picks[:t])
                assert picks[t] == expected

    def test_coverage_non_increasing_in_m(self, rng):
        cloud = random_cloud(rng, n_points=60)
        coords = cloud.coords

        def coverage(picks):
            d2 = np.min(
                ((coords[:, None, :] - coords[picks][None, :, :]) ** 2).sum(-1), axis=1)
            return float(d2.max())

        values = [coverage(farthest_point_sample(cloud, m, seed=7)) for m in range(1, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_duplicate_points_still_permute(self):
        cloud = _cloud_from_coords([[1, 2, 3]] * 6)
        picks = farthest_point_sample(cloud, 6, seed=0)
        assert sorted(picks.tolist()) == list(range(6))

    def test_m_out_of_range(self, rng):
        cloud = random_cloud(rng, n_points=5)
        for m in (0, 6):
            with pytest.raises(DomainError) as exc:
                farthest_point_sample(cloud, m, seed=0)
            assert exc.value.kind == "m-out-of-range"


class TestRandomSample:
    def test_m_equals_n_is_permutation(self, rng):
        cloud = random_cloud(rng, n_points=12)
        picks = random_sample(cloud, 12, seed=4)
        assert sorted(picks.tolist()) == list(range(12))

    def test_deterministic_per_seed(self, rng):
        cloud = random_cloud(rng, n_points=30)
        np.testing.assert_array_equal(random_sample(cloud, 10, seed=2),
                                      random_sample(cloud, 10, seed=2))

    def test_distinct_indices(self, rng):
        cloud = random_cloud(rng, n_points=50)
        picks = random_sample(cloud, 25, seed=11)
        assert len(set(picks.tolist())) == 25

    def test_chi_square_uniformity(self):
        # 10k single draws over N=10; chi^2 critical value at alpha=0.001,
        # 9 degrees of freedom, is 27.877
        cloud = _cloud_from_coords(np.arange(30).reshape(10, 3))
        counts = np.zeros(10)
        for draw in range(10_000):
            counts[random_sample(cloud, 1, seed=draw)[0]] += 1
        expected = 10_000 / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.877

    def test_m_out_of_range(self, rng):
        cloud = random_cloud(rng, n_points=5)
        with pytest.raises(DomainError):
            random_sample(cloud, 0, seed=0)
