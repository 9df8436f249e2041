import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgrain import (
    DomainError,
    PointCloud,
    ball_query_batch,
    brute_force_knn,
    build_index,
    knn_batch,
)
from pgrain import spatial

from conftest import random_cloud


def _cloud_from_coords(coords):
    coords = np.asarray(coords, dtype=np.float64)
    return PointCloud(coords=coords, features=np.zeros((coords.shape[0], 1)))


def brute_radius_filter(cloud, q, radius):
    """Independent oracle: membership of the closed ball, by full scan."""
    d = cloud.coords - np.asarray(q, dtype=np.float64)
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    return set(np.flatnonzero(d2 <= radius * radius).tolist())


def _knn_row(cloud, q, k):
    """One-row knn_batch call: the row's (indices, distances)."""
    indices, distances = knn_batch(build_index(cloud), np.reshape(q, (1, 3)), k)
    return indices[0], distances[0]


def _ball_row(cloud, q, radius, k_max):
    """One-row ball_query_batch call: (indices, distances, num_in_radius)."""
    batch = ball_query_batch(build_index(cloud), np.reshape(q, (1, 3)), radius, k_max)
    return batch.indices[0], batch.distances[0], int(batch.num_in_radius[0])


class TestKnn:
    def test_collinear_hand_case(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        indices, distances = _knn_row(cloud, [0, 0, 0], 2)
        np.testing.assert_array_equal(indices, [0, 1])
        np.testing.assert_array_equal(distances, [0.0, 1.0])

    def test_k_equals_n_returns_all_sorted(self, rng):
        cloud = random_cloud(rng, n_points=40)
        indices, distances = _knn_row(cloud, rng.normal(size=3), 40)
        assert sorted(indices.tolist()) == list(range(40))
        assert np.all(np.diff(distances) >= 0)

    def test_equidistant_tie_prefers_lower_index(self):
        # both orders of the same two points must give the same answer
        for order in ([[1, 0, 0], [-1, 0, 0]], [[-1, 0, 0], [1, 0, 0]]):
            cloud = _cloud_from_coords(order)
            indices, _ = _knn_row(cloud, [0, 0, 0], 2)
            np.testing.assert_array_equal(indices, [0, 1])

    def test_duplicate_points_are_distinct_indices(self):
        cloud = _cloud_from_coords([[1, 1, 1]] * 5)
        indices, _ = _knn_row(cloud, [1, 1, 1], 5)
        np.testing.assert_array_equal(indices, [0, 1, 2, 3, 4])

    def test_single_point_cloud(self):
        cloud = _cloud_from_coords([[3, 4, 5]])
        indices, _ = _knn_row(cloud, [0, 0, 0], 1)
        np.testing.assert_array_equal(indices, [0])

    def test_k_out_of_range(self, rng):
        cloud = random_cloud(rng, n_points=5)
        index = build_index(cloud)
        for k in (0, 6):
            for call in (lambda: knn_batch(index, [[0, 0, 0]], k),
                         lambda: brute_force_knn(cloud, [[0, 0, 0]], k)):
                with pytest.raises(DomainError) as exc:
                    call()
                assert exc.value.kind == "k-out-of-range"

    def test_matches_brute_force_on_random_clouds(self, rng):
        for _ in range(60):
            cloud = random_cloud(rng)
            index = build_index(cloud)
            n = cloud.num_points
            for _ in range(4):
                q = rng.uniform(-1.2, 1.2, size=(1, 3))
                k = int(rng.integers(1, n + 1))
                fast = knn_batch(index, q, k)
                slow = brute_force_knn(cloud, q, k)
                np.testing.assert_array_equal(fast[0], slow[0])
                np.testing.assert_array_equal(fast[1], slow[1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 64),
        grid=st.booleans(),
    )
    def test_agrees_with_brute_force_including_ties(self, seed, n, grid):
        rng = np.random.default_rng(seed)
        if grid:
            # integer grid coordinates force frequent exact distance ties
            coords = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
        else:
            coords = rng.normal(size=(n, 3))
        cloud = _cloud_from_coords(coords)
        index = build_index(cloud)
        q = rng.integers(0, 4, size=(1, 3)).astype(np.float64) if grid else rng.normal(size=(1, 3))
        k = int(rng.integers(1, n + 1))
        np.testing.assert_array_equal(knn_batch(index, q, k)[0], brute_force_knn(cloud, q, k)[0])

    def test_ten_thousand_point_cloud_agrees_with_brute_force(self, rng):
        cloud = _cloud_from_coords(rng.uniform(-1, 1, size=(10_000, 3)))
        index = build_index(cloud)
        for _ in range(50):
            q = rng.uniform(-1.1, 1.1, size=(1, 3))
            k = int(rng.integers(1, 64))
            np.testing.assert_array_equal(knn_batch(index, q, k)[0], brute_force_knn(cloud, q, k)[0])

    def test_knn_monotonicity_prefix(self, rng):
        cloud = random_cloud(rng, n_points=50)
        q = rng.normal(size=3)
        previous, _ = _knn_row(cloud, q, 1)
        for k in range(2, 51):
            current, _ = _knn_row(cloud, q, k)
            np.testing.assert_array_equal(current[: k - 1], previous)
            previous = current


class TestBallQuery:
    def test_covering_radius_equals_knn(self, rng):
        cloud = random_cloud(rng, n_points=30)
        q = rng.normal(size=3)
        indices, _, found = _ball_row(cloud, q, radius=100.0, k_max=30)
        np.testing.assert_array_equal(indices, _knn_row(cloud, q, 30)[0])
        assert found == 30  # full, so not padded

    def test_empty_region_is_normal_outcome(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0]])
        batch = ball_query_batch(build_index(cloud), [[10, 10, 10]], radius=0.5, k_max=4)
        assert not batch.occupied[0] and not batch.padded[0]
        assert batch.num_in_radius[0] == 0

    def test_underfull_region_pads_with_nearest(self):
        cloud = _cloud_from_coords([[0, 0, 0], [0.5, 0, 0], [9, 9, 9]])
        batch = ball_query_batch(build_index(cloud), [[0.1, 0, 0]], radius=1.0, k_max=4)
        assert batch.padded[0]
        assert batch.num_in_radius[0] == 2
        assert batch.indices.shape == (1, 4)
        # the nearest point (index 0) fills the remaining slots
        assert np.count_nonzero(batch.indices[0] == 0) == 3

    def test_distances_within_radius_before_padding(self, rng):
        for _ in range(40):
            cloud = random_cloud(rng)
            q = rng.uniform(-1.2, 1.2, size=3)
            radius = float(rng.uniform(0.05, 1.0))
            _, distances, found = _ball_row(cloud, q, radius=radius, k_max=8)
            if not found:
                continue
            assert np.all(distances <= radius)

    def test_membership_matches_brute_filter(self, rng):
        for _ in range(60):
            cloud = random_cloud(rng)
            q = rng.uniform(-1.2, 1.2, size=3)
            radius = float(rng.uniform(0.05, 1.5))
            expected = brute_radius_filter(cloud, q, radius)
            indices, _, found = _ball_row(cloud, q, radius=radius, k_max=cloud.num_points)
            got = set(indices.tolist()) if found else set()
            assert got == expected

    def test_truncates_to_nearest_k_max(self):
        cloud = _cloud_from_coords([[i, 0, 0] for i in range(6)])
        indices, _, _ = _ball_row(cloud, [0, 0, 0], radius=10.0, k_max=3)
        np.testing.assert_array_equal(indices, [0, 1, 2])

    def test_parameter_validation(self, rng):
        cloud = random_cloud(rng, n_points=4)
        index = build_index(cloud)
        with pytest.raises(DomainError):
            ball_query_batch(index, [[0, 0, 0]], radius=0.0, k_max=2)
        with pytest.raises(DomainError):
            ball_query_batch(index, [[0, 0, 0]], radius=1.0, k_max=0)


def _cloud_strategy(draw, n):
    """Coordinates with exact ties: integer grids, duplicates, flat planes, or noise."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["grid", "duplicates", "plane", "normal"]))
    rng = np.random.default_rng(seed)
    if kind == "grid":
        coords = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
    elif kind == "duplicates":
        base = rng.integers(0, 3, size=(max(1, n // 4), 3)).astype(np.float64)
        coords = base[rng.integers(0, base.shape[0], size=n)]
    elif kind == "plane":
        coords = np.c_[rng.uniform(-1, 1, size=(n, 2)), np.full(n, 0.5)]
    else:
        coords = rng.normal(size=(n, 3))
    return rng, coords


def _queries(rng, coords, m):
    """Cloud points, with some moved off the cloud or outside its bounding box."""
    queries = coords[rng.integers(0, coords.shape[0], size=m)].copy()
    moved = rng.random(m) < 0.3
    queries[moved] = rng.uniform(coords.min() - 3, coords.max() + 3, size=(int(moved.sum()), 3))
    return queries


class TestBruteForceOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), m=st.integers(1, 20))
    def test_rows_are_well_formed_neighborhoods(self, data, n, m):
        rng, coords = _cloud_strategy(data.draw, n)
        cloud = _cloud_from_coords(coords)
        k = data.draw(st.integers(1, n))
        indices, distances = brute_force_knn(cloud, _queries(rng, coords, m), k)
        assert indices.shape == distances.shape == (m, k)
        assert indices.dtype == np.int64
        # every row ascends by (distance, index)
        step = np.diff(distances, axis=1)
        assert (step >= 0).all()
        assert (np.diff(indices, axis=1)[step == 0] > 0).all()
        assert np.isfinite(distances).all() and (distances >= 0).all()
        assert ((indices >= 0) & (indices < n)).all()


class TestBatchEngine:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 90), m=st.integers(1, 150))
    def test_knn_batch_rows_equal_brute_force(self, data, n, m):
        rng, coords = _cloud_strategy(data.draw, n)
        cloud = _cloud_from_coords(coords)
        k = data.draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))
        queries = _queries(rng, coords, m)
        expected = brute_force_knn(cloud, queries, k)
        indices, distances = knn_batch(build_index(cloud), queries, k)
        assert indices.shape == distances.shape == (m, k)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 90), m=st.integers(1, 150))
    def test_ball_query_batch_rows_equal_full_scan(self, data, n, m):
        rng, coords = _cloud_strategy(data.draw, n)
        radius = data.draw(st.sampled_from([0.5, 1.0, float(rng.uniform(0.05, 2.0))]))
        k_max = data.draw(st.integers(1, 12))
        queries = _queries(rng, coords, m)
        batch = ball_query_batch(build_index(_cloud_from_coords(coords)), queries, radius, k_max)
        for row, q in enumerate(queries):
            d = coords - q
            d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
            inside = np.flatnonzero(d2 <= radius * radius)
            members = inside[np.lexsort((inside, d2[inside]))]
            found = members.size
            assert batch.num_in_radius[row] == found
            assert batch.occupied[row] == (found > 0)
            assert batch.padded[row] == (0 < found < k_max)
            if found == 0:
                assert not batch.indices[row].any() and not batch.distances[row].any()
                continue
            # pad by repeating the nearest member, then order on the reported distances
            ids = np.concatenate([np.repeat(members[:1], max(k_max - found, 0)), members[:k_max]])
            ids = ids[np.lexsort((ids, d2[ids]))]
            dist = np.sqrt(d2[ids])
            order = np.lexsort((ids, dist))
            np.testing.assert_array_equal(batch.indices[row], ids[order])
            assert batch.distances[row].tobytes() == dist[order].tobytes()

    def test_isolated_queries_fall_back_to_the_exact_scan(self):
        rng = np.random.default_rng(7)
        cluster = rng.uniform(0, 1e-3, size=(300, 3))
        isolated = np.array([[5.0, 0, 0], [0, -7.0, 0], [0, 0, 9.0], [4.0, 4.0, 4.0]])
        coords = np.vstack([cluster, isolated])
        cloud = _cloud_from_coords(coords)
        index = build_index(cloud)
        queries = coords[np.r_[0:100, 300:304]]
        k = 8
        indices, distances = knn_batch(index, queries, k)
        # the grid is sized on the cluster, so the isolated points' k-th
        # neighbor lies beyond the 27 cells around them
        grid = spatial._knn_grid(index, k)
        assert (distances[100:, -1] >= spatial._MARGIN * grid.cell).all()
        expected = brute_force_knn(cloud, queries, k)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("seed", [12, 153])
    def test_haloed_cube_rows_equal_brute_force(self, seed):
        # the grid cell is sized on the dense cube, so a halo query's k-th neighbor
        # lies about a cell away: seed 12 (n = 130, k = 10) fails with a _MARGIN of
        # 2.0 cells, and seed 153 (n = 145, k = 4) with 1.5 too
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        coords = np.vstack([rng.uniform(0, 1, size=(n, 3)), rng.uniform(-3, 4, size=(n // 8, 3))])
        cloud = _cloud_from_coords(coords)
        queries = coords[rng.integers(0, coords.shape[0], size=80)]
        k = int(rng.integers(1, min(16, coords.shape[0]) + 1))
        assert queries.shape[0] > spatial._SAMPLE  # so the grid runs
        expected = brute_force_knn(cloud, queries, k)
        indices, distances = knn_batch(build_index(cloud), queries, k)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    def test_square_root_ties_come_out_by_index(self):
        # index 0 is one ulp farther in squared distance, but the square
        # roots are one double, so it must come first on the index tie
        a, b = 0.8319432152802452, 0.9214800195499495
        near = np.array([[a, np.nextafter(b, 2.0), 0.0], [a, b, 0.0]])
        filler = np.c_[np.linspace(10, 20, 100), np.zeros((100, 2))]
        cloud = _cloud_from_coords(np.vstack([near, filler]))
        queries = np.zeros((70, 3))
        for m in (1, 70):  # the direct scan and the grid
            indices, distances = knn_batch(build_index(cloud), queries[:m], 2)
            np.testing.assert_array_equal(indices, [[0, 1]] * m)
            assert distances[0, 0] == distances[0, 1]
            # the nearest one alone is still chosen on the squared distance
            np.testing.assert_array_equal(knn_batch(build_index(cloud), queries[:m], 1)[0], [[1]] * m)

    def test_batches_validate_their_queries(self):
        index = build_index(_cloud_from_coords([[0, 0, 0], [1, 0, 0]]))
        for bad, kind in (([[0, 0]], "dimension-mismatch"), ([[0, 0, np.nan]], "non-finite-value")):
            for call in (lambda: knn_batch(index, bad, 1), lambda: ball_query_batch(index, bad, 1.0, 2)):
                with pytest.raises(DomainError) as exc:
                    call()
                assert exc.value.kind == kind
        indices, distances = knn_batch(index, np.empty((0, 3)), 2)
        assert indices.shape == distances.shape == (0, 2)
