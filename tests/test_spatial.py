import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgrain import (
    DomainError,
    PointCloud,
    ball_query,
    ball_query_batch,
    brute_force_knn,
    build_index,
    knn_batch,
    knn_query,
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


class TestKnn:
    def test_collinear_hand_case(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        hood = knn_query(build_index(cloud), [0, 0, 0], 2)
        np.testing.assert_array_equal(hood.neighbor_indices, [0, 1])
        np.testing.assert_array_equal(hood.distances, [0.0, 1.0])

    def test_k_equals_n_returns_all_sorted(self, rng):
        cloud = random_cloud(rng, n_points=40)
        hood = knn_query(build_index(cloud), rng.normal(size=3), 40)
        assert sorted(hood.neighbor_indices.tolist()) == list(range(40))
        assert np.all(np.diff(hood.distances) >= 0)

    def test_equidistant_tie_prefers_lower_index(self):
        # both orders of the same two points must give the same answer
        for order in ([[1, 0, 0], [-1, 0, 0]], [[-1, 0, 0], [1, 0, 0]]):
            cloud = _cloud_from_coords(order)
            hood = knn_query(build_index(cloud), [0, 0, 0], 2)
            np.testing.assert_array_equal(hood.neighbor_indices, [0, 1])

    def test_duplicate_points_are_distinct_indices(self):
        cloud = _cloud_from_coords([[1, 1, 1]] * 5)
        hood = knn_query(build_index(cloud), [1, 1, 1], 5)
        np.testing.assert_array_equal(hood.neighbor_indices, [0, 1, 2, 3, 4])

    def test_single_point_cloud(self):
        cloud = _cloud_from_coords([[3, 4, 5]])
        hood = knn_query(build_index(cloud), [0, 0, 0], 1)
        np.testing.assert_array_equal(hood.neighbor_indices, [0])

    def test_k_out_of_range(self, rng):
        cloud = random_cloud(rng, n_points=5)
        index = build_index(cloud)
        for k in (0, 6):
            with pytest.raises(DomainError) as exc:
                knn_query(index, [0, 0, 0], k)
            assert exc.value.kind == "k-out-of-range"

    def test_exclude_self_drops_zero_distance(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        hood = knn_query(build_index(cloud), [0, 0, 0], 2, exclude_self=True)
        np.testing.assert_array_equal(hood.neighbor_indices, [1, 2])

    def test_matches_brute_force_on_random_clouds(self, rng):
        for _ in range(60):
            cloud = random_cloud(rng)
            index = build_index(cloud)
            n = cloud.num_points
            for _ in range(4):
                q = rng.uniform(-1.2, 1.2, size=3)
                k = int(rng.integers(1, n + 1))
                fast = knn_query(index, q, k)
                slow = brute_force_knn(cloud, q, k)
                np.testing.assert_array_equal(fast.neighbor_indices, slow.neighbor_indices)
                np.testing.assert_array_equal(fast.distances, slow.distances)

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
        q = rng.integers(0, 4, size=3).astype(np.float64) if grid else rng.normal(size=3)
        k = int(rng.integers(1, n + 1))
        fast = knn_query(index, q, k)
        slow = brute_force_knn(cloud, q, k)
        np.testing.assert_array_equal(fast.neighbor_indices, slow.neighbor_indices)

    def test_ten_thousand_point_cloud_agrees_with_brute_force(self, rng):
        cloud = _cloud_from_coords(rng.uniform(-1, 1, size=(10_000, 3)))
        index = build_index(cloud)
        for _ in range(50):
            q = rng.uniform(-1.1, 1.1, size=3)
            k = int(rng.integers(1, 64))
            fast = knn_query(index, q, k)
            slow = brute_force_knn(cloud, q, k)
            np.testing.assert_array_equal(fast.neighbor_indices, slow.neighbor_indices)

    def test_knn_monotonicity_prefix(self, rng):
        cloud = random_cloud(rng, n_points=50)
        index = build_index(cloud)
        q = rng.normal(size=3)
        previous = knn_query(index, q, 1).neighbor_indices
        for k in range(2, 51):
            current = knn_query(index, q, k).neighbor_indices
            np.testing.assert_array_equal(current[: k - 1], previous)
            previous = current


class TestBallQuery:
    def test_covering_radius_equals_knn(self, rng):
        cloud = random_cloud(rng, n_points=30)
        index = build_index(cloud)
        q = rng.normal(size=3)
        result = ball_query(index, q, radius=100.0, k_max=30)
        hood = knn_query(index, q, 30)
        np.testing.assert_array_equal(result.neighborhood.neighbor_indices, hood.neighbor_indices)
        assert not result.padded

    def test_empty_region_is_normal_outcome(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0]])
        result = ball_query(build_index(cloud), [10, 10, 10], radius=0.5, k_max=4)
        assert result.empty
        assert result.num_in_radius == 0

    def test_underfull_region_pads_with_nearest(self):
        cloud = _cloud_from_coords([[0, 0, 0], [0.5, 0, 0], [9, 9, 9]])
        result = ball_query(build_index(cloud), [0.1, 0, 0], radius=1.0, k_max=4)
        assert result.padded
        assert result.num_in_radius == 2
        hood = result.neighborhood
        assert hood.k == 4
        # the nearest point (index 0) fills the remaining slots
        assert np.count_nonzero(hood.neighbor_indices == 0) == 3

    def test_distances_within_radius_before_padding(self, rng):
        for _ in range(40):
            cloud = random_cloud(rng)
            index = build_index(cloud)
            q = rng.uniform(-1.2, 1.2, size=3)
            radius = float(rng.uniform(0.05, 1.0))
            result = ball_query(index, q, radius=radius, k_max=8)
            if result.empty:
                continue
            assert np.all(result.neighborhood.distances <= radius)

    def test_membership_matches_brute_filter(self, rng):
        for _ in range(60):
            cloud = random_cloud(rng)
            index = build_index(cloud)
            q = rng.uniform(-1.2, 1.2, size=3)
            radius = float(rng.uniform(0.05, 1.5))
            expected = brute_radius_filter(cloud, q, radius)
            result = ball_query(index, q, radius=radius, k_max=cloud.num_points)
            got = set() if result.empty else set(result.neighborhood.neighbor_indices.tolist())
            assert got == expected

    def test_truncates_to_nearest_k_max(self):
        cloud = _cloud_from_coords([[i, 0, 0] for i in range(6)])
        result = ball_query(build_index(cloud), [0, 0, 0], radius=10.0, k_max=3)
        np.testing.assert_array_equal(result.neighborhood.neighbor_indices, [0, 1, 2])

    def test_parameter_validation(self, rng):
        cloud = random_cloud(rng, n_points=4)
        index = build_index(cloud)
        with pytest.raises(DomainError):
            ball_query(index, [0, 0, 0], radius=0.0, k_max=2)
        with pytest.raises(DomainError):
            ball_query(index, [0, 0, 0], radius=1.0, k_max=0)


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


class TestBatchEngine:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 90), m=st.integers(1, 150))
    def test_knn_batch_rows_equal_brute_force(self, data, n, m):
        rng, coords = _cloud_strategy(data.draw, n)
        cloud = _cloud_from_coords(coords)
        k = data.draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))
        exclude_self = data.draw(st.booleans())
        queries = _queries(rng, coords, m)
        expected = []
        for q in queries:
            try:
                expected.append(brute_force_knn(cloud, q, k, exclude_self=exclude_self))
            except DomainError as exc:
                assert exc.kind == "k-out-of-range"
                with pytest.raises(DomainError) as batch_exc:
                    knn_batch(build_index(cloud), queries, k, exclude_self=exclude_self)
                assert batch_exc.value.kind == "k-out-of-range"
                return
        indices, distances = knn_batch(build_index(cloud), queries, k, exclude_self=exclude_self)
        assert indices.shape == distances.shape == (m, k)
        for row, hood in enumerate(expected):
            np.testing.assert_array_equal(indices[row], hood.neighbor_indices)
            assert distances[row].tobytes() == hood.distances.tobytes()

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
        for row, q in enumerate(queries):
            hood = brute_force_knn(cloud, q, k)
            np.testing.assert_array_equal(indices[row], hood.neighbor_indices)
            assert distances[row].tobytes() == hood.distances.tobytes()

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
