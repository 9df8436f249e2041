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

    def test_ball_query_pads_with_the_squared_distance_nearest(self):
        # index 0 is one ulp farther in squared distance, but the square roots
        # are one double: the under-full row repeats index 1, the (d2, index)-
        # nearest, and then orders every slot by (distance, index)
        a, b = 0.8319432152802452, 0.9214800195499495
        near = np.array([[a, np.nextafter(b, 2.0), 0.0], [a, b, 0.0]])
        filler = np.c_[np.linspace(10, 20, 100), np.zeros((100, 2))]
        index = build_index(_cloud_from_coords(np.vstack([near, filler])))
        queries = np.zeros((70, 3))
        for m in (1, 70):  # the direct scan and the grid
            batch = ball_query_batch(index, queries[:m], radius=1.5, k_max=4)
            np.testing.assert_array_equal(batch.num_in_radius, [2] * m)
            np.testing.assert_array_equal(batch.indices, [[0, 1, 1, 1]] * m)
            assert (batch.distances == batch.distances[0, 0]).all()

    def test_tied_and_untied_rows_share_a_grid_chunk(self):
        # an integer lattice with duplicates: many rows tie across the k-th
        # distance, and their ties lie in different cells, so the (d2, index)
        # order differs from the candidates' column order
        rng = np.random.default_rng(3)
        lattice = rng.integers(0, 5, size=(60, 3)).astype(np.float64)
        coords = np.vstack([lattice, lattice[:20], rng.uniform(0, 4, size=(20, 3))])
        cloud = _cloud_from_coords(coords)
        queries = coords[:80]
        # no row has more than N candidates, so all 80 rows are one chunk
        assert spatial._SAMPLE < queries.shape[0] <= spatial._BLOCK // coords.shape[0]
        k = 5
        d = coords - queries[:, None, :]
        d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]
        at_or_below = np.count_nonzero(d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1:k], axis=1)
        assert (at_or_below > k).any() and (at_or_below == k).any()
        expected = brute_force_knn(cloud, queries, k)
        indices, distances = knn_batch(build_index(cloud), queries, k)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("cell", [0.3, 1.0, 3.0])
    def test_any_grid_cell_gives_the_exact_rows(self, monkeypatch, cell):
        # on a cell of 1.0 the query's 27 cells hold A (0.03 away) and, laid
        # out before it, B (1.81 away), but not C (1.12 away): the row's
        # largest d2, not its last column, shows that it needs the scan
        points = {"origin": [0, 0, 0], "A": [2.05, 2.98, 0], "B": [1.0, 1.48, 0], "C": [0.9, 2.98, 0]}
        cloud = _cloud_from_coords(list(points.values()))
        monkeypatch.setattr(spatial, "_knn_grid", lambda index, k: spatial._Grid(index.coords, cell))
        queries = np.tile([2.02, 2.98, 0.0], (70, 1))
        indices, distances = knn_batch(build_index(cloud), queries, 2)
        np.testing.assert_array_equal(indices, [[1, 3]] * 70)
        expected = brute_force_knn(cloud, queries, 2)
        assert distances.tobytes() == expected[1].tobytes()

    def test_far_outlier_gives_the_exact_rows(self, rng):
        # the outlier stretches the grid cell to 1e194, whose square overflows, so
        # no grid can bound a K-set and every query takes the scan
        coords = np.vstack([rng.uniform(0, 1, size=(99, 3)), [[1e200, 0.0, 0.0]]])
        cloud = _cloud_from_coords(coords)
        indices, distances = knn_batch(build_index(cloud), coords, 4)
        expected = brute_force_knn(cloud, coords, 4)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    def test_scan_segments_with_overflowing_distances(self, rng):
        # every squared distance overflows to inf, so every point ties at the
        # k-th distance and the lowest indices win, across two scan segments
        coords = rng.uniform(-1, 1, size=(spatial._BLOCK + 10, 3)) * 1e200
        cloud = _cloud_from_coords(coords)
        queries = np.zeros((1, 3))
        indices, distances = knn_batch(build_index(cloud), queries, 3)
        expected = brute_force_knn(cloud, queries, 3)
        np.testing.assert_array_equal(indices, [[0, 1, 2]])
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    def test_batches_validate_their_queries(self):
        index = build_index(_cloud_from_coords([[0, 0, 0], [1, 0, 0]]))
        for bad, kind in (([[0, 0]], "dimension-mismatch"), ([[0, 0, np.nan]], "non-finite-value")):
            for call in (lambda: knn_batch(index, bad, 1), lambda: ball_query_batch(index, bad, 1.0, 2)):
                with pytest.raises(DomainError) as exc:
                    call()
                assert exc.value.kind == kind
        indices, distances = knn_batch(index, np.empty((0, 3)), 2)
        assert indices.shape == distances.shape == (0, 2)


# Clouds whose density varies across the cloud, each with its k: the first KNN
# grid is sized on the median point, so the sparse rows need coarser grids
def _cluster_beside_shell(rng):
    """A dense Gaussian cluster inside a sparse spherical shell 60 spreads away."""
    shell = rng.normal(size=(150, 3))
    shell *= 3.0 / np.linalg.norm(shell, axis=1, keepdims=True)
    return np.vstack([rng.normal(0.0, 0.05, size=(900, 3)), shell]), 16


def _uniform_cube(rng):
    return rng.uniform(0, 1, size=(1000, 3)), 16


def _thinned_floor(rng):
    """A flat floor seen from a scanner at the origin: kept with probability min(1, (r0/r)^2)."""
    xy = rng.uniform(-10, 10, size=(5000, 2))
    r = np.hypot(xy[:, 0], xy[:, 1])
    keep = rng.random(r.size) < np.minimum(1.0, (2.5 / r) ** 2)
    return np.c_[xy[keep], np.zeros(np.count_nonzero(keep))], 16


def _tied_lattice(rng):
    """Integer points, dense with duplicates in one corner and sparse elsewhere: most rows tie at the k-th distance."""
    dense = rng.integers(0, 5, size=(700, 3))
    sparse = rng.integers(0, 13, size=(300, 3)) * 3
    return np.vstack([dense, sparse]).astype(np.float64), 10


_DENSITY_CLOUDS = {"cluster-beside-shell": _cluster_beside_shell, "uniform-cube": _uniform_cube,
                   "thinned-floor": _thinned_floor, "tied-lattice": _tied_lattice}


class _Probe:
    """Records what knn_batch hands its searches: the grids and their row counts, scanned rows and grid builds."""

    def __init__(self, monkeypatch):
        self.levels, self.scanned, self.builds = [], 0, 0
        grid_search, scan_search, init = spatial._grid_search, spatial._scan_search, spatial._Grid.__init__

        def on_grid(index, grid, queries, k, r2=None):
            # each retry of a batch's rows is on a cell at least twice as large
            assert not self.levels or grid.cell >= 2 * self.levels[-1][0].cell
            self.levels.append((grid, queries.shape[0]))
            return grid_search(index, grid, queries, k, r2)

        def on_scan(index, queries, rows, k, r2=None):
            self.scanned += rows.size
            return scan_search(index, queries, rows, k, r2)

        def on_build(grid, *args):
            self.builds += 1
            init(grid, *args)

        monkeypatch.setattr(spatial, "_grid_search", on_grid)
        monkeypatch.setattr(spatial, "_scan_search", on_scan)
        monkeypatch.setattr(spatial._Grid, "__init__", on_build)

    def knn(self, index, queries, k):
        """One knn_batch call: its (indices, distances) and the (grid, rows) it searched, first grid first."""
        self.levels = []
        return knn_batch(index, queries, k), self.levels


class TestGridEscalation:
    @pytest.mark.parametrize("make", _DENSITY_CLOUDS.values(), ids=_DENSITY_CLOUDS.keys())
    def test_batches_equal_brute_force_and_no_row_takes_the_scan(self, monkeypatch, make):
        coords, k = make(np.random.default_rng(0))
        cloud = _cloud_from_coords(coords)
        expected = brute_force_knn(cloud, coords, k)
        probe = _Probe(monkeypatch)
        index = build_index(cloud)
        for first in range(3):
            (indices, distances), levels = probe.knn(index, coords[first::3], k)
            np.testing.assert_array_equal(indices, expected[0][first::3])
            assert distances.tobytes() == expected[1][first::3].tobytes()
            # every row starts on the first grid
            assert levels[0] == (spatial._knn_grid(index, k), indices.shape[0])
        assert probe.scanned == 0

    @pytest.mark.parametrize("make", _DENSITY_CLOUDS.values(), ids=_DENSITY_CLOUDS.keys())
    def test_repeated_batches_build_each_grid_once(self, monkeypatch, make):
        coords, k = make(np.random.default_rng(0))
        probe = _Probe(monkeypatch)
        index = build_index(coords)
        used = set()
        for first in range(3):
            used.update(id(grid) for grid, _ in probe.knn(index, coords[first::3], k)[1])
        assert probe.builds == len(used)
        for first in range(3):
            probe.knn(index, coords[first::3], k)
        assert probe.builds == len(used)

    def test_sparse_rows_are_answered_on_a_coarser_grid(self, monkeypatch):
        coords, k = _cluster_beside_shell(np.random.default_rng(0))
        cloud = _cloud_from_coords(coords)
        (indices, distances), levels = _Probe(monkeypatch).knn(build_index(cloud), coords, k)
        # some rows fail the first grid's proof, and some of those pass the second's
        (first, all_rows), (second, retried) = levels[:2]
        assert 0 < retried < all_rows
        assert len(levels) == 2 or levels[2][1] < retried
        assert (distances[:, -1] >= spatial._MARGIN * first.cell).sum() >= retried > 0
        expected = brute_force_knn(cloud, coords, k)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()

    def test_rows_left_on_a_two_cell_grid_take_the_scan(self, monkeypatch, rng):
        # a first grid of 2 cells per axis: its 27 cells around any query hold
        # every point, so a coarser grid would add no candidate, and the rows
        # it cannot prove are scanned
        coords = rng.uniform(0, 1, size=(100, 3))
        cloud = _cloud_from_coords(coords)
        probe = _Probe(monkeypatch)
        monkeypatch.setattr(spatial, "_knn_grid", lambda index, k: spatial._Grid(index.coords, 0.6))
        (indices, distances), levels = probe.knn(build_index(cloud), coords, 50)
        assert len(levels) == 1 and (levels[0][0].top == 1).all()
        assert 0 < probe.scanned < 100
        expected = brute_force_knn(cloud, coords, 50)
        np.testing.assert_array_equal(indices, expected[0])
        assert distances.tobytes() == expected[1].tobytes()
