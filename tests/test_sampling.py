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
    """(coords, m, seed): tie-heavy grids, duplicates, flat planes, walls,
    translated and scattered floats, N from 1 to a few hundred."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "plane", "wall", "translated", "scattered"]))
    if kind == "grid":
        coords = rng.integers(-3, 4, size=(n, 3)) * draw(st.sampled_from([0.1, 0.3, 1.0, 2.0**-3]))
    elif kind == "duplicates":
        distinct = draw(st.integers(1, 4))
        coords = rng.normal(size=(distinct, 3))[rng.integers(0, distinct, size=n)]
    elif kind == "plane":
        coords = rng.uniform(-1.0, 1.0, size=(n, 3))
        coords[:, draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, 0.3, -7.5]))
    elif kind == "wall":
        # a plane perpendicular to the widest (sort) axis: many equal sort keys
        axis = draw(st.integers(0, 2))
        coords = rng.uniform(-1.0, 1.0, size=(n, 3))
        coords[:, axis] *= 4.0
        coords[rng.random(n) < draw(st.sampled_from([0.25, 0.5, 0.9])), axis] = draw(
            st.sampled_from([0.0, 0.3, -2.5]))
    elif kind == "translated":
        # a cloud a few key spacings wide, far from the origin: every coordinate
        # rounds onto a coarse grid, so key[p] -/+ r often lands on a key
        offset = draw(st.sampled_from([1e6, -1e7, 3.3e7, 1e8]))
        width = np.spacing(abs(offset)) * draw(st.sampled_from([2, 4, 8]))
        coords = offset + rng.uniform(-1.0, 1.0, size=(n, 3)) * width
    else:
        coords = rng.uniform(-1.0, 1.0, size=(n, 3)) * 10.0 ** draw(st.integers(-3, 3))
    m = draw(st.one_of(st.just(n), st.integers(1, n)))
    return coords, m, draw(st.integers(0, 1000))


def _floor_wall_chain(points, planes, seed):
    """Alternating 3 x 1 floors and 2 x 1 walls sharing edges, plane p holding
    a share of the points proportional to p + 1.  x is the widest axis, so
    every wall repeats one sort key, and late picks have narrow slabs."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, planes + 1)
    counts = points * weights // weights.sum()
    counts[-1] += points - counts.sum()
    chunks, x, z = [], 0.0, 0.0
    for p, count in enumerate(counts):
        v = rng.random(count)
        if p % 2 == 0:
            chunks.append(np.stack([x + 3.0 * rng.random(count), v, np.full(count, z)], axis=1))
            x += 3.0
        else:
            chunks.append(np.stack([np.full(count, x), v, z + 2.0 * rng.random(count)], axis=1))
            z += 2.0
    return np.concatenate(chunks)


class TestFps:
    @settings(max_examples=100, deadline=None)
    @given(case=_fps_cases())
    def test_matches_reference_loop_and_keeps_prefixes(self, case):
        coords, m, seed = case
        picks = fps_coords(coords, m, seed)
        first = int(np.random.default_rng(seed).integers(len(coords)))
        np.testing.assert_array_equal(picks, fps_reference(coords, m, first))
        assert picks.dtype == np.int64
        if m > 1:
            np.testing.assert_array_equal(fps_coords(coords, m - 1, seed), picks[:-1])

    def test_large_floor_wall_chain_matches_reference_loop(self):
        coords = _floor_wall_chain(20_000, 6, seed=3)
        assert int(np.ptp(coords, axis=0).argmax()) == 0
        first = int(np.random.default_rng(11).integers(len(coords)))
        np.testing.assert_array_equal(fps_coords(coords, 512, 11), fps_reference(coords, 512, first))

    def test_tie_goes_to_the_lower_index_when_it_sorts_later(self):
        # from the center, points 0 and 1 tie at d2 = 100; on x, the widest
        # axis, point 1 sorts first, yet point 0 must be picked
        coords = np.array([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        seed = next(s for s in range(100) if np.random.default_rng(s).integers(5) == 2)
        picks = fps_coords(coords, 5, seed)
        assert picks[:2].tolist() == [2, 0]
        np.testing.assert_array_equal(picks, fps_reference(coords, 5, 2))

    def test_slab_radius_margin_keeps_a_point_half_an_ulp_out(self):
        # pick 1 is point 1, at D, the min_d2 it shares with point 3 after pick 0.
        # r0 = fl(sqrt(D)) has an even last bit and fl(r0 * r0) < D, and point 1's
        # key is half an ulp of r0, so fl(key + r0) rounds down to r0: a radius
        # without the 1e-9 margin leaves point 3 out of pick 1's slab.  Its
        # min_d2 then stays at D, above the fl(r0 * r0) that points 2 and 3
        # really tie at, and point 3 is picked before the lower index 2
        coords = np.array([[0.5197964383321017, 0.9003138407845425, 0.0],
                           [1.1102230246251565e-16, 0.0, 0.0],
                           [0.5197964383321017, 0.9003138407845425, 1.0395928766642029],
                           [1.039592876664203, 0.0, 0.0]])
        first = int(np.random.default_rng(11).integers(4))
        picks = fps_coords(coords, 3, 11)
        assert picks.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(picks, fps_reference(coords, 3, first))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_distances_match_reference_loop(self, rng):
        # squares of 1e160-scale differences overflow, so D and the slab radius are inf
        coords = rng.uniform(-1.0, 1.0, size=(40, 3)) * 1e160
        coords[:5] = rng.uniform(-1.0, 1.0, size=(5, 3))
        first = int(np.random.default_rng(4).integers(40))
        np.testing.assert_array_equal(fps_coords(coords, 40, 4), fps_reference(coords, 40, first))

    @pytest.mark.parametrize("coords, kind", [
        (np.zeros((5, 2)), "dimension-mismatch"),
        (np.zeros(6), "dimension-mismatch"),
        (np.zeros((2, 3, 3)), "dimension-mismatch"),
        ([[0.0, 0.0, 0.0], [1.0, 2.0]], "dimension-mismatch"),
        (np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0]]), "non-finite-value"),
        (np.array([[0.0, -np.inf, 0.0], [1.0, 1.0, 2.0]]), "non-finite-value"),
    ])
    def test_malformed_coords_are_domain_errors(self, coords, kind):
        with pytest.raises(DomainError) as exc:
            fps_coords(coords, 1, seed=0)
        assert exc.value.kind == kind

    def test_unit_square_opposite_corner(self):
        cloud = _cloud_from_coords([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        picks = farthest_point_sample(cloud, 2, seed=0)
        # corners i and 3 - i are diagonal; the diagonal corner maximizes min distance
        assert picks[1] == 3 - picks[0]

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
