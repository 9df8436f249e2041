"""Representative-point selection: farthest point sampling and a random baseline.

Both samplers are pure functions of (cloud, m, seed).  Distances are taken
on coordinates only; features never influence selection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import DomainError, PointCloud


def fps_coords(coords: np.ndarray, m: int, seed: int,
               first_index: Optional[int] = None) -> np.ndarray:
    """Farthest point sampling over a bare (N, 3) coordinate array.

    Distances are squared and summed as ``(dx*dx + dy*dy) + dz*dz``, always
    in that order, so every distance bit, and with it every pick, is fixed.
    Each pick is the first index of the largest minimum distance (ties go to
    the lowest index); picked points are never picked again.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise DomainError("m-out-of-range", f"m={m} outside [1, {n}]")
    if first_index is None:
        first = int(np.random.default_rng(seed).integers(n))
    else:
        if not 0 <= first_index < n:
            raise DomainError("m-out-of-range", f"first_index={first_index} outside [0, {n})")
        first = int(first_index)

    # contiguous columns and reused buffers: no array is allocated per pick
    x, y, z = (np.ascontiguousarray(coords[:, axis]) for axis in range(3))
    d2, tmp = np.empty(n), np.empty(n)

    def sq_dist(i: int) -> np.ndarray:
        np.subtract(x, x[i], out=d2)
        np.multiply(d2, d2, out=d2)
        for col in (y, z):
            np.subtract(col, col[i], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
        return d2

    selected = np.empty(m, dtype=np.int64)
    selected[0] = first
    # squared distances keep the argmax and its ties identical to true distances
    min_d2 = sq_dist(first).copy()
    min_d2[first] = -np.inf  # selected points can never be picked again
    for t in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected[t] = nxt
        np.minimum(min_d2, sq_dist(nxt), out=min_d2)
        min_d2[nxt] = -np.inf
    return selected


def farthest_point_sample(cloud: PointCloud, m: int, seed: int,
                          first_index: Optional[int] = None) -> np.ndarray:
    """Greedy max-min selection of m point indices.

    The first index is drawn uniformly from the seeded generator (or forced
    via ``first_index`` for analysis); each subsequent pick maximizes its
    minimum distance to the points already selected, ties broken by
    ascending index.  Output for m is always a prefix of output for m+1.
    """
    return fps_coords(cloud.coords, m, seed, first_index)


def random_sample(cloud: PointCloud, m: int, seed: int) -> np.ndarray:
    """m distinct uniformly-drawn indices, deterministic per seed."""
    n = cloud.num_points
    if not 1 <= m <= n:
        raise DomainError("m-out-of-range", f"m={m} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
