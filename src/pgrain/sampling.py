"""Representative-point selection: farthest point sampling and a random baseline.

Both samplers are pure functions of (cloud, m, seed).  Distances are taken
on coordinates only; features never influence selection.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, PointCloud, _to_matrix


def fps_coords(coords: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Farthest point sampling over a bare, finite (N, 3) coordinate array.

    Distances are squared and summed as ``(dx*dx + dy*dy) + dz*dz``, always
    in that order, so every distance bit, and with it every pick, is fixed.
    Each pick is the first index of the largest minimum distance (ties go to
    the lowest index); picked points are never picked again.

    Each pick costs one argmax pass plus the update of one slab.  Let D be
    the value of the new pick p, the largest ``min_d2`` over unpicked points,
    so no unpicked ``min_d2`` exceeds D.  A sum of non-negative terms is never
    below one of its terms, so p can lower ``min_d2[i]`` only if fl(a*a) < D,
    where a = |fl(key[i] - key[p])| is the distance on the sort axis.  The
    points are sorted once, stably, on the widest axis, and every such point
    has its key in [fl(key[p] - r), fl(key[p] + r)] with
    r = fl(fl(sqrt(D)) * (1 + 1e-9)):

    - Round-to-nearest is monotone and leaves floats fixed, so fl(a*a) < D
      gives a*a < D exactly, that is a < sqrt(D).
    - fl(sqrt(D)) and the product each round by at most half an ulp; the
      1e-9 margin outweighs both, so r > sqrt(D) > a.
    - The same two facts turn fl(key[i] - key[p]) < r into the exact
      key[i] < key[p] + r, and since key[i] is a float, into
      key[i] <= fl(key[p] + r).  The lower bound is the mirror image.

    So both bounds are inclusive (``searchsorted`` with ``side="left"``
    below and ``side="right"`` above).  Points outside the slab keep their
    ``min_d2`` bit for bit.  D = inf, where squares overflow, gives
    r = inf and a slab of the whole array.

    Raises:
        DomainError: ``dimension-mismatch`` unless coords is (N, 3),
            ``non-finite-value`` on a NaN or infinite coordinate, and
            ``m-out-of-range`` unless 1 <= m <= N.
    """
    coords = _to_matrix(coords, "coords")
    if coords.shape[1] != 3:
        raise DomainError("dimension-mismatch", f"coords must be (N, 3), got {coords.shape}")
    if not np.isfinite(coords).all():
        raise DomainError("non-finite-value", "coords contain a non-finite entry")
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise DomainError("m-out-of-range", f"m={m} outside [1, {n}]")
    first = int(np.random.default_rng(seed).integers(n))

    # sorted position -> original index; contiguous sorted columns
    axis = int(np.ptp(coords, axis=0).argmax())
    order = np.argsort(coords[:, axis], kind="stable")
    x, y, z = (coords[order, col] for col in range(3))
    key = (x, y, z)[axis]
    # reused buffers: no array is allocated per pick
    d2, tmp = np.empty(n), np.empty(n)
    # squared distances keep the argmax and its ties identical to true distances;
    # before the first pick every point is infinitely far, so its slab is everything
    min_d2 = np.full(n, np.inf)
    selected = np.empty(m, dtype=np.int64)
    p, big = int(np.flatnonzero(order == first)[0]), np.inf
    for t in range(m):
        if t:
            p = int(min_d2.argmax())
            big = min_d2.item(p)
            # argmax returns the first maximum, so a tie can only sit after p;
            # no value exceeds big, so a tie shows as a later maximum equal to it
            if p + 1 < n and min_d2.item(p + 1 + min_d2[p + 1:].argmax()) == big:
                tied = p + np.flatnonzero(min_d2[p:] == big)
                p = int(tied[order[tied].argmin()])
        selected[t] = order[p]
        r = math.sqrt(big) * (1.0 + 1e-9)
        at = key.item(p)
        lo = key.searchsorted(at - r, "left")
        hi = key.searchsorted(at + r, "right")
        out, scratch = d2[:hi - lo], tmp[:hi - lo]
        np.subtract(x[lo:hi], x[p], out=out)
        np.multiply(out, out, out=out)
        for col in (y, z):
            np.subtract(col[lo:hi], col[p], out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.add(out, scratch, out=out)
        slab = min_d2[lo:hi]
        np.minimum(slab, out, out=slab)
        min_d2[p] = -np.inf  # selected points can never be picked again
    return selected


def farthest_point_sample(cloud: PointCloud, m: int, seed: int) -> np.ndarray:
    """Greedy max-min selection of m point indices.

    The first index is drawn uniformly from the seeded generator; each
    subsequent pick maximizes its minimum distance to the points already
    selected, ties broken by ascending index.  Output for m is always a
    prefix of output for m+1.
    """
    return fps_coords(cloud.coords, m, seed)


def random_sample(cloud: PointCloud, m: int, seed: int) -> np.ndarray:
    """m distinct uniformly-drawn indices, deterministic per seed."""
    n = cloud.num_points
    if not 1 <= m <= n:
        raise DomainError("m-out-of-range", f"m={m} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
