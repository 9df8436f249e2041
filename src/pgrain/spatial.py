"""Exact nearest-neighbor and radius search over point coordinates.

One batched engine answers every query: :func:`knn_batch` and
:func:`ball_query_batch` take an (M, 3) array of query coordinates and
return (M, K) neighbor indices and distances.  :func:`brute_force_knn` is
the independent scan oracle that tests compare :func:`knn_batch` against.

Results are exact and fully deterministic.  Squared distances are
accumulated as dx*dx + dy*dy + dz*dz, the K nearest are chosen by
(squared distance, point index), and the chosen rows are then ordered by
(distance, index) on the square-rooted distances that are reported, so the
engine agrees with the brute-force scan bit for bit, ties included.

A batch of more than ``_SAMPLE`` queries is answered on a uniform grid of
cubic cells: points are sorted by linear cell key, and each query is
compared with the points of the 27 cells around its own.  For KNN the cell
is 2.5 times the median distance from a strided sample of the points to
their K-th nearest other point, and the index keeps the grid for the next
batch with the same K.  A query counts as answered only when its K-th
candidate distance is below 0.99 cell, which proves that the 27 cells hold
every true neighbor and every tie; the rest, and every query of a small
batch, get an exact scan over all points.  For a ball query the cell is
the radius over 0.99, so the 27 cells always hold the whole ball.  The cell
size decides only the speed, never the result.  Work runs in chunks of
about ``_BLOCK`` candidate entries, which bounds every temporary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .core import DomainError, PointCloud, _to_matrix

_SAMPLE = 64  # points scanned to size the KNN grid cell; batches this small are scanned directly
_BLOCK = 8192  # candidate entries per chunk
_CELL_RATIO = 2.5  # KNN grid cell over the sampled median K-th-neighbor distance
_MARGIN = 0.99  # fraction of a cell within which the 27 cells are proven complete
_MAX_CELLS = 2.0 ** 20  # cells per axis at most, so linear keys fit in int64
_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)


def _sq_dist(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = points - q
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


class NeighborIndex:
    """Validated cloud coordinates for the batch queries.

    Contains exactly the input points, duplicates included.  Accepts a
    PointCloud or a bare (N, 3) coordinate array.  The points never change;
    the grid of the last KNN batch is kept for the next batch with the same k.
    """

    def __init__(self, cloud):
        if isinstance(cloud, PointCloud):
            coords = cloud.coords
        else:
            coords = np.asarray(cloud, dtype=np.float64)
            if coords.ndim != 2 or coords.shape[1] != 3:
                raise DomainError("dimension-mismatch", f"coordinates must be (N, 3), got {coords.shape}")
            if not np.isfinite(coords).all():
                raise DomainError("non-finite-value", "coordinates contain a non-finite entry")
        if coords.shape[0] < 1:
            raise DomainError("empty-cloud", "cannot index an empty cloud")
        self.coords = coords
        self.num_points = coords.shape[0]
        # one row per axis plus an infinitely far sentinel point at index N:
        # candidate slots padded with N come out at squared distance inf
        self._axes = np.hstack([coords.T, np.full((3, 1), np.inf)])
        self._last_grid: Tuple[int, Optional[_Grid]] = (0, None)  # (k, grid) of the last KNN batch


class _Grid:
    """The index's points bucketed into cubic cells, sorted by linear cell key."""

    def __init__(self, coords: np.ndarray, cell: float):
        self.cell = cell
        self.lo = coords.min(axis=0)
        # the highest cell of each axis: cell numbers rise monotonically with the coordinate
        self.top = np.floor((coords.max(axis=0) - self.lo) / cell).astype(np.int64)
        # queries are clamped into the points' cells, whose 27 cells reach one
        # further: a spare layer on each side
        shape = self.top + 3
        self.offsets = _OFFSETS @ np.array([1, shape[0], shape[0] * shape[1]])
        keys = self._keys(coords)
        self.order = np.argsort(keys, kind="stable")
        keys = keys[self.order]
        self.start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.keys = keys[self.start]
        self.count = np.diff(np.r_[self.start, keys.size])

    @classmethod
    def build(cls, coords: np.ndarray, cell: float) -> Optional["_Grid"]:
        """A grid with cells of at least ``cell``, or None if none can be laid."""
        extent = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
        cell = max(cell, extent / _MAX_CELLS)
        if not (np.isfinite(cell) and cell > 0):
            return None
        return cls(coords, cell)

    def _keys(self, coords: np.ndarray) -> np.ndarray:
        """Linear cell key of each row, clamped into the points' cells."""
        key = np.zeros(coords.shape[0], dtype=np.int64)
        for axis in (2, 1, 0):
            with np.errstate(over="ignore"):  # a far query saturates to inf and is clamped
                c = coords[:, axis] - self.lo[axis]
                c /= self.cell
            np.clip(c, 0, self.top[axis], out=c)
            key *= self.top[axis] + 3
            key += np.floor(c).astype(np.int64) + 1
        return key

    def _near(self, queries: np.ndarray):
        """Each query's cell group, and each group's 27 (start, count) runs in the sorted points."""
        cells, inverse = np.unique(self._keys(queries), return_inverse=True)
        near = cells[:, None] + self.offsets
        pos = np.minimum(np.searchsorted(self.keys, near), self.keys.size - 1)
        hit = self.keys[pos] == near
        return inverse, np.where(hit, self.start[pos], 0), np.where(hit, self.count[pos], 0)

    def blocks(self, queries: np.ndarray, n: int, min_width: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Chunks of (query rows, candidate point indices padded with n).

        Each query's candidates are the points of the 27 cells around its
        own.  A query outside the points' cells is clamped into the nearest
        one: every point within a cell of the query lies in that cell.
        """
        for first in range(0, queries.shape[0], _BLOCK):
            inverse, start, count = self._near(queries[first:first + _BLOCK])
            total = count.sum(axis=1)[inverse]
            # widest first, so a chunk's first query sets its width
            order = np.argsort(-total, kind="stable")
            i = 0
            while i < order.size:
                width = max(int(total[order[i]]), min_width)
                rows = order[i:i + max(1, _BLOCK // width)]
                i += rows.size
                # lay each row's 27 runs of sorted points side by side
                run_start, run_count = start[inverse[rows]].ravel(), count[inverse[rows]].ravel()
                row_total = total[rows]
                flat = np.arange(row_total.sum())
                src = flat + np.repeat(run_start - (np.cumsum(run_count) - run_count), run_count)
                col = flat - np.repeat(np.cumsum(row_total) - row_total, row_total)
                cand = np.full((rows.size, width), n, dtype=np.int64)
                cand[np.repeat(np.arange(rows.size), row_total), col] = self.order[src]
                yield first + rows, cand


def _sq_dists(index: NeighborIndex, cand: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(Q, C) squared distances from each query to its candidate points."""
    d2 = None
    for axis in range(3):
        d = np.take(index._axes[axis], cand)
        d -= queries[:, axis, None]
        d *= d
        if d2 is None:
            d2 = d
        else:
            d2 += d
    return d2


def _kept(index: NeighborIndex, queries: np.ndarray, cand: np.ndarray,
          r2: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Squared distances to the candidates; with ``r2``, those above it are
    dropped and become (inf, N) like padding."""
    n = index.num_points
    d2 = _sq_dists(index, cand, queries)
    if r2 is None:
        return d2, cand
    drop = (cand == n) | (d2 > r2)
    d2[drop] = np.inf
    return d2, np.where(drop, n, cand)


def _smallest(d2: np.ndarray, cand: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The k smallest (d2, index) pairs of each row, in that order.

    A row needs at least k columns.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(d2 <= kth[:, None])  # every entry tied at the k-th distance
    ids = cand[rows, cols]
    dist2 = d2[rows, cols]
    order = np.lexsort((ids, dist2, rows))
    pick = order[np.searchsorted(rows, np.arange(d2.shape[0]))[:, None] + np.arange(k)]
    return ids[pick], dist2[pick]


def _grid_search(index: NeighborIndex, grid: _Grid, queries: np.ndarray, k: int, r2: Optional[float] = None):
    """(rows, ids, d2, kept) chunks: the k smallest kept pairs among each query's 27 cells.

    ``kept`` counts the candidates that :func:`_kept` did not drop.
    """
    n = index.num_points
    for rows, cand in grid.blocks(queries, n, k):
        d2, cand = _kept(index, queries[rows], cand, r2)
        ids, d2 = _smallest(d2, cand, k)
        yield rows, ids, d2, np.count_nonzero(cand < n, axis=1)


def _scan_search(index: NeighborIndex, queries: np.ndarray, rows: np.ndarray, k: int,
                 r2: Optional[float] = None):
    """(rows, ids, d2, kept) chunks like :func:`_grid_search`, over all points.

    Each chunk of queries merges its best k with one segment of points at
    a time, so no temporary outgrows ``_BLOCK`` entries plus the best k.
    """
    n = index.num_points
    seg = min(n, _BLOCK)
    for i in range(0, rows.size, _BLOCK // seg):
        chunk = rows[i:i + _BLOCK // seg]
        ids = np.full((chunk.size, k), n, dtype=np.int64)
        d2 = np.full((chunk.size, k), np.inf)
        kept = np.zeros(chunk.size, dtype=np.int64)
        for lo in range(0, n, seg):
            part = np.broadcast_to(np.arange(lo, min(lo + seg, n)), (chunk.size, min(seg, n - lo)))
            part_d2, part_ids = _kept(index, queries[chunk], part, r2)
            kept += np.count_nonzero(part_ids < n, axis=1)
            ids, d2 = _smallest(np.hstack([d2, part_d2]), np.hstack([ids, part_ids]), k)
        yield chunk, ids, d2, kept


def _store(indices: np.ndarray, distances: np.ndarray, rows: np.ndarray,
           ids: np.ndarray, d2: np.ndarray) -> None:
    """Write rows in reported order: (distance, index) on the square-rooted distances.

    sqrt can collapse adjacent squared distances onto one double, and ties
    must come out by ascending index.
    """
    dist = np.sqrt(d2)
    order = np.lexsort((ids, dist), axis=1)
    indices[rows] = np.take_along_axis(ids, order, axis=1)
    distances[rows] = np.take_along_axis(dist, order, axis=1)


def _knn_grid(index: NeighborIndex, k: int) -> Optional[_Grid]:
    """The grid for k-nearest queries; the index keeps the one built last.

    Its cell is 2.5 times the median distance from a strided sample of the
    points to their k-th nearest other point.
    """
    built_for, grid = index._last_grid
    if built_for != k:
        n = index.num_points
        sample = index.coords[::max(1, n // _SAMPLE)][:_SAMPLE]
        # each sample point is its own nearest, at distance zero
        chunks = _scan_search(index, sample, np.arange(len(sample)), min(k + 1, n))
        kth = np.sort(np.concatenate([d2[:, -1] for _, _, d2, _ in chunks]))
        # np.median would import numpy.ma, a megabyte of resident memory
        grid = _Grid.build(index.coords, _CELL_RATIO * float(np.sqrt(kth[kth.size // 2])))
        index._last_grid = (k, grid)
    return grid


def _as_queries(queries) -> np.ndarray:
    q = _to_matrix(queries, "queries")
    if q.shape[1] != 3:
        raise DomainError("dimension-mismatch", f"queries must be (M, 3), got shape {q.shape}")
    if not np.isfinite(q).all():
        raise DomainError("non-finite-value", "queries contain a non-finite entry")
    return q


def knn_batch(index: NeighborIndex, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The k exactly-nearest points of each query row.

    Returns (M, k) neighbor indices and distances, each row in ascending
    distance with ties by index, exactly as :func:`brute_force_knn`.  A
    query that coincides with a cloud point gets that point first, at
    distance zero.
    """
    q = _as_queries(queries)
    n = index.num_points
    if not 1 <= k <= n:
        raise DomainError("k-out-of-range", f"k={k} outside [1, {n}]")
    grid = _knn_grid(index, k) if q.shape[0] > _SAMPLE else None
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    distances = np.empty((q.shape[0], k))
    rows = np.arange(q.shape[0])
    if grid is not None:
        bound = (_MARGIN * grid.cell) ** 2
        unsafe: List[np.ndarray] = []
        for chunk, ids, d2, _ in _grid_search(index, grid, q, k):
            safe = d2[:, -1] < bound
            _store(indices, distances, chunk[safe], ids[safe], d2[safe])
            unsafe.append(chunk[~safe])
        rows = np.concatenate(unsafe)
    for chunk, ids, d2, _ in _scan_search(index, q, rows, k):
        _store(indices, distances, chunk, ids, d2)
    return indices, distances


@dataclass(frozen=True, eq=False)
class BallQueryBatch:
    """Ball-query rows of a batch.

    ``indices`` and ``distances`` are (M, k_max).  An under-full row repeats
    its nearest point, so it reads ``[i0] * (k_max - found + 1) + rest``
    before the distance re-sort; rows of empty regions are all zero.
    """

    indices: np.ndarray
    distances: np.ndarray
    num_in_radius: np.ndarray  # (M,) points inside the radius, before truncation to k_max

    @property
    def occupied(self) -> np.ndarray:
        return self.num_in_radius > 0

    @property
    def padded(self) -> np.ndarray:
        return self.occupied & (self.num_in_radius < self.indices.shape[1])


def ball_query_batch(index: NeighborIndex, queries, radius: float, k_max: int) -> BallQueryBatch:
    """Up to k_max points with distance <= radius for each query row, nearest first.

    Follows the set-abstraction padding convention: an under-full region
    repeats its nearest point up to k_max, and a region with no points at
    all is a normal empty outcome (``occupied`` False), not an error.
    """
    q = _as_queries(queries)
    if not radius > 0:
        raise DomainError("invalid-spec", f"radius must be > 0, got {radius}")
    if k_max < 1:
        raise DomainError("k-out-of-range", f"k_max must be >= 1, got {k_max}")
    m = q.shape[0]
    r2 = radius * radius
    indices = np.zeros((m, k_max), dtype=np.int64)
    distances = np.zeros((m, k_max))
    found = np.zeros(m, dtype=np.int64)
    grid = _Grid.build(index.coords, radius / _MARGIN) if m > _SAMPLE else None
    if grid is not None:
        chunks = _grid_search(index, grid, q, k_max, r2=r2)
    else:
        chunks = _scan_search(index, q, np.arange(m), k_max, r2=r2)
    for chunk, ids, d2, count in chunks:
        # an under-full row repeats its nearest point in front
        src = np.maximum(np.arange(k_max) - np.maximum(k_max - count, 0)[:, None], 0)
        full = count > 0
        _store(indices, distances, chunk[full], np.take_along_axis(ids[full], src[full], axis=1),
               np.take_along_axis(d2[full], src[full], axis=1))
        found[chunk] = count
    return BallQueryBatch(indices=indices, distances=distances, num_in_radius=found)


def build_index(cloud) -> NeighborIndex:
    """Index a PointCloud's coordinates, or a bare (N, 3) array, for exact queries."""
    return NeighborIndex(cloud)


def brute_force_knn(cloud: PointCloud, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """O(M·N) scan oracle for :func:`knn_batch`, one query row at a time.

    Each row sorts all N points by (squared distance, index), keeps the
    first k and orders them by (distance, index) on the square-rooted
    distances.  It shares no
    search code with the engine, so tests can compare the two array to array.
    """
    q = _as_queries(queries)
    n = cloud.num_points
    if not 1 <= k <= n:
        raise DomainError("k-out-of-range", f"k={k} outside [1, {n}]")
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    distances = np.empty((q.shape[0], k))
    for row, point in enumerate(q):
        d2 = _sq_dist(cloud.coords, point)
        chosen = np.lexsort((np.arange(n), d2))[:k]
        dist = np.sqrt(d2[chosen])
        # sqrt can collapse adjacent squared distances onto one double, and
        # ties must come out by ascending index
        resort = np.lexsort((chosen, dist))
        indices[row] = chosen[resort]
        distances[row] = dist[resort]
    return indices, distances
