"""Exact nearest-neighbor and radius search over point coordinates.

One batched engine answers every query: :func:`knn_batch` and
:func:`ball_query_batch` take an (M, 3) array of query coordinates and
return (M, K) neighbor indices and distances.  :func:`brute_force_knn` is
the independent scan oracle that tests compare :func:`knn_batch` against.

Results are exact and fully deterministic.  Squared distances are summed as
dx*dx + dy*dy + dz*dz (one that overflows is inf, with no warning), and each
row's K-set is the K smallest (squared distance, point index) pairs, so the
engine equals the brute-force scan bit for bit, ties included.  The order is
fixed in two places: :func:`_smallest` sorts by (squared distance, index)
only the rows tied across their K-th distance, and :func:`_store` writes
every row in (distance, index) order on the square-rooted distances that are
reported.  A ball query also orders its K-set by (squared distance, index)
before padding, since the padding repeats the first point.

A batch of more than ``_SAMPLE`` queries is answered on a uniform grid of
cubic cells: points are sorted by linear cell key, and each query is
compared with the points of the 27 cells around its own.  A chunk's
queries are grouped by cell, and the candidates are laid out once per
cell: a (G, W) array of point indices, one row per distinct query cell,
whose coordinates each query row gathers through its cell's row.

For KNN the first cell is 1.5 times the median distance from a strided
sample of the points to their K-th nearest other point.  A query counts as
answered only when the largest distance of its K-set is below 0.99 cell,
which proves that the 27 cells hold every true neighbor and every tie.
The queries a grid cannot prove are searched again on a grid whose cell is
at least twice as large, under the same proof, until none is left, so the
cell can be tight where most points are and a sparse region does not
loosen it for everyone.  The index keeps every grid it builds for the
next batch with the same K.  Only the queries left unproven on a grid of
at most 2 cells per axis (a coarser one holds no more candidates), the
queries of a cloud no grid fits, and every query of a small batch get an
exact scan over all points.  For a ball query the cell is the radius over
0.99, so the 27 cells always hold the whole ball.  The cell size decides
only the speed, never the result.  Work runs in chunks of about ``_BLOCK``
candidate entries, which bounds every temporary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .core import DomainError, PointCloud, _coords, _count, _real

_SAMPLE = 64  # points scanned to size the KNN grid cell; batches this small are scanned directly
_BLOCK = 8192  # candidate entries per chunk
_CELL_RATIO = 1.5  # KNN grid cell over the sampled median K-th-neighbor distance
_MARGIN = 0.99  # fraction of a cell within which the 27 cells are proven complete
_MAX_CELLS = 2.0 ** 20  # cells per axis at most, so linear keys fit in int64
_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)


class NeighborIndex:
    """Validated cloud coordinates for the batch queries.

    Contains exactly the input points, duplicates included.  Accepts a
    PointCloud or a bare (N, 3) coordinate array.  The points never change;
    the grids of the last KNN batches are kept for the next batch with the same k.
    """

    def __init__(self, cloud):
        # a PointCloud was checked when it was built
        coords = cloud.coords if isinstance(cloud, PointCloud) else _coords(cloud, "coordinates")
        if coords.shape[0] < 1:
            raise DomainError("empty-cloud", "cannot index an empty cloud")
        self.coords = coords
        self.num_points = coords.shape[0]
        # one row per axis plus an infinitely far sentinel point at index N:
        # candidate slots padded with N come out at squared distance inf
        self._axes = np.hstack([coords.T, np.full((3, 1), np.inf)])
        # (k, grids) of the last KNN batch: the first grid, then each coarser one
        # the batches with that k have needed, finest first
        self._knn_grids: Tuple[int, List[Optional[_Grid]]] = (0, [])


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
        with np.errstate(over="ignore"):  # an extent that overflows is inf: no grid, below
            extent = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
        cell = max(cell, extent / _MAX_CELLS)
        if not (np.isfinite(cell * cell) and cell > 0):  # knn_batch's bound squares the cell
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

    def blocks(self, queries: np.ndarray, n: int,
               min_width: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Chunks of (query rows, local, cand): cand holds (G, W) candidate point
        indices padded with n, one row per distinct query cell of the chunk,
        and ``local`` maps each query row to its cell's row.

        Each query's candidates are the points of the 27 cells around its
        own.  A query outside the points' cells is clamped into the nearest
        one: every point within a cell of the query lies in that cell.
        """
        for first in range(0, queries.shape[0], _BLOCK):
            inverse, start, count = self._near(queries[first:first + _BLOCK])
            width_of = count.sum(axis=1)
            # widest cell first and each cell's queries together, so a chunk's
            # first query sets its width and its cells are runs of rows
            by_width = np.argsort(-width_of, kind="stable")
            rank = np.empty_like(by_width)
            rank[by_width] = np.arange(by_width.size)
            slot = rank[inverse]
            order = np.argsort(slot, kind="stable")
            slot = slot[order]
            i = 0
            while i < order.size:
                width = max(int(width_of[by_width[slot[i]]]), min_width)
                j = min(i + max(1, _BLOCK // width), order.size)
                rows, local = order[i:j], slot[i:j] - slot[i]
                cells = by_width[slot[i]:slot[j - 1] + 1]
                i = j
                # lay each cell's 27 runs of sorted points side by side
                run_start, run_count = start[cells].ravel(), count[cells].ravel()
                cell_total = width_of[cells]
                flat = np.arange(cell_total.sum())
                src = flat + np.repeat(run_start - (np.cumsum(run_count) - run_count), run_count)
                col = flat - np.repeat(np.cumsum(cell_total) - cell_total, cell_total)
                cand = np.full((cells.size, width), n, dtype=np.int64)
                cand[np.repeat(np.arange(cells.size), cell_total), col] = self.order[src]
                yield first + rows, local, cand


def _sq_dists(points, queries: np.ndarray) -> np.ndarray:
    """(Q, C) squared distances from each query row to its candidates.

    ``points`` holds the candidates' coordinates as one array per axis,
    each (Q, C) or (1, C) for candidates shared by every query.
    """
    d2 = None
    with np.errstate(over="ignore"):  # squares that overflow are inf and tie
        for p, q in zip(points, queries.T):
            d = p - q[:, None]
            d *= d
            if d2 is None:
                d2 = d
            else:
                d2 += d
    return d2


def _drop_outside(d2: np.ndarray, cand: np.ndarray, n: int, r2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Candidates above ``r2`` become (inf, N) like padding."""
    drop = (cand == n) | (d2 > r2)
    d2[drop] = np.inf
    return d2, np.where(drop, n, cand)


def _smallest(d2: np.ndarray, cand: np.ndarray, k: int,
              local: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's k smallest (d2, index) pairs, as a set.

    A row needs at least k columns; with ``local``, row q's indices are
    ``cand[local[q]]``.  A row with exactly k entries at or below its k-th
    smallest d2 already holds its set and keeps them in column order.  Only
    a row tied across the k-th distance is sorted by (d2, index), so that
    the ties go to the lower indices.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(d2 <= kth[:, None])  # every entry tied at the k-th distance
    ids = cand[rows if local is None else local[rows], cols]
    dist2 = d2[rows, cols]
    if rows.size == d2.shape[0] * k:  # no row is tied
        return ids.reshape(-1, k), dist2.reshape(-1, k)
    # sort the tied rows' entries, each row within its own span: rows is the first key
    first = np.searchsorted(rows, np.arange(d2.shape[0]))
    at = np.flatnonzero((np.diff(first, append=rows.size) > k)[rows])
    order = np.arange(rows.size)
    order[at] = at[np.lexsort((ids[at], dist2[at], rows[at]))]
    pick = order[first[:, None] + np.arange(k)]
    return ids[pick], dist2[pick]


def _grid_search(index: NeighborIndex, grid: _Grid, queries: np.ndarray, k: int, r2: Optional[float] = None):
    """(rows, ids, d2, kept) chunks: the k-set of kept pairs among each query's 27 cells.

    Without ``r2`` (KNN) every candidate is kept and ``kept`` is None; with
    it, ``kept`` counts the candidates within ``r2``.
    """
    n = index.num_points
    for rows, local, cand in grid.blocks(queries, n, k):
        d2 = _sq_dists((np.take(axis, cand)[local] for axis in index._axes), queries[rows])
        if r2 is None:
            yield (rows, *_smallest(d2, cand, k, local), None)
        else:
            d2, ids = _drop_outside(d2, cand[local], n, r2)
            yield (rows, *_smallest(d2, ids, k), np.count_nonzero(ids < n, axis=1))


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
        kept = None if r2 is None else np.zeros(chunk.size, dtype=np.int64)
        for lo in range(0, n, seg):
            hi = min(lo + seg, n)
            part_ids = np.broadcast_to(np.arange(lo, hi), (chunk.size, hi - lo))
            part_d2 = _sq_dists(index._axes[:, None, lo:hi], queries[chunk])
            if r2 is not None:
                part_d2, part_ids = _drop_outside(part_d2, part_ids, n, r2)
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
    flat = np.lexsort((ids, dist), axis=1)
    flat += np.arange(0, ids.size, ids.shape[1])[:, None]  # row-major positions
    indices[rows] = ids.ravel()[flat]
    distances[rows] = dist.ravel()[flat]


def _kth_sq_dists(index: NeighborIndex, queries: np.ndarray, k: int) -> np.ndarray:
    """Each query's k-th smallest squared distance to the points, values only.

    Like :func:`_scan_search`, each chunk of queries merges its best k
    values with one segment of points at a time.
    """
    n = index.num_points
    seg = min(n, _BLOCK)
    step = _BLOCK // seg
    kth = np.empty(queries.shape[0])
    for i in range(0, queries.shape[0], step):
        q = queries[i:i + step]
        best = np.full((q.shape[0], k), np.inf)
        for lo in range(0, n, seg):
            part = _sq_dists(index._axes[:, None, lo:min(lo + seg, n)], q)
            best = np.partition(np.hstack([best, part]), k - 1, axis=1)[:, :k]
        kth[i:i + step] = best[:, k - 1]
    return kth


def _knn_grid(index: NeighborIndex, k: int) -> Optional[_Grid]:
    """The first grid for k-nearest queries; the index keeps it for the next batch with k.

    Its cell is ``_CELL_RATIO`` times the median distance from a strided
    sample of the points to their k-th nearest other point.
    """
    built_for, grids = index._knn_grids
    if built_for != k:
        n = index.num_points
        sample = index.coords[::max(1, n // _SAMPLE)][:_SAMPLE]
        # each sample point is its own nearest, at distance zero
        kth = np.sort(_kth_sq_dists(index, sample, min(k + 1, n)))
        # np.median would import numpy.ma, a megabyte of resident memory
        grids = [_Grid.build(index.coords, _CELL_RATIO * float(np.sqrt(kth[kth.size // 2])))]
        index._knn_grids = (k, grids)
    return grids[0]


def _coarser_grid(index: NeighborIndex, grid: _Grid) -> Optional[_Grid]:
    """A grid with cells at least twice as large as ``grid``'s, or None.

    None when no such grid can be laid, or when ``grid`` has at most 2
    cells along every axis, so that a coarser one holds no more candidates.
    The index keeps each grid it builds here beside the first one.
    """
    if (grid.top <= 1).all():
        return None
    grids = index._knn_grids[1]
    for coarser in grids:
        if coarser.cell >= 2 * grid.cell:
            return coarser
    coarser = _Grid.build(index.coords, 2 * grid.cell)
    if coarser is not None:
        grids.append(coarser)
    return coarser


def knn_batch(index: NeighborIndex, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The k exactly-nearest points of each query row.

    Returns (M, k) neighbor indices and distances, each row in ascending
    distance with ties by index, exactly as :func:`brute_force_knn`.  A
    query that coincides with a cloud point gets that point first, at
    distance zero.
    """
    q = _coords(queries, "queries")
    k = _count(k, "k", "k-out-of-range", 1, index.num_points)
    grid = _knn_grid(index, k) if q.shape[0] > _SAMPLE else None
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    distances = np.empty((q.shape[0], k))
    rows = np.arange(q.shape[0])
    while grid is not None:
        bound = (_MARGIN * grid.cell) ** 2
        unsafe: List[np.ndarray] = []
        for chunk, ids, d2, _ in _grid_search(index, grid, q[rows], k):
            safe = d2.max(axis=1) < bound
            _store(indices, distances, rows[chunk[safe]], ids[safe], d2[safe])
            unsafe.append(rows[chunk[~safe]])
        rows = np.concatenate(unsafe)
        grid = _coarser_grid(index, grid) if rows.size else None
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
    radius is a real number in (0, inf], and k_max an integer >= 1.
    """
    q = _coords(queries, "queries")
    radius = _real(radius, "radius", "(0, inf]")
    k_max = _count(k_max, "k_max", "k-out-of-range", 1)
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
        # an under-full row repeats its (d2, index)-nearest point in front
        src = np.maximum(np.arange(k_max) - np.maximum(k_max - count, 0)[:, None], 0)
        src = np.take_along_axis(np.lexsort((ids, d2), axis=1), src, axis=1)
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
    q = _coords(queries, "queries")
    n = cloud.num_points
    k = _count(k, "k", "k-out-of-range", 1, n)
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    distances = np.empty((q.shape[0], k))
    for row, point in enumerate(q):
        d = cloud.coords - point
        with np.errstate(over="ignore"):  # squares that overflow are inf and tie
            d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        chosen = np.lexsort((np.arange(n), d2))[:k]
        dist = np.sqrt(d2[chosen])
        # sqrt can collapse adjacent squared distances onto one double, and
        # ties must come out by ascending index
        resort = np.lexsort((chosen, dist))
        indices[row] = chosen[resort]
        distances[row] = dist[resort]
    return indices, distances
