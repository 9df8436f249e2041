"""The pre-abstraction group-wise window-normalization aggregation block.

One block turns a center point plus its K nearest neighbors into a single
2n-dimensional feature:

    rows = LB1( GWN([c_j || x_j] rows, center [c || x], split m) )   (K x n)
    rows = LB2( [rows || x_center] )                                 (K x 2n)
    out  = ReLU( channel-wise max over the K rows )                  (2n,)

LB is a linear layer followed by batch norm, with no activation inside.
Every call takes a batch of M windows.  Batch norm treats every (center,
neighbor) row in the call as its batch, so a forward over M centers
normalizes across all M*K rows.  The backward pass is fully analytic,
including the sigma path of the GWN, the batch-statistics path of batch
norm, and argmax routing of the pool (ties to the lowest row index).

One layer kernel serves LB1, LB2 and every layer of the baseline MLP: a
layer is the tensors under one checkpoint prefix ``p`` (``"lb1_"``,
``"lb2_"`` or ``"layer{i}."``), named ``p + "weight"``, ``p + "bias"``
and ``p + "bn.*"``.  :func:`_layer_init`, :func:`_layer_forward` and
:func:`_layer_backward` create, run and differentiate it;
:func:`_max_pool` and :func:`_unpool` are the one pool and its gradient
routing; :func:`_batch_stats` reports the layers' batch statistics.

Parameters have one form: the flat ``name -> array`` dict of checkpoint
tensors that :func:`init_pagwn_params` and :func:`init_mlp_params` return,
and parameter gradients come back under the same names.  Whether batch
norm uses batch or running statistics is the forwards' ``mode`` keyword,
not part of the parameters.  :func:`pagwn_forward_batch` is the block's
one public forward and its one checked entry: it runs
:func:`check_pagwn_tensors` on the tensors, checks the window arrays'
shapes and the split, and rejects a group sigma or an aggregate that is
not finite as ``non-finite-value``; the private functions the training
loop calls never re-check.  Both blocks return one :class:`BlockOutput`
(the aggregated features, the cache their backward reads, and the batch
statistics), and the type itself checks nothing.  The pre-abstraction
LB1(GWN(rows)) is the first n channels of LB2's input, which the cache
keeps.

Both aggregators run one kernel, PointNet++ set abstraction: lifted
(M, K, C) window rows pass through a list of layers and then the pool.
:func:`_block` is its forward, :class:`BlockCache` its one cache and
:func:`_block_param_backward` the parameter half of its backward.  The
aggregators differ in the parameter-free *lift* that makes the rows and
in the *lower* that takes the first layer's gradient back to the lift's
inputs.  PAGWN lifts GWN rows (:func:`_pagwn_lift`), appends the center
feature after LB1, and applies its ReLU after the pool; the baseline MLP,
over KNN or ball-query neighborhoods the caller has already found,
gathers raw feature rows and applies a ReLU at every layer, before the
pool.  :func:`_pagwn_lower` and :func:`_baseline_lower` are the lowers.
A caller may keep lifted rows for reuse and skip a lower it does not need.

Summation order is part of the output, which stays bit-identical.  Every
column sum of the training step (batch-norm statistics and gradients, bias
gradients, sums over K) goes through :func:`_colsum`, the one place that
sums columns.  It adds row after row, in row order, which is what
``np.add.reduce(axis=0)`` does on a row-major array with two or more
columns; einsum takes that order at a quarter of the per-call cost.
Width 1 is the exception: NumPy sums a single column pairwise, so
``_colsum`` leaves it to ``np.add.reduce``.  Scatter-adds go through
:func:`_scatter_rows`, which adds each slot's rows from zero in index
order, as ``np.add.at`` does.  Elementwise ops have no order, so the
layer kernel and the head run each (C,)-vector broadcast over (N, C) rows
through :func:`_rowwise` on wide rows of up to 64 rows each, and reuse
their fresh buffers in place; every element gets the same bits as the
plain broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import _MAX_ENTRIES, DomainError, _count, _entries, _real
from .norm import DEFAULT_EPSILON, DEFAULT_SPLIT, _check_sigmas, _gwn_backward, _gwn_forward


# ---------------------------------------------------------------------------
# Summation and row kernels, and the one layer kernel: linear + batch norm, max pool
# ---------------------------------------------------------------------------

_COLSUM_SPECS = {2: ("ij->j", "ij,ij->j"), 3: ("ijk->ik", "ijk,ijk->ik")}  # by rank: sum of a, of a * b


def _colsum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of ``a``, or of ``a * b``, over axis -2 of an (N, C) or (M, K, C) array, in row order."""
    if a.shape[-1] == 1:
        return np.add.reduce(a if b is None else a * b, axis=-2)
    one, two = _COLSUM_SPECS[a.ndim]
    return np.einsum(one, a) if b is None else np.einsum(two, a, b)


_WIDE_ROWS = 64  # at most this many (N, C) rows make one wide row of _rowwise


def _rowwise(op, a: np.ndarray, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``op(a, v)`` for an (N, C) array ``a`` and a (C,) vector ``v``, with the bits of the broadcast.

    A broadcast runs one C-wide inner loop per row, which costs several
    times the arithmetic at C = 3 or 6.  This runs ``op`` once over ``a``
    viewed as (N / R, R * C) wide rows, R = gcd(N, 64), against ``v`` tiled
    R times, so each element meets the same two operands.  The result goes
    to ``out`` (a new array by default), which may be ``a`` itself; an
    ``out`` that is not C-contiguous raises ``ValueError``, since its wide
    view could be a copy that the result never leaves.
    """
    n, c = a.shape
    if out is None:
        out = np.empty((n, c))
    elif not out.flags.c_contiguous:
        raise ValueError("_rowwise writes through a wide view, so out must be C-contiguous")
    r = math.gcd(n, _WIDE_ROWS)
    tile = np.empty((r, c))
    tile[...] = v
    wide = (n // r, r * c)
    op(a.reshape(wide), tile.reshape(-1), out=out.reshape(wide))
    return out


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, C) array whose slot s adds up, from zero and in order, the ``rows[i]`` with ``idx[i] == s``."""
    out = np.empty((n, rows.shape[1]))
    for c in range(rows.shape[1]):
        out[:, c] = np.bincount(idx, weights=rows[:, c], minlength=n)
    return out


def _linear_init(rng: np.random.Generator, p: str, fan_in: int, fan_out: int) -> dict:
    """A Uniform(+-sqrt(1/fan_in)) (fan_in, fan_out) ``p + "weight"`` of at most ``_MAX_ENTRIES``, and a zero bias."""
    _count(fan_in * fan_out, p + "weight entries", "invalid-spec", 1, _MAX_ENTRIES)
    s = np.sqrt(1.0 / fan_in)
    return {p + "weight": rng.uniform(-s, s, size=(fan_in, fan_out)), p + "bias": np.zeros(fan_out)}


def _layer_init(rng: np.random.Generator, p: str, fan_in: int, fan_out: int) -> dict:
    """:func:`_linear_init` plus a unit batch norm under ``p + "bn."``: gamma 1, beta 0,
    running mean 0 and variance 1, momentum 0.1 and eps 1e-5."""
    bn = p + "bn."
    return {
        **_linear_init(rng, p, fan_in, fan_out),
        bn + "gamma": np.ones(fan_out),
        bn + "beta": np.zeros(fan_out),
        bn + "running_mean": np.zeros(fan_out),
        bn + "running_var": np.ones(fan_out),
        bn + "momentum": np.float64(0.1),
        bn + "eps": np.float64(1e-5),
    }


def _layer_shapes(p: str, fan_in: int, fan_out: int) -> dict:
    """The shape of each tensor of one layer, in :func:`_layer_init` order."""
    vec = (fan_out,)
    return {p + "weight": (fan_in, fan_out), p + "bias": vec, p + "bn.gamma": vec, p + "bn.beta": vec,
            p + "bn.running_mean": vec, p + "bn.running_var": vec, p + "bn.momentum": (), p + "bn.eps": ()}


def _layer_forward(x: np.ndarray, params: dict, p: str, mode: str):
    """The ``p`` layer of ``params`` over (N, C) rows; returns (y, (x, batch-norm cache)).

    Training mode normalizes with batch statistics, inference mode with the
    running statistics.
    """
    z = x @ params[p + "weight"]
    _rowwise(np.add, z, params[p + "bias"], out=z)
    # z's buffer becomes the centered rows and then x_hat, in place
    if mode == "training":
        if z.shape[0] < 2:
            raise DomainError("degenerate-window", "training-mode batch norm needs at least 2 rows")
        # the ufunc sequence of NumPy's mean and var, sharing one mean
        mean = _colsum(z) / z.shape[0]
        _rowwise(np.subtract, z, mean, out=z)
        var = _colsum(z, z) / z.shape[0]
        stats = (mean, var)
    elif mode == "inference":
        mean, var, stats = params[p + "bn.running_mean"], params[p + "bn.running_var"], (None, None)
        _rowwise(np.subtract, z, mean, out=z)
    else:
        raise DomainError("invalid-spec", f"mode must be 'training' or 'inference', got {mode!r}")
    inv_std = 1.0 / np.sqrt(var + params[p + "bn.eps"])
    x_hat = _rowwise(np.multiply, z, inv_std, out=z)
    y = _rowwise(np.multiply, x_hat, params[p + "bn.gamma"])
    return _rowwise(np.add, y, params[p + "bn.beta"], out=y), (x, (mode, x_hat, inv_std, *stats))


def _layer_backward(g: np.ndarray, params: dict, p: str, cache):
    """Backward of a training-mode :func:`_layer_forward`: ``(dz, grads)``.

    ``dz`` is the gradient at the linear output; a caller that needs the
    layer's input gradient takes ``dz @ weight.T`` itself.  ``grads`` holds
    the ``p`` weight, bias, ``bn.gamma`` and ``bn.beta`` gradients.  Neither
    ``g`` nor the cache is written to.
    """
    x, (_, x_hat, inv_std, _, _) = cache
    rows = g.shape[0]
    # dz = inv_std * (dxhat - colsum(dxhat) / rows - x_hat * (colsum(dxhat * x_hat) / rows)),
    # in that order, with dxhat's buffer becoming dz
    dxhat = _rowwise(np.multiply, g, params[p + "bn.gamma"])
    proj = _rowwise(np.multiply, x_hat, _colsum(dxhat, x_hat) / rows)
    dz = _rowwise(np.subtract, dxhat, _colsum(dxhat) / rows, out=dxhat)
    np.subtract(dz, proj, out=dz)
    _rowwise(np.multiply, dz, inv_std, out=dz)
    return dz, {p + "weight": x.T @ dz, p + "bias": _colsum(dz),
                p + "bn.gamma": _colsum(g, x_hat), p + "bn.beta": _colsum(g)}


def _batch_stats(layers: dict) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """The batch (mean, var) of each training-mode layer, under its batch norm's prefix ``p + "bn."``."""
    return {p + "bn.": bn[3:] for p, (_, bn) in layers.items() if bn[0] == "training"}


def _max_pool(rows: np.ndarray):
    """Channel-wise max over the K rows of (M, K, C): the (M, C) maxima and their rows, ties to the lowest."""
    argmax = rows.argmax(axis=1)
    return np.take_along_axis(rows, argmax[:, None, :], axis=1)[:, 0, :], argmax


def _unpool(g: np.ndarray, argmax: np.ndarray, k: int) -> np.ndarray:
    """The pool's backward: each (M, C) gradient entry routed to its winning row of (M, k, C) zeros."""
    out = np.zeros((argmax.shape[0], k, argmax.shape[1]))
    np.put_along_axis(out, argmax[:, None, :], g[:, None, :], axis=1)
    return out


# ---------------------------------------------------------------------------
# The block: lifted rows -> layer list -> max pool, its cache and its output
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BlockCache:
    """Everything a block's backward and its aggregator's lower need; holds references, not copies."""

    params: dict          # the block's checkpoint tensors
    mode: str
    layers: dict          # prefix -> (layer input rows, batch-norm cache), in layer order
    masks: list           # per layer, its ReLU mask before the pool; empty when the ReLU follows the pool
    pooled: np.ndarray    # (M, C) pooled values, before a ReLU that follows the pool
    argmax: np.ndarray    # (M, C) winning row per channel
    k: int                # rows per window
    concat: int           # channels of the per-window rows appended after the first layer; 0 for none
    lift: object          # the aggregator's lift context: PAGWN's GWN cache, or (neighbor indices, N)


@dataclass(frozen=True, eq=False)
class BlockOutput:
    """What a block's forward returns: the (M, 2n) or (M, out) aggregated
    features, the cache its backward reads, and batch statistics.

    ``batch_stats`` maps the checkpoint name of each training-mode batch
    norm (``"lb1_bn."``, ``"lb2_bn."`` or ``"layer{i}.bn."``) to its batch
    (mean, var); it is empty in inference mode.  The type checks nothing:
    :func:`pagwn_forward_batch` rejects a non-finite aggregate.
    """

    aggregated: np.ndarray
    cache: BlockCache
    batch_stats: Dict[str, Tuple[np.ndarray, np.ndarray]]


def _block(rows: np.ndarray, params: dict, prefixes: Sequence[str], mode: str, lift,
           concat: Optional[np.ndarray] = None) -> BlockOutput:
    """Lifted (M, K, C) rows through the ``prefixes`` layers, then the channel-wise max pool.

    With a ``concat``, the block is PAGWN's: each window's (c,) concat row
    is appended to its rows after the first layer, no ReLU sits between the
    layers, and one follows the pool.  Without, it is the baselines' MLP:
    each layer ends in a ReLU, ``y * mask``, before the pool, which keeps
    the ``-0.0`` of a masked negative.  The cache keeps ``lift`` for the lower.
    """
    m_win, k = rows.shape[:2]
    x, layers, masks = rows.reshape(m_win * k, rows.shape[2]), {}, []
    for i, p in enumerate(prefixes):
        if i == 1 and concat is not None:
            x = np.concatenate([x, np.repeat(concat, k, axis=0)], axis=1)
        x, layers[p] = _layer_forward(x, params, p, mode)
        if concat is None:
            masks.append(x > 0)
            x = x * masks[-1]
    pooled, argmax = _max_pool(x.reshape(m_win, k, x.shape[1]))
    cache = BlockCache(params=params, mode=mode, layers=layers, masks=masks, pooled=pooled, argmax=argmax,
                       k=k, concat=0 if concat is None else concat.shape[1], lift=lift)
    aggregated = pooled if masks else np.maximum(pooled, 0.0)
    return BlockOutput(aggregated=aggregated, cache=cache, batch_stats=_batch_stats(layers))


def _block_param_backward(cache: BlockCache, upstream_grad: np.ndarray):
    """The parameter half of a block's backward: ``(grads, (dz0, dconcat))``.

    ``grads`` holds every layer's weight, bias, ``bn.gamma`` and ``bn.beta``
    gradients, the last layer's first.  The lower reads ``dz0``, the gradient
    at the first layer's linear output, and ``dconcat``, the (M, c) gradient
    of the concat (None without one); a caller that needs only the
    parameters skips it, and with it the first layer's input matmul.
    """
    if cache.mode != "training":
        raise DomainError("stale-cache", "backward requires a cache from a training-mode forward")
    params, (m_win, width), k = cache.params, cache.argmax.shape, cache.k
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != (m_win, width):
        raise DomainError("shape-mismatch", f"upstream gradient must have shape {(m_win, width)}")
    if not cache.masks:  # the ReLU followed the pool
        g = g * (cache.pooled > 0)
    g = _unpool(g, cache.argmax, k).reshape(m_win * k, width)
    grads, dconcat = {}, None
    for i, p in reversed(list(enumerate(cache.layers))):
        if cache.masks:
            g = g * cache.masks[i]
        dz, layer_grads = _layer_backward(g, params, p, cache.layers[p])
        grads.update(layer_grads)
        if i > 0:
            g = dz @ params[p + "weight"].T
            if i == 1 and cache.concat:  # the concat rows are the last channels of layer 1's input
                kept = g.shape[1] - cache.concat
                dconcat = _colsum(g[:, kept:].reshape(m_win, k, cache.concat))
                g = np.ascontiguousarray(g[:, :kept])
    return grads, (dz, dconcat)


# ---------------------------------------------------------------------------
# PAGWN: the GWN lift, LB1 -> [concat] -> LB2 -> pool -> ReLU, and its lower
# ---------------------------------------------------------------------------

_PAGWN_LAYERS = ("lb1_", "lb2_")


def init_pagwn_params(n: int, seed: int) -> dict:
    """One block's checkpoint tensors: Uniform(+-sqrt(1/fan_in)) weights, zero biases, unit batch norm.

    The names are ``lb1_weight`` (n+3, n), ``lb1_bias`` (n,), the ``lb1_bn.``
    batch norm (n channels), ``lb2_weight`` (2n, 2n), ``lb2_bias`` (2n,) and
    the ``lb2_bn.`` batch norm (2n channels).  A batch norm holds the vectors
    ``gamma``, ``beta``, ``running_mean`` and ``running_var`` and the float64
    scalars ``momentum`` (0.1) and ``eps`` (1e-5).  n is an integer >= 1;
    seed: a non-negative integer.
    """
    n = _count(n, "feature dimension", "shape-mismatch", 1)
    rng = np.random.default_rng(_count(seed, "seed", "invalid-spec", 0))
    return {**_layer_init(rng, "lb1_", n + 3, n), **_layer_init(rng, "lb2_", 2 * n, 2 * n)}


def _pagwn_lift(nc, nf, cc, cf, m: int, epsilon: float):
    """GWN a batch's [c_j || x_j] rows: the (M, K, n+3) LB1 input and the GWN cache."""
    windows = np.concatenate([nc, nf], axis=2)
    centers = np.concatenate([cc, cf], axis=1)
    # a single row cannot be split, so K == 1 normalizes as one group
    return _gwn_forward(windows, centers, None if nc.shape[1] == 1 else m, epsilon)


def pagwn_forward_batch(neighbor_coords, neighbor_features, center_coords, center_features,
                        params: dict, m: int = DEFAULT_SPLIT, epsilon: float = DEFAULT_EPSILON, *,
                        mode: str = "training") -> BlockOutput:
    """Full block over M windows at once: (M, K, 3), (M, K, n), (M, 3), (M, n) in, (M, 2n) out.

    Batch norm sees all M*K rows.  ``params`` is the block's checkpoint
    dict (see :func:`check_pagwn_tensors`); ``mode`` is ``"training"``
    (batch statistics) or ``"inference"`` (running statistics).  m is an
    integer in [1, K-1], or None for one group; a single row (K = 1) is one
    group, for any integer m >= 1.  epsilon is a real number in (0, inf).  An
    aggregate that is not finite is a ``non-finite-value``.
    """
    params = check_pagwn_tensors(params)
    n = params["lb1_bias"].shape[0]
    nc, nf, cc, cf = (np.asarray(a, dtype=np.float64)
                      for a in (neighbor_coords, neighbor_features, center_coords, center_features))
    if nc.ndim != 3 or nf.ndim != 3 or cc.ndim != 2 or cf.ndim != 2:
        raise DomainError("shape-mismatch", "batched inputs must be (M,K,3), (M,K,n), (M,3), (M,n)")
    m_win, k, _ = nc.shape
    if nc.shape[2] != 3 or cc.shape != (m_win, 3):
        raise DomainError("shape-mismatch", "coordinate arrays must have 3 channels")
    if nf.shape != (m_win, k, n) or cf.shape != (m_win, n):
        raise DomainError("shape-mismatch", f"feature arrays disagree with params n={n}")
    if k < 1:
        raise DomainError("degenerate-window", "need at least one neighbor")
    if k == 1 and m is not None:  # a single row is one group, but m must still be a split
        _count(m, "m", "bad-split", 1)
    gwn, gwn_cache = _pagwn_lift(nc, nf, cc, cf, m, epsilon)
    _check_sigmas(gwn_cache[1])
    out = _block(gwn, params, _PAGWN_LAYERS, mode, gwn_cache, concat=cf)
    if not np.isfinite(out.aggregated).all():
        raise DomainError("non-finite-value", "aggregated output contains a non-finite entry")
    return out


def _pagwn_lower(cache: BlockCache, d_block) -> dict:
    """The input half of :func:`pagwn_backward`: LB1's input, the GWN backward and the center paths."""
    dz1, d_cf = d_block
    d_gwn_rows = dz1 @ cache.params["lb1_weight"].T
    d_win = _gwn_backward(d_gwn_rows.reshape(cache.argmax.shape[0], cache.k, d_gwn_rows.shape[1]), cache.lift)
    d_cen = -_colsum(d_win)
    return {
        "neighbor_coords": d_win[:, :, :3],
        "neighbor_features": d_win[:, :, 3:],
        "center_coords": d_cen[:, :3],
        "center_features": d_cen[:, 3:] + d_cf,
    }


def pagwn_backward(cache: BlockCache, upstream_grad: np.ndarray):
    """Exact gradients for every parameter and input of a training forward.

    Returns ``(grads, inputs)``.  ``grads`` maps each trainable name of
    :func:`init_pagwn_params` (weights, biases, batch-norm gamma and beta)
    to its gradient; ``inputs`` maps each window argument name of
    :func:`pagwn_forward_batch` to the gradient of that array.

    ReLU uses subgradient 0 at 0; the max pool routes to the argmax row
    (ties already resolved to the lowest index by the forward); batch norm
    differentiates through its batch statistics; GWN differentiates through
    each group sigma.
    """
    grads, d_block = _block_param_backward(cache, upstream_grad)
    return grads, _pagwn_lower(cache, d_block)


# ---------------------------------------------------------------------------
# Baseline aggregators: gathered rows -> MLP -> pool over BQ / KNN neighborhoods
# ---------------------------------------------------------------------------

def init_mlp_params(dims: Sequence[int], seed: int) -> dict:
    """Checkpoint tensors of a stack of linear+BN+ReLU layers sized dims[0] -> ... -> dims[-1].

    The names are the int64 scalar ``num_layers`` and, per layer i,
    ``layer{i}.weight`` (in, out), ``layer{i}.bias`` (out,) and the
    ``layer{i}.bn.`` batch-norm tensors named as in :func:`init_pagwn_params`.
    dims is a list or tuple of integers >= 1; seed: a non-negative integer.
    """
    dims = _entries(dims, "dims")
    if len(dims) < 2:
        raise DomainError("shape-mismatch", "dims must name at least an input and an output size")
    dims = [_count(size, f"dims[{i}]", "shape-mismatch", 1) for i, size in enumerate(dims)]
    rng = np.random.default_rng(_count(seed, "seed", "invalid-spec", 0))
    tensors = {"num_layers": np.int64(len(dims) - 1)}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        tensors.update(_layer_init(rng, f"layer{i}.", fan_in, fan_out))
    return tensors


# per layer i, the names after "layer{i}." in init_mlp_params order
_MLP_LAYER_TENSORS = tuple(_layer_shapes("", 1, 1))


def aggregate_precomputed(source_features: np.ndarray, neighbor_indices: np.ndarray,
                          mlp_params: dict, *, mode: str = "training") -> BlockOutput:
    """MLP + max pool over already-resolved neighborhoods, one output row per window.

    ``source_features`` is the (N, n) matrix rows are gathered from, and
    every one of the M rows of ``neighbor_indices`` is a window.
    ``mlp_params`` is a dict of :func:`init_mlp_params` tensors; ``mode`` is
    ``"training"`` (batch statistics) or ``"inference"`` (running statistics).
    The first missing tensor is a ``parse-error`` naming it, and a
    ``num_layers`` below 1 is an ``invalid-spec``; the other values
    themselves are not checked.
    """
    num_layers = _count(int(_tensor(mlp_params, "num_layers")), "num_layers", "invalid-spec", 1)
    for i in range(num_layers):
        for name in _MLP_LAYER_TENSORS:
            _tensor(mlp_params, f"layer{i}.{name}")
    return _block(source_features[neighbor_indices], mlp_params, [f"layer{i}." for i in range(num_layers)],
                  mode, (neighbor_indices, source_features.shape[0]))


def _baseline_lower(cache: BlockCache, d_block) -> np.ndarray:
    """The input half of :func:`baseline_backward`: layer 0's input gradient, scatter-added onto the source cloud."""
    neighbor_indices, num_source_points = cache.lift
    return _scatter_rows(neighbor_indices.reshape(-1), d_block[0] @ cache.params["layer0.weight"].T,
                         num_source_points)


def baseline_backward(cache: BlockCache, upstream_grad: np.ndarray):
    """Gradients for the MLP and the source cloud's features.

    Returns ``(grads, d_features)``.  ``grads`` maps each trainable name of
    :func:`init_mlp_params` (``layer{i}.weight``, ``.bias``, ``.bn.gamma``,
    ``.bn.beta``) to its gradient; ``d_features`` has the source cloud's
    (N, n) shape with neighbor contributions scatter-added.
    """
    grads, d_block = _block_param_backward(cache, upstream_grad)
    return grads, _baseline_lower(cache, d_block)


# ---------------------------------------------------------------------------
# Tensors read from outside
# ---------------------------------------------------------------------------

def _tensor(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise DomainError("parse-error", f"tensor {name!r} is missing")
    return tensors[name]


def _float_tensor(tensors: dict, name: str) -> np.ndarray:
    """The named tensor as a float64 array; one NumPy cannot read so is ``invalid-spec``."""
    try:
        return np.asarray(_tensor(tensors, name), dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("invalid-spec", f"tensor {name!r} is not an array of real numbers") from None


def check_pagwn_tensors(tensors: dict) -> dict:
    """Check one block's tensors where they arrive from outside; returns them as float64 arrays.

    ``tensors`` must hold every name of :func:`init_pagwn_params`; other
    names are ignored, and ``f4`` or ``i8`` tensors are read as float64.
    The public forward runs this check.  The training loop, whose tensors
    come from :func:`init_pagwn_params` and its own SGD steps, never does.

    Raises:
        DomainError: ``parse-error`` naming a missing tensor;
            ``invalid-spec`` naming a tensor that NumPy cannot read as
            float64 (non-numeric text, an object, a ragged list or a number
            beyond float range); ``shape-mismatch`` for a weight, bias or
            batch-norm tensor of the wrong shape, a non-scalar ``momentum``
            or ``eps`` included; ``invalid-spec`` for a ``momentum`` outside
            (0, 1) or an ``eps`` outside [0, inf); ``non-finite-value`` for a
            non-finite entry or a ``running_var`` entry below 0.
    """
    w1 = _float_tensor(tensors, "lb1_weight")
    if w1.ndim != 2 or w1.shape[0] != w1.shape[1] + 3 or w1.shape[1] < 1:
        raise DomainError("shape-mismatch", f"lb1_weight must be (n+3, n) with n >= 1, got {w1.shape}")
    n, out = w1.shape[1], {}
    for name, shape in {**_layer_shapes("lb1_", n + 3, n), **_layer_shapes("lb2_", 2 * n, 2 * n)}.items():
        out[name] = _float_tensor(tensors, name)
        if out[name].shape != shape:
            raise DomainError("shape-mismatch", f"tensor {name!r} must have shape {shape}, got {out[name].shape}")
    for prefix in ("lb1_bn.", "lb2_bn."):
        _real(float(out[prefix + "momentum"]), prefix + "momentum", "(0, 1)")
        _real(float(out[prefix + "eps"]), prefix + "eps", "[0, inf)")
    # one pass over every entry, the two running variances (3n entries) first; a
    # failure walks the tensors in order to name the first bad one
    flat = np.concatenate([out["lb1_bn.running_var"], out["lb2_bn.running_var"], *out.values()], axis=None)
    if not (np.isfinite(flat).all() and flat[:3 * n].min() >= 0):
        for name, arr in out.items():
            if not np.isfinite(arr).all():
                raise DomainError("non-finite-value", f"{name} contains a non-finite entry")
            if name.endswith("running_var") and (arr < 0).any():
                raise DomainError("non-finite-value", f"{name} entries must be >= 0")
    return out


def pagwn_input_from_tensors(tensors: dict):
    """The window of ``pgrain pagwn-forward`` as a batch of one.

    Reads ``neighbor_coords`` (K, 3), ``neighbor_features`` (K, n),
    ``center_coord`` (3,) and ``center_feature`` (n,); returns them as the
    (1, K, 3), (1, K, n), (1, 3) and (1, n) arrays that
    :func:`pagwn_forward_batch` takes first.  Shapes the block cannot take
    are left to its own checks.
    """
    window = []
    ranks = {"neighbor_coords": 2, "neighbor_features": 2, "center_coord": 1, "center_feature": 1}
    for name, rank in ranks.items():
        arr = _float_tensor(tensors, name)
        if arr.ndim != rank:
            raise DomainError("shape-mismatch", f"{name} must have rank {rank}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("non-finite-value", f"{name} contains a non-finite entry")
        window.append(arr[None])
    return tuple(window)
