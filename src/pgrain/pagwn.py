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

GWN has no parameters, so the block splits into a parameter-free *lift*
(:func:`_pagwn_lift`) and a parametric part (:func:`_pagwn_block`), and
its backward into the parameter gradients (:func:`_pagwn_param_backward`)
and a *lower* to the window arrays (:func:`_pagwn_lower`); the baseline's
backward splits the same way.  A caller may keep lifted rows for reuse
and skip a lower it does not need.

The baseline aggregator (plain MLP + max pool over KNN or ball-query
neighborhoods that the caller has already found) lives here too, sharing
the layer kernel, the pool and the output type.

Summation order is part of the output, which stays bit-identical.  Every
column sum of the training step (batch-norm statistics and gradients, bias
gradients, sums over K) goes through :func:`_colsum`, the one place that
sums columns.  It adds row after row, in row order, which is what
``np.add.reduce(axis=0)`` does on a row-major array with two or more
columns; einsum takes that order at a quarter of the per-call cost.
Width 1 is the exception: NumPy sums a single column pairwise, so
``_colsum`` leaves it to ``np.add.reduce``.  Scatter-adds go through
:func:`_scatter_rows`, which adds each slot's rows from zero in index
order, as ``np.add.at`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import DomainError
from .norm import DEFAULT_EPSILON, DEFAULT_SPLIT, _check_sigmas, _gwn_backward, _gwn_forward


# ---------------------------------------------------------------------------
# Summation kernels, and the one layer kernel: linear + batch norm, max pool
# ---------------------------------------------------------------------------

_COLSUM_SPECS = {2: ("ij->j", "ij,ij->j"), 3: ("ijk->ik", "ijk,ijk->ik")}  # by rank: sum of a, of a * b


def _colsum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of ``a``, or of ``a * b``, over axis -2 of an (N, C) or (M, K, C) array, in row order."""
    if a.shape[-1] == 1:
        return np.add.reduce(a if b is None else a * b, axis=-2)
    one, two = _COLSUM_SPECS[a.ndim]
    return np.einsum(one, a) if b is None else np.einsum(two, a, b)


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, C) array whose slot s adds up, from zero and in order, the ``rows[i]`` with ``idx[i] == s``."""
    out = np.empty((n, rows.shape[1]))
    for c in range(rows.shape[1]):
        out[:, c] = np.bincount(idx, weights=rows[:, c], minlength=n)
    return out


def _linear_init(rng: np.random.Generator, p: str, fan_in: int, fan_out: int) -> dict:
    """A Uniform(+-sqrt(1/fan_in)) (fan_in, fan_out) ``p + "weight"`` and a zero ``p + "bias"``."""
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
    z = x @ params[p + "weight"] + params[p + "bias"]
    gamma, beta, eps = params[p + "bn.gamma"], params[p + "bn.beta"], params[p + "bn.eps"]
    if mode == "training":
        if z.shape[0] < 2:
            raise DomainError("degenerate-window", "training-mode batch norm needs at least 2 rows")
        # the ufunc sequence of NumPy's mean and var, sharing one mean
        mean = _colsum(z) / z.shape[0]
        centered = z - mean
        var = _colsum(centered, centered) / z.shape[0]
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = centered * inv_std
        return gamma * x_hat + beta, (x, ("training", x_hat, inv_std, mean, var))
    if mode != "inference":
        raise DomainError("invalid-spec", f"mode must be 'training' or 'inference', got {mode!r}")
    inv_std = 1.0 / np.sqrt(params[p + "bn.running_var"] + eps)
    x_hat = (z - params[p + "bn.running_mean"]) * inv_std
    return gamma * x_hat + beta, (x, ("inference", x_hat, inv_std, None, None))


def _layer_backward(g: np.ndarray, params: dict, p: str, cache):
    """Backward of a training-mode :func:`_layer_forward`: ``(dz, grads)``.

    ``dz`` is the gradient at the linear output; a caller that needs the
    layer's input gradient takes ``dz @ weight.T`` itself.  ``grads`` holds
    the ``p`` weight, bias, ``bn.gamma`` and ``bn.beta`` gradients.
    """
    x, (_, x_hat, inv_std, _, _) = cache
    rows = g.shape[0]
    dxhat = g * params[p + "bn.gamma"]
    dz = inv_std * (dxhat - _colsum(dxhat) / rows - x_hat * (_colsum(dxhat, x_hat) / rows))
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
# The block output, and the PAGWN cache
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PagwnCache:
    """Everything the analytic backward needs; holds references, not copies."""

    params: dict                  # the block's checkpoint tensors
    mode: str
    shapes: Tuple[int, int, int]  # (M, K, n)
    gwn_cache: tuple
    layers: dict                  # "lb1_", "lb2_" -> (layer input rows, batch-norm cache)
    pooled: np.ndarray            # (M, 2n) pre-ReLU pooled values
    argmax: np.ndarray            # (M, 2n) winning row per channel


@dataclass(frozen=True, eq=False)
class BlockOutput:
    """What either block's forward returns: the (M, 2n) or (M, out) aggregated
    features, the cache its backward reads, and batch statistics.

    ``batch_stats`` maps the checkpoint name of each training-mode batch
    norm (``"lb1_bn."``, ``"lb2_bn."`` or ``"layer{i}.bn."``) to its batch
    (mean, var); it is empty in inference mode.  The type checks nothing:
    :func:`pagwn_forward_batch` rejects a non-finite aggregate.
    """

    aggregated: np.ndarray
    cache: PagwnCache | BaselineCache
    batch_stats: Dict[str, Tuple[np.ndarray, np.ndarray]]


def init_pagwn_params(n: int, seed: int) -> dict:
    """One block's checkpoint tensors: Uniform(+-sqrt(1/fan_in)) weights, zero biases, unit batch norm.

    The names are ``lb1_weight`` (n+3, n), ``lb1_bias`` (n,), the ``lb1_bn.``
    batch norm (n channels), ``lb2_weight`` (2n, 2n), ``lb2_bias`` (2n,) and
    the ``lb2_bn.`` batch norm (2n channels).  A batch norm holds the vectors
    ``gamma``, ``beta``, ``running_mean`` and ``running_var`` and the float64
    scalars ``momentum`` (0.1) and ``eps`` (1e-5).
    """
    if n < 1:
        raise DomainError("shape-mismatch", f"feature dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return {**_layer_init(rng, "lb1_", n + 3, n), **_layer_init(rng, "lb2_", 2 * n, 2 * n)}


def _pagwn_lift(nc, nf, cc, cf, m: int, epsilon: float):
    """GWN a batch's [c_j || x_j] rows: the (M, K, n+3) LB1 input and the GWN cache."""
    windows = np.concatenate([nc, nf], axis=2)
    centers = np.concatenate([cc, cf], axis=1)
    # a single row cannot be split, so K == 1 normalizes as one group
    return _gwn_forward(windows, centers, None if nc.shape[1] == 1 else m, epsilon)


def _pagwn_block(gwn: np.ndarray, gwn_cache: tuple, cf: np.ndarray, params: dict, mode: str) -> BlockOutput:
    """The block's parametric part, LB1 -> LB2 -> pool, over lifted windows and the (M, n) center features."""
    m_win, k, n = gwn.shape[0], gwn.shape[1], cf.shape[1]
    layers = {}
    pre, layers["lb1_"] = _layer_forward(gwn.reshape(m_win * k, n + 3), params, "lb1_", mode)
    h = np.concatenate([pre.reshape(m_win, k, n), np.broadcast_to(cf[:, None, :], (m_win, k, n))], axis=2)
    rows2, layers["lb2_"] = _layer_forward(h.reshape(m_win * k, 2 * n), params, "lb2_", mode)
    pooled, argmax = _max_pool(rows2.reshape(m_win, k, 2 * n))
    cache = PagwnCache(params=params, mode=mode, shapes=(m_win, k, n), gwn_cache=gwn_cache,
                       layers=layers, pooled=pooled, argmax=argmax)
    return BlockOutput(aggregated=np.maximum(pooled, 0.0), cache=cache, batch_stats=_batch_stats(layers))


def pagwn_forward_batch(neighbor_coords, neighbor_features, center_coords, center_features,
                        params: dict, m: int = DEFAULT_SPLIT, epsilon: float = DEFAULT_EPSILON, *,
                        mode: str = "training") -> BlockOutput:
    """Full block over M windows at once: (M, K, 3), (M, K, n), (M, 3), (M, n) in, (M, 2n) out.

    Batch norm sees all M*K rows.  ``params`` is the block's checkpoint
    dict (see :func:`check_pagwn_tensors`); ``mode`` is ``"training"``
    (batch statistics) or ``"inference"`` (running statistics).  An
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
    if k == 1 and m < 1:
        raise DomainError("bad-split", f"m={m} must be >= 1")
    gwn, gwn_cache = _pagwn_lift(nc, nf, cc, cf, m, epsilon)
    _check_sigmas(gwn_cache[1])
    out = _pagwn_block(gwn, gwn_cache, cf, params, mode)
    if not np.isfinite(out.aggregated).all():
        raise DomainError("non-finite-value", "aggregated output contains a non-finite entry")
    return out


def _pagwn_param_backward(cache: PagwnCache, upstream_grad: np.ndarray):
    """The parameter half of :func:`pagwn_backward`: ``(grads, (dz1, dh))``, the latter
    the gradients at LB1's linear output and at LB2's input, for :func:`_pagwn_lower`."""
    if cache.mode != "training":
        raise DomainError("stale-cache", "backward requires a cache from a training-mode forward")
    params = cache.params
    m_win, k, n = cache.shapes
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != (m_win, 2 * n):
        raise DomainError("shape-mismatch", f"upstream gradient must have shape {(m_win, 2 * n)}")

    g_rows2 = _unpool(g * (cache.pooled > 0), cache.argmax, k)
    dz2, grads = _layer_backward(g_rows2.reshape(m_win * k, 2 * n), params, "lb2_", cache.layers["lb2_"])
    dh = (dz2 @ params["lb2_weight"].T).reshape(m_win, k, 2 * n)
    dz1, lb1_grads = _layer_backward(dh[:, :, :n].reshape(m_win * k, n), params, "lb1_", cache.layers["lb1_"])
    return {**grads, **lb1_grads}, (dz1, dh)


def _pagwn_lower(cache: PagwnCache, d_block) -> dict:
    """The input half of :func:`pagwn_backward`: LB1's input, the GWN backward and the center paths."""
    dz1, dh = d_block
    m_win, k, n = cache.shapes
    d_gwn_rows = dz1 @ cache.params["lb1_weight"].T
    d_win = _gwn_backward(d_gwn_rows.reshape(m_win, k, n + 3), cache.gwn_cache)
    d_cen = -_colsum(d_win)
    return {
        "neighbor_coords": d_win[:, :, :3],
        "neighbor_features": d_win[:, :, 3:],
        "center_coords": d_cen[:, :3],
        "center_features": d_cen[:, 3:] + _colsum(dh[:, :, n:]),
    }


def pagwn_backward(cache: PagwnCache, upstream_grad: np.ndarray):
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
    grads, d_block = _pagwn_param_backward(cache, upstream_grad)
    return grads, _pagwn_lower(cache, d_block)


# ---------------------------------------------------------------------------
# Baseline aggregators: MLP + max pool over BQ / KNN neighborhoods
# ---------------------------------------------------------------------------

def init_mlp_params(dims: Sequence[int], seed: int) -> dict:
    """Checkpoint tensors of a stack of linear+BN+ReLU layers sized dims[0] -> ... -> dims[-1].

    The names are the int64 scalar ``num_layers`` and, per layer i,
    ``layer{i}.weight`` (in, out), ``layer{i}.bias`` (out,) and the
    ``layer{i}.bn.`` batch-norm tensors named as in :func:`init_pagwn_params`.
    """
    if len(dims) < 2:
        raise DomainError("shape-mismatch", "dims must name at least an input and an output size")
    rng = np.random.default_rng(seed)
    tensors = {"num_layers": np.int64(len(dims) - 1)}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        tensors.update(_layer_init(rng, f"layer{i}.", fan_in, fan_out))
    return tensors


# per layer i, the names after "layer{i}." in init_mlp_params order
_MLP_LAYER_TENSORS = tuple(_layer_shapes("", 1, 1))


@dataclass(eq=False)
class BaselineCache:
    params: dict                  # the MLP's checkpoint tensors
    mode: str
    neighbor_indices: np.ndarray  # (M, K) into the source cloud
    layers: dict                  # "layer{i}." -> (layer input rows, batch-norm cache)
    masks: list                   # per layer, its ReLU mask
    argmax: np.ndarray            # (M, out)
    num_source_points: int


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
    num_layers = int(_tensor(mlp_params, "num_layers"))
    if num_layers < 1:
        raise DomainError("invalid-spec", f"num_layers must be >= 1, got {num_layers}")
    for i in range(num_layers):
        for name in _MLP_LAYER_TENSORS:
            _tensor(mlp_params, f"layer{i}.{name}")
    m_cnt, k = neighbor_indices.shape
    rows, layers, masks = source_features[neighbor_indices.reshape(-1)], {}, []
    for i in range(num_layers):
        y, layers[f"layer{i}."] = _layer_forward(rows, mlp_params, f"layer{i}.", mode)
        masks.append(y > 0)
        rows = y * masks[-1]
    features, argmax = _max_pool(rows.reshape(m_cnt, k, rows.shape[1]))
    cache = BaselineCache(params=mlp_params, mode=mode, neighbor_indices=neighbor_indices, layers=layers,
                          masks=masks, argmax=argmax, num_source_points=source_features.shape[0])
    return BlockOutput(aggregated=features, cache=cache, batch_stats=_batch_stats(layers))


def _baseline_param_backward(cache: BaselineCache, upstream_grad: np.ndarray):
    """The parameter half of :func:`baseline_backward`: ``(grads, dz0)``, the latter the
    gradient at layer 0's linear output, for :func:`_baseline_lower`."""
    if cache.mode != "training":
        raise DomainError("stale-cache", "backward requires a training-mode forward cache")
    params = cache.params
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != cache.argmax.shape:
        raise DomainError("shape-mismatch", f"upstream gradient must have shape {cache.argmax.shape}")
    g = _unpool(g, cache.argmax, cache.neighbor_indices.shape[1]).reshape(-1, g.shape[1])
    grads = {}
    # layer 0's input gradient is _baseline_lower's: a caller that needs only
    # the parameters' gradients skips its matmul
    for i in range(len(cache.masks) - 1, -1, -1):
        p = f"layer{i}."
        dz, layer_grads = _layer_backward(g * cache.masks[i], params, p, cache.layers[p])
        grads.update(layer_grads)
        if i > 0:
            g = dz @ params[p + "weight"].T
    return grads, dz


def _baseline_lower(cache: BaselineCache, dz0: np.ndarray) -> np.ndarray:
    """The input half of :func:`baseline_backward`: layer 0's input gradient, scatter-added onto the source cloud."""
    return _scatter_rows(cache.neighbor_indices.reshape(-1), dz0 @ cache.params["layer0.weight"].T,
                         cache.num_source_points)


def baseline_backward(cache: BaselineCache, upstream_grad: np.ndarray):
    """Gradients for the MLP and the source cloud's features.

    Returns ``(grads, d_features)``.  ``grads`` maps each trainable name of
    :func:`init_mlp_params` (``layer{i}.weight``, ``.bias``, ``.bn.gamma``,
    ``.bn.beta``) to its gradient; ``d_features`` has the source cloud's
    (N, n) shape with neighbor contributions scatter-added.
    """
    grads, dz0 = _baseline_param_backward(cache, upstream_grad)
    return grads, _baseline_lower(cache, dz0)


# ---------------------------------------------------------------------------
# Tensors read from outside
# ---------------------------------------------------------------------------

def _tensor(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise DomainError("parse-error", f"tensor {name!r} is missing")
    return tensors[name]


def _pagwn_shapes(n: int) -> dict:
    """The shape of every tensor of a block over n feature channels, in :func:`init_pagwn_params` order."""
    return {**_layer_shapes("lb1_", n + 3, n), **_layer_shapes("lb2_", 2 * n, 2 * n)}


def check_pagwn_tensors(tensors: dict) -> dict:
    """Check one block's tensors where they arrive from outside; returns them as float64 arrays.

    ``tensors`` must hold every name of :func:`init_pagwn_params`; other
    names are ignored, and ``f4`` or ``i8`` tensors are read as float64.
    The public forward runs this check.  The training loop, whose tensors
    come from :func:`init_pagwn_params` and its own SGD steps, never does.

    Raises:
        DomainError: ``parse-error`` naming a missing tensor;
            ``shape-mismatch`` for a weight, bias or batch-norm tensor of the
            wrong shape, a non-scalar ``momentum`` or ``eps`` included;
            ``invalid-spec`` for a ``momentum`` outside (0, 1) or an ``eps``
            that is not finite and >= 0; ``non-finite-value`` for a
            non-finite entry or a ``running_var`` entry below 0.
    """
    w1 = np.asarray(_tensor(tensors, "lb1_weight"), dtype=np.float64)
    if w1.ndim != 2 or w1.shape[0] != w1.shape[1] + 3 or w1.shape[1] < 1:
        raise DomainError("shape-mismatch", f"lb1_weight must be (n+3, n) with n >= 1, got {w1.shape}")
    n, out = w1.shape[1], {}
    for name, shape in _pagwn_shapes(n).items():
        out[name] = np.asarray(_tensor(tensors, name), dtype=np.float64)
        if out[name].shape != shape:
            raise DomainError("shape-mismatch", f"tensor {name!r} must have shape {shape}, got {out[name].shape}")
    for prefix in ("lb1_bn.", "lb2_bn."):
        momentum, eps = float(out[prefix + "momentum"]), float(out[prefix + "eps"])
        if not 0.0 < momentum < 1.0:
            raise DomainError("invalid-spec", f"{prefix}momentum must be in (0, 1), got {momentum}")
        if not 0.0 <= eps < np.inf:
            raise DomainError("invalid-spec", f"{prefix}eps must be finite and >= 0, got {eps}")
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
        arr = np.asarray(_tensor(tensors, name), dtype=np.float64)
        if arr.ndim != rank:
            raise DomainError("shape-mismatch", f"{name} must have rank {rank}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("non-finite-value", f"{name} contains a non-finite entry")
        window.append(arr[None])
    return tuple(window)
