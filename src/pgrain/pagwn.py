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
Parameter gradients come back keyed by checkpoint name, the trainable
names of :func:`pagwn_param_tensors` and :func:`mlp_param_tensors`.

The baseline aggregator (plain MLP + max pool over KNN or ball-query
neighborhoods that the caller has already found) lives here too, sharing
the layer primitives.

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

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import BatchNormState, DomainError, PagwnParams
from .norm import DEFAULT_EPSILON, DEFAULT_SPLIT, _gwn_backward, _gwn_forward


# ---------------------------------------------------------------------------
# Summation kernels, and layer primitives (forward caches + analytic backward)
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


def _bn_forward(x: np.ndarray, bn: BatchNormState):
    """Returns (y, cache).  Training mode normalizes with batch statistics."""
    if bn.mode == "training":
        if x.shape[0] < 2:
            raise DomainError("degenerate-window", "training-mode batch norm needs at least 2 rows")
        # the ufunc sequence of NumPy's mean and var, sharing one mean
        mean = _colsum(x) / x.shape[0]
        centered = x - mean
        var = _colsum(centered, centered) / x.shape[0]
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        x_hat = centered * inv_std
        return bn.gamma * x_hat + bn.beta, ("training", x_hat, inv_std, mean, var)
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    x_hat = (x - bn.running_mean) * inv_std
    return bn.gamma * x_hat + bn.beta, ("inference", x_hat, inv_std, None, None)


def _bn_backward(g: np.ndarray, bn: BatchNormState, cache):
    mode, x_hat, inv_std, _, _ = cache
    if mode != "training":
        raise DomainError("stale-cache", "backward requires a training-mode forward cache")
    rows = g.shape[0]
    dxhat = g * bn.gamma
    dx = inv_std * (dxhat - _colsum(dxhat) / rows - x_hat * (_colsum(dxhat, x_hat) / rows))
    return dx, _colsum(g, x_hat), _colsum(g)


def _linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return x @ weight + bias


def _linear_backward(g: np.ndarray, x: np.ndarray, weight: np.ndarray):
    return g @ weight.T, x.T @ g, _colsum(g)


# ---------------------------------------------------------------------------
# PAGWN types
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PagwnCache:
    """Everything the analytic backward needs; holds references, not copies."""

    params: PagwnParams
    mode: str
    shapes: Tuple[int, int, int]  # (M, K, n)
    gwn_rows: np.ndarray          # (M*K, n+3) GWN output, LB1 input
    gwn_cache: tuple
    bn1_cache: tuple
    h_rows: np.ndarray            # (M*K, 2n) LB2 input
    bn2_cache: tuple
    pooled: np.ndarray            # (M, 2n) pre-ReLU pooled values
    argmax: np.ndarray            # (M, 2n) winning row per channel


@dataclass(frozen=True, eq=False)
class PagwnOutput:
    """Aggregated features, the cache retained for backward, and batch statistics.

    ``batch_stats`` maps the checkpoint name of each training-mode batch
    norm (``"lb1_bn."``, ``"lb2_bn."``) to its batch (mean, var); it is
    empty in inference mode.
    """

    aggregated: np.ndarray
    cache: PagwnCache
    batch_stats: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not np.isfinite(self.aggregated).all():
            raise DomainError("non-finite-value", "aggregated output contains a non-finite entry")


def init_pagwn_params(n: int, seed: int, mode: str = "training") -> PagwnParams:
    """Uniform(+-sqrt(1/fan_in)) weights, zero biases, unit batch norm."""
    if n < 1:
        raise DomainError("shape-mismatch", f"feature dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    s1 = np.sqrt(1.0 / (n + 3))
    s2 = np.sqrt(1.0 / (2 * n))
    return PagwnParams(
        lb1_weight=rng.uniform(-s1, s1, size=(n + 3, n)),
        lb1_bias=np.zeros(n),
        lb1_bn=BatchNormState.initial(n, mode=mode),
        lb2_weight=rng.uniform(-s2, s2, size=(2 * n, 2 * n)),
        lb2_bias=np.zeros(2 * n),
        lb2_bn=BatchNormState.initial(2 * n, mode=mode),
    )


def _pre_rows(nc, nf, cc, cf, params: PagwnParams, m: int, epsilon: float):
    """Check a batch, then GWN + LB1 over it; returns ((M*K, n) rows, context)."""
    if nc.ndim != 3 or nf.ndim != 3 or cc.ndim != 2 or cf.ndim != 2:
        raise DomainError("shape-mismatch", "batched inputs must be (M,K,3), (M,K,n), (M,3), (M,n)")
    m_win, k, _ = nc.shape
    n = params.n
    if nc.shape[2] != 3 or cc.shape != (m_win, 3):
        raise DomainError("shape-mismatch", "coordinate arrays must have 3 channels")
    if nf.shape != (m_win, k, n) or cf.shape != (m_win, n):
        raise DomainError("shape-mismatch", f"feature arrays disagree with params n={n}")
    if k < 1:
        raise DomainError("degenerate-window", "need at least one neighbor")
    if params.lb1_bn.mode != params.lb2_bn.mode:
        raise DomainError("invalid-spec", "lb1 and lb2 batch norms are in different modes")
    windows = np.concatenate([nc, nf], axis=2)
    centers = np.concatenate([cc, cf], axis=1)
    if k == 1:
        # a single row cannot be split, so K == 1 normalizes as one group
        if m < 1:
            raise DomainError("bad-split", f"m={m} must be >= 1")
        m = None
    gwn, gwn_cache = _gwn_forward(windows, centers, m, epsilon)
    gwn_rows = gwn.reshape(m_win * k, n + 3)
    z1 = _linear_forward(gwn_rows, params.lb1_weight, params.lb1_bias)
    bn1_out, bn1_cache = _bn_forward(z1, params.lb1_bn)
    return bn1_out, (gwn_rows, gwn_cache, bn1_cache)


def pre_abstract(neighbor_coords, neighbor_features, center_coords, center_features,
                 params: PagwnParams, m: int = DEFAULT_SPLIT,
                 epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """LB1(GWN([c_j || x_j])) over M windows: an (M, K, n) array.

    Reduces each (n+3)-channel normalized row back to n channels so the
    neighbor rows carry the same dimensionality as the center feature.
    """
    nc, nf, cc, cf = (np.asarray(a, dtype=np.float64)
                      for a in (neighbor_coords, neighbor_features, center_coords, center_features))
    bn1_out, _ = _pre_rows(nc, nf, cc, cf, params, m, epsilon)
    return bn1_out.reshape(nc.shape[0], nc.shape[1], params.n)


def pagwn_forward_batch(neighbor_coords, neighbor_features, center_coords, center_features,
                        params: PagwnParams, m: int = DEFAULT_SPLIT,
                        epsilon: float = DEFAULT_EPSILON) -> PagwnOutput:
    """Full block over M windows at once: (M, K, 3), (M, K, n), (M, 3), (M, n) in, (M, 2n) out.

    Batch norm sees all M*K rows.
    """
    nc, nf, cc, cf = (np.asarray(a, dtype=np.float64)
                      for a in (neighbor_coords, neighbor_features, center_coords, center_features))
    bn1_out, (gwn_rows, gwn_cache, bn1_cache) = _pre_rows(nc, nf, cc, cf, params, m, epsilon)
    m_win, k, _ = nc.shape
    n = params.n
    pre = bn1_out.reshape(m_win, k, n)
    h = np.concatenate([pre, np.broadcast_to(cf[:, None, :], (m_win, k, n))], axis=2)
    h_rows = h.reshape(m_win * k, 2 * n)
    z2 = _linear_forward(h_rows, params.lb2_weight, params.lb2_bias)
    bn2_out, bn2_cache = _bn_forward(z2, params.lb2_bn)
    rows2 = bn2_out.reshape(m_win, k, 2 * n)
    argmax = rows2.argmax(axis=1)  # first occurrence: ties go to the lowest row
    pooled = np.take_along_axis(rows2, argmax[:, None, :], axis=1)[:, 0, :]

    cache = PagwnCache(
        params=params, mode=params.lb1_bn.mode, shapes=(m_win, k, n),
        gwn_rows=gwn_rows, gwn_cache=gwn_cache, bn1_cache=bn1_cache,
        h_rows=h_rows, bn2_cache=bn2_cache, pooled=pooled, argmax=argmax,
    )
    return PagwnOutput(
        aggregated=np.maximum(pooled, 0.0), cache=cache,
        batch_stats={"lb1_bn.": bn1_cache[3:], "lb2_bn.": bn2_cache[3:]} if cache.mode == "training" else {},
    )


def pagwn_backward(cache: PagwnCache, upstream_grad: np.ndarray):
    """Exact gradients for every parameter and input of a training forward.

    Returns ``(grads, inputs)``.  ``grads`` maps each trainable name of
    :func:`pagwn_param_tensors` (weights, biases, batch-norm gamma and beta)
    to its gradient; ``inputs`` maps each window argument name of
    :func:`pagwn_forward_batch` to the gradient of that array.

    ReLU uses subgradient 0 at 0; the max pool routes to the argmax row
    (ties already resolved to the lowest index by the forward); batch norm
    differentiates through its batch statistics; GWN differentiates through
    each group sigma.
    """
    if cache.mode != "training":
        raise DomainError("stale-cache", "backward requires a cache from a training-mode forward")
    params = cache.params
    m_win, k, n = cache.shapes
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != (m_win, 2 * n):
        raise DomainError("shape-mismatch", f"upstream gradient must have shape {(m_win, 2 * n)}")

    g_pool = g * (cache.pooled > 0)
    g_rows2 = np.zeros((m_win, k, 2 * n))
    np.put_along_axis(g_rows2, cache.argmax[:, None, :], g_pool[:, None, :], axis=1)
    grads = {}
    dz2, grads["lb2_bn.gamma"], grads["lb2_bn.beta"] = _bn_backward(
        g_rows2.reshape(m_win * k, 2 * n), params.lb2_bn, cache.bn2_cache)
    dh, grads["lb2_weight"], grads["lb2_bias"] = _linear_backward(dz2, cache.h_rows, params.lb2_weight)
    dh = dh.reshape(m_win, k, 2 * n)
    d_pre = dh[:, :, :n].reshape(m_win * k, n)
    d_cf_broadcast = _colsum(dh[:, :, n:])

    dz1, grads["lb1_bn.gamma"], grads["lb1_bn.beta"] = _bn_backward(d_pre, params.lb1_bn, cache.bn1_cache)
    d_gwn_rows, grads["lb1_weight"], grads["lb1_bias"] = _linear_backward(
        dz1, cache.gwn_rows, params.lb1_weight)
    d_win = _gwn_backward(d_gwn_rows.reshape(m_win, k, n + 3), cache.gwn_cache)
    d_cen = -_colsum(d_win)
    return grads, {
        "neighbor_coords": d_win[:, :, :3],
        "neighbor_features": d_win[:, :, 3:],
        "center_coords": d_cen[:, :3],
        "center_features": d_cen[:, 3:] + d_cf_broadcast,
    }


# ---------------------------------------------------------------------------
# Baseline aggregators: MLP + max pool over BQ / KNN neighborhoods
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MlpLayer:
    """Linear + batch norm + ReLU, the classic aggregation MLP layer."""

    weight: np.ndarray  # (in, out)
    bias: np.ndarray    # (out,)
    bn: BatchNormState  # out channels

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],) or self.bn.channels != w.shape[1]:
            raise DomainError("shape-mismatch", "MLP layer arrays disagree on output channels")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True, eq=False)
class MlpParams:
    layers: Tuple[MlpLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise DomainError("shape-mismatch", "an MLP needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def with_mode(self, mode: str) -> "MlpParams":
        return MlpParams(tuple(replace(l, bn=l.bn.with_mode(mode)) for l in self.layers))


def init_mlp_params(dims: Sequence[int], seed: int, mode: str = "training") -> MlpParams:
    """Stack of linear+BN+ReLU layers sized dims[0] -> ... -> dims[-1]."""
    if len(dims) < 2:
        raise DomainError("shape-mismatch", "dims must name at least an input and an output size")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(1.0 / fan_in)
        layers.append(MlpLayer(
            weight=rng.uniform(-s, s, size=(fan_in, fan_out)),
            bias=np.zeros(fan_out),
            bn=BatchNormState.initial(fan_out, mode=mode),
        ))
    return MlpParams(tuple(layers))


def _mlp_rows_forward(rows: np.ndarray, params: MlpParams):
    caches = []
    x = rows
    for layer in params.layers:
        z = _linear_forward(x, layer.weight, layer.bias)
        y, bn_cache = _bn_forward(z, layer.bn)
        mask = y > 0
        caches.append((x, bn_cache, mask))
        x = y * mask
    return x, caches


def _mlp_rows_backward(g: np.ndarray, params: MlpParams, caches):
    grads = {}
    for i in range(len(caches) - 1, -1, -1):
        x, bn_cache, mask = caches[i]
        layer = params.layers[i]
        dz, grads[f"layer{i}.bn.gamma"], grads[f"layer{i}.bn.beta"] = _bn_backward(g * mask, layer.bn, bn_cache)
        g, grads[f"layer{i}.weight"], grads[f"layer{i}.bias"] = _linear_backward(dz, x, layer.weight)
    return g, grads


@dataclass(eq=False)
class BaselineCache:
    params: MlpParams
    mode: str
    neighbor_indices: np.ndarray  # (M, K) into the source cloud
    occupied: np.ndarray          # (M,) False where the region was empty
    mlp_caches: list
    argmax: np.ndarray            # (M_occupied, out)
    k: int
    num_source_points: int


@dataclass(frozen=True, eq=False)
class BaselineOutput:
    """Per-center aggregated features; empty regions yield zero vectors."""

    features: np.ndarray          # (M, out)
    empty_region: np.ndarray      # (M,) bool
    cache: BaselineCache
    batch_stats: Dict[str, Tuple[np.ndarray, np.ndarray]]  # "layer{i}.bn." -> batch (mean, var), training only


def aggregate_precomputed(source_features: np.ndarray, neighbor_indices: np.ndarray,
                          occupied: np.ndarray, mlp_params: MlpParams) -> BaselineOutput:
    """MLP + max pool over already-resolved neighborhoods.

    ``source_features`` is the (N, n) matrix rows are gathered from;
    centers whose ``occupied`` flag is False get a zero output.
    """
    m_cnt, k = neighbor_indices.shape
    out_dim = mlp_params.out_dim
    features = np.zeros((m_cnt, out_dim))
    occ_idx = np.flatnonzero(occupied)
    if occ_idx.size:
        rows = source_features[neighbor_indices[occ_idx].reshape(-1)]
        pooled_rows, caches = _mlp_rows_forward(rows, mlp_params)
        grouped = pooled_rows.reshape(occ_idx.size, k, out_dim)
        argmax = grouped.argmax(axis=1)
        features[occ_idx] = np.take_along_axis(grouped, argmax[:, None, :], axis=1)[:, 0, :]
    else:
        caches = []
        argmax = np.zeros((0, out_dim), dtype=np.int64)
    cache = BaselineCache(
        params=mlp_params, mode=mlp_params.layers[0].bn.mode,
        neighbor_indices=neighbor_indices, occupied=occupied, mlp_caches=caches,
        argmax=argmax, k=k, num_source_points=source_features.shape[0],
    )
    batch_stats = {f"layer{i}.bn.": bn_cache[3:]
                   for i, (_, bn_cache, _) in enumerate(caches) if bn_cache[0] == "training"}
    return BaselineOutput(features=features, empty_region=~occupied, cache=cache, batch_stats=batch_stats)


def baseline_backward(cache: BaselineCache, upstream_grad: np.ndarray):
    """Gradients for the MLP and the source cloud's features.

    Returns ``(grads, d_features)``.  ``grads`` maps each trainable name of
    :func:`mlp_param_tensors` (``layer{i}.weight``, ``.bias``, ``.bn.gamma``,
    ``.bn.beta``) to its gradient; ``d_features`` has the source cloud's
    (N, n) shape with neighbor contributions scatter-added.
    """
    if cache.mode != "training":
        raise DomainError("stale-cache", "backward requires a training-mode forward cache")
    g = np.asarray(upstream_grad, dtype=np.float64)
    occ_idx = np.flatnonzero(cache.occupied)
    out_dim = cache.params.out_dim
    if occ_idx.size == 0:
        grads = {}
        for i, layer in enumerate(cache.params.layers):
            grads[f"layer{i}.weight"] = np.zeros_like(layer.weight)
            grads[f"layer{i}.bias"] = np.zeros_like(layer.bias)
            grads[f"layer{i}.bn.gamma"] = np.zeros_like(layer.bn.gamma)
            grads[f"layer{i}.bn.beta"] = np.zeros_like(layer.bn.beta)
        return grads, np.zeros((cache.num_source_points, cache.params.in_dim))
    g_rows = np.zeros((occ_idx.size, cache.k, out_dim))
    np.put_along_axis(g_rows, cache.argmax[:, None, :], g[occ_idx][:, None, :], axis=1)
    d_rows, grads = _mlp_rows_backward(g_rows.reshape(-1, out_dim), cache.params, cache.mlp_caches)
    d_rows = d_rows.reshape(occ_idx.size * cache.k, -1)
    return grads, _scatter_rows(cache.neighbor_indices[occ_idx].reshape(-1), d_rows, cache.num_source_points)


# ---------------------------------------------------------------------------
# Checkpoint serialization (tensor dictionaries for io.save_tensor_dir)
# ---------------------------------------------------------------------------

def _bn_tensors(bn: BatchNormState, prefix: str) -> dict:
    return {
        prefix + "gamma": bn.gamma,
        prefix + "beta": bn.beta,
        prefix + "running_mean": bn.running_mean,
        prefix + "running_var": bn.running_var,
        prefix + "momentum": np.float64(bn.momentum),
        prefix + "eps": np.float64(bn.eps),
    }


def _tensor(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise DomainError("parse-error", f"tensor {name!r} is missing")
    return tensors[name]


def _scalar(tensors: dict, name: str) -> float:
    value = np.asarray(_tensor(tensors, name))
    if value.shape != ():
        raise DomainError("shape-mismatch", f"tensor {name!r} must be a scalar, got shape {value.shape}")
    return float(value)


def _bn_from_tensors(tensors: dict, prefix: str, mode: str) -> BatchNormState:
    return BatchNormState(
        gamma=_tensor(tensors, prefix + "gamma"),
        beta=_tensor(tensors, prefix + "beta"),
        running_mean=_tensor(tensors, prefix + "running_mean"),
        running_var=_tensor(tensors, prefix + "running_var"),
        momentum=_scalar(tensors, prefix + "momentum"),
        eps=_scalar(tensors, prefix + "eps"),
        mode=mode,
    )


def pagwn_param_tensors(params: PagwnParams, prefix: str = "") -> dict:
    """Flatten a parameter set into named tensors (mode is a runtime flag)."""
    out = {
        prefix + "lb1_weight": params.lb1_weight,
        prefix + "lb1_bias": params.lb1_bias,
        prefix + "lb2_weight": params.lb2_weight,
        prefix + "lb2_bias": params.lb2_bias,
    }
    out.update(_bn_tensors(params.lb1_bn, prefix + "lb1_bn."))
    out.update(_bn_tensors(params.lb2_bn, prefix + "lb2_bn."))
    return out


def pagwn_params_from_tensors(tensors: dict, prefix: str = "", mode: str = "inference") -> PagwnParams:
    return PagwnParams(
        lb1_weight=_tensor(tensors, prefix + "lb1_weight"),
        lb1_bias=_tensor(tensors, prefix + "lb1_bias"),
        lb1_bn=_bn_from_tensors(tensors, prefix + "lb1_bn.", mode),
        lb2_weight=_tensor(tensors, prefix + "lb2_weight"),
        lb2_bias=_tensor(tensors, prefix + "lb2_bias"),
        lb2_bn=_bn_from_tensors(tensors, prefix + "lb2_bn.", mode),
    )


def mlp_param_tensors(params: MlpParams, prefix: str = "") -> dict:
    out = {prefix + "num_layers": np.int64(len(params.layers))}
    for i, layer in enumerate(params.layers):
        out[f"{prefix}layer{i}.weight"] = layer.weight
        out[f"{prefix}layer{i}.bias"] = layer.bias
        out.update(_bn_tensors(layer.bn, f"{prefix}layer{i}.bn."))
    return out


def mlp_params_from_tensors(tensors: dict, prefix: str = "", mode: str = "inference") -> MlpParams:
    count = _scalar(tensors, prefix + "num_layers")
    if not count.is_integer():
        raise DomainError("parse-error", f"tensor {prefix + 'num_layers'!r} holds {count}, not a layer count")
    layers = []
    for i in range(int(count)):
        layers.append(MlpLayer(
            weight=_tensor(tensors, f"{prefix}layer{i}.weight"),
            bias=_tensor(tensors, f"{prefix}layer{i}.bias"),
            bn=_bn_from_tensors(tensors, f"{prefix}layer{i}.bn.", mode),
        ))
    return MlpParams(tuple(layers))


def pagwn_input_from_tensors(tensors: dict):
    """The window of ``pgrain pagwn-forward`` as a batch of one.

    Reads ``neighbor_coords`` (K, 3), ``neighbor_features`` (K, n),
    ``center_coord`` (3,) and ``center_feature`` (n,); returns them as the
    (1, K, 3), (1, K, n), (1, 3) and (1, n) arrays that
    :func:`pagwn_forward_batch` takes first.  Shapes the block cannot take
    are left to its own checks.
    """
    window = []
    for name in ("neighbor_coords", "neighbor_features", "center_coord", "center_feature"):
        arr = np.asarray(_tensor(tensors, name), dtype=np.float64)
        if name.startswith("center"):
            arr = arr.reshape(-1)
        elif arr.ndim != 2:
            raise DomainError("shape-mismatch", f"{name} must be a (K, C) matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("non-finite-value", f"{name} contains a non-finite entry")
        window.append(arr[None])
    return tuple(window)
