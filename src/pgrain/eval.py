"""Synthetic scenes, segmentation metrics, and a toy hierarchical pipeline.

The pipeline is deliberately small: stacked (farthest point sampling +
local aggregation) encoder stages, nearest-sampled-point feature
propagation back to full resolution, and a per-point classifier head
trained with plain SGD and cross-entropy.  It exists to exercise the
aggregators under controlled density imbalance, not to chase benchmark
numbers.  Everything is deterministic for a fixed (config, scenes, seed).

Each stage runs its aggregator's parameter-free *lift* (for PAGWN the
window normalization, for the baselines a gather of raw features), then
the one block kernel, ``pagwn._block``, over the aggregator's layers.  The
backward is the kernel's one parameter backward, then the aggregator's
*lower* of the rest onto the stage's input.  The first stage's input is
the raw scene, so training lifts it once per scene and stops its backward
at the parameters.

The parameters are one flat dict of checkpoint tensors: the SGD step and the
running-statistics fold update it, and ``train-toy --checkpoint`` saves it.
Each stage reads a view of it under stage-local names, with no copies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import _MAX_ENTRIES, DomainError, MetricsReport, PointCloud, _count, _entries, _real
from .io import _fmt
from .norm import DEFAULT_EPSILON, DEFAULT_SPLIT
from .pagwn import (
    _PAGWN_LAYERS,
    _baseline_lower,
    _block,
    _block_param_backward,
    _colsum,
    _linear_init,
    _pagwn_lift,
    _pagwn_lower,
    _rowwise,
    _scatter_rows,
    init_mlp_params,
    init_pagwn_params,
)
from .sampling import fps_coords
from .spatial import ball_query_batch, build_index, knn_batch

# distinct unit-scale base colors per class label
_PALETTE = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0],
    [1.0, 1.0, 0.0],
    [1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0],
    [0.6, 0.6, 0.6],
    [1.0, 0.5, 0.0],
])


def class_color(label: int) -> np.ndarray:
    return _PALETTE[label % len(_PALETTE)]


# ---------------------------------------------------------------------------
# Synthetic scene generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """One scene region: a primitive populated at a given surface density.

    ``point_count`` is an integer >= 1 and ``class_label`` one >= 0.
    ``density_scale`` is points per unit area, a real number in (0, inf);
    ``feature_noise_sigma`` is a real number in [0, inf).  The scene that
    holds the region checks them.
    """

    primitive: str  # plane | sphere
    point_count: int
    density_scale: float
    class_label: int
    feature_noise_sigma: float = 0.0


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """The regions of one scene, a list or tuple of RegionSpec; seed: a non-negative integer."""

    regions: Tuple[RegionSpec, ...]
    seed: int = 0

    def __post_init__(self):
        regions = []
        for i, region in enumerate(_entries(self.regions, "regions", RegionSpec)):
            if region.primitive not in ("plane", "sphere"):
                raise DomainError("invalid-spec", f"region {i}: unknown primitive {region.primitive!r}")
            regions.append(replace(
                region,
                point_count=_count(region.point_count, f"region {i}: point_count", "invalid-spec", 1),
                density_scale=_real(region.density_scale, f"region {i}: density_scale", "(0, inf)"),
                feature_noise_sigma=_real(region.feature_noise_sigma, f"region {i}: feature_noise_sigma", "[0, inf)"),
                class_label=_count(region.class_label, f"region {i}: class_label", "invalid-spec", 0)))
        if not regions:
            raise DomainError("invalid-spec", "a scene needs at least one region")
        object.__setattr__(self, "regions", tuple(regions))
        object.__setattr__(self, "seed", _count(self.seed, "seed", "invalid-spec", 0))


def plane_side(point_count: int, density_scale: float) -> float:
    """Side of the square patch that realizes the requested area density."""
    return float(np.sqrt(point_count / density_scale))


def generate_scene(spec: SyntheticSceneSpec) -> PointCloud:
    """Deterministic labeled cloud with the requested per-region densities.

    Plane regions are chained like floors and walls: a horizontal patch,
    then a vertical patch rising from its far edge, and so on, so that
    consecutive planes share an edge.  Spheres are placed on a separate
    row at negative y, clear of the plane chain.
    Features are the class base color plus white noise.
    """
    rng = np.random.default_rng(spec.seed)
    coords_parts, feats_parts, label_parts = [], [], []
    cursor_x, cursor_z = 0.0, 0.0
    horizontal = True
    aux_x = 0.0
    for region in spec.regions:
        count = region.point_count
        if region.primitive == "plane":
            side = plane_side(count, region.density_scale)
            u = rng.random(count) * side
            v = rng.random(count) * side
            if horizontal:
                pts = np.stack([cursor_x + u, v, np.full(count, cursor_z)], axis=1)
                cursor_x += side
            else:
                pts = np.stack([np.full(count, cursor_x), v, cursor_z + u], axis=1)
                cursor_z += side
            horizontal = not horizontal
        else:  # sphere
            radius = float(np.sqrt(count / (4.0 * np.pi * region.density_scale)))
            raw = rng.normal(size=(count, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            center = np.array([aux_x + 2 * radius, -4.0 * radius, 2.0 * radius])
            pts = center + radius * raw
            aux_x += 4 * radius
        base = class_color(region.class_label)
        noise = rng.normal(0.0, region.feature_noise_sigma, size=(count, 3)) \
            if region.feature_noise_sigma > 0 else 0.0
        coords_parts.append(pts)
        feats_parts.append(base + noise * np.ones((count, 3)))
        label_parts.append(np.full(count, region.class_label, dtype=np.int64))
    return PointCloud(
        coords=np.concatenate(coords_parts),
        features=np.concatenate(feats_parts),
        labels=np.concatenate(label_parts),
    )


def two_plane_boundary_scene(seed: int, point_count: int = 1024, density: float = 400.0,
                             noise: float = 0.02, band_scale: float = 1.5):
    """Two constant-color planes meeting at an edge, with a boundary band.

    Returns (cloud, boundary_mask): the mask marks points whose distance to
    the shared floor/wall edge is below band_scale times the mean point
    spacing.  Used to check that high-sigma centers hug real boundaries.
    """
    spec = SyntheticSceneSpec(
        regions=(
            RegionSpec("plane", point_count, density, class_label=0, feature_noise_sigma=noise),
            RegionSpec("plane", point_count, density, class_label=1, feature_noise_sigma=noise),
        ),
        seed=seed,
    )
    cloud = generate_scene(spec)
    side = plane_side(point_count, density)
    spacing = 1.0 / np.sqrt(density)
    # the chained layout puts the shared edge at x = side, z = 0
    dist_to_edge = np.sqrt((cloud.coords[:, 0] - side) ** 2 + cloud.coords[:, 2] ** 2)
    boundary = dist_to_edge < band_scale * spacing
    return cloud, boundary


def density_imbalanced_scene(seed: int, dense_count: int = 768, sparse_count: int = 256,
                             dense_density: float = 300.0, sparse_density: float = 100.0,
                             noise: float = 0.25) -> PointCloud:
    """Two-class floor/wall scene whose classes differ in point density."""
    return generate_scene(SyntheticSceneSpec(
        regions=(
            RegionSpec("plane", dense_count, dense_density, class_label=0, feature_noise_sigma=noise),
            RegionSpec("plane", sparse_count, sparse_density, class_label=1, feature_noise_sigma=noise),
        ),
        seed=seed,
    ))


def constant_label_scene(seed: int, point_count: int = 256, label: int = 0) -> PointCloud:
    """Single-plane scene where every point carries the same class."""
    return generate_scene(SyntheticSceneSpec(
        regions=(RegionSpec("plane", point_count, 200.0, class_label=label, feature_noise_sigma=0.1),),
        seed=seed,
    ))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def compute_metrics(pred_labels, true_labels, num_classes: int) -> MetricsReport:
    """Per-class IoU and accuracy plus mIoU / mAcc / OA.

    IoU_c = TP / (TP + FP + FN); acc_c = TP / (TP + FN).  Classes absent
    from both prediction and ground truth are NaN and excluded from the
    means; OA is exactly correct / total.
    """
    pred = np.asarray(pred_labels).ravel()
    truth = np.asarray(true_labels).ravel()
    if pred.shape != truth.shape:
        raise DomainError("length-mismatch", f"pred has {pred.size} labels, truth has {truth.size}")
    if pred.size == 0:
        raise DomainError("length-mismatch", "cannot score zero points")
    c = _count(num_classes, "class count", "label-out-of-range", 1, _MAX_ENTRIES)
    for name, arr in (("pred", pred), ("truth", truth)):
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError("dimension-mismatch", f"{name} labels must be integers, got {arr.dtype}")
        bad = (arr < 0) | (arr >= c)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise DomainError("label-out-of-range", f"{name}[{i}] = {arr[i]} outside [0, {c})")

    tp = np.bincount(truth[pred == truth], minlength=c).astype(np.float64)
    fn = np.bincount(truth, minlength=c) - tp
    fp = np.bincount(pred, minlength=c) - tp

    iou_den = tp + fp + fn
    acc_den = tp + fn
    iou = np.divide(tp, iou_den, out=np.full(c, np.nan), where=iou_den > 0)
    acc = np.divide(tp, acc_den, out=np.full(c, np.nan), where=acc_den > 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN mean stays NaN
        miou = float(np.nanmean(iou))
        macc = float(np.nanmean(acc))
    oa = float(tp.sum() / pred.size)
    return MetricsReport(per_class_iou=iou, per_class_acc=acc, miou=miou, macc=macc, oa=oa)


def metrics_csv(report: MetricsReport) -> str:
    """UTF-8 CSV: header class,iou,acc; footer rows miou, macc, oa."""
    lines = ["class,iou,acc"]
    for c in range(report.num_classes):
        lines.append(f"{c},{_fmt(report.per_class_iou[c])},{_fmt(report.per_class_acc[c])}")
    lines.append(f"miou,{_fmt(report.miou)}")
    lines.append(f"macc,{_fmt(report.macc)}")
    lines.append(f"oa,{_fmt(report.oa)}")
    return "\n".join(lines) + "\n"


def metrics_text(report: MetricsReport) -> str:
    lines = [f"{'class':>8} {'iou':>10} {'acc':>10}"]
    for c in range(report.num_classes):
        lines.append(f"{c:>8} {report.per_class_iou[c]:>10.4f} {report.per_class_acc[c]:>10.4f}")
    lines.append(f"mIoU {report.miou:.4f}  mAcc {report.macc:.4f}  OA {report.oa:.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Toy pipeline configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageSpec:
    """One encoder stage: sample m_points centers, aggregate k neighbors."""

    m_points: int
    k: int
    split: int = DEFAULT_SPLIT


@dataclass(frozen=True)
class ToyPipelineConfig:
    stages: Tuple[StageSpec, ...]
    num_classes: int
    head_hidden: Tuple[int, ...] = (16,)
    epochs: int = 30
    learning_rate: float = 0.05
    batch_size: int = 4
    seed: int = 0
    aggregator: str = "pagwn"
    epsilon: float = DEFAULT_EPSILON
    bq_radius: Optional[float] = None

    def __post_init__(self):
        """The one check of every field, each number through ``_count`` or ``_real``."""
        for name in ("stages", "head_hidden"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise DomainError("invalid-spec", f"{name} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.stages:
            raise DomainError("invalid-spec", "the pipeline needs at least one stage")
        for i, stage in enumerate(self.stages):
            if not isinstance(stage, StageSpec):
                raise DomainError("invalid-spec", f"stage {i} must be a StageSpec, got {stage!r}")
            _count(stage.m_points, f"stage {i} m_points", "invalid-spec", 1)
            k = _count(stage.k, f"stage {i} k", "invalid-spec", 1)
            _count(stage.split, f"stage {i} split", "bad-split", 1, max(k - 1, 1))
        counts = [s.m_points for s in self.stages]
        if any(b > a for a, b in zip(counts, counts[1:])):
            raise DomainError("invalid-spec", f"stage sample counts must be non-increasing, got {counts}")
        for name, least in (("num_classes", 2), ("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, "invalid-spec", least))
        for name in ("learning_rate", "epsilon"):
            object.__setattr__(self, name, _real(getattr(self, name), name, "(0, inf)"))
        for size in self.head_hidden:
            _count(size, "head_hidden size", "invalid-spec", 1)
        if not isinstance(self.aggregator, str) or self.aggregator not in AGGREGATORS:
            raise DomainError("invalid-spec", f"aggregator must be one of {AGGREGATORS}")
        if self.bq_radius is not None or self.aggregator == "bq_baseline":
            object.__setattr__(self, "bq_radius", _real(self.bq_radius, "bq_radius", "(0, inf]"))


def _derived_seed(*parts: int) -> int:
    seed = 0
    for p in parts:
        seed = (seed * 1_000_003 + int(p) + 0x9E3779B9) % (1 << 63)
    return seed


# ---------------------------------------------------------------------------
# Per-point classifier head (linear / ReLU stack, no batch norm)
# ---------------------------------------------------------------------------

def _init_head(dims: Sequence[int], seed: int) -> dict:
    """Head weights and biases, named ``head.layer{i}.weight``/``.bias``."""
    rng = np.random.default_rng(seed)
    head = {}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        head.update(_linear_init(rng, f"head.layer{i}.", fan_in, fan_out))
    return head


def _head_forward(x: np.ndarray, params: dict, depth: int):
    caches = []
    for i in range(depth):
        z = x @ params[f"head.layer{i}.weight"]
        _rowwise(np.add, z, params[f"head.layer{i}.bias"], out=z)
        mask = z > 0 if i < depth - 1 else None
        caches.append((x, mask))
        if mask is not None:
            np.multiply(z, mask, out=z)  # the ReLU, in place: negatives become -0.0, as z * mask gives
        x = z
    return x, caches


def _head_backward(g: np.ndarray, params: dict, caches):
    grads = {}
    for i in range(len(caches) - 1, -1, -1):
        x, mask = caches[i]
        if mask is not None:
            g = g * mask
        grads[f"head.layer{i}.weight"] = x.T @ g
        grads[f"head.layer{i}.bias"] = _colsum(g)
        g = g @ params[f"head.layer{i}.weight"].T
    return g, grads


def _softmax_ce(logits: np.ndarray, labels: np.ndarray, num_classes: int):
    # the class max as a chain of np.maximum over the columns: exact, and much cheaper than
    # max(axis=1) on a few classes
    top = logits[:, 0]
    for c in range(1, logits.shape[1]):
        top = np.maximum(top, logits[:, c])
    shifted = logits - top[:, None]
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_p = shifted - log_z[:, None]
    n = logits.shape[0]
    loss = float(-log_p[np.arange(n), labels].mean())
    dlogits = np.exp(log_p)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


# ---------------------------------------------------------------------------
# Scene plans: all geometry is fixed per (scene, config), so compute it once
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _ScenePlan:
    scene: PointCloud
    stages: List[Tuple[np.ndarray, ...]]  # per stage: (input coords, centers, neighbor indices)
    full_map: np.ndarray  # full resolution -> final-stage center position


def _plan_scene(scene: PointCloud, config: ToyPipelineConfig, scene_id: int) -> _ScenePlan:
    neighbors = _AGGREGATOR_TABLE[config.aggregator].neighbors
    coords = scene.coords
    full_map = np.arange(coords.shape[0], dtype=np.int64)
    stages = []
    for t, stage in enumerate(config.stages):
        n_cur = coords.shape[0]
        _count(stage.m_points, f"stage {t} m_points", "m-out-of-range", 1, n_cur)
        _count(stage.k, f"stage {t} k", "k-out-of-range", 1, n_cur)
        centers = fps_coords(coords, stage.m_points, _derived_seed(config.seed, scene_id, t))
        center_coords = coords[centers]
        hoods = neighbors(build_index(coords), center_coords, stage.k, config)
        nn_map = knn_batch(build_index(center_coords), coords, 1)[0][:, 0]
        full_map = nn_map[full_map]
        stages.append((coords, centers, hoods))
        coords = center_coords
    return _ScenePlan(scene=scene, stages=stages, full_map=full_map)


# ---------------------------------------------------------------------------
# Aggregators: one table entry per ``config.aggregator``
# ---------------------------------------------------------------------------
#
# Parameters and gradients travel as one flat ``name -> array`` dict keyed by
# checkpoint names: ``stage{t}.`` plus an init_pagwn_params or
# init_mlp_params name, and ``head.layer{i}.*``.  :func:`_encode` gives each
# stage a stage-local view of it (:func:`_stage_views`).  Entries call the
# pagwn and spatial functions through this module's globals.

@dataclass(frozen=True)
class _Aggregator:
    init: Callable       # (n, seed) -> stage-local tensors of one n -> 2n stage
    neighbors: Callable  # (index, center coords, k, config) -> (M, k) indices
    layers: tuple        # pagwn._block's layer prefixes, in order
    lift: Callable       # (stage plan, x, split, epsilon, lowered) -> rows, lift, concat; lowered keeps all lower reads
    lower: Callable      # (output, stage plan, (dz0, dconcat)) -> upstream of the stage input x


def _pagwn_stage_lift(splan, x, split, epsilon, lowered):
    coords, centers, hoods = splan
    cf = x[centers]
    gwn, gwn_cache = _pagwn_lift(coords[hoods], x[hoods], coords[centers], cf, split, epsilon)
    # only _pagwn_lower reads the deviations, gwn_cache[0]; the sigmas stay
    return gwn, gwn_cache if lowered else (None, *gwn_cache[1:]), cf


def _pagwn_stage_lower(out, splan, d_block):
    coords, centers, hoods = splan
    inputs = _pagwn_lower(out.cache, d_block)
    d_nf = inputs["neighbor_features"]
    # neighbor rows first, then centers: the order each slot adds them in
    return _scatter_rows(np.concatenate([hoods.reshape(-1), centers]),
                         np.concatenate([d_nf.reshape(-1, d_nf.shape[-1]), inputs["center_features"]]),
                         coords.shape[0])


_KNN_BASELINE = _Aggregator(
    init=lambda n, seed: init_mlp_params((n, 2 * n), seed),
    neighbors=lambda index, queries, k, config: knn_batch(index, queries, k)[0],
    layers=("layer0.",),
    lift=lambda splan, x, split, epsilon, lowered: (x[splan[2]], (splan[2], x.shape[0]), None),
    lower=lambda out, splan, d_block: _baseline_lower(out.cache, d_block),
)
_AGGREGATOR_TABLE = {
    "pagwn": _Aggregator(
        init=lambda n, seed: init_pagwn_params(n, seed), neighbors=_KNN_BASELINE.neighbors,
        layers=_PAGWN_LAYERS, lift=_pagwn_stage_lift, lower=_pagwn_stage_lower,
    ),
    "knn_baseline": _KNN_BASELINE,
    # the centers are points of the stage input, so no ball is empty and every window is full
    "bq_baseline": replace(_KNN_BASELINE, neighbors=lambda index, queries, k, config:
                           ball_query_batch(index, queries, config.bq_radius, k).indices),
}
AGGREGATORS = tuple(_AGGREGATOR_TABLE)


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PipelineResult:
    """Trained parameters as flat checkpoint tensors, per-epoch losses, and test metrics."""

    metrics: MetricsReport
    params: dict
    losses: List[float]
    config: ToyPipelineConfig


def _first_lift(plan: _ScenePlan, agg: _Aggregator, config: ToyPipelineConfig):
    """The first stage's parameter-free input, without what only lower reads."""
    return agg.lift(plan.stages[0], plan.scene.features, config.stages[0].split, config.epsilon, False)


def _stage_views(params: dict, count: int) -> list:
    """Each of ``count`` stages' tensors under stage-local names: views of the flat dict, no copies."""
    prefixes = [f"stage{t}." for t in range(count)]
    return [{name[len(p):]: value for name, value in params.items() if name.startswith(p)} for p in prefixes]


def _encode(plan: _ScenePlan, first, params: dict, agg: _Aggregator, config: ToyPipelineConfig,
            mode: str = "training"):
    """Run the encoder over one scene from its :func:`_first_lift` and the flat
    ``params``; returns (features, outputs, batch-norm stats)."""
    x = plan.scene.features
    outs, stats = [], {}
    views = _stage_views(params, len(config.stages))
    for t, (splan, view, spec) in enumerate(zip(plan.stages, views, config.stages)):
        rows, lift, concat = first if t == 0 else agg.lift(splan, x, spec.split, config.epsilon, True)
        out = _block(rows, view, agg.layers, mode, lift, concat)
        x = out.aggregated
        outs.append(out)
        stats.update({f"stage{t}.{name}": pair for name, pair in out.batch_stats.items()})
    return x, outs, stats


def _backward_stages(plan: _ScenePlan, outs, d_final: np.ndarray, agg: _Aggregator) -> dict:
    """Gradient of the loss w.r.t. every stage's parameters; the first stage's input, the raw scene, is not lowered."""
    grads, g = {}, d_final
    for t in range(len(plan.stages) - 1, -1, -1):
        stage_grads, d_block = _block_param_backward(outs[t].cache, g)
        grads.update({f"stage{t}.{name}": value for name, value in stage_grads.items()})
        if t > 0:
            g = agg.lower(outs[t], plan.stages[t], d_block)
    return grads


def _init_params(config: ToyPipelineConfig, feature_dim: int) -> dict:
    """Seeded initial checkpoint tensors: every stage, then the head."""
    agg = _AGGREGATOR_TABLE[config.aggregator]
    params, n = {}, feature_dim
    for t in range(len(config.stages)):
        stage = agg.init(n, _derived_seed(config.seed, 7919, t))
        params.update({f"stage{t}.{name}": value for name, value in stage.items()})
        n = 2 * n
    params.update(_init_head([n, *config.head_hidden, config.num_classes], _derived_seed(config.seed, 104729)))
    return params


def _scene_grads(plan: _ScenePlan, params: dict, x_final: np.ndarray, outs, config: ToyPipelineConfig,
                 epoch: int):
    """Loss and flat parameter gradients of one training scene, from its encoder forward."""
    agg = _AGGREGATOR_TABLE[config.aggregator]
    depth = len(config.head_hidden) + 1
    logits, head_cache = _head_forward(x_final[plan.full_map], params, depth)
    loss, dlogits = _softmax_ce(logits, plan.scene.labels, config.num_classes)
    if not np.isfinite(loss):
        raise DomainError("divergence", f"loss became non-finite at epoch {epoch}")
    d_feats, grads = _head_backward(dlogits, params, head_cache)
    d_final = _scatter_rows(plan.full_map, d_feats, x_final.shape[0])
    grads.update(_backward_stages(plan, outs, d_final, agg))
    return loss, grads


def _train_and_score(config: ToyPipelineConfig, train_plans: list, test_plans: list) -> PipelineResult:
    agg = _AGGREGATOR_TABLE[config.aggregator]
    # the same bits every epoch: lift each training scene's first stage once
    train_firsts = [_first_lift(plan, agg, config) for plan in train_plans]

    params = _init_params(config, train_plans[0].scene.feature_dim)
    depth = len(config.head_hidden) + 1
    order_rng = np.random.default_rng(_derived_seed(config.seed, 15485863))

    losses = []
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(train_plans))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [(train_plans[i], train_firsts[i]) for i in order[start:start + config.batch_size]]
            total = None
            for plan, first in batch:
                # the caches stay bound until the next forward returns: freeing them all
                # per scene let glibc trim the heap and fault it back in (5x the faults);
                # the CLI's heap policy (cli._keep_freed_heap) keeps the rest in the heap
                x_final, outs, stats = _encode(plan, first, params, agg, config)
                loss, grads = _scene_grads(plan, params, x_final, outs, config, epoch)
                # fold each scene's batch statistics in, in scene order
                for prefix, (mean, var) in stats.items():
                    momentum = float(params[prefix + "momentum"])
                    for name, value in (("running_mean", mean), ("running_var", var)):
                        params[prefix + name] = (1.0 - momentum) * params[prefix + name] + momentum * value
                epoch_loss += loss
                # sum in scene order, then scale by 1/batch, then step
                total = grads if total is None else {k: total[k] + g for k, g in grads.items()}
            scale = 1.0 / len(batch)
            for name, g in total.items():
                params[name] = params[name] - config.learning_rate * (g * scale)
        epoch_loss /= len(train_plans)
        if not np.isfinite(epoch_loss):
            raise DomainError("divergence", f"loss became non-finite at epoch {epoch}")
        losses.append(epoch_loss)

    preds = []
    for plan in test_plans:
        x_final, _, _ = _encode(plan, _first_lift(plan, agg, config), params, agg, config, "inference")
        logits, _ = _head_forward(x_final[plan.full_map], params, depth)
        # finite weights from the last step can still overflow on the test scenes
        if not np.isfinite(logits).all():
            raise DomainError("divergence", f"non-finite values at epoch {config.epochs - 1}")
        preds.append(logits.argmax(axis=1))
    pred_all = np.concatenate(preds)
    truth_all = np.concatenate([p.scene.labels for p in test_plans])
    metrics = compute_metrics(pred_all, truth_all, config.num_classes)
    return PipelineResult(metrics=metrics, params=params, losses=losses, config=config)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def sweep(configs: Sequence[ToyPipelineConfig], train_scenes: Sequence[PointCloud],
          test_scenes: Sequence[PointCloud]) -> List[PipelineResult]:
    """:func:`run_toy_pipeline` of each config on the same scenes, in order.  A scene plan reads only the
    seed, the stages' ``m_points`` and ``k`` and the neighbor search; configs that agree on them share it."""
    scenes = [*train_scenes, *test_scenes]
    if not train_scenes or not test_scenes:
        raise DomainError("invalid-spec", "need at least one training and one test scene")
    for scene in scenes:
        if scene.labels is None:
            raise DomainError("invalid-spec", "pipeline scenes must carry labels")
        for config in configs:
            if scene.labels.max() >= config.num_classes:
                raise DomainError("label-out-of-range",
                                  f"scene label {scene.labels.max()} outside [0, {config.num_classes})")
    if any(s.feature_dim != scenes[0].feature_dim for s in scenes):
        raise DomainError("dimension-mismatch", "all scenes must share one feature dimension")

    keys = [(c.seed, tuple((s.m_points, s.k) for s in c.stages), _AGGREGATOR_TABLE[c.aggregator].neighbors,
             c.bq_radius) for c in configs]
    plans = {}
    for key, config in zip(keys, configs):
        if key not in plans:
            plans[key] = ([_plan_scene(s, config, i) for i, s in enumerate(train_scenes)],
                          [_plan_scene(s, config, 10_000 + i) for i, s in enumerate(test_scenes)])
    # a step that overflows is reported once, by the divergence rule, which sees every non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        return [_train_and_score(config, *plans[key]) for key, config in zip(keys, configs)]


def run_toy_pipeline(config: ToyPipelineConfig, train_scenes: Sequence[PointCloud],
                     test_scenes: Sequence[PointCloud]) -> PipelineResult:
    """Train the encoder + head on labeled scenes and score the test set.

    Deterministic per (config, scenes): identical inputs give bit-identical
    metrics.  Divergence has one rule: a training loss that is not finite is
    ``divergence: loss became non-finite at epoch N``, and test logits that
    are not finite, whichever aggregator or head made them, are
    ``divergence: non-finite values at epoch {epochs - 1}``.
    """
    return sweep([config], train_scenes, test_scenes)[0]


def ablate_m(config: ToyPipelineConfig, m_values: Sequence[int], train_scenes,
             test_scenes) -> List[Tuple[int, MetricsReport]]:
    """Rerun the pipeline varying only the group split m; fixed seeds.

    Duplicate m values are dropped with a warning; an empty sweep is
    ``invalid-spec``.  Each row mirrors the grouping-size ablation layout:
    m, mIoU, mAcc, OA.
    """
    seen = []
    for m in m_values:
        if m in seen:
            warnings.warn(f"duplicate m={m} ignored", stacklevel=2)
            continue
        seen.append(m)
    if not seen:
        raise DomainError("invalid-spec", "the m sweep needs at least one value")
    configs = [replace(config, stages=tuple(replace(s, split=m) for s in config.stages)) for m in seen]
    return [(m, result.metrics) for m, result in zip(seen, sweep(configs, train_scenes, test_scenes))]


def ablate_csv(rows: List[Tuple[int, MetricsReport]]) -> str:
    lines = ["m,miou,macc,oa"]
    for m, report in rows:
        lines.append(f"{m},{_fmt(report.miou)},{_fmt(report.macc)},{_fmt(report.oa)}")
    return "\n".join(lines) + "\n"
