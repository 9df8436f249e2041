"""Synthetic scenes, segmentation metrics, and a toy hierarchical pipeline.

The pipeline is deliberately small: stacked (farthest point sampling +
local aggregation) encoder stages, nearest-sampled-point feature
propagation back to full resolution, and a per-point classifier head
trained with plain SGD and cross-entropy.  It exists to exercise the
aggregators under controlled density imbalance, not to chase benchmark
numbers.  Everything is deterministic for a fixed (config, scenes, seed).

Each stage runs through an aggregator's parameter-free *lift* (for PAGWN
the window normalization) and then its parametric forward; the backward
gives the parameter gradients and then *lowers* the rest onto the stage's
input.  The first stage's input is the raw scene, so training lifts it once
per scene and stops its backward at the parameters.

The parameters are one flat dict of checkpoint tensors: the SGD step and the
running-statistics fold update it, and ``train-toy --checkpoint`` saves it.
Each stage reads a view of it under stage-local names, with no copies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import DomainError, MetricsReport, PointCloud
from .io import _fmt
from .norm import DEFAULT_EPSILON, DEFAULT_SPLIT
from .pagwn import (
    _baseline_lower,
    _baseline_param_backward,
    _colsum,
    _linear_init,
    _pagwn_block,
    _pagwn_lift,
    _pagwn_lower,
    _pagwn_param_backward,
    _scatter_rows,
    aggregate_precomputed,
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

    ``density_scale`` is points per unit area.
    """

    primitive: str  # plane | sphere
    point_count: int
    density_scale: float
    class_label: int
    feature_noise_sigma: float = 0.0


@dataclass(frozen=True)
class SyntheticSceneSpec:
    regions: Tuple[RegionSpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise DomainError("invalid-spec", "a scene needs at least one region")
        for i, region in enumerate(self.regions):
            if region.primitive not in ("plane", "sphere"):
                raise DomainError("invalid-spec", f"region {i}: unknown primitive {region.primitive!r}")
            if region.point_count < 1:
                raise DomainError("invalid-spec", f"region {i}: point_count must be >= 1")
            if not region.density_scale > 0:
                raise DomainError("invalid-spec", f"region {i}: density_scale must be > 0")
            if region.feature_noise_sigma < 0:
                raise DomainError("invalid-spec", f"region {i}: feature_noise_sigma must be >= 0")
            if region.class_label < 0:
                raise DomainError("invalid-spec", f"region {i}: class_label must be >= 0")


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
    c = int(num_classes)
    if c < 1:
        raise DomainError("label-out-of-range", f"class count must be >= 1, got {c}")
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


def _is_number(value, kind) -> bool:
    """``isinstance(value, kind)``, but False for a bool: an int in Python, not a number in JSON."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
        """The one check of every field: types first, then ranges."""
        for name in ("stages", "head_hidden"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise DomainError("invalid-spec", f"{name} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for i, stage in enumerate(self.stages):
            if not (isinstance(stage, StageSpec)
                    and all(_is_number(v, Integral) for v in (stage.m_points, stage.k, stage.split))):
                raise DomainError("invalid-spec", f"stage {i}: m_points, k and split must be integers")
        types = dict(num_classes=Integral, epochs=Integral, batch_size=Integral, seed=Integral,
                     learning_rate=Real, epsilon=Real, bq_radius=(Real, type(None)))
        for name, kind in types.items():
            if not _is_number(getattr(self, name), kind):
                raise DomainError("invalid-spec", f"{name} has the wrong type: {getattr(self, name)!r}")
        if not self.stages:
            raise DomainError("invalid-spec", "the pipeline needs at least one stage")
        counts = [s.m_points for s in self.stages]
        if any(b > a for a, b in zip(counts, counts[1:])):
            raise DomainError("invalid-spec", f"stage sample counts must be non-increasing, got {counts}")
        for i, stage in enumerate(self.stages):
            if stage.m_points < 1 or stage.k < 1:
                raise DomainError("invalid-spec", f"stage {i}: m_points and k must be >= 1")
            if not 1 <= stage.split < max(stage.k, 2):
                raise DomainError("bad-split", f"stage {i}: split {stage.split} outside [1, {stage.k - 1}]")
        if not isinstance(self.aggregator, str) or self.aggregator not in AGGREGATORS:
            raise DomainError("invalid-spec", f"aggregator must be one of {AGGREGATORS}")
        if self.aggregator == "bq_baseline" and (self.bq_radius is None or self.bq_radius <= 0):
            raise DomainError("invalid-spec", "bq_baseline needs a positive bq_radius")
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("invalid-spec", "epochs and batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise DomainError("invalid-spec", f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.epsilon < np.inf:
            raise DomainError("invalid-spec", f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.num_classes < 2:
            raise DomainError("invalid-spec", "segmentation needs at least 2 classes")
        if not all(_is_number(size, Integral) and size >= 1 for size in self.head_hidden):
            raise DomainError("invalid-spec", f"head_hidden sizes must be positive integers, got {self.head_hidden}")

    def with_split(self, m: int) -> "ToyPipelineConfig":
        return replace(self, stages=tuple(replace(s, split=m) for s in self.stages))


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
        z = x @ params[f"head.layer{i}.weight"] + params[f"head.layer{i}.bias"]
        mask = z > 0 if i < depth - 1 else None
        caches.append((x, mask))
        x = z if mask is None else z * mask
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
    shifted = logits - logits.max(axis=1, keepdims=True)
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
        if stage.m_points > n_cur:
            raise DomainError("m-out-of-range", f"stage {t} samples {stage.m_points} of {n_cur} points")
        if stage.k > n_cur:
            raise DomainError("k-out-of-range", f"stage {t} wants {stage.k} neighbors of {n_cur} points")
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
    lift: Callable       # (stage plan, x, split, epsilon, lowered) -> GWN windows or x; lowered keeps what lower reads
    forward: Callable    # (stage tensors, stage plan, lifted, x, mode) -> pagwn.BlockOutput
    backward: Callable   # (output, upstream) -> (grads by stage-local name, what lower reads)
    lower: Callable      # (output, stage plan, what backward returned for it) -> upstream of the stage input x


def _pagwn_stage_lift(splan, x, split, epsilon, lowered):
    coords, centers, hoods = splan
    gwn, gwn_cache = _pagwn_lift(coords[hoods], x[hoods], coords[centers], x[centers], split, epsilon)
    # only _pagwn_lower reads the deviations, gwn_cache[0]; the sigmas stay
    return gwn, gwn_cache if lowered else (None, *gwn_cache[1:])


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
    lift=lambda splan, x, split, epsilon, lowered: x,
    forward=lambda params, splan, lifted, x, mode: aggregate_precomputed(lifted, splan[2], params, mode=mode),
    backward=lambda out, g: _baseline_param_backward(out.cache, g),
    lower=lambda out, splan, dz0: _baseline_lower(out.cache, dz0),
)
_AGGREGATOR_TABLE = {
    "pagwn": _Aggregator(
        init=lambda n, seed: init_pagwn_params(n, seed),
        neighbors=_KNN_BASELINE.neighbors, lift=_pagwn_stage_lift,
        forward=lambda params, splan, lifted, x, mode: _pagwn_block(*lifted, x[splan[1]], params, mode),
        backward=lambda out, g: _pagwn_param_backward(out.cache, g), lower=_pagwn_stage_lower,
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
        lifted = first if t == 0 else agg.lift(splan, x, spec.split, config.epsilon, True)
        out = agg.forward(view, splan, lifted, x, mode)
        x = out.aggregated
        outs.append(out)
        stats.update({f"stage{t}.{name}": pair for name, pair in out.batch_stats.items()})
    return x, outs, stats


def _backward_stages(plan: _ScenePlan, outs, d_final: np.ndarray, agg: _Aggregator) -> dict:
    """Gradient of the loss w.r.t. every stage's parameters; the first stage's input, the raw scene, is not lowered."""
    grads, g = {}, d_final
    for t in range(len(plan.stages) - 1, -1, -1):
        stage_grads, d_lower = agg.backward(outs[t], g)
        grads.update({f"stage{t}.{name}": value for name, value in stage_grads.items()})
        if t > 0:
            g = agg.lower(outs[t], plan.stages[t], d_lower)
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


def run_toy_pipeline(config: ToyPipelineConfig, train_scenes: Sequence[PointCloud],
                     test_scenes: Sequence[PointCloud]) -> PipelineResult:
    """Train the encoder + head on labeled scenes and score the test set.

    Deterministic per (config, scenes): identical inputs give bit-identical
    metrics.  Divergence has one rule: a training loss that is not finite is
    ``divergence: loss became non-finite at epoch N``, and test logits that
    are not finite, whichever aggregator or head made them, are
    ``divergence: non-finite values at epoch {epochs - 1}``.
    """
    if not train_scenes or not test_scenes:
        raise DomainError("invalid-spec", "need at least one training and one test scene")
    for scene in list(train_scenes) + list(test_scenes):
        if scene.labels is None:
            raise DomainError("invalid-spec", "pipeline scenes must carry labels")
        if scene.labels.max() >= config.num_classes:
            raise DomainError("label-out-of-range",
                              f"scene label {scene.labels.max()} outside [0, {config.num_classes})")
    feature_dim = train_scenes[0].feature_dim
    if any(s.feature_dim != feature_dim for s in list(train_scenes) + list(test_scenes)):
        raise DomainError("dimension-mismatch", "all scenes must share one feature dimension")

    agg = _AGGREGATOR_TABLE[config.aggregator]
    train_plans = [_plan_scene(s, config, i) for i, s in enumerate(train_scenes)]
    test_plans = [_plan_scene(s, config, 10_000 + i) for i, s in enumerate(test_scenes)]
    # the same bits every epoch: lift each training scene's first stage once
    train_firsts = [_first_lift(plan, agg, config) for plan in train_plans]

    params = _init_params(config, feature_dim)
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

def paired_comparison(config: ToyPipelineConfig, train_scenes, test_scenes,
                      aggregators: Sequence[str] = ("pagwn", "knn_baseline")):
    """Run several aggregators on identical scenes and seed; returns
    {aggregator: PipelineResult}."""
    results = {}
    for name in aggregators:
        results[name] = run_toy_pipeline(replace(config, aggregator=name), train_scenes, test_scenes)
    return results


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
    rows = []
    for m in seen:
        result = run_toy_pipeline(config.with_split(m), train_scenes, test_scenes)
        rows.append((m, result.metrics))
    return rows


def ablate_csv(rows: List[Tuple[int, MetricsReport]]) -> str:
    lines = ["m,miou,macc,oa"]
    for m, report in rows:
        lines.append(f"{m},{_fmt(report.miou)},{_fmt(report.macc)},{_fmt(report.oa)}")
    return "\n".join(lines) + "\n"
