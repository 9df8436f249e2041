"""Domain types shared by every pgrain module.

All value types are immutable after construction (frozen dataclasses whose
array fields are marked read-only), so they can be shared freely between
threads.  Validation happens at construction time; every violation raises
:class:`DomainError` with a stable kind tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


class DomainError(Exception):
    """Library error carrying a stable, machine-readable kind tag.

    The message always reads ``"<kind>: <detail>"`` so callers and scripts
    can match on the kind without parsing prose.
    """

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        super().__init__(f"{kind}: {detail}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _to_matrix(value, name: str, dtype=np.float64) -> np.ndarray:
    """Coerce to a 2-d array, naming the offending row on ragged input."""
    try:
        arr = np.asarray(value, dtype=dtype)
    except (ValueError, TypeError):
        rows = list(value)
        width = np.size(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if np.size(row) != width:
                raise DomainError(
                    "dimension-mismatch",
                    f"{name} row {i} has {np.size(row)} entries, expected {width}",
                ) from None
        raise DomainError("dimension-mismatch", f"{name} is not rectangular") from None
    if arr.ndim != 2:
        raise DomainError("dimension-mismatch", f"{name} must be 2-d, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class PointCloud:
    """N points, each a 3-d coordinate plus an n-dimensional feature vector.

    Attributes:
        coords: (N, 3) float64 coordinates, scene units.
        features: (N, n) float64 per-point features, n >= 1.
        labels: optional (N,) int64 class ids, >= 0.
    """

    coords: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        coords = _to_matrix(self.coords, "coords")
        features = _to_matrix(self.features, "features")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.ndim != 1:
                raise DomainError("dimension-mismatch", f"labels must be 1-d, got shape {labels.shape}")
            if not np.issubdtype(labels.dtype, np.integer):
                raise DomainError("dimension-mismatch", "labels must be integers")
            labels = labels.astype(np.int64)
        object.__setattr__(self, "coords", _freeze(coords))
        object.__setattr__(self, "features", _freeze(features))
        object.__setattr__(self, "labels", _freeze(labels) if labels is not None else None)
        validate_cloud(self)

    @property
    def num_points(self) -> int:
        return self.coords.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def validate_cloud(cloud: PointCloud) -> None:
    """Check every PointCloud invariant, raising on the first violation.

    Raises:
        DomainError: kinds ``empty-cloud``, ``dimension-mismatch`` and
            ``non-finite-value``, each naming the offending index.
    """
    n_pts = cloud.coords.shape[0]
    if n_pts == 0:
        raise DomainError("empty-cloud", "point cloud has no points")
    if cloud.coords.shape[1] != 3:
        raise DomainError("dimension-mismatch", f"coords must be (N, 3), got {cloud.coords.shape}")
    if cloud.features.shape[0] != n_pts:
        raise DomainError(
            "dimension-mismatch",
            f"features has {cloud.features.shape[0]} rows, coords has {n_pts}",
        )
    if cloud.features.shape[1] < 1:
        raise DomainError("no-features", "feature dimension must be >= 1")
    if cloud.labels is not None:
        if cloud.labels.shape[0] != n_pts:
            raise DomainError(
                "dimension-mismatch",
                f"labels has {cloud.labels.shape[0]} entries, coords has {n_pts}",
            )
        bad = np.flatnonzero(cloud.labels < 0)
        if bad.size:
            raise DomainError("label-out-of-range", f"negative label at index {bad[0]}")
    for name, arr in (("coords", cloud.coords), ("features", cloud.features)):
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            idx = int(np.flatnonzero(~finite)[0])
            raise DomainError("non-finite-value", f"{name} row {idx} contains a non-finite entry")


@dataclass(frozen=True, eq=False)
class WindowStats:
    """Scalar spread of one window: sigma, and lam = 1 / (sigma + epsilon).

    ``m`` records the texture-group size for group-wise normalization and is
    None for ungrouped windows.  ``lam`` is always derived from sigma and
    epsilon at construction, never supplied.
    """

    sigma: float
    epsilon: float
    m: Optional[int] = None
    lam: float = None  # type: ignore[assignment]  # computed in __post_init__

    def __post_init__(self):
        sigma = float(self.sigma)
        epsilon = float(self.epsilon)
        if not np.isfinite(sigma) or sigma < 0:
            raise DomainError("non-finite-value", f"sigma must be finite and >= 0, got {sigma}")
        if not np.isfinite(epsilon) or epsilon <= 0:
            raise DomainError("invalid-spec", f"epsilon must be finite and > 0, got {epsilon}")
        if self.m is not None and self.m < 1:
            raise DomainError("bad-split", f"group size m must be >= 1, got {self.m}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "m", None if self.m is None else int(self.m))
        object.__setattr__(self, "lam", 1.0 / (sigma + epsilon))


@dataclass(frozen=True, eq=False)
class BatchNormState:
    """Per-channel batch-norm parameters and running statistics.

    Training mode normalizes with batch statistics; inference mode uses the
    running statistics.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    mode: str = "training"

    def __post_init__(self):
        arrs = {}
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise DomainError("dimension-mismatch", f"{name} must be 1-d")
            arrs[name] = arr
        chans = {a.shape[0] for a in arrs.values()}
        if len(chans) != 1:
            raise DomainError("dimension-mismatch", "batch-norm arrays disagree on channel count")
        if (arrs["running_var"] < 0).any():
            raise DomainError("non-finite-value", "running_var entries must be >= 0")
        if not (0.0 < self.momentum < 1.0):
            raise DomainError("invalid-spec", f"momentum must be in (0, 1), got {self.momentum}")
        if not 0.0 <= self.eps < np.inf:
            raise DomainError("invalid-spec", f"eps must be finite and >= 0, got {self.eps}")
        if self.mode not in ("training", "inference"):
            raise DomainError("invalid-spec", f"mode must be 'training' or 'inference', got {self.mode!r}")
        for name, arr in arrs.items():
            object.__setattr__(self, name, _freeze(arr))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def initial(cls, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                mode: str = "training") -> "BatchNormState":
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            momentum=momentum,
            eps=eps,
            mode=mode,
        )

    @classmethod
    def identity(cls, channels: int, mode: str = "inference") -> "BatchNormState":
        """A state that passes inputs through unchanged in inference mode."""
        return cls.initial(channels, eps=0.0, mode=mode)

    def with_mode(self, mode: str) -> "BatchNormState":
        return replace(self, mode=mode)


@dataclass(frozen=True, eq=False)
class PagwnParams:
    """Learnable weights for the two linear+batch-norm blocks of PAGWN.

    LB1 maps the (n+3)-channel normalized window rows down to n channels;
    LB2 maps the 2n-channel concatenation of row and center feature to 2n.
    """

    lb1_weight: np.ndarray  # (n+3, n)
    lb1_bias: np.ndarray    # (n,)
    lb1_bn: BatchNormState  # n channels
    lb2_weight: np.ndarray  # (2n, 2n)
    lb2_bias: np.ndarray    # (2n,)
    lb2_bn: BatchNormState  # 2n channels

    def __post_init__(self):
        w1 = np.asarray(self.lb1_weight, dtype=np.float64)
        b1 = np.asarray(self.lb1_bias, dtype=np.float64)
        w2 = np.asarray(self.lb2_weight, dtype=np.float64)
        b2 = np.asarray(self.lb2_bias, dtype=np.float64)
        if w1.ndim != 2 or w1.shape[0] != w1.shape[1] + 3:
            raise DomainError("shape-mismatch", f"lb1_weight must be (n+3, n), got {w1.shape}")
        n = w1.shape[1]
        if b1.shape != (n,) or self.lb1_bn.channels != n:
            raise DomainError("shape-mismatch", "lb1 bias/batch-norm disagree with weight shape")
        if w2.shape != (2 * n, 2 * n) or b2.shape != (2 * n,) or self.lb2_bn.channels != 2 * n:
            raise DomainError("shape-mismatch", f"lb2 arrays must all be sized for 2n={2 * n} channels")
        for name, arr in (("lb1_weight", w1), ("lb1_bias", b1), ("lb2_weight", w2), ("lb2_bias", b2)):
            if not np.isfinite(arr).all():
                raise DomainError("non-finite-value", f"{name} contains a non-finite entry")
        object.__setattr__(self, "lb1_weight", _freeze(w1))
        object.__setattr__(self, "lb1_bias", _freeze(b1))
        object.__setattr__(self, "lb2_weight", _freeze(w2))
        object.__setattr__(self, "lb2_bias", _freeze(b2))

    @property
    def n(self) -> int:
        """Feature dimension served by this parameter set."""
        return self.lb1_weight.shape[1]

    def with_mode(self, mode: str) -> "PagwnParams":
        return replace(self, lb1_bn=self.lb1_bn.with_mode(mode), lb2_bn=self.lb2_bn.with_mode(mode))


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Per-class IoU/accuracy plus the three scalar segmentation metrics.

    Classes that are absent from both prediction and ground truth carry NaN
    in the per-class arrays and are excluded from the means.
    """

    per_class_iou: np.ndarray
    per_class_acc: np.ndarray
    miou: float
    macc: float
    oa: float

    def __post_init__(self):
        object.__setattr__(self, "per_class_iou", _freeze(np.asarray(self.per_class_iou, dtype=np.float64)))
        object.__setattr__(self, "per_class_acc", _freeze(np.asarray(self.per_class_acc, dtype=np.float64)))

    @property
    def num_classes(self) -> int:
        return self.per_class_iou.shape[0]
