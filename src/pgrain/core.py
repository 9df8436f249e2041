"""Domain types shared by every pgrain module.

All value types are immutable after construction (frozen dataclasses whose
array fields are marked read-only).  Validation happens at construction
time; every violation raises :class:`DomainError` with a stable kind tag.

Learnable parameters are not value types here: they are flat
``name -> array`` dicts of checkpoint tensors (see :mod:`pgrain.pagwn`).
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Check every invariant, raising on the first violation.

        Raises:
            DomainError: kinds ``empty-cloud``, ``dimension-mismatch``,
                ``no-features``, ``label-out-of-range`` and
                ``non-finite-value``, each naming the offending index.
        """
        coords = _freeze(_to_matrix(self.coords, "coords"))
        features = _freeze(_to_matrix(self.features, "features"))
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.ndim != 1:
                raise DomainError("dimension-mismatch", f"labels must be 1-d, got shape {labels.shape}")
            if not np.issubdtype(labels.dtype, np.integer):
                raise DomainError("dimension-mismatch", "labels must be integers")
            labels = _freeze(labels.astype(np.int64))
        n_pts = coords.shape[0]
        if n_pts == 0:
            raise DomainError("empty-cloud", "point cloud has no points")
        if coords.shape[1] != 3:
            raise DomainError("dimension-mismatch", f"coords must be (N, 3), got {coords.shape}")
        if features.shape[0] != n_pts:
            raise DomainError("dimension-mismatch", f"features has {features.shape[0]} rows, coords has {n_pts}")
        if features.shape[1] < 1:
            raise DomainError("no-features", "feature dimension must be >= 1")
        if labels is not None:
            if labels.shape[0] != n_pts:
                raise DomainError("dimension-mismatch", f"labels has {labels.shape[0]} entries, coords has {n_pts}")
            bad = np.flatnonzero(labels < 0)
            if bad.size:
                raise DomainError("label-out-of-range", f"negative label at index {bad[0]}")
        for name, arr in (("coords", coords), ("features", features)):
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                idx = int(np.flatnonzero(~finite)[0])
                raise DomainError("non-finite-value", f"{name} row {idx} contains a non-finite entry")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def num_points(self) -> int:
        return self.coords.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


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
