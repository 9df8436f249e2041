"""Window normalization of local feature neighborhoods.

A window is one center feature plus its K neighbor features (rows in
ascending-distance order); a batch of M windows is an (M, K, d) array of
rows beside an (M, d) array of centers.  Normalization subtracts the
CENTER feature — prior knowledge standing in for the window mean — and
divides by a single scalar sigma plus epsilon:

    sigma = sqrt( sum_j ||x_j - x_center||^2 / (K*d - 1) )

summed over all K rows and all d channels.  Sigma is deliberately one
scalar per window, not per channel: the K*d - 1 denominator counts every
entry of the window.  The group-wise variant splits the rows at m (the m
nearest rows form the texture group) and normalizes each group with its
own sigma, so a batch yields one (M,) sigma array per group.  No learnable
parameters anywhere.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .core import DomainError, PointCloud
from .spatial import build_index, knn_batch

DEFAULT_EPSILON = 1e-5
DEFAULT_SPLIT = 3  # grouping size with the best reported ablation accuracy
_SIGMA_CHUNK = 256  # sigma_map centers per neighbor batch and window gather; bounds its working memory


def _sigmas(dev: np.ndarray, denom: int) -> np.ndarray:
    """Scalar sigma of each window in a (M, K, d) batch of center deviations."""
    return np.sqrt(np.sum(dev * dev, axis=(1, 2)) / denom)


def _gwn_forward(windows: np.ndarray, centers: np.ndarray, m: Optional[int], epsilon: float):
    """Group-wise window normalization over a batch: the one GWN kernel.

    windows: (M, K, d) absolute rows in ascending-distance order; centers:
    (M, d).  Rows [0, m) and [m, K) are normalized by their own sigma;
    ``m=None`` normalizes all K rows as one group.  Returns the normalized
    rows plus the cache :func:`_gwn_backward` needs, whose second entry is
    the list of per-group (M,) sigmas.
    """
    if not 0 < epsilon < np.inf:
        raise DomainError("invalid-spec", f"epsilon must be finite and > 0, got {epsilon}")
    _, k, d = windows.shape
    if m is None:
        groups = [(slice(0, k), k * d - 1)]
    elif not 1 <= m < k:
        raise DomainError("bad-split", f"m={m} outside [1, {k - 1}]")
    else:
        groups = [(slice(0, m), m * d - 1), (slice(m, k), (k - m) * d - 1)]
    dev = windows - centers[:, None, :]
    out = np.empty_like(dev)
    sigmas = []
    for rows, denom in groups:
        if denom < 1:
            if m is None:
                raise DomainError("degenerate-window", f"sigma needs K*d >= 2 entries, got {k * d}")
            raise DomainError("degenerate-group", f"group of {denom + 1} entries has fewer than 2")
        part = dev[:, rows]
        sig = _sigmas(part, denom)
        out[:, rows] = part / (sig + epsilon)[:, None, None]
        sigmas.append(sig)
    return out, (dev, sigmas, groups, epsilon)


def _gwn_backward(g: np.ndarray, cache):
    """Gradient w.r.t. the (M, K, d) window rows; the centers' is minus its sum over K.

    A group whose sigma is 0 (every entry equals the center) has no
    derivative of sigma: along one entry it changes by |h| / sqrt(denom).
    The backward takes the subgradient 0 for sigma there and keeps only the
    direct path, g / epsilon.  That is the limit of a central difference,
    because sigma is even in each entry's perturbation.
    """
    dev, sigmas, groups, epsilon = cache
    ddev = np.empty_like(dev)
    for (rows, denom), sig in zip(groups, sigmas):
        scale = sig + epsilon
        part_dev = dev[:, rows]
        part_g = g[:, rows]
        direct = part_g / scale[:, None, None]
        # sigma path: d(sigma)/d(dev_jc) = dev_jc / (denom * sigma)
        dl_dsig = -np.sum(part_g * part_dev, axis=(1, 2)) / (scale * scale)
        coef = np.divide(dl_dsig, denom * sig, out=np.zeros_like(sig), where=sig > 0)
        ddev[:, rows] = direct + coef[:, None, None] * part_dev
    return ddev


def _check_sigmas(sigmas: List[np.ndarray]) -> None:
    """Reject the per-group sigmas of a batch when one is not finite: finite entries near 1e200 overflow."""
    if not all(np.isfinite(sig).all() for sig in sigmas):
        raise DomainError("non-finite-value", "a window sigma is not finite")


def window_normalize(windows, centers, m: Optional[int] = None,
                     epsilon: float = DEFAULT_EPSILON) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Group-wise window normalization of M windows: (x_j - x_center) / (sigma + epsilon).

    windows: (M, K, d) neighbor rows in ascending-distance order (a
    ``knn_batch`` row); centers: (M, d).  ``m=None`` normalizes all K rows
    as one group; otherwise rows [0, m) (the texture group) and [m, K) get
    their own sigma.  Returns the (M, K, d) normalized rows and one (M,)
    sigma array per group.  The rectified rows are ``values + centers[:, None]``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if windows.ndim != 3 or centers.ndim != 2 or windows.shape[::2] != centers.shape:
        raise DomainError("shape-mismatch",
                          f"windows {windows.shape} and centers {centers.shape} are not (M, K, d) and (M, d)")
    if windows.shape[1] < 1 or windows.shape[2] < 1:
        raise DomainError("degenerate-window", "windows need K >= 1 and d >= 1")
    if not (np.isfinite(windows).all() and np.isfinite(centers).all()):
        raise DomainError("non-finite-value", "window entries must be finite")
    values, (_, sigmas, _, _) = _gwn_forward(windows, centers, m, epsilon)
    _check_sigmas(sigmas)
    return values, sigmas


def sigma_map(cloud: PointCloud, k: int, threshold: float = 1.0,
              use_coords: bool = True) -> np.ndarray:
    """Indices of centers whose window sigma exceeds the threshold.

    Windows are built at every cloud point from its k nearest neighbors
    over the concatenated [coordinate, feature] vectors (d = n+3), matching
    how boundary points light up in real scenes; set ``use_coords`` False
    to restrict windows to raw features.
    """
    if np.isnan(threshold):
        raise DomainError("invalid-spec", "threshold must be a number, got nan")
    n_pts = cloud.num_points
    if not 1 <= k <= n_pts:
        raise DomainError("k-out-of-range", f"k={k} outside [1, {n_pts}]")
    matrix = np.hstack([cloud.coords, cloud.features]) if use_coords else cloud.features
    if k * matrix.shape[1] < 2:
        raise DomainError("degenerate-window", "windows would have fewer than 2 entries")
    index = build_index(cloud)
    sigmas = []
    for start in range(0, n_pts, _SIGMA_CHUNK):
        stop = min(start + _SIGMA_CHUNK, n_pts)
        hoods = knn_batch(index, cloud.coords[start:stop], k)[0]
        gathered = matrix[hoods]
        sigmas.append(_sigmas(gathered - matrix[start:stop, None, :], k * matrix.shape[1] - 1))
    return np.flatnonzero(np.concatenate(sigmas) > threshold).astype(np.int64)
