from typing import NamedTuple

import numpy as np
import pytest

from pgrain import PointCloud, window_normalize
from pgrain.norm import DEFAULT_EPSILON


def random_cloud(rng, n_points=None, feature_dim=3, labeled=False, num_classes=4,
                 scale=1.0):
    """Uniform cloud in a cube with uniform features, optionally labeled."""
    if n_points is None:
        n_points = int(rng.integers(2, 128))
    labels = rng.integers(0, num_classes, size=n_points) if labeled else None
    return PointCloud(
        coords=rng.uniform(-scale, scale, size=(n_points, 3)),
        features=rng.uniform(-1.0, 1.0, size=(n_points, feature_dim)),
        labels=labels,
    )


class OneWindow(NamedTuple):
    """One PAGWN window: a center and its K neighbors, rows in ascending-distance order.

    ``_asdict()`` is the tensor set ``pgrain pagwn-forward --input`` reads.
    """

    center_coord: np.ndarray       # (3,)
    center_feature: np.ndarray     # (n,)
    neighbor_coords: np.ndarray    # (K, 3)
    neighbor_features: np.ndarray  # (K, n)

    def batch(self):
        """The window as the first four arguments of ``pagwn_forward_batch``, a batch of one."""
        return (self.neighbor_coords[None], self.neighbor_features[None],
                self.center_coord[None], self.center_feature[None])


class GwnWindow(NamedTuple):
    """One window of window normalization: a center feature and its K neighbor rows."""

    center_feature: np.ndarray     # (d,)
    neighbor_features: np.ndarray  # (K, d)

    def normalize(self, m=None, epsilon=DEFAULT_EPSILON):
        """``window_normalize`` on the window as a batch of one: the (K, d) rows and one float sigma per group."""
        values, sigmas = window_normalize(self.neighbor_features[None], self.center_feature[None],
                                          m=m, epsilon=epsilon)
        return values[0], [float(sig[0]) for sig in sigmas]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
