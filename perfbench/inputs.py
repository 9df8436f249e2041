"""Seeded workload inputs, made with NumPy alone.

Nothing here imports pgrain: a change to the program's own scene
generator must not change what the sampling and sigma-map workloads are fed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# criterion-8 configuration of the toy pipeline (PAGWN, one stage of 256
# centers, k=16, m=3, 14 train + 6 test density-imbalanced scenes, 30 epochs)
TRAIN_SCENES = 14
TEST_SCENES = 6
SCENE_POINTS = 1024
EPOCHS = 30
STAGE = {"m_points": 256, "k": 16, "split": 3}
BQ_RADIUS = 0.15

SAMPLE_POINTS = 100_000
SAMPLE_COUNT = 1024
SIGMA_POINTS = 20_000
SIGMA_K = 16
# boundary windows (two colors) sit near 0.4, flat windows near 0.05
SIGMA_THRESHOLD = 0.2
# grid cell of the brute-force KNN oracle, above the typical 16-NN radius
SIGMA_CELL = 0.15

# train configurations with a recorded output digest (see digests.json)
TRAIN_SEEDS = 32

# Plane chain geometry.  Every plane is exactly flat, as in pgrain's own
# scenes, so a median split can land on a coordinate a whole plane shares.
# Planes have sides in the ratio sqrt(2): halving the longer side leaves the
# other one longer by sqrt(2) again, so a widest-axis kd-tree never picks its
# split axis on a near-tie.  Walls are twice as tall as floors are wide, so
# the chain's height and length differ too.  Then the tree's shape, and the
# query cost, depend on the geometry and hardly on the seed: over ten seeds
# the kd-tree leaf visits of a 20k-point chain varied by 3%, and by up to 50%
# with square 2 x 2 planes.
FLOOR_WIDTH = 2.0 / 2.0 ** 0.25
WALL_HEIGHT = 2.0 * FLOOR_WIDTH
PLANE_DEPTH = FLOOR_WIDTH * 2.0 ** 0.5

_COLORS = np.array([
    [0.9, 0.1, 0.1],
    [0.1, 0.1, 0.9],
    [0.1, 0.9, 0.1],
    [0.9, 0.9, 0.1],
    [0.9, 0.1, 0.9],
])


def train_config(seed: int, aggregator: str) -> dict:
    """Toy-pipeline config; seed 0 is the frozen criterion-8 run."""
    config = {
        "stages": [dict(STAGE)],
        "num_classes": 2,
        "head_hidden": [16],
        "epochs": EPOCHS,
        "learning_rate": 0.05,
        "batch_size": 4,
        "seed": seed,
        "aggregator": aggregator,
        "scenes": {"kind": "density_imbalanced", "train": TRAIN_SCENES,
                   "test": TEST_SCENES, "base_seed": seed * (TRAIN_SCENES + TEST_SCENES)},
    }
    if aggregator == "bq_baseline":
        config["bq_radius"] = BQ_RADIUS
    return config


def write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def plane_chain(seed: int, points: int, planes: int):
    """Labeled floor/wall chain: consecutive flat planes share an edge.

    Plane p holds a share of the points proportional to p + 1, so densities
    differ up to 1:planes while the work per op stays the same for every
    seed.  Each plane has its own base color plus 0.05 white noise, so
    windows straddling a shared edge mix two colors.  Returns
    (coords (N, 3), features (N, 3), labels (N,)).
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1.0, planes + 1.0)
    counts = np.floor(points * weights / weights.sum()).astype(np.int64)
    counts[-1] += points - counts.sum()
    coords, feats, labels = [], [], []
    x = z = 0.0
    for p, count in enumerate(counts):
        side = FLOOR_WIDTH if p % 2 == 0 else WALL_HEIGHT
        u = rng.random(count) * side
        v = rng.random(count) * PLANE_DEPTH
        if p % 2 == 0:
            pts = np.stack([x + u, v, np.full(count, z)], axis=1)
            x += side
        else:
            pts = np.stack([np.full(count, x), v, z + u], axis=1)
            z += side
        coords.append(pts)
        feats.append(_COLORS[p % len(_COLORS)] + rng.normal(0.0, 0.05, size=(count, 3)))
        labels.append(np.full(count, p, dtype=np.int64))
    return np.concatenate(coords), np.concatenate(feats), np.concatenate(labels)


def write_labeled_xyz(path: Path, coords, feats, labels) -> None:
    """XYZ text with 17 significant digits, so every value round-trips."""
    table = np.column_stack([coords, feats, labels])
    np.savetxt(path, table, fmt=["%.17g"] * 6 + ["%d"])
