"""The four workloads: how each builds its op and how its output is checked.

``prepare(workdir, seed)`` writes the inputs and returns the op: CLI argv,
input and output paths, the sizes that describe it, and whatever the
check needs.  ``check(case, stdout, digest)`` returns a list of problems with the
files the last op left behind; it runs after the timed loop.  The oracles
here are plain NumPy and share no code with pgrain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    points_per_op: int
    prepare: Callable[[Path, int], dict]
    check: Callable[[dict, str, str], list]


# -- toy-pipeline training ---------------------------------------------------

def _prepare_train(aggregator: str):
    def prepare(workdir: Path, seed: int) -> dict:
        # fold the seed onto the configurations whose digests are recorded
        seed %= inputs.TRAIN_SEEDS
        config = workdir / "config.json"
        inputs.write_config(config, inputs.train_config(seed, aggregator))
        metrics, ckpt = workdir / "metrics.csv", workdir / "ckpt"
        return {
            "argv": ["train-toy", "--config", str(config), "--out", str(metrics),
                     "--checkpoint", str(ckpt)],
            "inputs": [str(config)],
            "outputs": [str(metrics), str(ckpt)],
            "params": {"config_seed": seed, "N": inputs.SCENE_POINTS, "k": inputs.STAGE["k"], "m": inputs.STAGE["split"],
                       "centers": inputs.STAGE["m_points"],
                       "radius": inputs.BQ_RADIUS if aggregator == "bq_baseline" else None,
                       "train_scenes": inputs.TRAIN_SCENES, "test_scenes": inputs.TEST_SCENES,
                       "epochs": inputs.EPOCHS},
            "seed": seed,
        }
    return prepare


def _check_train(name: str):
    def check(case: dict, stdout: str, digest: str) -> list:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {})
        expected = recorded.get(str(case["seed"]))
        if expected is None:
            return [f"no digest is recorded for train seed {case['seed']}"]
        if digest != expected:
            return [f"metrics/checkpoint digest {digest} differs from the recorded {expected}"]
        return []
    return check


# -- farthest point sampling on a large cloud --------------------------------

def _prepare_cloud(workdir: Path, seed: int, points: int, planes: int) -> dict:
    coords, feats, labels = inputs.plane_chain(seed, points, planes)
    path = workdir / "cloud.xyz"
    inputs.write_labeled_xyz(path, coords, feats, labels)
    return {"coords": coords, "feats": feats, "labels": labels, "input": path,
            "inputs": [str(path)], "seed": seed}


def _prepare_sample(workdir: Path, seed: int) -> dict:
    case = _prepare_cloud(workdir, seed, inputs.SAMPLE_POINTS, planes=5)
    out = workdir / "sampled.xyz"
    case.update(
        argv=["sample", str(case["input"]), "--has-label", "--method", "fps",
              "--count", str(inputs.SAMPLE_COUNT), "--seed", str(seed), "--out", str(out)],
        outputs=[str(out), str(out) + ".idx"],
        params={"N": inputs.SAMPLE_POINTS, "count": inputs.SAMPLE_COUNT,
                "input_bytes": case["input"].stat().st_size},
        out=out,
    )
    return case


def _read_rows(path: Path) -> np.ndarray:
    if path.stat().st_size == 0:
        return np.empty((0, 7))
    return np.loadtxt(path, ndmin=2)


def _rows_match(rows: np.ndarray, case: dict, idx: np.ndarray) -> bool:
    return (rows.shape == (idx.size, 7)
            and np.array_equal(rows[:, :3], case["coords"][idx])
            and np.array_equal(rows[:, 3:6], case["feats"][idx])
            and np.array_equal(rows[:, 6], case["labels"][idx]))


def fps_problems(coords: np.ndarray, picked: np.ndarray, seed: int) -> list:
    """Max-min greedy property: every pick is the first farthest remaining point."""
    first = int(np.random.default_rng(seed).integers(coords.shape[0]))
    if picked[0] != first:
        return [f"first pick {picked[0]} is not the seeded draw {first}"]
    columns = [np.ascontiguousarray(c) for c in coords.T]
    d2, tmp = np.empty(coords.shape[0]), np.empty(coords.shape[0])

    def sq_dist(i):  # dx*dx + dy*dy + dz*dz, the same sum the program takes
        x, y, z = columns
        np.subtract(x, x[i], out=d2)
        np.multiply(d2, d2, out=d2)
        for c in (y, z):
            np.subtract(c, c[i], out=tmp)
            np.add(d2, np.multiply(tmp, tmp, out=tmp), out=d2)
        return d2

    min_d2 = sq_dist(first).copy()
    min_d2[first] = -np.inf
    for t in range(1, picked.size):
        best = int(np.argmax(min_d2))
        if picked[t] != best:
            return [f"pick {t} is {picked[t]}, the farthest remaining point is {best}"]
        np.minimum(min_d2, sq_dist(best), out=min_d2)
        min_d2[best] = -np.inf
    return []


def _check_sample(case: dict, stdout: str, digest: str) -> list:
    out = case["out"]
    idx = np.array([int(line) for line in Path(str(out) + ".idx").read_text().split()], dtype=np.int64)
    n = case["coords"].shape[0]
    if idx.size != inputs.SAMPLE_COUNT:
        return [f"{idx.size} indices, expected {inputs.SAMPLE_COUNT}"]
    if idx.min() < 0 or idx.max() >= n or np.unique(idx).size != idx.size:
        return ["indices are out of range or repeated"]
    if not _rows_match(_read_rows(out), case, idx):
        return ["written rows differ from the input rows at the sampled indices"]
    return fps_problems(case["coords"], idx, case["seed"])


# -- boundary sigma map on a large cloud ---------------------------------------

def _knn_rows(coords, queries, cand, k):
    """k nearest of ``cand`` for each query, ordered by (d2, index), plus the k-th d2."""
    q, c = coords[queries], coords[cand]
    dx, dy, dz = (c[None, :, i] - q[:, None, i] for i in range(3))
    d2 = dx * dx + dy * dy + dz * dz
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows = np.empty((queries.size, k), dtype=np.int64)
    for r in range(queries.size):
        pick = np.flatnonzero(d2[r] <= kth[r])  # every candidate tied at the k-th distance
        rows[r] = cand[pick[np.lexsort((cand[pick], d2[r, pick]))[:k]]]
    return rows, kth


def knn_oracle(coords: np.ndarray, k: int, cell: float) -> np.ndarray:
    """Exact k nearest per point, ordered by (d2, index): brute force over grid cells.

    Each point's candidates are the points in the 27 cells around its own.
    Every point closer than ``cell`` lies in those cells, so when the k-th
    candidate distance is below ``cell`` the candidates hold every true
    neighbor and every tie; other points fall back to all points.
    """
    n = coords.shape[0]
    keys = np.floor(coords / cell).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    slot = {tuple(key): i for i, key in enumerate(uniq.tolist())}
    offsets = np.array(np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1])).reshape(3, -1).T
    out = np.empty((n, k), dtype=np.int64)
    everything = np.arange(n)
    for i, key in enumerate(uniq):
        queries = members[i]
        near = [slot[t] for t in map(tuple, (key + offsets).tolist()) if t in slot]
        cand = np.sort(np.concatenate([members[j] for j in near]))
        safe = np.zeros(queries.size, dtype=bool)
        if cand.size >= k:
            rows, kth = _knn_rows(coords, queries, cand, k)
            safe = kth < (0.99 * cell) ** 2
            out[queries[safe]] = rows[safe]
        if not safe.all():
            out[queries[~safe]] = _knn_rows(coords, queries[~safe], everything, k)[0]
    return out


def _prepare_sigma(workdir: Path, seed: int) -> dict:
    case = _prepare_cloud(workdir, seed, inputs.SIGMA_POINTS, planes=4)
    out = workdir / "flagged.xyz"
    case.update(
        argv=["sigma-map", str(case["input"]), "--has-label", "--k", str(inputs.SIGMA_K),
              "--threshold", repr(inputs.SIGMA_THRESHOLD), "--out", str(out)],
        outputs=[str(out)],
        params={"N": inputs.SIGMA_POINTS, "k": inputs.SIGMA_K, "threshold": inputs.SIGMA_THRESHOLD,
                "input_bytes": case["input"].stat().st_size},
        out=out,
    )
    return case


def _check_sigma(case: dict, stdout: str, digest: str) -> list:
    coords, k, t = case["coords"], inputs.SIGMA_K, inputs.SIGMA_THRESHOLD
    matrix = np.hstack([coords, case["feats"]])
    dev = matrix[knn_oracle(coords, k, cell=inputs.SIGMA_CELL)] - matrix[:, None, :]
    sigma = np.sqrt(np.sum(dev * dev, axis=(1, 2)) / (k * matrix.shape[1] - 1))
    # a sigma within rounding of the threshold may land on either side
    surely = np.flatnonzero(sigma > t * (1 + 1e-12))
    maybe = np.flatnonzero(sigma > t * (1 - 1e-12))
    rows = _read_rows(case["out"])
    where = {row.tobytes(): i for i, row in enumerate(coords)}
    got = np.array([where.get(row[:3].tobytes(), -1) for row in rows], dtype=np.int64)
    case["params"]["flagged"] = int(surely.size)
    if (got < 0).any() or not _rows_match(rows, case, got):
        return ["flagged rows are not input rows"]
    if np.any(np.diff(got) <= 0):
        return ["flagged rows are not in ascending index order"]
    if not (np.isin(surely, got).all() and np.isin(got, maybe).all()):
        return [f"flagged {got.size} points, the brute-force oracle flags {surely.size}"]
    return []


WORKLOADS = {
    w.name: w for w in (
        Workload("train_pagwn", inputs.TRAIN_SCENES * inputs.SCENE_POINTS * inputs.EPOCHS
                 + inputs.TEST_SCENES * inputs.SCENE_POINTS,
                 _prepare_train("pagwn"), _check_train("train_pagwn")),
        Workload("train_bq", inputs.TRAIN_SCENES * inputs.SCENE_POINTS * inputs.EPOCHS
                 + inputs.TEST_SCENES * inputs.SCENE_POINTS,
                 _prepare_train("bq_baseline"), _check_train("train_bq")),
        Workload("sample_large", inputs.SAMPLE_POINTS, _prepare_sample, _check_sample),
        Workload("sigma_large", inputs.SIGMA_POINTS, _prepare_sigma, _check_sigma),
    )
}
