"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Thresholds marked "frozen" were fixed once by oracle pilot runs and are
regression-checked here; they are never recalibrated by the tests.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from pgrain import (
    PointCloud,
    ball_query_batch,
    brute_force_knn,
    build_index,
    compute_metrics,
    farthest_point_sample,
    init_pagwn_params,
    knn_batch,
    pagwn_backward,
    pagwn_forward_batch,
)
from pgrain import io as pio
from pgrain.eval import (
    StageSpec,
    ToyPipelineConfig,
    density_imbalanced_scene,
    paired_comparison,
    two_plane_boundary_scene,
)
from pgrain.norm import DEFAULT_EPSILON, sigma_map

from conftest import GwnWindow, OneWindow
from test_eval import metrics_oracle


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Geometry oracle suite
# ---------------------------------------------------------------------------

def test_criterion_01_geometry_oracles():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()

    mismatches = 0
    n_clouds = 1000
    for trial in range(n_clouds):
        # a quarter of the clouds are small enough for the exhaustive FPS check
        n = int(rng.integers(2, 65)) if trial % 4 == 0 else int(rng.integers(1, 513))
        grid = trial % 5 == 0  # integer grids force distance ties
        if grid:
            coords = rng.integers(0, 8, size=(n, 3)).astype(np.float64)
        else:
            coords = rng.uniform(-1, 1, size=(n, 3))
        cloud = PointCloud(coords=coords, features=np.zeros((n, 1)))
        index = build_index(cloud)

        for _ in range(2):
            q = rng.integers(0, 8, size=(1, 3)).astype(np.float64) if grid else rng.uniform(-1.2, 1.2, size=(1, 3))
            k = int(rng.integers(1, n + 1))
            fast = knn_batch(index, q, k)
            slow = brute_force_knn(cloud, q, k)
            if not (np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])):
                mismatches += 1

        q = rng.uniform(-1.2, 1.2, size=(1, 3))
        radius = float(rng.uniform(0.05, 1.5))
        result = ball_query_batch(index, q, radius, k_max=n)
        d = coords - q
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        expected = set(np.flatnonzero(d2 <= radius * radius).tolist())
        got = set(result.indices[0].tolist()) if result.occupied[0] else set()
        if got != expected:
            mismatches += 1

        if n <= 64:
            # exhaustive per-step max-min check from the full distance matrix
            picks = farthest_point_sample(cloud, n, seed=trial)
            full = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
            for t in range(1, n):
                dmin = full[:, picks[:t]].min(axis=1)
                dmin[picks[:t]] = -np.inf
                if int(np.argmax(dmin)) != picks[t]:
                    mismatches += 1
                    break

    elapsed = time.perf_counter() - start
    _report(1, mismatches == 0 and elapsed < 60.0,
            f"{n_clouds} clouds, 0 mismatches expected (got {mismatches}), {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. Window sigma against an independent reference
# ---------------------------------------------------------------------------

def _sigma_reference(center, neighbors):
    terms = []
    for row in neighbors:
        for c, x in zip(center, row):
            terms.append((x - c) * (x - c))
    return math.sqrt(math.fsum(terms) / (len(terms) - 1))


def test_criterion_02_window_sigma():
    hand = GwnWindow(center_feature=np.zeros(1), neighbor_features=np.array([[1.0], [-1.0]]))
    _, (hand_sigma,) = hand.normalize()
    hand_ok = abs(hand_sigma - math.sqrt(2.0)) < 1e-15

    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 33))
        d = int(rng.integers(1, 17))
        if k * d < 2:
            d = 2
        w = GwnWindow(center_feature=rng.uniform(-2, 2, size=d),
                      neighbor_features=rng.uniform(-2, 2, size=(k, d)))
        expected = _sigma_reference(w.center_feature, w.neighbor_features)
        _, (got,) = w.normalize()
        worst = max(worst, abs(got - expected) / max(expected, 1e-300))
    _report(2, hand_ok and worst < 1e-12,
            f"hand case sqrt(2) ok={hand_ok}, max rel err {worst:.2e} < 1e-12 on 10k windows")


# ---------------------------------------------------------------------------
# 3. Calibration mean/variance identities
# ---------------------------------------------------------------------------

def test_criterion_03_calibration_identities():
    rng = np.random.default_rng(1003)
    worst_mean = worst_var = 0.0
    combos = [(d, k) for d in (1, 3, 16) for k in (2, 8, 32)]
    per_combo = 10_000 // len(combos) + 1
    for d, k in combos:
        for _ in range(per_combo):
            w = GwnWindow(center_feature=rng.uniform(-2, 2, size=d),
                          neighbor_features=rng.uniform(-2, 2, size=(k, d)))
            values, (sigma,) = w.normalize()
            rectified = values + w.center_feature  # x* = x_hat + x_center
            lam = 1.0 / (sigma + DEFAULT_EPSILON)

            lhs = rectified.mean(axis=0)
            rhs = lam * w.neighbor_features.mean(axis=0) + (1 - lam) * w.center_feature
            err = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-4)
            worst_mean = max(worst_mean, float(err.max()))

            lhs_v = rectified.var(axis=0, ddof=1)
            rhs_v = lam * lam * w.neighbor_features.var(axis=0, ddof=1)
            err_v = np.abs(lhs_v - rhs_v) / np.maximum(np.abs(rhs_v), 1e-4)
            worst_var = max(worst_var, float(err_v.max()))
    ok = worst_mean < 1e-10 and worst_var < 1e-10
    _report(3, ok,
            f"mean identity max rel err {worst_mean:.2e}, variance {worst_var:.2e}, both < 1e-10")


# ---------------------------------------------------------------------------
# 4. Group-wise suite
# ---------------------------------------------------------------------------

def test_criterion_04_group_wise():
    rng = np.random.default_rng(1004)
    worst_sigma = 0.0
    for _ in range(2000):
        k = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, k))
        if m * d < 2 or (k - m) * d < 2:
            continue
        w = GwnWindow(center_feature=rng.uniform(-2, 2, size=d),
                      neighbor_features=rng.uniform(-2, 2, size=(k, d)))
        _, sigmas = w.normalize(m=m)
        for sigma, rows in zip(sigmas, (w.neighbor_features[:m], w.neighbor_features[m:])):
            expected = _sigma_reference(w.center_feature, rows)
            worst_sigma = max(worst_sigma, abs(sigma - expected) / max(expected, 1e-300))

    worst_perm = 0.0
    n, k, m = 4, 9, 3
    params = init_pagwn_params(n, seed=44)
    for _ in range(1000):
        inp = OneWindow(rng.normal(size=3), rng.normal(size=n),
                        rng.normal(size=(k, 3)), rng.normal(size=(k, n)))
        perm = np.concatenate([rng.permutation(m), m + rng.permutation(k - m)])
        permuted = inp._replace(neighbor_coords=inp.neighbor_coords[perm],
                                neighbor_features=inp.neighbor_features[perm])
        a = pagwn_forward_batch(*inp.batch(), params, m=m).aggregated[0]
        b = pagwn_forward_batch(*permuted.batch(), params, m=m).aggregated[0]
        worst_perm = max(worst_perm, float(np.abs(a - b).max()))

    ok = worst_sigma < 1e-12 and worst_perm <= 1e-12
    _report(4, ok,
            f"group sigma vs two-pass oracle {worst_sigma:.2e} < 1e-12; "
            f"permutation drift {worst_perm:.2e} <= 1e-12 on 1000 cases")


# ---------------------------------------------------------------------------
# 5. Dimension contract
# ---------------------------------------------------------------------------

def test_criterion_05_dimension_contract():
    rng = np.random.default_rng(1005)
    ok = True
    detail = []
    for n in (1, 4, 16, 64):
        k = 8
        inp = OneWindow(rng.normal(size=3), rng.normal(size=n),
                        rng.normal(size=(k, 3)), rng.normal(size=(k, n)))
        params = init_pagwn_params(n, seed=n)
        out = pagwn_forward_batch(*inp.batch(), params, m=3)
        # the pre-abstraction rows are the first n channels of LB2's input
        pre = out.cache.layers["lb2_"][0].reshape(1, k, 2 * n)[0, :, :n]
        ok &= pre.shape == (k, n) and out.aggregated[0].shape == (2 * n,)
        detail.append(f"n={n}:{pre.shape}->{out.aggregated[0].shape}")
    _report(5, ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 6. Gradient check
# ---------------------------------------------------------------------------

def _sample_smooth_case(rng):
    """Random config resampled away from ReLU/maxpool/sigma kinks."""
    while True:
        n = int(rng.integers(1, 9))
        k = int(rng.integers(2, 9))
        m = int(rng.integers(1, k))
        params = init_pagwn_params(n, seed=int(rng.integers(0, 2**31)))
        inp = OneWindow(rng.normal(size=3), rng.normal(size=n),
                        rng.normal(size=(k, 3)), rng.normal(size=(k, n)))
        out = pagwn_forward_batch(*inp.batch(), params, m=m)
        cache = out.cache
        pooled = cache.pooled[0]
        # nondifferentiable-adjacent: ReLU input near 0, near-tied maxpool,
        # a group sigma near 0, or a batch-norm channel variance so small
        # that the sqrt curvature swamps an h=1e-5 central difference
        if np.abs(pooled).min() < 1e-4:
            continue
        gwn_sigmas = cache.gwn_cache[1]
        if min(float(s.min()) for s in gwn_sigmas) < 1e-4:
            continue
        bn1, bn2 = cache.layers["lb1_"][1], cache.layers["lb2_"][1]
        if min(float(bn1[4].min()), float(bn2[4].min())) < 1e-3:
            continue
        bn2_rows = (bn2[1] * params["lb2_bn.gamma"] + params["lb2_bn.beta"])
        rows2 = bn2_rows.reshape(k, 2 * n)
        top2 = np.sort(rows2, axis=0)[-2:, :]
        if k > 1 and float((top2[1] - top2[0]).min()) < 1e-4:
            continue
        return n, k, m, params, inp, out


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0

    for _ in range(100):
        n, k, m, params, inp, out = _sample_smooth_case(rng)
        upstream = rng.normal(size=2 * n)
        grads, inputs = pagwn_backward(out.cache, upstream[None])

        def loss(p, i):
            return float(np.sum(pagwn_forward_batch(*i.batch(), p, m=m).aggregated[0] * upstream))

        def check(analytic, base, rebuild):
            nonlocal worst
            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                delta = np.zeros_like(base)
                delta[ix] = h
                fd[ix] = (loss(*rebuild(base + delta)) - loss(*rebuild(base - delta))) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-2)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))

        for name in ("lb1_weight", "lb1_bias", "lb2_weight", "lb2_bias",
                     "lb1_bn.gamma", "lb1_bn.beta", "lb2_bn.gamma", "lb2_bn.beta"):
            check(grads[name], params[name], lambda a, name=name: ({**params, name: a}, inp))
        check(inputs["neighbor_features"][0], inp.neighbor_features,
              lambda a: (params, inp._replace(neighbor_features=a)))
        check(inputs["neighbor_coords"][0], inp.neighbor_coords,
              lambda a: (params, inp._replace(neighbor_coords=a)))
        check(inputs["center_features"][0], inp.center_feature,
              lambda a: (params, inp._replace(center_feature=a)))
        check(inputs["center_coords"][0], inp.center_coord,
              lambda a: (params, inp._replace(center_coord=a)))

    elapsed = time.perf_counter() - start
    _report(6, worst < 1e-4 and elapsed < 120.0,
            f"100 configs, max floored rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 7. Boundary sigma map (frozen oracle values)
# ---------------------------------------------------------------------------

def test_criterion_07_boundary_sigma_map():
    # frozen by the oracle pilot: K=16, threshold 0.2 on scene seed 42 gives
    # recall 0.96939 and precision 0.79167; regression window is +-0.02
    cloud, boundary = two_plane_boundary_scene(seed=42, point_count=1024,
                                               density=400.0, noise=0.02, band_scale=1.5)
    flagged_idx = sigma_map(cloud, k=16, threshold=0.2)
    flagged = np.zeros(cloud.num_points, dtype=bool)
    flagged[flagged_idx] = True
    hits = int((flagged & boundary).sum())
    recall = hits / int(boundary.sum())
    precision = hits / max(int(flagged.sum()), 1)
    ok = (recall >= 0.8 and precision >= 0.5
          and abs(recall - 0.9693877551020408) <= 0.02
          and abs(precision - 0.7916666666666666) <= 0.02)
    _report(7, ok,
            f"recall {recall:.4f} (>=0.8, frozen 0.9694+-0.02), "
            f"precision {precision:.4f} (>=0.5, frozen 0.7917+-0.02)")


# ---------------------------------------------------------------------------
# 8. Toy segmentation non-inferiority (frozen pilot config)
# ---------------------------------------------------------------------------

def test_criterion_08_toy_segmentation():
    start = time.perf_counter()
    scenes = [density_imbalanced_scene(s) for s in range(20)]
    config = ToyPipelineConfig(
        stages=(StageSpec(m_points=256, k=16, split=3),),
        num_classes=2, head_hidden=(16,), epochs=30, learning_rate=0.05,
        batch_size=4, seed=0, aggregator="pagwn",
    )
    results = paired_comparison(config, scenes[:14], scenes[14:],
                                aggregators=("pagwn", "knn_baseline"))
    pagwn_miou = results["pagwn"].metrics.miou
    knn_miou = results["knn_baseline"].metrics.miou
    elapsed = time.perf_counter() - start
    ok = (pagwn_miou >= 0.90 and pagwn_miou >= knn_miou - 0.02
          and config.epochs <= 50 and elapsed < 600.0)
    _report(8, ok,
            f"pagwn mIoU {pagwn_miou:.4f} >= 0.90 and >= knn {knn_miou:.4f} - 0.02, "
            f"{config.epochs} epochs, {elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# 9. Metrics correctness
# ---------------------------------------------------------------------------

def test_criterion_09_metrics():
    report = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
    hand_ok = (report.oa == 0.75 and report.macc == 0.75
               and report.per_class_iou[0] == 0.5
               and report.per_class_iou[1] == 2.0 / 3.0
               and abs(report.miou - 7.0 / 12.0) < 1e-15)

    rng = np.random.default_rng(1009)
    oracle_ok = True
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 80))
        pred = rng.integers(0, c, size=n)
        truth = rng.integers(0, c, size=n)
        got = compute_metrics(pred, truth, c)
        iou, acc, miou, macc, oa = metrics_oracle(pred.tolist(), truth.tolist(), c)
        for cls in range(c):
            lhs = got.per_class_iou[cls]
            oracle_ok &= (np.isnan(lhs) if iou[cls] is None else lhs == iou[cls])
            lhs = got.per_class_acc[cls]
            oracle_ok &= (np.isnan(lhs) if acc[cls] is None else lhs == acc[cls])
        oracle_ok &= got.oa == oa
        oracle_ok &= abs(got.miou - miou) < 1e-12 and abs(got.macc - macc) < 1e-12
        if not oracle_ok:
            break
    _report(9, hand_ok and oracle_ok,
            f"hand case (mIoU 7/12, OA 0.75, mAcc 0.75) ok={hand_ok}; 1000 oracle cases ok={oracle_ok}")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _run_cli(*args):
    result = subprocess.run([sys.executable, "-m", "pgrain.cli", *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_criterion_10_cli_determinism(tmp_path):
    scene = density_imbalanced_scene(2, dense_count=96, sparse_count=48)
    scene_path = tmp_path / "scene.xyz"
    pio.write_xyz(scene_path, scene)

    rng = np.random.default_rng(1010)
    center, neighbors = rng.normal(size=3), rng.normal(size=(5, 3))
    pio.write_tensor(tmp_path / "c.pgtn", center)
    pio.write_tensor(tmp_path / "n.pgtn", neighbors)
    params = init_pagwn_params(3, seed=2)
    inp = OneWindow(rng.normal(size=3), rng.normal(size=3),
                    rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    pio.save_tensor_dir(tmp_path / "inp", inp._asdict())
    pio.save_tensor_dir(tmp_path / "par", params)
    pio.write_labels(tmp_path / "pred.txt", rng.integers(0, 2, size=40))
    pio.write_labels(tmp_path / "truth.txt", rng.integers(0, 2, size=40))
    toy = {
        "stages": [{"m_points": 24, "k": 8, "split": 3}],
        "num_classes": 2, "head_hidden": [8], "epochs": 2, "learning_rate": 0.1,
        "batch_size": 2, "seed": 3, "aggregator": "pagwn",
        "scenes": {"kind": "density_imbalanced", "train": 2, "test": 1, "base_seed": 5},
    }
    (tmp_path / "toy.json").write_text(json.dumps(toy), encoding="utf-8")

    commands = [
        ("sample-fps", ["sample", str(scene_path), "--has-label", "--method", "fps",
                        "--count", "9", "--seed", "4", "--out", "{out}"], [".idx"]),
        ("sample-random", ["sample", str(scene_path), "--has-label", "--method", "random",
                           "--count", "9", "--seed", "4", "--out", "{out}"], [".idx"]),
        ("sigma-map", ["sigma-map", str(scene_path), "--has-label", "--k", "12",
                       "--threshold", "0.2", "--out", "{out}"], []),
        ("normalize", ["normalize", "--center", str(tmp_path / "c.pgtn"),
                       "--neighbors", str(tmp_path / "n.pgtn"), "--m", "2", "--out", "{out}"], []),
        ("pagwn-forward", ["pagwn-forward", "--input", str(tmp_path / "inp"),
                           "--params", str(tmp_path / "par"), "--out", "{out}"], []),
        ("eval", ["eval", "--pred", str(tmp_path / "pred.txt"), "--truth", str(tmp_path / "truth.txt"),
                  "--classes", "2", "--out", "{out}"], []),
        ("train-toy", ["train-toy", "--config", str(tmp_path / "toy.json"), "--out", "{out}"], []),
        ("ablate-m", ["ablate-m", "--config", str(tmp_path / "toy.json"), "--m", "2,3", "--out", "{out}"], []),
    ]
    failures = []
    for name, template, sidecars in commands:
        # identical command line both times; the second run overwrites
        out = tmp_path / f"{name}.out"
        argv = [a.replace("{out}", str(out)) for a in template]
        blobs = []
        for _ in range(2):
            stdout = _run_cli(*argv)
            blob = stdout.encode() + out.read_bytes()
            for suffix in sidecars:
                blob += (out.parent / (out.name + suffix)).read_bytes()
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            failures.append(name)
    _report(10, not failures,
            f"8 seeded commands byte-identical across two runs; failures: {failures or 'none'}")
