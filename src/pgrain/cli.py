"""Batch command-line surface over the pgrain library.

Every command is non-interactive, seeded, and idempotent: the same inputs
and flags always produce byte-identical outputs.  Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import eval as ev
from . import io as pio
from . import norm, pagwn, sampling
from .core import DomainError, PointCloud


def _load_cloud(path: str, feature_dim, has_label: bool) -> PointCloud:
    if path.endswith(".ply"):
        return pio.read_ply(path)
    if feature_dim is None:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            first = fh.readline().split()
        # a short first line is reported by read_xyz, with its line number
        feature_dim = max(len(first) - 3 - (1 if has_label else 0), 0)
    return pio.read_xyz(path, feature_dim=feature_dim, has_label=has_label)


def _add_cloud_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="input cloud (.xyz text or .ply)")
    parser.add_argument("--feature-dim", type=int, default=None,
                        help="feature columns in an .xyz file (default: inferred)")
    parser.add_argument("--has-label", action="store_true",
                        help="the last .xyz column is an integer class label")


def _cmd_sample(args) -> int:
    cloud = _load_cloud(args.input, args.feature_dim, args.has_label)
    if args.method == "fps":
        indices = sampling.farthest_point_sample(cloud, args.count, args.seed)
    else:
        indices = sampling.random_sample(cloud, args.count, args.seed)
    subset = PointCloud(
        coords=cloud.coords[indices],
        features=cloud.features[indices],
        labels=None if cloud.labels is None else cloud.labels[indices],
    )
    pio.write_xyz(args.out, subset)
    sidecar = args.indices_out or args.out + ".idx"
    with open(sidecar, "w", encoding="utf-8") as fh:
        for i in indices:
            fh.write(f"{int(i)}\n")
    print(f"sampled {len(indices)} points -> {args.out} (indices: {sidecar})")
    return 0


def _cmd_sigma_map(args) -> int:
    cloud = _load_cloud(args.input, args.feature_dim, args.has_label)
    flagged = norm.sigma_map(cloud, args.k, threshold=args.threshold,
                             use_coords=args.use_coords)
    subset_labels = None if cloud.labels is None else cloud.labels[flagged]
    if flagged.size:
        subset = PointCloud(cloud.coords[flagged], cloud.features[flagged], subset_labels)
        pio.write_xyz(args.out, subset)
    else:
        Path(args.out).write_text("", encoding="utf-8")
    print(f"{flagged.size} points with window sigma > {args.threshold}")
    return 0


def _cmd_normalize(args) -> int:
    center = pio.read_tensor(args.center)
    neighbors = pio.read_tensor(args.neighbors)
    window = norm.Window(center_feature=center, neighbor_features=neighbors)
    if args.m is None:
        result = norm.window_normalize(window, epsilon=args.epsilon)
        sigmas = [result.stats.sigma]
    else:
        result = norm.group_wise_window_normalize(window, m=args.m, epsilon=args.epsilon)
        sigmas = [s.sigma for s in result.stats]
    pio.write_tensor(args.out, result.values)
    print("sigma " + " ".join(repr(float(s)) for s in sigmas))
    return 0


def _cmd_pagwn_forward(args) -> int:
    inp = pagwn.pagwn_input_from_tensors(pio.load_tensor_dir(args.input))
    params = pagwn.pagwn_params_from_tensors(pio.load_tensor_dir(args.params), mode=args.mode)
    out = pagwn.pagwn_forward(inp, params, m=args.m, epsilon=args.epsilon)
    pio.write_tensor(args.out, out.aggregated)
    print(f"aggregated {out.aggregated.shape[0]} channels -> {args.out}")
    return 0


def _coerce(where: str, value, read):
    """Apply ``read`` to one JSON value; a value it cannot take is an ``invalid-spec``."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("invalid-spec", f"{where}: cannot read {value!r} ({exc})") from None


# how each top-level config key is read; absent keys keep ToyPipelineConfig's
# defaults, and ToyPipelineConfig checks every value
_CONFIG_KEYS = {
    "num_classes": int,
    "head_hidden": tuple,
    "epochs": int,
    "learning_rate": float,
    "batch_size": int,
    "seed": int,
    "aggregator": str,
    "epsilon": float,
    "bq_radius": lambda value: value,
}


def _stage_spec(i: int, entry) -> ev.StageSpec:
    if not isinstance(entry, dict):
        raise DomainError("invalid-spec", f"stage {i} must be a JSON object, got {entry!r}")
    try:
        return ev.StageSpec(**entry)
    except TypeError as exc:  # an unknown or a missing field
        raise DomainError("invalid-spec", f"stage {i}: {exc}") from None


def _scene_sets(spec):
    if not isinstance(spec, dict):
        raise DomainError("invalid-spec", "scenes must be a JSON object")
    kind = spec.get("kind", "density_imbalanced")
    base = _coerce("scenes.base_seed", spec.get("base_seed", 0), int)
    n_train = _coerce("scenes.train", spec.get("train"), int)
    n_test = _coerce("scenes.test", spec.get("test"), int)
    makers = {
        "density_imbalanced": ev.density_imbalanced_scene,
        "constant_label": ev.constant_label_scene,
    }
    if not isinstance(kind, str) or kind not in makers:
        raise DomainError("invalid-spec", f"unknown scene kind {kind!r}")
    if base < 0:
        raise DomainError("invalid-spec", f"scenes.base_seed must be >= 0, got {base}")
    make = makers[kind]
    train = [make(base + i) for i in range(n_train)]
    test = [make(base + n_train + i) for i in range(n_test)]
    return train, test


def _config_from_file(path: str) -> tuple:
    """Read a train-toy JSON config; a malformed one is an ``invalid-spec``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise DomainError("invalid-spec", f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DomainError("invalid-spec", "the config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS) - {"stages", "scenes"})
    if unknown:
        raise DomainError("invalid-spec", f"unknown config keys: {unknown}")
    missing = [key for key in ("stages", "num_classes", "scenes") if key not in raw]
    if missing:
        raise DomainError("invalid-spec", f"missing config keys: {missing}")
    if not isinstance(raw["stages"], list):
        raise DomainError("invalid-spec", "stages must be a JSON array")
    stages = tuple(_stage_spec(i, entry) for i, entry in enumerate(raw["stages"]))
    fields = {key: _coerce(key, value, _CONFIG_KEYS[key])
              for key, value in raw.items() if key in _CONFIG_KEYS}
    return ev.ToyPipelineConfig(stages=stages, **fields), raw["scenes"]


def _cmd_train_toy(args) -> int:
    config, scene_spec = _config_from_file(args.config)
    train, test = _scene_sets(scene_spec)
    result = ev.run_toy_pipeline(config, train, test)
    Path(args.out).write_text(ev.metrics_csv(result.metrics), encoding="utf-8")
    if args.checkpoint:
        pio.save_tensor_dir(args.checkpoint, result.params)
    print(ev.metrics_text(result.metrics), end="")
    return 0


def _cmd_eval(args) -> int:
    pred = pio.read_labels(args.pred)
    truth = pio.read_labels(args.truth)
    report = ev.compute_metrics(pred, truth, args.classes)
    Path(args.out).write_text(ev.metrics_csv(report), encoding="utf-8")
    print(ev.metrics_text(report), end="")
    return 0


def _cmd_ablate_m(args) -> int:
    config, scene_spec = _config_from_file(args.config)
    train, test = _scene_sets(scene_spec)
    m_values = [_coerce("--m", tok, int) for tok in args.m.split(",") if tok.strip()]
    rows = ev.ablate_m(config, m_values, train, test)
    Path(args.out).write_text(ev.ablate_csv(rows), encoding="utf-8")
    for m, report in rows:
        print(f"m={m} mIoU {report.miou!r} mAcc {report.macc!r} OA {report.oa!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgrain",
        description="Point cloud downsampling toolkit: sampling, window "
                    "normalization, PAGWN aggregation, and a toy segmentation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="select representative points")
    _add_cloud_args(p)
    p.add_argument("--method", choices=("fps", "random"), default="fps")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--indices-out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("sigma-map", help="flag centers whose window sigma exceeds a threshold")
    _add_cloud_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--use-coords", action=argparse.BooleanOptionalAction, default=True,
                   help="build windows over [coords, features] (default) or features only")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sigma_map)

    p = sub.add_parser("normalize", help="window-normalize one neighborhood from tensor files")
    p.add_argument("--center", required=True)
    p.add_argument("--neighbors", required=True)
    p.add_argument("--m", type=int, default=None, help="group split; omit for ungrouped")
    p.add_argument("--epsilon", type=float, default=norm.DEFAULT_EPSILON)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("pagwn-forward", help="run the aggregation block on a serialized input")
    p.add_argument("--input", required=True, help="tensor directory with the window")
    p.add_argument("--params", required=True, help="tensor directory with block parameters")
    p.add_argument("--m", type=int, default=norm.DEFAULT_SPLIT)
    p.add_argument("--epsilon", type=float, default=norm.DEFAULT_EPSILON)
    p.add_argument("--mode", choices=("training", "inference"), default="inference")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_pagwn_forward)

    p = sub.add_parser("train-toy", help="train the toy segmentation pipeline")
    p.add_argument("--config", required=True, help="JSON pipeline + scene configuration")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--checkpoint", default=None, help="optional parameter checkpoint directory")
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate-m", help="sweep the group split m over the toy pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--m", required=True, help="comma-separated split values, e.g. 1,2,3,4")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ablate_m)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"pgrain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
