"""Batch command-line surface over the pgrain library.

Every command is non-interactive, seeded, and idempotent: the same inputs
and flags always produce byte-identical outputs.  Exit codes: 0 success,
1 domain error, 2 usage error.

On glibc, :func:`main` first sets the process's heap policy so that freed
blocks stay in the heap: the toy training loop frees and reallocates
each scene's temporaries, and glibc's default thresholds hand them back
to the kernel, which faults them in again for the next scene.  Importing
pgrain leaves the allocator of its host process alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

from . import eval as ev
from . import io as pio
from . import norm, pagwn, sampling
from .core import DomainError, PointCloud

# glibc's default thresholds (128 KiB) return a freed block to the kernel,
# by munmap or by a trim of the heap top, so every training scene would fault
# its temporaries in again: 89k-103k minor faults and 0.18 s of system time
# per criterion-8 train_bq op on a 2-core x86-64 host.  Under these
# thresholds a freed block stays in the heap and the next scene reuses its
# pages.  32 MiB is the largest mmap threshold glibc accepts on 64-bit;
# larger arrays are still mapped and unmapped.
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 64 * 1024 * 1024
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers of glibc's malloc.h


def _load_cloud(path: str, feature_dim, has_label: bool) -> PointCloud:
    if path.endswith(".ply"):
        return pio.read_ply(path)
    if feature_dim is None:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            first = fh.readline()
            if first == "\n":  # read_xyz skips a blank first line
                first = fh.readline()
            first = first.split()
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
    values, sigmas = norm.window_normalize(neighbors[None], center[None], m=args.m, epsilon=args.epsilon)
    pio.write_tensor(args.out, values[0])
    print("sigma " + " ".join(repr(float(s[0])) for s in sigmas))
    return 0


def _cmd_pagwn_forward(args) -> int:
    window = pagwn.pagwn_input_from_tensors(pio.load_tensor_dir(args.input))
    params = pio.load_tensor_dir(args.params)
    aggregated = pagwn.pagwn_forward_batch(*window, params, m=args.m, epsilon=args.epsilon,
                                           mode=args.mode).aggregated[0]
    pio.write_tensor(args.out, aggregated)
    print(f"aggregated {aggregated.shape[0]} channels -> {args.out}")
    return 0


def _coerce(where: str, value, read):
    """Apply ``read`` to one value; a value it cannot take is an ``invalid-spec``."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("invalid-spec", f"{where}: cannot read {value!r} ({exc})") from None


# the allowed top-level config keys: ToyPipelineConfig's fields, whose values
# go to it unchanged for the one check of every field, and the scene sets
_CONFIG_KEYS = {field.name for field in dataclasses.fields(ev.ToyPipelineConfig)} | {"scenes"}
# each scenes count and seed, with its least value
_SCENE_COUNTS = {"train": 1, "test": 1, "base_seed": 0}


def _stage_spec(i: int, entry) -> ev.StageSpec:
    if not isinstance(entry, dict):
        raise DomainError("invalid-spec", f"stage {i} must be a JSON object, got {entry!r}")
    try:
        return ev.StageSpec(**entry)
    except TypeError as exc:  # an unknown or a missing field
        raise DomainError("invalid-spec", f"stage {i}: {exc}") from None


def _scene_sets(spec):
    """The train and test scenes of a config's ``scenes`` object, checked in full before any is built."""
    if not isinstance(spec, dict):
        raise DomainError("invalid-spec", "scenes must be a JSON object")
    unknown = sorted(set(spec) - set(_SCENE_COUNTS) - {"kind"})
    if unknown:
        raise DomainError("invalid-spec", f"unknown scenes keys: {unknown}")
    makers = {
        "density_imbalanced": ev.density_imbalanced_scene,
        "constant_label": ev.constant_label_scene,
    }
    kind = spec.get("kind", "density_imbalanced")
    if not isinstance(kind, str) or kind not in makers:
        raise DomainError("invalid-spec", f"unknown scene kind {kind!r}")
    counts = {"base_seed": 0, **spec}  # base_seed may be left out
    for name, least in _SCENE_COUNTS.items():
        value = counts.get(name)
        if not ev._is_number(value, int) or value < least:
            raise DomainError("invalid-spec", f"scenes.{name} must be an integer >= {least}, got {value!r}")
    make, base, n_train = makers[kind], counts["base_seed"], counts["train"]
    train = [make(base + i) for i in range(n_train)]
    test = [make(base + n_train + i) for i in range(counts["test"])]
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
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise DomainError("invalid-spec", f"unknown config keys: {unknown}")
    missing = [key for key in ("stages", "num_classes", "scenes") if key not in raw]
    if missing:
        raise DomainError("invalid-spec", f"missing config keys: {missing}")
    if not isinstance(raw["stages"], list):
        raise DomainError("invalid-spec", "stages must be a JSON array")
    stages = tuple(_stage_spec(i, entry) for i, entry in enumerate(raw["stages"]))
    fields = {key: value for key, value in raw.items() if key not in ("stages", "scenes")}
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


def _keep_freed_heap() -> None:
    """Set glibc's mmap and trim thresholds; a libc without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no process handle, or no such symbol
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"pgrain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
