"""The package surface: the export list and the README's quick start."""

import re
import types
from pathlib import Path

import pgrain

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_sorted_unique_and_lists_every_public_callable():
    assert pgrain.__all__ == sorted(set(pgrain.__all__))
    bound = {name for name, value in vars(pgrain).items()
             if not name.startswith("_") and isinstance(value, (type, types.FunctionType))
             and value.__module__.startswith("pgrain.")}
    assert set(pgrain.__all__) == bound


def test_all_is_the_pinned_list():
    # a name added to or dropped from the package surface shows up here
    assert pgrain.__all__ == [
        "BallQueryBatch", "DomainError", "MetricsReport", "NeighborIndex", "PagwnOutput",
        "PointCloud", "RegionSpec", "StageSpec", "SyntheticSceneSpec", "ToyPipelineConfig",
        "ablate_m", "ball_query_batch", "brute_force_knn", "build_index", "compute_metrics",
        "farthest_point_sample", "generate_scene", "init_mlp_params", "init_pagwn_params",
        "knn_batch", "pagwn_backward", "pagwn_forward_batch", "pre_abstract", "random_sample",
        "run_toy_pipeline", "sigma_map", "validate_cloud", "window_normalize",
    ]


def test_readme_python_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
