"""The package surface: the export list, the public parameters and the README's quick start."""

import inspect
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
        "BallQueryBatch", "BlockOutput", "DomainError", "MetricsReport", "NeighborIndex",
        "PointCloud", "RegionSpec", "StageSpec", "SyntheticSceneSpec", "ToyPipelineConfig",
        "ablate_m", "ball_query_batch", "brute_force_knn", "build_index", "compute_metrics",
        "farthest_point_sample", "generate_scene", "init_mlp_params", "init_pagwn_params",
        "knn_batch", "pagwn_backward", "pagwn_forward_batch", "random_sample", "run_toy_pipeline",
        "sigma_map", "window_normalize",
    ]


# each public callable's parameter names, in signature order
PARAMETERS = {
    "BallQueryBatch": "indices distances num_in_radius",
    "BlockOutput": "aggregated cache batch_stats",
    "DomainError": "kind detail",
    "MetricsReport": "per_class_iou per_class_acc miou macc oa",
    "NeighborIndex": "cloud",
    "PointCloud": "coords features labels",
    "RegionSpec": "primitive point_count density_scale class_label feature_noise_sigma",
    "StageSpec": "m_points k split",
    "SyntheticSceneSpec": "regions seed",
    "ToyPipelineConfig": "stages num_classes head_hidden epochs learning_rate batch_size seed aggregator "
                         "epsilon bq_radius",
    "ablate_m": "config m_values train_scenes test_scenes",
    "ball_query_batch": "index queries radius k_max",
    "brute_force_knn": "cloud queries k",
    "build_index": "cloud",
    "compute_metrics": "pred_labels true_labels num_classes",
    "farthest_point_sample": "cloud m seed",
    "generate_scene": "spec",
    "init_mlp_params": "dims seed",
    "init_pagwn_params": "n seed",
    "knn_batch": "index queries k",
    "pagwn_backward": "cache upstream_grad",
    "pagwn_forward_batch": "neighbor_coords neighbor_features center_coords center_features params m epsilon mode",
    "random_sample": "cloud m seed",
    "run_toy_pipeline": "config train_scenes test_scenes",
    "sigma_map": "cloud k threshold use_coords",
    "window_normalize": "windows centers m epsilon",
}


def test_public_parameters_are_the_pinned_table():
    # a keyword added to or dropped from a public callable shows up here
    assert list(PARAMETERS) == pgrain.__all__
    for name, pinned in PARAMETERS.items():
        assert list(inspect.signature(getattr(pgrain, name)).parameters) == pinned.split(), name


def test_readme_python_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
