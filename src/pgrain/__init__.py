"""pgrain: point cloud downsampling with window normalization.

Farthest point sampling, exact KNN/ball-query grouping, window
normalization and its group-wise variant, and the pre-abstraction
group-wise window-normalization (PAGWN) aggregation block, plus a
desk-scale synthetic segmentation pipeline for evaluating them.
"""

from .core import (
    BatchNormState,
    DomainError,
    MetricsReport,
    Neighborhood,
    PagwnParams,
    PointCloud,
    WindowStats,
    validate_cloud,
)
from .eval import (
    RegionSpec,
    StageSpec,
    SyntheticSceneSpec,
    ToyPipelineConfig,
    ablate_m,
    compute_metrics,
    generate_scene,
    run_toy_pipeline,
)
from .norm import (
    NormalizedWindow,
    Window,
    calibrate,
    group_wise_window_normalize,
    sigma_map,
    window_normalize,
    window_sigma,
)
from .pagwn import (
    MlpLayer,
    MlpParams,
    PagwnInput,
    PagwnOutput,
    aggregate_bq_baseline,
    aggregate_knn_baseline,
    init_mlp_params,
    init_pagwn_params,
    pagwn_backward,
    pagwn_forward,
    pagwn_forward_batch,
    pre_abstract,
)
from .sampling import farthest_point_sample, random_sample
from .spatial import (
    BallQueryBatch,
    BallQueryResult,
    NeighborIndex,
    ball_query,
    ball_query_batch,
    brute_force_knn,
    build_index,
    knn_batch,
    knn_query,
)

__version__ = "0.1.0"

__all__ = [
    "BallQueryBatch",
    "BallQueryResult",
    "BatchNormState",
    "DomainError",
    "MetricsReport",
    "MlpLayer",
    "MlpParams",
    "NeighborIndex",
    "Neighborhood",
    "NormalizedWindow",
    "PagwnInput",
    "PagwnOutput",
    "PagwnParams",
    "PointCloud",
    "RegionSpec",
    "StageSpec",
    "SyntheticSceneSpec",
    "ToyPipelineConfig",
    "Window",
    "WindowStats",
    "ablate_m",
    "aggregate_bq_baseline",
    "aggregate_knn_baseline",
    "ball_query",
    "ball_query_batch",
    "brute_force_knn",
    "build_index",
    "calibrate",
    "compute_metrics",
    "farthest_point_sample",
    "generate_scene",
    "group_wise_window_normalize",
    "init_mlp_params",
    "init_pagwn_params",
    "knn_batch",
    "knn_query",
    "pagwn_backward",
    "pagwn_forward",
    "pagwn_forward_batch",
    "pre_abstract",
    "random_sample",
    "run_toy_pipeline",
    "sigma_map",
    "validate_cloud",
    "window_normalize",
    "window_sigma",
]
