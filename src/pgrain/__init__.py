"""pgrain: point cloud downsampling with window normalization.

Farthest point sampling, exact KNN/ball-query grouping, window
normalization and its group-wise variant, and the pre-abstraction
group-wise window-normalization (PAGWN) aggregation block, plus a
desk-scale synthetic segmentation pipeline for evaluating them.
"""

from .core import (
    DomainError,
    MetricsReport,
    PointCloud,
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
    sigma_map,
    window_normalize,
)
from .pagwn import (
    BlockOutput,
    init_mlp_params,
    init_pagwn_params,
    pagwn_backward,
    pagwn_forward_batch,
)
from .sampling import farthest_point_sample, random_sample
from .spatial import (
    BallQueryBatch,
    NeighborIndex,
    ball_query_batch,
    brute_force_knn,
    build_index,
    knn_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BallQueryBatch",
    "BlockOutput",
    "DomainError",
    "MetricsReport",
    "NeighborIndex",
    "PointCloud",
    "RegionSpec",
    "StageSpec",
    "SyntheticSceneSpec",
    "ToyPipelineConfig",
    "ablate_m",
    "ball_query_batch",
    "brute_force_knn",
    "build_index",
    "compute_metrics",
    "farthest_point_sample",
    "generate_scene",
    "init_mlp_params",
    "init_pagwn_params",
    "knn_batch",
    "pagwn_backward",
    "pagwn_forward_batch",
    "random_sample",
    "run_toy_pipeline",
    "sigma_map",
    "window_normalize",
]
