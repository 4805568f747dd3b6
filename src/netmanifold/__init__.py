"""Response prediction for multiple networks sharing a common subspace.

The package estimates per-network score matrices from a collection of
adjacency matrices, embeds their scaled vectorizations on a learned
one-dimensional manifold (shortest-path isomap, raw-stress minimization),
and regresses scalar responses on the embeddings to predict responses of
unlabeled networks. A Monte Carlo harness measures how prediction error and
slope-test power behave as the collection grows, and an ingestion path
handles weighted directed edge lists via censoring and binarization.
"""

from .errors import (
    ConnectivityError,
    DegenerateDesignError,
    DegenerateInputError,
    NumericalError,
    SparsityError,
    ValidationError,
)
from .graphs import (
    GraphCollection,
    balanced_membership,
    build_block_probability,
    noiseless_collection,
    probability_matrix,
    sample_collection,
)
from .io import (
    DatasetManifest,
    WeightedDigraph,
    censor_binarize,
    load_manifest,
    load_replicate_records,
    load_weighted_edge_list,
    write_replicate_records,
)
from .manifold import (
    LocalizationGraph,
    StressTrace,
    cmds_embed,
    isomap_1d,
    localization_graph,
    raw_stress,
    shortest_path_matrix,
    smacof_minimize,
)
from .mase import (
    coords_matrix,
    scaled_score_points,
    sparse_mase,
)
from .pipeline import (
    AnalysisReport,
    ExperimentConfig,
    ExperimentResult,
    KSummary,
    PredictDiagnostics,
    ReplicateRecord,
    analyze_real_dataset,
    collection_from_manifest,
    consistency_full_config,
    consistency_reduced_config,
    experiment_config_from_json,
    experiment_config_to_json,
    power_full_config,
    pred_graph_resp,
    predict_from_embeddings,
    run_consistency_experiment,
    run_power_experiment,
)
from .regression import (
    RegressionFit,
    TestReport,
    f_quantile,
    f_test,
    fit_local_linear,
    fit_slr,
    predict_slr,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ConnectivityError",
    "DatasetManifest",
    "DegenerateDesignError",
    "DegenerateInputError",
    "ExperimentConfig",
    "ExperimentResult",
    "GraphCollection",
    "KSummary",
    "LocalizationGraph",
    "NumericalError",
    "PredictDiagnostics",
    "RegressionFit",
    "ReplicateRecord",
    "SparsityError",
    "StressTrace",
    "TestReport",
    "ValidationError",
    "WeightedDigraph",
    "analyze_real_dataset",
    "balanced_membership",
    "build_block_probability",
    "censor_binarize",
    "cmds_embed",
    "collection_from_manifest",
    "consistency_full_config",
    "consistency_reduced_config",
    "coords_matrix",
    "experiment_config_from_json",
    "experiment_config_to_json",
    "f_quantile",
    "f_test",
    "fit_local_linear",
    "fit_slr",
    "isomap_1d",
    "load_manifest",
    "load_replicate_records",
    "load_weighted_edge_list",
    "localization_graph",
    "noiseless_collection",
    "power_full_config",
    "pred_graph_resp",
    "predict_from_embeddings",
    "predict_slr",
    "probability_matrix",
    "raw_stress",
    "run_consistency_experiment",
    "run_power_experiment",
    "sample_collection",
    "scaled_score_points",
    "shortest_path_matrix",
    "smacof_minimize",
    "sparse_mase",
    "write_replicate_records",
]
