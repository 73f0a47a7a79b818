"""Category-graph estimation from probability samples of nodes.

Workflow: build or load a partitioned graph, draw a sample trace with
one of the five samplers, replay it through an observer (induced or
star), and feed the resulting log to the estimators. The evaluation
harness scores every estimator variant against the exact category
graph.
"""

from .errors import (
    CategraphError,
    EmptyGraph,
    EmptySample,
    FileFormatError,
    GenerationFailed,
    InfeasibleRegularGraph,
    InsufficientSample,
    InvalidNode,
    InvalidParameter,
    InvalidThinning,
    InvalidWeight,
    IsolatedStartNode,
    MissingSizeEstimate,
    TooManyEdgesRequested,
    UndefinedNRMSE,
    UnknownCategory,
    WrongObservationMode,
)
from .estimate import (
    PROPORTIONAL,
    CategoryGraphEstimate,
    bootstrap_variance,
    est_mean_degrees,
    est_size_induced,
    est_size_star,
    est_volume_fraction_star,
    est_weight_induced,
    est_weight_star,
    estimate_category_graph,
)
from .evaluate import (
    ExperimentConfig,
    ExperimentReport,
    nrmse,
    run_experiment,
)
from .generate import (
    DEFAULT_CATEGORY_SIZES,
    SyntheticParams,
    add_inter_edges,
    gen_intra_regular,
    permute_labels,
    synthetic_graph,
)
from .graph import (
    CategoryGraph,
    CategoryPartition,
    Graph,
    exact_category_graph,
)
from .observe import INDUCED, STAR, ObservationLog, observe_induced, observe_star
from .sampling import (
    SampleTrace,
    sample_mhrw,
    sample_rw,
    sample_uis,
    sample_wis,
    sample_wrw,
    thin,
)

__version__ = "0.1.0"

__all__ = [
    "CategraphError", "EmptyGraph", "EmptySample", "FileFormatError",
    "GenerationFailed", "InfeasibleRegularGraph", "InsufficientSample",
    "InvalidNode", "InvalidParameter", "InvalidThinning", "InvalidWeight",
    "IsolatedStartNode", "MissingSizeEstimate", "TooManyEdgesRequested",
    "UndefinedNRMSE", "UnknownCategory", "WrongObservationMode",
    "PROPORTIONAL", "CategoryGraphEstimate", "bootstrap_variance",
    "est_mean_degrees", "est_size_induced", "est_size_star",
    "est_volume_fraction_star", "est_weight_induced", "est_weight_star",
    "estimate_category_graph",
    "ExperimentConfig", "ExperimentReport", "nrmse", "run_experiment",
    "DEFAULT_CATEGORY_SIZES", "SyntheticParams", "add_inter_edges",
    "gen_intra_regular", "permute_labels", "synthetic_graph",
    "CategoryGraph", "CategoryPartition", "Graph", "exact_category_graph",
    "INDUCED", "STAR", "ObservationLog", "observe_induced", "observe_star",
    "SampleTrace", "sample_mhrw", "sample_rw", "sample_uis", "sample_wis",
    "sample_wrw", "thin",
]
