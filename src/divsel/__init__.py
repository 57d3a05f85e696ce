"""Diverse, label-relevant feature selection for multi-label data.

Selects k feature columns that are mutually non-redundant (pairwise
normalized variation-of-information distance) and collectively relevant
(per-label top-p normalized mutual information), with centralized,
distributed, and streaming drivers plus an exact oracle for
small instances.
"""

from .data import (
    BinningSpec,
    Dataset,
    DiscreteColumn,
    generate_synthesized,
    load_dense_csv,
    load_sparse_multilabel,
    write_dense_csv,
)
from .errors import BudgetError, DataError, GuaranteeError, ParseError, ValidationError
from .greedy import GreedyVariant, NicenessReport, greedy_select, greedy_state, niceness_witness
from .info import (
    InfoCache,
    entropy,
    joint_entropy,
    mutual_information,
    normalized_mi,
    nvi_distance,
)
from .metrics import PredictionMatrix, multilabel_metrics
from .objective import ObjectiveConfig, SelectionState, diversity, h_value, relevance_g
from .oracle import (
    ApproximationReport,
    OracleResult,
    approximation_report,
    brute_force_opt,
    subset_value,
)
from .runner import (
    PartitionPlan,
    RunReport,
    centralized_select,
    default_machine_count,
    distributed_select,
    random_partition,
    streaming_select,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationReport",
    "BinningSpec",
    "BudgetError",
    "DataError",
    "Dataset",
    "DiscreteColumn",
    "GreedyVariant",
    "GuaranteeError",
    "InfoCache",
    "NicenessReport",
    "ObjectiveConfig",
    "OracleResult",
    "ParseError",
    "PartitionPlan",
    "PredictionMatrix",
    "RunReport",
    "SelectionState",
    "ValidationError",
    "approximation_report",
    "brute_force_opt",
    "centralized_select",
    "default_machine_count",
    "distributed_select",
    "diversity",
    "entropy",
    "generate_synthesized",
    "greedy_select",
    "greedy_state",
    "h_value",
    "joint_entropy",
    "load_dense_csv",
    "load_sparse_multilabel",
    "multilabel_metrics",
    "mutual_information",
    "niceness_witness",
    "normalized_mi",
    "nvi_distance",
    "random_partition",
    "relevance_g",
    "streaming_select",
    "subset_value",
    "write_dense_csv",
]
