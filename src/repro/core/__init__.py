"""``repro.core`` — the AutoAC differentiable attribute-completion search."""

from .adapters import LinkPredictionAdapter, NodeClassificationAdapter, TaskAdapter
from .alpha import CompletionParameters, MixtureParameters
from .clustering import (
    EMClusterAssigner,
    ModularityClusteringHead,
    kmeans,
    modularity_loss,
)
from .config import AutoACConfig
from .evaluate import (
    ArchitectureEvaluation,
    budget_train_config,
    evaluate_architecture,
)
from .pipeline import (
    AutoACLinkResult,
    AutoACResult,
    run_autoac,
    run_autoac_link_prediction,
)
from .proximal import prox_c, prox_c1, prox_c2, proximal_step
from .retrain import (
    RetrainArtifacts,
    retrain_assignment_artifacts,
    retrain_link_prediction,
    retrain_node_classification_artifacts,
)
from .search import AutoACSearcher, SearchResult
from .serialize import (
    FORMAT_VERSION,
    load_module,
    load_search_result,
    save_module,
    save_search_result,
)

__all__ = [
    "AutoACConfig",
    "AutoACSearcher",
    "SearchResult",
    "AutoACResult",
    "AutoACLinkResult",
    "run_autoac",
    "run_autoac_link_prediction",
    "retrain_node_classification_artifacts",
    "retrain_assignment_artifacts",
    "RetrainArtifacts",
    "ArchitectureEvaluation",
    "budget_train_config",
    "evaluate_architecture",
    "retrain_link_prediction",
    "FORMAT_VERSION",
    "CompletionParameters",
    "MixtureParameters",
    "prox_c",
    "prox_c1",
    "prox_c2",
    "proximal_step",
    "ModularityClusteringHead",
    "modularity_loss",
    "kmeans",
    "EMClusterAssigner",
    "TaskAdapter",
    "NodeClassificationAdapter",
    "LinkPredictionAdapter",
    "save_search_result",
    "load_search_result",
    "save_module",
    "load_module",
]
