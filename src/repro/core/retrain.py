"""Retraining stage: train a fresh backbone with the searched assignment.

The paper's pipeline is *search → retrain*: after the bi-level search
converges, the discrete completion choices are frozen and the GNN is
retrained from scratch (Table IV reports the two stages separately).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..completion import FixedAssignmentFeatures, SearchSpace
from ..datasets import HeteroDataset
from ..models import build_model
from ..training import (
    LinkPredConfig,
    LinkPredResult,
    LinkPredictionTask,
    LinkPredictionTrainer,
    NodeClassificationTrainer,
    TrainConfig,
    TrainResult,
)
from .search import SearchResult


@dataclass
class RetrainArtifacts:
    """A finished retraining run *with* the trained modules attached.

    Besides the :class:`TrainResult` metrics, the serving layer needs the
    trained backbone and feature builder to export a
    :class:`~repro.serving.ModelBundle`.
    """

    model: object                      # BaseHGNN (kept loose to avoid cycles)
    features: FixedAssignmentFeatures
    result: TrainResult


def retrain_assignment_artifacts(
    dataset: HeteroDataset, model_name: str, assignment: np.ndarray,
    hidden_dim: int = 64, out_dim: int = 64,
    config: Optional[TrainConfig] = None,
    space: Optional[SearchSpace] = None,
    **model_kwargs,
) -> RetrainArtifacts:
    """Train a fresh backbone under a raw per-node op ``assignment``.

    The assignment-level entry point shared by the search→retrain
    pipeline and by :func:`repro.core.evaluate_architecture` (the
    autotune trial body) — trial-based strategies propose assignments
    directly, without a :class:`SearchResult` around them.
    """
    features = FixedAssignmentFeatures(dataset, hidden_dim, assignment,
                                       space=space)
    model = build_model(model_name, dataset, hidden_dim=hidden_dim,
                        out_dim=out_dim, **model_kwargs)
    trainer = NodeClassificationTrainer(model, features, dataset,
                                        config or TrainConfig())
    result = trainer.train()
    return RetrainArtifacts(model=model, features=features, result=result)


def retrain_node_classification_artifacts(
    dataset: HeteroDataset, model_name: str, search: SearchResult,
    hidden_dim: int = 64, out_dim: int = 64,
    config: Optional[TrainConfig] = None,
    space: Optional[SearchSpace] = None,
    **model_kwargs,
) -> RetrainArtifacts:
    """Retrain and keep the trained model + feature builder (export hook)."""
    return retrain_assignment_artifacts(
        dataset, model_name, search.assignment, hidden_dim=hidden_dim,
        out_dim=out_dim, config=config, space=space, **model_kwargs)


def retrain_link_prediction(
    task: LinkPredictionTask, model_name: str, search: SearchResult,
    hidden_dim: int = 64, out_dim: int = 64,
    config: Optional[LinkPredConfig] = None,
    space: Optional[SearchSpace] = None,
    **model_kwargs,
) -> LinkPredResult:
    """Retrain from scratch on the searched assignment, for link prediction.

    Mirrors :func:`retrain_node_classification_artifacts`: the discrete
    completion assignment found by the search is frozen into
    :class:`~repro.completion.FixedAssignmentFeatures` and a fresh model is
    trained on the edge-masked graph.
    """
    dataset = task.train_graph_dataset
    features = FixedAssignmentFeatures(dataset, hidden_dim, search.assignment,
                                       space=space)
    model = build_model(model_name, dataset, hidden_dim=hidden_dim,
                        out_dim=out_dim, **model_kwargs)
    trainer = LinkPredictionTrainer(model, features, task,
                                    config or LinkPredConfig())
    return trainer.train()


__all__ = ["RetrainArtifacts", "retrain_assignment_artifacts",
           "retrain_node_classification_artifacts",
           "retrain_link_prediction"]
