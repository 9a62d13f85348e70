"""Task adapters: expose train/val losses to the bi-level search.

The searcher is task-agnostic — node classification (Tables II/III) and
link prediction (Table V) plug in through this small protocol.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from ..completion import FeatureBuilder
from ..datasets import HeteroDataset
from ..models import BaseHGNN
from ..tensor import Tensor, binary_cross_entropy_with_logits, cross_entropy, no_grad
from ..training.link_prediction import LinkPredictionTask, _pair_scores
from ..training.metrics import roc_auc


class TaskAdapter(Protocol):
    """What the bi-level search needs from a downstream task.

    The searcher alternates ``train_loss`` (lower-level ``w`` updates) and
    ``val_loss`` (upper-level ``alpha`` updates); ``val_score`` drives early
    stopping and model selection.

    An adapter whose ``val_score`` is exactly ``-val_loss(...).item()``
    in eval mode sets ``score_is_neg_val_loss = True``.  The discrete
    search then scores with one ``val_loss`` forward and backpropagates
    that same forward in the next upper step.  Adapters without the flag
    keep a separate scoring pass.
    """

    dataset: HeteroDataset
    score_is_neg_val_loss: bool

    def train_loss(self, model: BaseHGNN, features: FeatureBuilder,
                   h0: Optional[Tensor] = None) -> Tensor:
        """Differentiable loss on the training split.

        ``h0`` is ``features()`` when the caller already built it (the
        lower step shares one builder pass with the clustering head);
        ``None`` builds it here.
        """
        ...

    def val_loss(self, model: BaseHGNN, features: FeatureBuilder) -> Tensor:
        """Differentiable loss on the validation split."""
        ...

    def val_score(self, model: BaseHGNN, features: FeatureBuilder) -> float:
        """Scalar validation quality (higher is better); no gradient."""
        ...


class NodeClassificationAdapter:
    """Cross-entropy on the 24% train split; macro-F1 on the 6% val split."""

    score_is_neg_val_loss = True

    def __init__(self, dataset: HeteroDataset) -> None:
        self.dataset = dataset

    def train_loss(self, model: BaseHGNN, features: FeatureBuilder,
                   h0: Optional[Tensor] = None) -> Tensor:
        train = self.dataset.split.train
        logits = model(features() if h0 is None else h0, rows=train)
        loss = cross_entropy(logits, self.dataset.labels[train])
        if getattr(model, "has_auxiliary_loss", False):
            loss = loss + model.auxiliary_loss()
        return loss

    def train_loss_on_batch(self, model: BaseHGNN, features: FeatureBuilder,
                            view, batch_local: np.ndarray,
                            h0: Optional[Tensor] = None) -> Tensor:
        """Training loss of one sampled batch (the stochastic lower step).

        ``view`` is a :class:`~repro.graph.GraphView` whose seeds are the
        ``batch_local`` target-type nodes; ``h0`` is built for the view
        only (callers that already have it pass it in to skip a second
        builder forward), so this never touches an ``(N, hidden)``
        activation.
        """
        logits = model(features(view) if h0 is None else h0, view=view)
        loss = cross_entropy(logits, self.dataset.labels[batch_local])
        if getattr(model, "has_auxiliary_loss", False):
            loss = loss + model.auxiliary_loss()
        return loss

    def val_loss(self, model: BaseHGNN, features: FeatureBuilder) -> Tensor:
        val = self.dataset.split.val
        return cross_entropy(model(features(), rows=val),
                             self.dataset.labels[val])

    def val_score(self, model: BaseHGNN, features: FeatureBuilder) -> float:
        """Negative validation loss (smoother than F1 on small val splits)."""
        model.eval()
        features.eval()
        with no_grad():
            loss = self.val_loss(model, features).item()
        model.train()
        features.train()
        return -loss


class LinkPredictionAdapter:
    """BCE on training edges (fresh negatives each call); val ROC-AUC."""

    score_is_neg_val_loss = False

    def __init__(self, task: LinkPredictionTask) -> None:
        self.task = task
        self.dataset = task.train_graph_dataset

    def _scores(self, model: BaseHGNN, features: FeatureBuilder,
                pairs: np.ndarray, h0: Optional[Tensor] = None) -> Tensor:
        embeddings = model.encode(features() if h0 is None else h0)
        return _pair_scores(embeddings, pairs)

    def train_loss(self, model: BaseHGNN, features: FeatureBuilder,
                   h0: Optional[Tensor] = None) -> Tensor:
        split = self.task.split
        negatives = self.task.sample_train_negatives()
        pairs = np.concatenate([split.train_pos, negatives], axis=1)
        labels = np.concatenate([np.ones(split.train_pos.shape[1]),
                                 np.zeros(negatives.shape[1])])
        loss = binary_cross_entropy_with_logits(
            self._scores(model, features, pairs, h0), labels)
        if getattr(model, "has_auxiliary_loss", False):
            loss = loss + model.auxiliary_loss()
        return loss

    def val_loss(self, model: BaseHGNN, features: FeatureBuilder) -> Tensor:
        split = self.task.split
        pairs = np.concatenate([split.val_pos, split.val_neg], axis=1)
        labels = np.concatenate([np.ones(split.val_pos.shape[1]),
                                 np.zeros(split.val_neg.shape[1])])
        return binary_cross_entropy_with_logits(
            self._scores(model, features, pairs), labels)

    def val_score(self, model: BaseHGNN, features: FeatureBuilder) -> float:
        split = self.task.split
        model.eval()
        features.eval()
        with no_grad():
            pos = self._scores(model, features, split.val_pos).data
            neg = self._scores(model, features, split.val_neg).data
        model.train()
        features.train()
        labels = np.concatenate([np.ones(pos.size), np.zeros(neg.size)])
        return roc_auc(labels, np.concatenate([pos, neg]))


__all__ = ["TaskAdapter", "NodeClassificationAdapter", "LinkPredictionAdapter"]
