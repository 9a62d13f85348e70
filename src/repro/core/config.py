"""Configuration dataclasses for the AutoAC search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..training.minibatch import MiniBatchConfig
from ..training.trainer import TrainConfig


@dataclass
class AutoACConfig:
    """Hyperparameters of the bi-level completion-operation search.

    Defaults follow the paper (§V-B): Adam(5e-4, wd 1e-4) for the GNN
    weights ``w``; Adam-free proximal updates with lr 5e-3 / wd 1e-5 for
    the completion parameters ``alpha``; loss coefficient ``lambda`` 0.4
    and ``M`` ≈ 8-12 clusters.
    """

    hidden_dim: int = 64
    out_dim: int = 64
    num_clusters: int = 8
    lambda_cluster: float = 0.4
    alpha_lr: float = 5e-3
    alpha_weight_decay: float = 1e-5
    w_lr: float = 5e-4
    w_weight_decay: float = 1e-4
    search_epochs: int = 120
    patience: int = 25
    #: True → AutoAC proper (proximal, one active op);
    #: False → the "w/o discrete constraints" DARTS-style ablation
    discrete: bool = True
    #: second-order unrolled gradient in mixture mode (ignored when discrete)
    unrolled: bool = True
    #: 'modularity' (AutoAC), 'em', 'em_warmup' (Fig. 3 ablations), 'none'
    cluster_method: str = "modularity"
    #: weight of the DMoN collapse regularizer inside L_GmoC (0 disables)
    collapse_weight: float = 1.0
    em_warmup: int = 10
    #: epochs of pure-w training before alpha updates start
    warmup_epochs: int = 5
    #: sampled lower level: when set, every lower ``w`` step trains on a
    #: neighbor-sampled view around a batch of training seeds (only the
    #: ``batch_size`` / ``fanout`` / ``num_layers`` / ``sample_seed``
    #: fields are consulted), while the upper alpha step, the clustering
    #: refresh signal and validation stay full-graph — the paper's
    #: Algorithm 1 unchanged in expectation.  Requires a
    #: ``supports_sampling`` backbone and a node-classification adapter.
    minibatch: Optional[MiniBatchConfig] = None
    retrain: TrainConfig = field(default_factory=TrainConfig)
    model_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        valid = {"modularity", "em", "em_warmup", "none"}
        if self.cluster_method not in valid:
            raise ValueError(f"cluster_method must be one of {sorted(valid)}")
        if self.num_clusters < 2:
            raise ValueError("num_clusters must be >= 2")
        if not 0.0 <= self.lambda_cluster:
            raise ValueError("lambda_cluster must be non-negative")


__all__ = ["AutoACConfig"]
