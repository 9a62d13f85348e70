"""Node-classification trainer (HGB protocol).

Jointly optimizes a feature builder (attribute completion) and a GNN with
Adam, early-stops on validation macro-F1, restores the best snapshot and
reports test macro/micro-F1 — the quantities of the paper's Tables II/III
and VI-IX.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..completion import FeatureBuilder
from ..datasets import HeteroDataset
from ..models import BaseHGNN
from ..telemetry import DEFAULT_TIME_BUCKETS, get_registry
from ..tensor import Adam, Tensor, cross_entropy, no_grad
from .early_stopping import EarlyStopping
from .metrics import macro_f1, micro_f1


def epoch_instruments(trainer: str):
    """Per-epoch instruments on the global registry, shared by both
    trainers (``trainer`` label: ``full_graph`` | ``minibatch``).

    Returns ``(record_epoch, record_eval)`` closures so the epoch loop
    stays one call per event; overhead is nanoseconds against an epoch.
    """
    registry = get_registry()
    epochs = registry.counter("train_epochs_total",
                              "Training epochs completed",
                              labels=("trainer",))
    seconds = registry.histogram("train_epoch_seconds",
                                 "Wall time per training epoch",
                                 labels=("trainer",),
                                 buckets=DEFAULT_TIME_BUCKETS)
    loss_gauge = registry.gauge("train_loss", "Most recent training loss",
                                labels=("trainer",), aggregation="last")
    val_gauge = registry.gauge("train_val_macro_f1",
                               "Most recent validation macro-F1",
                               labels=("trainer",), aggregation="last")

    def record_epoch(elapsed: float, loss: float) -> None:
        epochs.inc(trainer=trainer)
        seconds.observe(elapsed, trainer=trainer)
        loss_gauge.set(loss, trainer=trainer)

    def record_eval(val_macro_f1: float) -> None:
        val_gauge.set(val_macro_f1, trainer=trainer)

    return record_epoch, record_eval


@dataclass
class TrainConfig:
    """Hyperparameters of a supervised training run.

    Defaults follow the paper's implementation details (§V-B): Adam with
    lr 5e-4 and weight decay 1e-4 for the GNN weights ``w``.
    """

    epochs: int = 200
    lr: float = 5e-4
    weight_decay: float = 1e-4
    patience: int = 30
    eval_every: int = 1
    verbose: bool = False


@dataclass
class TrainResult:
    macro_f1: float
    micro_f1: float
    val_macro_f1: float
    epochs_run: int
    train_seconds: float
    history: Dict[str, List[float]] = field(default_factory=dict)


class NodeClassificationTrainer:
    def __init__(self, model: BaseHGNN, features: FeatureBuilder,
                 dataset: HeteroDataset,
                 config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.features = features
        self.dataset = dataset
        self.config = config or TrainConfig()
        params = model.parameters() + features.parameters()
        self.optimizer = Adam(params, lr=self.config.lr,
                              weight_decay=self.config.weight_decay)

    # ------------------------------------------------------------------
    def _loss(self, indices: np.ndarray) -> Tensor:
        logits = self.model(self.features(), rows=indices)
        loss = cross_entropy(logits, self.dataset.labels[indices])
        if getattr(self.model, "has_auxiliary_loss", False):
            loss = loss + self.model.auxiliary_loss()
        return loss

    def _predict(self, indices: np.ndarray) -> np.ndarray:
        self.model.eval()
        self.features.eval()
        with no_grad():
            logits = self.model(self.features(), rows=indices)
        self.model.train()
        self.features.train()
        return np.argmax(logits.data, axis=-1)

    def evaluate(self, indices: np.ndarray) -> Dict[str, float]:
        predictions = self._predict(indices)
        truth = self.dataset.labels[indices]
        k = self.dataset.num_classes
        return {"macro_f1": macro_f1(truth, predictions, k),
                "micro_f1": micro_f1(truth, predictions, k)}

    # ------------------------------------------------------------------
    def train(self) -> TrainResult:
        cfg = self.config
        split = self.dataset.split
        stopper = EarlyStopping(cfg.patience, [self.model, self.features])
        history: Dict[str, List[float]] = {"train_loss": [], "val_macro_f1": []}
        record_epoch, record_eval = epoch_instruments("full_graph")
        start = time.perf_counter()
        epochs_run = 0
        for epoch in range(cfg.epochs):
            epochs_run = epoch + 1
            epoch_start = time.perf_counter()
            self.optimizer.zero_grad()
            loss = self._loss(split.train)
            loss.backward()
            self.optimizer.step()
            history["train_loss"].append(loss.item())
            record_epoch(time.perf_counter() - epoch_start, loss.item())
            if epoch % cfg.eval_every == 0:
                val = self.evaluate(split.val)["macro_f1"]
                history["val_macro_f1"].append(val)
                record_eval(val)
                if cfg.verbose:
                    print(f"epoch {epoch:3d} loss {loss.item():.4f} "
                          f"val macro-F1 {val:.4f}")
                if stopper.step(val, epoch):
                    break
        stopper.restore_best()
        elapsed = time.perf_counter() - start
        test = self.evaluate(split.test)
        return TrainResult(
            macro_f1=test["macro_f1"],
            micro_f1=test["micro_f1"],
            val_macro_f1=stopper.best_score,
            epochs_run=epochs_run,
            train_seconds=elapsed,
            history=history,
        )


def run_repeats(factory, repeats: int = 3, base_seed: int = 0):
    """Run ``factory(seed) -> TrainResult`` several times; aggregate stats.

    Mirrors the paper's "run five times, report mean ± std" protocol (we
    default to three repeats to keep the CPU budget sane).
    """
    from .seed import set_seed

    results = []
    for run in range(repeats):
        set_seed(base_seed + run)
        results.append(factory(base_seed + run))
    macro = np.array([r.macro_f1 for r in results])
    micro = np.array([r.micro_f1 for r in results])
    return {
        "macro_f1_mean": float(macro.mean()),
        "macro_f1_std": float(macro.std()),
        "micro_f1_mean": float(micro.mean()),
        "micro_f1_std": float(micro.std()),
        "train_seconds_mean": float(np.mean([r.train_seconds for r in results])),
        "results": results,
    }


__all__ = ["TrainConfig", "TrainResult", "NodeClassificationTrainer",
           "epoch_instruments", "run_repeats"]
