"""The AutoAC bi-level search (paper §IV, Algorithm 1).

Alternates, per epoch:

1. **Upper level** — update the completion parameters ``alpha`` on the
   validation loss.  In discrete mode the gradient is taken at the
   projected one-hot point ``prox_C1(alpha)`` and the update is a proximal
   step inside the ``[0,1]`` box (NASP); in mixture mode ``alpha`` is a
   softmax relaxation trained by Adam, optionally with the DARTS
   second-order unrolled correction — the paper's "w/o discrete
   constraints" ablation (Table VIII).
2. **Lower level** — update the GNN weights ``w`` (plus the clustering
   head) on ``L_train + lambda * L_GmoC``, with the refined discrete
   choices active.
3. **Cluster refresh** — V⁻ nodes are re-assigned to clusters from the
   current soft assignment matrix (or by k-means in the EM ablations).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..completion import SearchSpace, WeightedCompletionFeatures
from ..datasets import HeteroDataset
from ..graph.sampler import NeighborSampler
from ..models import build_model
from ..tensor import Adam, Tensor, fused_kernels_enabled, gather_rows, no_grad
from ..training.metrics import alpha_entropy
from .adapters import TaskAdapter
from .alpha import CompletionParameters, MixtureParameters
from .clustering import EMClusterAssigner, ModularityClusteringHead, modularity_loss
from .config import AutoACConfig


@dataclass
class SearchResult:
    """Everything the retraining stage (and the analysis figures) need."""

    assignment: np.ndarray          # op index per V⁻ node
    cluster_labels: np.ndarray      # cluster id per V⁻ node
    alpha: np.ndarray               # final completion parameters (rows × |O|)
    op_names: List[str]
    best_val_score: float
    epochs_run: int
    search_seconds: float
    history: Dict[str, List[float]] = field(default_factory=dict)

    def op_distribution(self) -> Dict[str, float]:
        """Fraction of V⁻ nodes assigned to each op (paper Fig. 5)."""
        total = max(len(self.assignment), 1)
        return {
            name: float(np.sum(self.assignment == index)) / total
            for index, name in enumerate(self.op_names)
        }


class AutoACSearcher:
    """Runs the completion-operation search for one dataset + backbone."""

    def __init__(self, adapter: TaskAdapter, model_name: str,
                 config: Optional[AutoACConfig] = None,
                 space: Optional[SearchSpace] = None,
                 seed: int = 0) -> None:
        self.adapter = adapter
        self.dataset: HeteroDataset = adapter.dataset
        self.config = config or AutoACConfig()
        self.space = space or SearchSpace()
        self.rng = np.random.default_rng(seed)
        cfg = self.config

        self.features = WeightedCompletionFeatures(
            self.dataset, cfg.hidden_dim, space=self.space)
        self.model = build_model(model_name, self.dataset,
                                 hidden_dim=cfg.hidden_dim,
                                 out_dim=cfg.out_dim, **cfg.model_kwargs)

        self.num_missing = self.dataset.missing_global_ids.shape[0]
        if self.num_missing == 0:
            raise ValueError("dataset has no missing attributes to search over")

        # clustering infrastructure --------------------------------------
        self.cluster_method = cfg.cluster_method
        if self.cluster_method == "none":
            self.num_rows = self.num_missing
            self.cluster_labels = np.arange(self.num_missing, dtype=np.int64)
            self.cluster_head = None
            self.em_assigner = None
        elif self.cluster_method == "modularity":
            self.num_rows = cfg.num_clusters
            self.cluster_labels = self.rng.integers(
                0, cfg.num_clusters, size=self.num_missing, dtype=np.int64)
            self.cluster_head = ModularityClusteringHead(cfg.hidden_dim,
                                                         cfg.num_clusters)
            self.em_assigner = None
            graph = self.dataset.graph
            self._adj = graph.adjacency(symmetric=True)
            self._degrees = graph.degrees()
        else:  # em / em_warmup
            self.num_rows = cfg.num_clusters
            warmup = cfg.em_warmup if self.cluster_method == "em_warmup" else 0
            self.em_assigner = EMClusterAssigner(self.num_missing,
                                                 cfg.num_clusters, warmup,
                                                 self.rng)
            self.cluster_labels = self.em_assigner.labels
            self.cluster_head = None

        # alpha ----------------------------------------------------------
        if cfg.discrete:
            self.alpha = CompletionParameters(self.num_rows, len(self.space),
                                              rng=self.rng)
            self.mixture = None
            self.alpha_optimizer = None
        else:
            self.mixture = MixtureParameters(self.num_rows, len(self.space),
                                             rng=self.rng)
            self.alpha = None
            self.alpha_optimizer = Adam([self.mixture.logits],
                                        lr=cfg.alpha_lr,
                                        weight_decay=cfg.alpha_weight_decay)

        # lower-level optimizer -------------------------------------------
        w_params = self.model.parameters() + self.features.parameters()
        if self.cluster_head is not None:
            w_params += self.cluster_head.parameters()
        self._w_params = w_params
        self.w_optimizer = Adam(w_params, lr=cfg.w_lr,
                                weight_decay=cfg.w_weight_decay)

        # kept validation graph ------------------------------------------
        # In discrete mode the next upper step's val_loss forward repeats
        # the end-of-epoch validation forward bit for bit (same w, same
        # discrete alpha, same clusters, eval mode).  When the adapter's
        # score is -val_loss, the validation pass builds that forward with
        # grad on alpha-bar and keeps ``(loss, alpha-bar)`` for the upper
        # step to backpropagate.
        self._reuse_val_forward = cfg.discrete and getattr(
            adapter, "score_is_neg_val_loss", False)
        self._kept_val: Optional[Tuple[Tensor, Tensor]] = None

        # sampled lower level ---------------------------------------------
        # cfg.minibatch makes every lower w step train on a neighbor-
        # sampled view around a fresh batch of training seeds; the upper
        # alpha step, validation and the refresh signal stay full-graph.
        self._mb_sampler = None
        if cfg.minibatch is not None:
            if not getattr(self.model, "supports_sampling", False):
                raise ValueError(
                    f"minibatch search needs a supports_sampling backbone; "
                    f"{model_name!r} is full-graph only")
            if not hasattr(self.adapter, "train_loss_on_batch"):
                raise ValueError(
                    "minibatch search needs an adapter exposing "
                    "train_loss_on_batch (node classification)")
            mb = cfg.minibatch
            num_layers = mb.num_layers or getattr(self.model, "num_layers", 2)
            self._mb_sampler = NeighborSampler(
                self.dataset.graph, fanout=mb.fanout, num_layers=num_layers,
                seed=mb.sample_seed)
            self._mb_rng = np.random.default_rng(mb.sample_seed)
            n = self.dataset.graph.num_nodes
            # stochastic refresh signals: per-node rows updated whenever a
            # view touches them (plain data buffers, not activations).
            # The assignment buffer starts one-hot at the initial random
            # clustering so the first refresh preserves it for nodes no
            # view has touched yet (a uniform init would argmax them all
            # into cluster 0); the h0 buffer is seeded lazily from one
            # no-grad full forward on the first lower step.
            if self.cluster_head is not None:
                self._assignment_buffer = np.zeros((n, cfg.num_clusters))
                self._assignment_buffer[self.dataset.missing_global_ids,
                                        self.cluster_labels] = 1.0
            if self.em_assigner is not None:
                self._h0_buffer = None

    # ------------------------------------------------------------------
    # weight plumbing
    # ------------------------------------------------------------------
    def _set_node_weights(self, rows: Tensor) -> None:
        """Install per-node op weights derived from per-row ``rows``."""
        self.features.set_weights(gather_rows(rows, self.cluster_labels))

    def _current_discrete_rows(self, requires_grad: bool = False) -> Tensor:
        if self.alpha is not None:
            return Tensor(self.alpha.discrete(), requires_grad=requires_grad)
        return Tensor(
            np.eye(len(self.space))[self.mixture.chosen_ops()],
            requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # upper level
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _alpha_only_pass(self):
        """Scope of an upper step that needs only d loss / d alpha.

        ``w`` is frozen (``requires_grad=False``) so the backward pass
        builds no ``w`` gradients, and dropout is off: the completion
        choice should not chase dropout noise.  On exit, even by an
        exception, ``w`` requires grad again with no gradient held, and
        both modules are back in training mode.
        """
        frozen = [p for p in self._w_params if p.requires_grad]
        for param in frozen:
            param.requires_grad = False
        self.model.eval()
        self.features.eval()
        try:
            yield
        finally:
            for param in frozen:
                param.requires_grad = True
            self.w_optimizer.zero_grad()
            self.model.train()
            self.features.train()

    def _alpha_forward(self) -> Tuple[Tensor, Tensor]:
        """The discrete upper step's forward: ``(val loss, alpha-bar)``,
        with grad on alpha-bar only."""
        bar_alpha = self._current_discrete_rows(requires_grad=True)
        self._set_node_weights(bar_alpha)
        with self._alpha_only_pass():
            loss = self.adapter.val_loss(self.model, self.features)
        return loss, bar_alpha

    def _upper_step_discrete(self) -> float:
        kept, self._kept_val = self._kept_val, None
        loss, bar_alpha = kept or self._alpha_forward()
        # backward closures read ``requires_grad`` when they run, so w is
        # frozen for the backward too
        with self._alpha_only_pass():
            if loss.requires_grad:
                loss.backward()
        grad = bar_alpha.grad if bar_alpha.grad is not None else \
            np.zeros_like(self.alpha.values)
        self.alpha.update(grad, self.config.alpha_lr,
                          self.config.alpha_weight_decay)
        return loss.item()

    def _upper_step_mixture(self) -> float:
        cfg = self.config
        if not cfg.unrolled:
            self.mixture.logits.zero_grad()
            self._set_node_weights(self.mixture.weights())
            with self._alpha_only_pass():
                loss = self.adapter.val_loss(self.model, self.features)
                if loss.requires_grad:
                    loss.backward()
            self.alpha_optimizer.step()
            return loss.item()
        return self._upper_step_mixture_unrolled()

    def _upper_step_mixture_unrolled(self) -> float:
        """DARTS second-order step: virtual w update + finite-diff Hessian."""
        cfg = self.config
        xi = cfg.w_lr
        backup = [p.data.copy() for p in self._w_params]

        # virtual step: w' = w - xi * grad_w L_train(w, alpha)
        self.w_optimizer.zero_grad()
        self.mixture.logits.zero_grad()
        self._set_node_weights(self.mixture.weights())
        self.adapter.train_loss(self.model, self.features).backward()
        grads_w = [None if p.grad is None else p.grad.copy()
                   for p in self._w_params]
        for p, g in zip(self._w_params, grads_w):
            if g is not None:
                p.data = p.data - xi * g

        # gradient at w': d_alpha L_val and d_w' L_val
        self.w_optimizer.zero_grad()
        self.mixture.logits.zero_grad()
        self._set_node_weights(self.mixture.weights())
        val_loss = self.adapter.val_loss(self.model, self.features)
        val_loss.backward()
        d_alpha = self.mixture.logits.grad.copy()
        d_w = [None if p.grad is None else p.grad.copy()
               for p in self._w_params]

        # finite-difference Hessian-vector product
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in d_w if g is not None))
        eps = 1e-2 / max(norm, 1e-8)

        def alpha_grad_at(sign: float) -> np.ndarray:
            """Grad of train loss w.r.t. alpha at ``w ± eps·d_w``."""
            for p, base, g in zip(self._w_params, backup, d_w):
                p.data = base + sign * eps * g if g is not None else base.copy()
            self.w_optimizer.zero_grad()
            self.mixture.logits.zero_grad()
            self._set_node_weights(self.mixture.weights())
            self.adapter.train_loss(self.model, self.features).backward()
            return self.mixture.logits.grad.copy()

        grad_plus = alpha_grad_at(+1.0)
        grad_minus = alpha_grad_at(-1.0)
        hessian_term = (grad_plus - grad_minus) / (2.0 * eps)

        for p, base in zip(self._w_params, backup):
            p.data = base
        self.mixture.logits.grad = d_alpha - xi * hessian_term
        self.alpha_optimizer.step()
        self.w_optimizer.zero_grad()
        self.mixture.logits.zero_grad()
        return val_loss.item()

    # ------------------------------------------------------------------
    # lower level
    # ------------------------------------------------------------------
    def _lower_step_minibatch(self) -> Dict[str, float]:
        """Stochastic lower step: one sampled batch instead of the graph.

        The gradient of the batch cross-entropy is an unbiased estimate
        of the full train loss gradient (uniform seed batches); the
        modularity term is evaluated on the sampled sub-adjacency.  A
        view computes its own handful of completion rows directly; the
        full-graph candidates are computed after the step, for the
        validation pass and the next upper step.
        """
        cfg = self.config
        mb = cfg.minibatch
        if cfg.discrete:
            self._set_node_weights(self._current_discrete_rows())
        else:
            self._set_node_weights(self.mixture.weights())
        split = self.dataset.split
        size = min(mb.batch_size, split.train.shape[0])
        batch = self._mb_rng.choice(split.train, size=size, replace=False)
        seeds = self.dataset.graph.to_global(self.dataset.target_type, batch)
        view = self._mb_sampler.sample(seeds)
        self.w_optimizer.zero_grad()
        # one view feature forward, shared by the loss, the cluster head
        # and the refresh buffers (mirrors the full path's pre-step h0)
        h0_view = self.features(view)
        loss = self.adapter.train_loss_on_batch(self.model, self.features,
                                                view, batch, h0=h0_view)
        record: Dict[str, float] = {"train_loss": loss.item()}
        if self.cluster_head is not None:
            assignment = self.cluster_head(h0_view)
            sub_adj = view.adjacency_sparse(symmetric=True).to_scipy()
            if sub_adj.nnz:
                degrees = np.asarray(sub_adj.sum(axis=1)).ravel()
                lgmoc = modularity_loss(assignment, sub_adj, degrees,
                                        collapse_weight=cfg.collapse_weight)
                loss = loss + lgmoc * cfg.lambda_cluster
                record["lgmoc"] = lgmoc.item()
            self._assignment_buffer[view.node_ids] = assignment.data
            self._last_assignment = self._assignment_buffer
        if self.em_assigner is not None:
            if self._h0_buffer is None:
                with no_grad():
                    self._h0_buffer = self.features().data.copy()
            self._h0_buffer[view.node_ids] = h0_view.data
            self._last_h0 = self._h0_buffer
        loss.backward()
        self.w_optimizer.step()
        self.features.refresh_candidates()  # at the stepped w
        if not cfg.discrete:
            self.mixture.logits.zero_grad()
        return record

    def _lower_step(self) -> Dict[str, float]:
        cfg = self.config
        if cfg.minibatch is not None:
            return self._lower_step_minibatch()
        if cfg.discrete:
            self._set_node_weights(self._current_discrete_rows())
        else:
            self._set_node_weights(self.mixture.weights())
        self.w_optimizer.zero_grad()
        # Under the fused kernels the loss and the cluster head share one
        # h0, so their gradients add up in h0 before one builder backward;
        # the reference profile keeps its second builder pass (and its
        # published float sums).
        h0 = self.features()
        shared = h0 if fused_kernels_enabled() else None
        loss = self.adapter.train_loss(self.model, self.features, h0=shared)
        record: Dict[str, float] = {"train_loss": loss.item()}
        if self.cluster_head is not None:
            assignment = self.cluster_head(h0)
            lgmoc = modularity_loss(assignment, self._adj, self._degrees,
                                    collapse_weight=cfg.collapse_weight)
            loss = loss + lgmoc * cfg.lambda_cluster
            record["lgmoc"] = lgmoc.item()
            self._last_assignment = assignment.data
        loss.backward()
        self.w_optimizer.step()
        self.features.refresh_candidates()  # at the stepped w
        if not cfg.discrete:
            self.mixture.logits.zero_grad()
        self._last_h0 = h0.data
        return record

    # ------------------------------------------------------------------
    def _refresh_clusters(self) -> None:
        if self.cluster_method == "none":
            return
        if self.cluster_method == "modularity":
            missing = self.dataset.missing_global_ids
            self.cluster_labels = self._last_assignment[missing].argmax(axis=1)
        else:
            missing = self.dataset.missing_global_ids
            self.cluster_labels = self.em_assigner.update(self._last_h0[missing])

    def _validate(self, keep: bool) -> float:
        """Validation score at the post-step parameters.

        With ``keep`` the pass is the next upper step's forward, kept for
        that step to backpropagate.
        """
        if keep:
            self._kept_val = self._alpha_forward()
            return -self._kept_val[0].item()
        self._set_node_weights(self._current_discrete_rows())
        return self.adapter.val_score(self.model, self.features)

    # ------------------------------------------------------------------
    def search(self) -> SearchResult:
        """Run the bi-level search loop (Algorithm 1) to convergence.

        Alternates lower-level ``w`` steps with upper-level ``alpha`` steps
        (plus the clustering objective), early-stops on the validation
        score, and returns the best discrete assignment found.
        """
        cfg = self.config
        history: Dict[str, List[float]] = {
            "val_loss": [], "train_loss": [], "lgmoc": [], "val_score": [],
            "alpha_entropy": [],
        }
        best_score = -np.inf
        best_alpha = None
        best_labels = self.cluster_labels.copy()
        patience_left = cfg.patience
        start = time.perf_counter()
        epochs_run = 0
        try:
            for epoch in range(cfg.search_epochs):
                epochs_run = epoch + 1
                if epoch >= cfg.warmup_epochs:
                    if cfg.discrete:
                        val_loss = self._upper_step_discrete()
                    else:
                        val_loss = self._upper_step_mixture()
                    history["val_loss"].append(val_loss)
                record = self._lower_step()
                history["train_loss"].append(record["train_loss"])
                if "lgmoc" in record:
                    history["lgmoc"].append(record["lgmoc"])
                self._refresh_clusters()

                # keep the validation graph only for an upper step that
                # will consume it: not before a warmup epoch, not on the
                # last epoch (an early stop drops it below)
                next_epoch = epoch + 1
                score = self._validate(
                    self._reuse_val_forward
                    and cfg.warmup_epochs <= next_epoch < cfg.search_epochs)
                history["val_score"].append(score)
                # pure read of the current parameters — no RNG, no training
                # effect — so timelines never perturb search determinism
                history["alpha_entropy"].append(alpha_entropy(
                    self.alpha.values if cfg.discrete
                    else self.mixture.logits.data))
                if score >= best_score:
                    # on exact ties keep the *latest* alpha — it has seen
                    # more search steps (validation scores plateau early on
                    # small validation splits) — but only strict
                    # improvements reset the patience budget
                    if score > best_score:
                        patience_left = cfg.patience
                    else:
                        patience_left -= 1
                    best_score = score
                    best_alpha = (self.alpha.values.copy() if cfg.discrete
                                  else self.mixture.logits.data.copy())
                    best_labels = self.cluster_labels.copy()
                else:
                    patience_left -= 1
                if patience_left <= 0:
                    break
        finally:
            self._kept_val = None
        elapsed = time.perf_counter() - start

        if best_alpha is None:
            best_alpha = (self.alpha.values.copy() if cfg.discrete
                          else self.mixture.logits.data.copy())
        chosen_per_row = best_alpha.argmax(axis=1)
        assignment = chosen_per_row[best_labels]
        return SearchResult(
            assignment=assignment,
            cluster_labels=best_labels,
            alpha=best_alpha,
            op_names=list(self.space),
            best_val_score=float(best_score),
            epochs_run=epochs_run,
            search_seconds=elapsed,
            history=history,
        )


__all__ = ["AutoACSearcher", "SearchResult"]
