"""Extending the search space with a custom completion operation.

The paper frames its search space as "general and scalable" (§IV-A): any
node-aggregation scheme can join the four built-in operations.  This
script registers a *two-hop mean* completion op (average attributes of
attributed nodes exactly two hops away — useful when the 1-hop
neighborhood is attribute-less) and lets AutoAC search over the enlarged
five-op space.

Run:  python examples/custom_completion_op.py [--scale tiny|small]

The extension points used here (``PropagatedCompletion``, ``register_op``,
``SearchSpace``, and the model registry) are documented in
``docs/EXTENDING.md``.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.completion import (
    PropagatedCompletion,
    SearchSpace,
    available_ops,
    register_op,
)
from repro.core import AutoACConfig, run_autoac
from repro.datasets import get_dataset
from repro.tensor import Parameter, SparseTensor, get_default_dtype, init
from repro.training import TrainConfig, set_seed


class TwoHopMeanCompletion(PropagatedCompletion):
    """Average the attributes of attributed nodes exactly two hops away.

    The op is ``base @ W`` with a constant ``base``, so it only builds
    ``_base`` and ``weight``: ``PropagatedCompletion`` supplies the forward
    (which keeps its output while ``W`` is unchanged) and ``forward_rows``.
    """

    name = "two_hop_mean"

    def __init__(self, dataset, hidden_dim: int) -> None:
        super().__init__(dataset, hidden_dim)
        raw = dataset.feature_matrix_zero_filled()
        adj = dataset.graph.adjacency(symmetric=True)
        two_hop = (adj @ adj).tocsr()
        two_hop.setdiag(0)
        two_hop = (two_hop - two_hop.multiply(adj)).tocsr()  # strictly 2-hop
        two_hop.eliminate_zeros()
        two_hop.data[:] = 1.0
        # restrict to attributed columns, row-normalize, propagate — all on
        # the engine's CSR fast path (see docs/EXTENDING.md)
        mask = np.zeros(dataset.graph.num_nodes, dtype=bool)
        mask[dataset.attributed_global_ids] = True
        operator = (SparseTensor.from_scipy(two_hop)
                    .restrict_columns(mask)
                    .row_normalize())
        self._base = (operator.matmul_data(raw)[self.missing_ids]
                      .astype(get_default_dtype(), copy=False))
        self.weight = Parameter(init.xavier_uniform((raw.shape[1], hidden_dim)),
                                name="weight")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "medium"])
    args = parser.parse_args()

    if TwoHopMeanCompletion.name not in available_ops():
        register_op(TwoHopMeanCompletion.name, TwoHopMeanCompletion)
    print(f"registered ops: {available_ops()}\n")

    dataset = get_dataset("dblp", scale=args.scale)
    space = SearchSpace(["mean", "gcn", "ppnp", "one_hot", "two_hop_mean"])

    set_seed(0)
    config = AutoACConfig(search_epochs=60, patience=18, num_clusters=8,
                          retrain=TrainConfig(epochs=80, patience=20))
    result = run_autoac(dataset, "simple_hgn", config, space=space, seed=0)

    print(f"macro-F1 with 5-op space: {result.final.macro_f1:.4f}")
    print("searched distribution over the enlarged space:")
    for op, fraction in result.search.op_distribution().items():
        marker = "  <-- custom" if op == "two_hop_mean" else ""
        print(f"  {op:>14s}: {fraction:6.1%}{marker}")


if __name__ == "__main__":
    main()
