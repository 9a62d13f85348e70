"""Tests for the completion operations and feature builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import (
    DEFAULT_SPACE,
    FixedAssignmentFeatures,
    GCNCompletion,
    HandcraftedFeatures,
    MeanCompletion,
    OneHotCompletion,
    PPNPCompletion,
    SearchSpace,
    SingleOpFeatures,
    WeightedCompletionFeatures,
    available_ops,
    register_op,
)
from repro.completion.ops import _attributed_restricted_adjacency
from repro.datasets import HeteroDataset, Split
from repro.graph import HeteroGraph
from repro.tensor import Tensor


@pytest.fixture()
def micro_dataset() -> HeteroDataset:
    """Hand-built dataset: 3 attributed 'item' nodes, 2 missing 'user' nodes.

    user0 — item0, item1;   user1 — item2
    Attributes: item_i = e_i basis vectors, so completed values are exact.
    """
    edges = {("user", "likes", "item"): np.array([[0, 0, 1], [0, 1, 2]])}
    graph = HeteroGraph({"user": 2, "item": 3}, edges)
    graph.add_reverse_relations()
    features = {"user": None, "item": np.eye(3)}
    return HeteroDataset(
        name="micro",
        graph=graph,
        target_type="user",
        features=features,
        labels=np.array([0, 1]),
        num_classes=2,
        split=Split(train=np.array([0]), val=np.array([1]),
                    test=np.array([], dtype=int)),
    )


class TestRestriction:
    def test_only_attributed_columns_survive(self, micro_dataset):
        restricted = (_attributed_restricted_adjacency(micro_dataset)
                      .to_scipy())
        # columns 0..1 are users (missing) → must be empty
        assert restricted[:, :2].nnz == 0
        assert restricted[:, 2:].nnz > 0


class TestMeanCompletion:
    def test_exact_mean_of_attributed_neighbors(self, micro_dataset):
        op = MeanCompletion(micro_dataset, hidden_dim=3)
        op.weight.data = np.eye(3)  # identity transform exposes the base
        out = op().data
        # user0 averages item0,item1 → [0.5, 0.5, 0]
        np.testing.assert_allclose(out[0], [0.5, 0.5, 0.0])
        # user1 sees only item2 → [0, 0, 1]
        np.testing.assert_allclose(out[1], [0.0, 0.0, 1.0])

    def test_gradient_reaches_weight(self, micro_dataset):
        op = MeanCompletion(micro_dataset, hidden_dim=4)
        op().sum().backward()
        assert op.weight.grad is not None


class TestGCNCompletion:
    def test_renormalized_coefficients(self, micro_dataset):
        op = GCNCompletion(micro_dataset, hidden_dim=3)
        op.weight.data = np.eye(3)
        out = op().data
        # user0 (deg 2) ← item0 (deg 1): coefficient 1/sqrt(2*1)
        np.testing.assert_allclose(out[0, 0], 1 / np.sqrt(2), rtol=1e-10)
        # user1 (deg 1) ← item2 (deg 1): coefficient 1
        np.testing.assert_allclose(out[1, 2], 1.0, rtol=1e-10)


def _chain_dataset() -> HeteroDataset:
    """user1 — item1 — user0 — item0: item0 is 3 hops from user1."""
    edges = {("user", "likes", "item"): np.array([[0, 0, 1], [0, 1, 1]])}
    graph = HeteroGraph({"user": 2, "item": 2}, edges)
    graph.add_reverse_relations()
    return HeteroDataset(
        name="chain",
        graph=graph,
        target_type="user",
        features={"user": None, "item": np.eye(2)},
        labels=np.array([0, 1]),
        num_classes=2,
        split=Split(train=np.array([0]), val=np.array([1]),
                    test=np.array([], dtype=int)),
    )


class TestPPNPCompletion:
    def test_alpha_validation(self, micro_dataset):
        with pytest.raises(ValueError):
            PPNPCompletion(micro_dataset, hidden_dim=4, alpha=0.0)

    def test_reaches_multi_hop(self):
        ds = _chain_dataset()
        op = PPNPCompletion(ds, hidden_dim=2, alpha=0.1, iterations=30)
        op.weight.data = np.eye(2)
        out = op().data
        # user1 (row 1 of V⁻ = users) receives mass from item0, 3 hops away,
        # which 1-hop mean/GCN completion would never see
        assert out[1, 0] > 0.0

    def test_one_hop_ops_blind_to_multi_hop(self):
        """Contrast: mean completion sees nothing of the 3-hop item."""
        ds = _chain_dataset()
        op = MeanCompletion(ds, hidden_dim=2)
        op.weight.data = np.eye(2)
        np.testing.assert_allclose(op().data[1, 0], 0.0)

    def test_restart_probability_controls_locality(self):
        ds = _chain_dataset()
        local = PPNPCompletion(ds, hidden_dim=2, alpha=0.9, iterations=50)
        globl = PPNPCompletion(ds, hidden_dim=2, alpha=0.05, iterations=50)
        local.weight.data = np.eye(2)
        globl.weight.data = np.eye(2)
        # relative weight of the far item (col 0) vs the near item (col 1)
        ratio_local = local().data[1, 0] / max(local().data[1, 1], 1e-12)
        ratio_global = globl().data[1, 0] / max(globl().data[1, 1], 1e-12)
        assert ratio_global > ratio_local


class TestOneHotCompletion:
    def test_rows_are_independent_parameters(self, micro_dataset):
        op = OneHotCompletion(micro_dataset, hidden_dim=4)
        out = op()
        out[0].sum().backward()
        assert np.abs(op.table.grad[0]).sum() > 0
        np.testing.assert_allclose(op.table.grad[1], 0.0)


class TestSearchSpace:
    def test_default_space(self):
        space = SearchSpace()
        assert list(space) == DEFAULT_SPACE
        assert len(space) == 4

    def test_duplicate_and_unknown_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(["mean", "mean"])
        with pytest.raises(KeyError):
            SearchSpace(["mean", "wavelet"])
        with pytest.raises(ValueError):
            SearchSpace([])

    def test_build_ops_order(self, micro_dataset):
        space = SearchSpace(["one_hot", "mean"])
        ops = space.build_ops(micro_dataset, 4)
        assert isinstance(ops[0], OneHotCompletion)
        assert isinstance(ops[1], MeanCompletion)

    def test_register_custom_op(self, micro_dataset):
        class ZeroCompletion(OneHotCompletion):
            name = "zero_test"

            def forward(self):
                return self.table * 0.0

        register_op("zero_test", ZeroCompletion, overwrite=True)
        assert "zero_test" in available_ops()
        space = SearchSpace(["zero_test"])
        op = space.build_ops(micro_dataset, 4)[0]
        np.testing.assert_allclose(op().data, 0.0)

    def test_register_duplicate_rejected(self):
        with pytest.raises(KeyError):
            register_op("mean", MeanCompletion)


class TestFeatureBuilders:
    def test_handcrafted_covers_all_nodes(self, micro_dataset):
        builder = HandcraftedFeatures(micro_dataset, 8)
        h0 = builder()
        assert h0.shape == (5, 8)
        # attributed rows come from the projection of identity features
        assert np.abs(h0.data[2:]).sum() > 0

    def test_single_op_requires_known_name(self, micro_dataset):
        with pytest.raises(KeyError):
            SingleOpFeatures(micro_dataset, 8, "bogus")

    @pytest.mark.parametrize("op_name", DEFAULT_SPACE)
    def test_single_op_builders(self, micro_dataset, op_name):
        builder = SingleOpFeatures(micro_dataset, 8, op_name)
        assert builder().shape == (5, 8)

    def test_weighted_requires_weights(self, micro_dataset):
        builder = WeightedCompletionFeatures(micro_dataset, 8)
        with pytest.raises(RuntimeError):
            builder()

    def test_weighted_shape_validation(self, micro_dataset):
        builder = WeightedCompletionFeatures(micro_dataset, 8)
        with pytest.raises(ValueError):
            builder.set_weights(Tensor(np.ones((3, 4))))

    def test_one_hot_rows_match_single_op(self, micro_dataset):
        """One-hot weights on op k must equal running op k alone."""
        space = SearchSpace()
        weighted = WeightedCompletionFeatures(micro_dataset, 8, space=space)
        weights = np.zeros((2, 4))
        weights[:, space.index("mean")] = 1.0
        weighted.set_weights(Tensor(weights))
        mixed = weighted.completed().data
        alone = weighted.ops[space.index("mean")]().data
        np.testing.assert_allclose(mixed, alone)

    def test_mixture_is_convex_combination(self, micro_dataset):
        space = SearchSpace()
        builder = WeightedCompletionFeatures(micro_dataset, 8, space=space)
        builder.set_weights(Tensor(np.full((2, 4), 0.25)))
        mixed = builder.completed().data
        individual = np.stack([op().data for op in builder.ops])
        np.testing.assert_allclose(mixed, individual.mean(axis=0), rtol=1e-10)

    def test_fixed_assignment_validation(self, micro_dataset):
        with pytest.raises(ValueError):
            FixedAssignmentFeatures(micro_dataset, 8, np.array([0]))
        with pytest.raises(ValueError):
            FixedAssignmentFeatures(micro_dataset, 8, np.array([0, 9]))

    def test_fixed_assignment_random(self, micro_dataset):
        builder = FixedAssignmentFeatures.random(
            micro_dataset, 8, np.random.default_rng(0))
        assert builder().shape == (5, 8)
        assert builder.assignment.shape == (2,)
