"""Tests for task adapters and message-passing internals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import HandcraftedFeatures
from repro.core.adapters import LinkPredictionAdapter, NodeClassificationAdapter
from repro.models import build_model
from repro.models.base import edge_arrays_with_self_loops
from repro.tensor import Tensor, no_grad
from repro.training import LinkPredictionTask, set_seed


class TestEdgeArrays:
    def test_self_loops_appended_with_own_type(self, imdb_tiny):
        src, dst, etype, num_types = edge_arrays_with_self_loops(imdb_tiny)
        n = imdb_tiny.graph.num_nodes
        base_edges = imdb_tiny.graph.num_edges()
        assert src.shape[0] == base_edges + n
        # the last n entries are the loops, with the dedicated type id
        np.testing.assert_array_equal(src[-n:], np.arange(n))
        np.testing.assert_array_equal(dst[-n:], np.arange(n))
        assert set(etype[-n:]) == {imdb_tiny.graph.num_relations}
        assert num_types == imdb_tiny.graph.num_relations + 1


class TestNodeClassificationAdapter:
    def test_train_and_val_losses_differ(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        model = build_model("mlp", imdb_tiny)
        features = HandcraftedFeatures(imdb_tiny, 64)
        model.eval(); features.eval()
        train_loss = adapter.train_loss(model, features).item()
        val_loss = adapter.val_loss(model, features).item()
        assert train_loss != pytest.approx(val_loss)

    def test_val_score_is_negative_loss(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        model = build_model("mlp", imdb_tiny)
        features = HandcraftedFeatures(imdb_tiny, 64)
        score = adapter.val_score(model, features)
        model.eval(); features.eval()
        with no_grad():
            loss = adapter.val_loss(model, features).item()
        assert score == pytest.approx(-loss, rel=1e-6)

    def test_auxiliary_loss_included_for_hgca(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        model = build_model("hgca", imdb_tiny)
        features = HandcraftedFeatures(imdb_tiny, 64)
        model.eval(); features.eval()
        with_aux = adapter.train_loss(model, features).item()
        model.has_auxiliary_loss = False
        without_aux = adapter.train_loss(model, features).item()
        assert with_aux > without_aux  # InfoNCE term is positive

    def test_train_loss_takes_the_callers_h0(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        model = build_model("mlp", imdb_tiny)
        features = HandcraftedFeatures(imdb_tiny, 64)
        model.eval(); features.eval()
        built = adapter.train_loss(model, features).item()
        # with h0 given the builder is not called (None would fail)
        given = adapter.train_loss(model, None, h0=features()).item()
        assert given == built


class TestLinkPredictionAdapter:
    def test_losses_and_score(self, lastfm_tiny):
        set_seed(0)
        task = LinkPredictionTask(lastfm_tiny, mask_rate=0.1, seed=0)
        adapter = LinkPredictionAdapter(task)
        model = build_model("gcn", adapter.dataset)
        features = HandcraftedFeatures(adapter.dataset, 64)
        loss = adapter.train_loss(model, features)
        assert np.isfinite(loss.item())
        score = adapter.val_score(model, features)
        assert 0.0 <= score <= 1.0

    def test_train_loss_resamples_negatives(self, lastfm_tiny):
        """Two calls draw fresh negative edges → different losses."""
        set_seed(0)
        task = LinkPredictionTask(lastfm_tiny, mask_rate=0.1, seed=0)
        adapter = LinkPredictionAdapter(task)
        model = build_model("gcn", adapter.dataset)
        features = HandcraftedFeatures(adapter.dataset, 64)
        model.eval(); features.eval()
        first = adapter.train_loss(model, features).item()
        second = adapter.train_loss(model, features).item()
        assert first != pytest.approx(second)

    def test_train_loss_takes_the_callers_h0(self, lastfm_tiny):
        losses = []
        for shared in (False, True):
            set_seed(0)
            task = LinkPredictionTask(lastfm_tiny, mask_rate=0.1, seed=0)
            adapter = LinkPredictionAdapter(task)
            model = build_model("gcn", adapter.dataset)
            features = HandcraftedFeatures(adapter.dataset, 64)
            model.eval(); features.eval()
            if shared:  # the builder is not called (None would fail)
                loss = adapter.train_loss(model, None, h0=features())
            else:
                loss = adapter.train_loss(model, features)
            losses.append(loss.item())
        assert losses[0] == losses[1]


class TestMAGNNInternals:
    def test_isolated_targets_keep_self_content(self, imdb_tiny):
        """Self instances guarantee every target row is populated."""
        set_seed(0)
        model = build_model("magnn", imdb_tiny)
        features = HandcraftedFeatures(imdb_tiny, 64)
        model.eval(); features.eval()
        with no_grad():
            encoded = model.encode(features())
        norms = np.linalg.norm(encoded.data, axis=1)
        assert np.all(norms > 0), "no target node should be left embedding-free"

    def test_instance_arrays_reference_targets(self, imdb_tiny):
        model = build_model("magnn", imdb_tiny)
        layer = model.path_layers[0]
        n_target = imdb_tiny.graph.num_nodes_of("movie")
        assert layer.dst_local.min() >= 0
        assert layer.dst_local.max() < n_target
        # every target appears as a destination at least once (self instance)
        assert np.unique(layer.dst_local).shape[0] == n_target


class TestHANInternals:
    def test_metapath_edge_lists_have_loops(self, imdb_tiny):
        model = build_model("han", imdb_tiny)
        n_target = imdb_tiny.graph.num_nodes_of("movie")
        for src, dst in model.edge_lists:
            # the last n_target entries are the appended self loops
            np.testing.assert_array_equal(src[-n_target:],
                                          np.arange(n_target))
            np.testing.assert_array_equal(dst[-n_target:],
                                          np.arange(n_target))
