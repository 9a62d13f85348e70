"""Shared fixtures: tiny datasets and deterministic seeding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import get_dataset
from repro.graph import HeteroGraph
from repro.training import set_seed


@pytest.fixture(autouse=True)
def _seed_everything():
    set_seed(1234)
    yield


@pytest.fixture
def memo_lookups(monkeypatch):
    """``record(miss=False)`` logs, from then on, whether each
    ``ConstantProduct`` lookup hit; with ``miss`` every lookup misses.
    A later ``record`` replaces the earlier one."""
    from repro.completion.base import ConstantProduct

    hit = ConstantProduct.hit

    def record(miss: bool = False) -> list:
        outcomes = []

        def spy(memo, kept, base, params):
            outcomes.append(not miss and hit(memo, kept, base, params))
            return outcomes[-1]

        monkeypatch.setattr(ConstantProduct, "hit", spy)
        return outcomes

    return record


@pytest.fixture(scope="session")
def imdb_tiny():
    return get_dataset("imdb", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def dblp_tiny():
    return get_dataset("dblp", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def acm_tiny():
    return get_dataset("acm", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def lastfm_tiny():
    return get_dataset("lastfm", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_bundle(imdb_tiny, tmp_path_factory):
    """A quickly-trained servable bundle + its in-process reference.

    Shared by the serving tests: a GCN on tiny IMDB with a fixed mixed
    completion assignment, trained for a few epochs, exported to disk.
    Returns the bundle, its path, and the reference predictions of the
    in-process trained model (the exact-match oracle).
    """
    import numpy as np

    from repro.completion import FixedAssignmentFeatures, SearchSpace
    from repro.models import build_model
    from repro.serving import DatasetSpec, build_bundle
    from repro.tensor import no_grad
    from repro.training import NodeClassificationTrainer, TrainConfig

    set_seed(7)
    dataset = imdb_tiny
    space = SearchSpace()
    rng = np.random.default_rng(7)
    assignment = rng.integers(0, len(space),
                              size=dataset.missing_global_ids.shape[0])
    features = FixedAssignmentFeatures(dataset, 32, assignment, space=space)
    model = build_model("gcn", dataset, hidden_dim=32, out_dim=32)
    result = NodeClassificationTrainer(
        model, features, dataset, TrainConfig(epochs=4, patience=10)).train()
    bundle = build_bundle(dataset, DatasetSpec("imdb", "tiny", 0), "gcn",
                          model, features, hidden_dim=32, out_dim=32,
                          metrics={"macro_f1": result.macro_f1})
    path = tmp_path_factory.mktemp("serving") / "bundle.npz"
    bundle.save(path)
    model.eval()
    features.eval()
    with no_grad():
        reference = np.argmax(model(features()).data, axis=-1)
    return {"bundle": bundle, "path": path, "reference": reference,
            "dataset": dataset}


@pytest.fixture()
def toy_graph() -> HeteroGraph:
    """A hand-built 3-type graph small enough to verify by eye.

    movies: 0..3, actors: 0..2, tags: 0..1
    movie-actor: (0,0) (0,1) (1,1) (2,2) (3,2)
    movie-tag:   (0,0) (1,0) (2,1) (3,1)
    """
    edges = {
        ("movie", "stars", "actor"): np.array([[0, 0, 1, 2, 3],
                                               [0, 1, 1, 2, 2]]),
        ("movie", "tagged", "tag"): np.array([[0, 1, 2, 3],
                                              [0, 0, 1, 1]]),
    }
    graph = HeteroGraph({"movie": 4, "actor": 3, "tag": 2}, edges)
    graph.add_reverse_relations()
    return graph
