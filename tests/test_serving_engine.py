"""InferenceEngine: the load-time answer table, id validation, counters,
HTTP API."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    InferenceEngine,
    ModelBundle,
    ServingServer,
)
from repro.tensor import Tensor, no_grad

#: JSON id lists that are not lists of integers; each must be a 400
BAD_ID_LISTS = ([1.75], [True], ["1"], [[1]], [None], [{"id": 1}])


@pytest.fixture()
def engine(tiny_bundle):
    return InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                           dataset=tiny_bundle["dataset"])


class TestPrediction:
    def test_matches_in_process_model_exactly(self, engine, tiny_bundle):
        n_target = engine.dataset.graph.num_nodes_of(
            engine.bundle.target_type)
        predictions = engine.predict(np.arange(n_target))
        np.testing.assert_array_equal(predictions, tiny_bundle["reference"])

    @pytest.mark.parametrize("profile", ["reference", "fast"])
    def test_logits_bit_equal_to_a_fresh_forward(self, tiny_bundle, profile):
        from repro.perf import runtime_profile

        with runtime_profile(profile):
            engine = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                     dataset=tiny_bundle["dataset"])
            with no_grad():
                fresh = np.asarray(engine.model(Tensor(engine._h0)).data)
            served = engine.predict_logits(np.arange(fresh.shape[0]))
        assert served.dtype == fresh.dtype
        np.testing.assert_array_equal(served, fresh)

    def test_scalar_and_list_inputs(self, engine):
        single = engine.predict(0)
        assert single.shape == (1,)
        batch = engine.predict([0, 1, 0])
        assert batch.shape == (3,)
        assert batch[0] == batch[2] == single[0]
        assert engine.predict(np.int64(1))[0] == batch[1]

    def test_labels_and_logits(self, engine):
        logits = engine.predict_logits([0, 1])
        assert logits.shape == (2, engine.bundle.num_classes)
        labels = [entry["label"] for entry in engine.predict_batch([0, 1])]
        assert labels == [engine.bundle.label_names[int(np.argmax(row))]
                          for row in logits]

    def test_out_of_range_ids_rejected(self, engine):
        n_target = engine.dataset.graph.num_nodes_of(
            engine.bundle.target_type)
        with pytest.raises(ValueError, match="out of range"):
            engine.predict([n_target])
        with pytest.raises(ValueError, match="out of range"):
            engine.predict([-1])
        with pytest.raises(ValueError, match="int64"):
            engine.predict([10 ** 30])

    @pytest.mark.parametrize("ids", BAD_ID_LISTS)
    def test_non_integer_ids_rejected(self, engine, ids):
        with pytest.raises(ValueError, match="integers"):
            engine.predict_batch(ids)

    def test_non_integer_arrays_rejected(self, engine):
        with pytest.raises(ValueError, match="integers"):
            engine.predict(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="integers"):
            engine.predict(np.array([True]))
        with pytest.raises(ValueError, match="integers"):
            engine.predict(np.zeros((2, 2), dtype=np.int64))


class TestAnswerTable:
    def test_one_forward_at_load(self, engine):
        assert engine.stats()["forward_passes"] == 1
        engine.predict(np.arange(16))
        engine.predict([3])
        engine.embed([0, 5])
        assert engine.stats()["forward_passes"] == 1

    def test_large_request_is_one_batch(self, engine):
        engine.predict(np.arange(33))
        assert engine.stats()["forward_passes"] == 1
        assert engine.stats()["batches"] == 1

    def test_predict_batch_matches_predict(self, engine):
        results = engine.predict_batch([0, 1, 2])
        predictions = engine.predict([0, 1, 2])
        assert [entry["prediction"] for entry in results] == predictions.tolist()
        assert [entry["label"] for entry in results] == \
            [engine.bundle.label_names[index] for index in predictions]

    def test_every_answer_counts_as_a_hit(self, engine):
        engine.predict(np.arange(8))
        engine.predict([0, 0])
        stats = engine.stats()
        assert stats["cache"] == {"hits": 10, "misses": 0}

    def test_returned_rows_are_copies(self, engine):
        logits = engine.predict_logits([0])
        logits[:] = 0.0
        assert engine.predict_logits([0]).any()


class TestEmbedding:
    def test_embed_shape(self, engine):
        rows = engine.embed([0, 5, 10])
        assert rows.shape == (3, engine.bundle.out_dim)

    def test_embed_covers_non_target_nodes(self, engine):
        graph = engine.dataset.graph
        actor_gid = int(graph.global_ids("actor")[0])
        rows = engine.embed([actor_gid])
        assert rows.shape == (1, engine.bundle.out_dim)
        assert np.isfinite(rows).all()

    def test_embed_out_of_range_rejected(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.embed([engine.dataset.graph.num_nodes])


class TestStats:
    def test_counters_and_shape(self, engine):
        engine.predict([0, 1, 2])
        stats = engine.stats()
        assert stats["queries"] == 3
        assert stats["batches"] == 1
        assert stats["bundle"]["model"] == "gcn"
        assert stats["latency"]["queries_per_second"] > 0
        json.dumps(stats)  # must be JSON-able for the /stats endpoint


class TestConfigValidation:
    def test_removed_knobs_are_gone(self, tiny_bundle):
        # the engine has no settings object: onboarding always runs on
        # the exact receptive field
        bundle = ModelBundle.load(tiny_bundle["path"])
        with pytest.raises(TypeError):
            InferenceEngine(bundle, config=None)
        with pytest.raises(TypeError):
            InferenceEngine.from_path(tiny_bundle["path"], config=None)


class TestServer:
    @pytest.fixture()
    def server(self, engine):
        server = ServingServer(engine, port=0).start_background()
        yield server
        server.shutdown()

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            return response.status, json.loads(response.read())

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            server.url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthz(self, server):
        status, payload = self._get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "gcn"

    def test_predict_endpoint(self, server, tiny_bundle):
        status, payload = self._post(server, "/predict",
                                     {"node_ids": [0, 1, 2]})
        assert status == 200
        np.testing.assert_array_equal(payload["predictions"],
                                      tiny_bundle["reference"][:3])
        assert len(payload["labels"]) == 3

    @pytest.mark.parametrize("ids", BAD_ID_LISTS)
    def test_non_integer_ids_are_400(self, server, ids):
        status, payload = self._post(server, "/predict", {"node_ids": ids})
        assert status == 400
        assert "integers" in payload["error"]

    def test_onboard_endpoint(self, server):
        status, payload = self._post(server, "/onboard", {
            "node_type": "actor",
            "edges": {"movie:stars:actor": [0, 1]},
        })
        assert status == 200
        assert payload["node_type"] == "actor"
        assert payload["op"] in server.engine.bundle.op_names
        assert payload["embedding"] is not None

    def test_stats_endpoint(self, server):
        self._post(server, "/predict", {"node_ids": [0]})
        status, payload = self._get(server, "/stats")
        assert status == 200
        assert payload["queries"] >= 1

    def test_onboard_engine_failure_is_500(self, server, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("backbone forward failed")

        monkeypatch.setattr(server.engine.model, "encode", broken)
        status, payload = self._post(server, "/onboard", {
            "node_type": "actor",
            "edges": {"movie:stars:actor": [0]},
        })
        assert status == 500
        assert "forward failed" in payload["error"]

    def test_bad_request_is_400(self, server):
        status, payload = self._post(server, "/predict", {})
        assert status == 400
        assert "node_ids" in payload["error"]
        status, _ = self._post(server, "/onboard", {})
        assert status == 400

    def test_unknown_path_is_404(self, server):
        status, _ = self._post(server, "/train", {})
        assert status == 404
        try:
            with urllib.request.urlopen(server.url + "/nope", timeout=10):
                raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
