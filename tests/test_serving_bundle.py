"""ModelBundle artifacts: round-trip guarantees and the export pipeline."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import AutoACConfig, run_autoac
from repro.serving import (
    BUNDLE_FORMAT_VERSION,
    DatasetSpec,
    InferenceEngine,
    ModelBundle,
    bundle_from_result,
    default_label_names,
)
from repro.tensor import no_grad
from repro.training import TrainConfig, set_seed

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRoundTrip:
    def test_manifest_fields_survive(self, tiny_bundle):
        loaded = ModelBundle.load(tiny_bundle["path"])
        original = tiny_bundle["bundle"]
        assert loaded.dataset == original.dataset
        assert loaded.model_name == original.model_name
        assert loaded.hidden_dim == original.hidden_dim
        assert loaded.out_dim == original.out_dim
        assert loaded.op_names == original.op_names
        assert loaded.target_type == original.target_type
        assert loaded.num_classes == original.num_classes
        assert loaded.label_names == original.label_names
        assert loaded.metrics == pytest.approx(original.metrics)

    def test_arrays_survive_exactly(self, tiny_bundle):
        loaded = ModelBundle.load(tiny_bundle["path"])
        original = tiny_bundle["bundle"]
        for name in ("assignment", "cluster_labels", "completed"):
            saved, reread = getattr(original, name), getattr(loaded, name)
            assert reread.dtype == saved.dtype
            assert reread.shape == saved.shape
            np.testing.assert_array_equal(reread, saved)

    def test_state_dicts_survive_exactly(self, tiny_bundle):
        loaded = ModelBundle.load(tiny_bundle["path"])
        original = tiny_bundle["bundle"]
        for attribute in ("model_state", "features_state"):
            saved, reread = getattr(original, attribute), getattr(loaded, attribute)
            assert set(saved) == set(reread)
            for key in saved:
                assert reread[key].dtype == saved[key].dtype
                assert reread[key].shape == saved[key].shape
                np.testing.assert_array_equal(reread[key], saved[key])

    def test_format_version_recorded(self, tiny_bundle):
        with np.load(tiny_bundle["path"]) as archive:
            assert int(archive["format_version"][0]) == BUNDLE_FORMAT_VERSION
            manifest = json.loads(bytes(archive["manifest_json"].tobytes()))
        assert manifest["kind"] == "autoac-model-bundle"
        assert manifest["format_version"] == BUNDLE_FORMAT_VERSION

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelBundle.load(tmp_path / "absent.npz")

    def test_wrong_archive_rejected_with_value_error(self, tmp_path):
        path = tmp_path / "not_a_bundle.npz"
        np.savez(path, whatever=np.arange(3))
        with pytest.raises(ValueError, match="missing arrays"):
            ModelBundle.load(path)

    def test_future_format_version_rejected(self, tiny_bundle, tmp_path):
        with np.load(tiny_bundle["path"]) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["format_version"] = np.array([BUNDLE_FORMAT_VERSION + 1])
        path = tmp_path / "future.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format_version"):
            ModelBundle.load(path)

    def test_default_label_names(self):
        assert default_label_names(3) == ["class_0", "class_1", "class_2"]


class TestInstantiate:
    def test_instantiated_modules_match_bundle_weights(self, tiny_bundle):
        loaded = ModelBundle.load(tiny_bundle["path"])
        _, model, features = loaded.instantiate(tiny_bundle["dataset"])
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, loaded.model_state[key])
        for key, value in features.state_dict().items():
            np.testing.assert_array_equal(value, loaded.features_state[key])
        assert not model.training and not features.training


class TestEndToEnd:
    """The acceptance path: search → retrain → export → fresh predict."""

    @pytest.fixture(scope="class")
    def pipeline_bundle_path(self, imdb_tiny, tmp_path_factory):
        set_seed(3)
        config = AutoACConfig(
            search_epochs=4, patience=10, num_clusters=3,
            hidden_dim=32, out_dim=32,
            retrain=TrainConfig(epochs=4, patience=10))
        result = run_autoac(imdb_tiny, "gcn", config, seed=3,
                            keep_artifacts=True)
        bundle = bundle_from_result(result, imdb_tiny,
                                    DatasetSpec("imdb", "tiny", 0), "gcn",
                                    config)
        path = tmp_path_factory.mktemp("e2e") / "pipeline_bundle.npz"
        bundle.save(path)
        model = result.artifacts.model
        features = result.artifacts.features
        model.eval()
        features.eval()
        with no_grad():
            reference = np.argmax(model(features()).data, axis=-1)
        return {"path": path, "reference": reference}

    def test_same_process_engine_matches_exactly(self, pipeline_bundle_path):
        engine = InferenceEngine.from_path(pipeline_bundle_path["path"])
        n_target = engine.dataset.graph.num_nodes_of(engine.bundle.target_type)
        predictions = engine.predict(np.arange(n_target))
        np.testing.assert_array_equal(predictions,
                                      pipeline_bundle_path["reference"])

    def test_fresh_process_engine_matches_exactly(self, pipeline_bundle_path):
        """A brand-new interpreter must reproduce the retrained model."""
        script = (
            "import json, sys, numpy as np\n"
            "from repro.serving import InferenceEngine\n"
            "engine = InferenceEngine.from_path(sys.argv[1])\n"
            "n = engine.dataset.graph.num_nodes_of(engine.bundle.target_type)\n"
            "print(json.dumps(engine.predict(np.arange(n)).tolist()))\n")
        completed = subprocess.run(
            [sys.executable, "-c", script,
             str(pipeline_bundle_path["path"])],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert completed.returncode == 0, completed.stderr
        predictions = np.array(json.loads(completed.stdout.strip()))
        np.testing.assert_array_equal(predictions,
                                      pipeline_bundle_path["reference"])

    def test_bundle_from_result_requires_artifacts(self, imdb_tiny,
                                                   pipeline_bundle_path):
        class Hollow:
            artifacts = None

        with pytest.raises(ValueError, match="keep_artifacts"):
            bundle_from_result(Hollow(), imdb_tiny,
                               DatasetSpec("imdb", "tiny", 0), "gcn",
                               AutoACConfig())

