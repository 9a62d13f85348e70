"""Trained-model artifacts: the versioned :class:`ModelBundle`.

A finished AutoAC run produces three expensive things — the searched
completion assignment, the completed V⁻ attributes, and the retrained
backbone weights.  ``ModelBundle`` freezes all of them (plus the dataset
spec and label map needed to reconstruct the serving context) into one
``.npz`` archive with an embedded JSON manifest, built on the same
primitives as :mod:`repro.core.serialize` and carrying the same
``format_version`` discipline.  Loading a bundle in a fresh process and
instantiating it reproduces the in-process retrained model *exactly* —
the round-trip guarantee the serving engine relies on.

Durability (docs/ROBUSTNESS.md): :meth:`ModelBundle.save` writes through
:func:`repro.io.atomic_write_bytes` — tmp + fsync + rename — so a crash
mid-save can never tear the artifact at its published path, and the
archive carries a per-array SHA-256 checksum table.  :meth:`ModelBundle.
load` verifies every checksum and raises :class:`BundleIntegrityError`
on any mismatch, truncation, or unreadable archive: a torn or bit-rotted
bundle is *rejected*, never trusted.  Pre-checksum bundles still load
(nothing to verify) so existing artifacts stay servable.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..completion import FixedAssignmentFeatures, SearchSpace
from ..core.serialize import (
    FORMAT_VERSION,
    PathLike,
    escape_state_key,
    pack_json,
    require_arrays,
    unescape_state_key,
    unpack_json,
)
from ..datasets import HeteroDataset, get_dataset
from ..io import atomic_writer, sha256_hex
from ..models import build_model
from ..tensor import no_grad

#: on-disk layout version of bundle archives (independent of the
#: search-result/state-dict version so the two formats can evolve apart)
BUNDLE_FORMAT_VERSION = FORMAT_VERSION

_MODEL_PREFIX = "model__state__"
_FEATURES_PREFIX = "features__state__"

#: archive entry holding the checksum table; excluded from its own table
_CHECKSUMS_KEY = "checksums_json"


class BundleIntegrityError(ValueError):
    """A bundle failed load-time verification (torn, truncated, corrupt)."""


def _array_digest(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes (catches silent reshapes)."""
    contiguous = np.ascontiguousarray(array)
    header = f"{contiguous.dtype.str}|{contiguous.shape}|".encode()
    return sha256_hex(header + contiguous.tobytes())


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate the dataset deterministically."""

    name: str
    scale: str
    seed: int

    def build(self) -> HeteroDataset:
        """Regenerate the dataset (identical arrays for identical specs)."""
        return get_dataset(self.name, scale=self.scale, seed=self.seed)


@dataclass
class ModelBundle:
    """A servable snapshot of one search + retrain run.

    Arrays keep their exact dtypes and values through save/load; the
    manifest keeps everything JSON-able.  ``completed`` holds the
    synthesized V⁻ attributes (rows follow ``dataset.missing_global_ids``)
    — the reusable output that downstream work (VGAE-for-HIN, active
    sampling) consumes without re-running the pipeline.
    """

    dataset: DatasetSpec
    model_name: str
    hidden_dim: int
    out_dim: int
    model_kwargs: Dict
    op_names: List[str]
    target_type: str
    num_classes: int
    label_names: List[str]
    assignment: np.ndarray          # op index per V⁻ node
    cluster_labels: np.ndarray      # cluster id per V⁻ node
    completed: np.ndarray           # (num_missing, hidden) completed attrs
    model_state: Dict[str, np.ndarray]
    features_state: Dict[str, np.ndarray]
    metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def manifest(self) -> Dict:
        """The JSON-able header embedded in the archive."""
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "kind": "autoac-model-bundle",
            "dataset": {"name": self.dataset.name, "scale": self.dataset.scale,
                        "seed": self.dataset.seed},
            "model": {"name": self.model_name, "hidden_dim": self.hidden_dim,
                      "out_dim": self.out_dim, "kwargs": self.model_kwargs},
            "op_names": self.op_names,
            "target_type": self.target_type,
            "num_classes": self.num_classes,
            "label_names": self.label_names,
            "metrics": self.metrics,
            "meta": self.meta,
        }

    def save(self, path: PathLike) -> Path:
        """Atomically write the bundle to ``path`` (``.npz``).

        The archive is assembled in memory, checksummed per array, and
        committed with tmp + fsync + rename — the published path always
        holds either the previous complete bundle or this one.
        """
        path = Path(path)
        arrays = {
            "format_version": np.array([BUNDLE_FORMAT_VERSION],
                                       dtype=np.int64),
            "manifest_json": pack_json(self.manifest()),
            "assignment": np.asarray(self.assignment, dtype=np.int64),
            "cluster_labels": np.asarray(self.cluster_labels, dtype=np.int64),
            "completed": np.asarray(self.completed),
        }
        for key, value in self.model_state.items():
            arrays[_MODEL_PREFIX + escape_state_key(key)] = value
        for key, value in self.features_state.items():
            arrays[_FEATURES_PREFIX + escape_state_key(key)] = value
        checksums = {key: _array_digest(np.asarray(value))
                     for key, value in arrays.items()}
        arrays[_CHECKSUMS_KEY] = pack_json({"algo": "sha256",
                                            "arrays": checksums})
        with atomic_writer(path, fault_key=path.name) as buffer:
            np.savez_compressed(buffer, **arrays)
        return path

    @staticmethod
    def _verify(archive, path: Path) -> None:
        """Check every recorded checksum; absent table → legacy, skip."""
        if _CHECKSUMS_KEY not in archive.files:
            return
        table = unpack_json(archive[_CHECKSUMS_KEY])
        recorded: Dict[str, str] = dict(table.get("arrays") or {})
        missing = sorted(set(recorded) - set(archive.files))
        if missing:
            raise BundleIntegrityError(
                f"{path} is torn: checksummed arrays {missing} are absent "
                f"from the archive")
        for key, expected in sorted(recorded.items()):
            actual = _array_digest(np.asarray(archive[key]))
            if actual != expected:
                raise BundleIntegrityError(
                    f"{path} is corrupt: array {key!r} sha256 mismatch "
                    f"(recorded {expected[:12]}…, found {actual[:12]}…); "
                    f"refusing to serve a torn artifact")

    @classmethod
    def load(cls, path: PathLike) -> "ModelBundle":
        """Read a bundle back into memory, verifying integrity.

        Raises :class:`BundleIntegrityError` for unreadable/torn/corrupt
        archives and plain ``ValueError`` for well-formed archives of the
        wrong kind.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(path)
        try:
            archive_ctx = np.load(path)
        except (zipfile.BadZipFile, OSError, ValueError) as error:
            raise BundleIntegrityError(
                f"{path} is not a readable bundle archive "
                f"(truncated or corrupt?): {error}") from error
        with archive_ctx as archive:
            try:
                # verify checksums BEFORE structural checks: a corrupt
                # archive should report as torn, not merely malformed
                cls._verify(archive, path)
                require_arrays(
                    archive,
                    ["manifest_json", "assignment", "cluster_labels",
                     "completed"],
                    path, kind="model-bundle")
                manifest = unpack_json(archive["manifest_json"])
            except BundleIntegrityError:
                raise
            except (zipfile.BadZipFile, zlib.error, OSError, KeyError,
                    UnicodeDecodeError, json.JSONDecodeError) as error:
                # individual members unreadable → torn mid-archive
                raise BundleIntegrityError(
                    f"{path} has unreadable archive members "
                    f"(truncated or corrupt?): {error}") from error
            if manifest.get("kind") != "autoac-model-bundle":
                raise ValueError(f"{path} is not a model bundle "
                                 f"(kind={manifest.get('kind')!r})")
            model_state, features_state = {}, {}
            for key in archive.files:
                if key.startswith(_MODEL_PREFIX):
                    model_state[unescape_state_key(
                        key[len(_MODEL_PREFIX):])] = archive[key].copy()
                elif key.startswith(_FEATURES_PREFIX):
                    features_state[unescape_state_key(
                        key[len(_FEATURES_PREFIX):])] = archive[key].copy()
            spec = manifest["dataset"]
            model = manifest["model"]
            return cls(
                dataset=DatasetSpec(name=spec["name"], scale=spec["scale"],
                                    seed=int(spec["seed"])),
                model_name=model["name"],
                hidden_dim=int(model["hidden_dim"]),
                out_dim=int(model["out_dim"]),
                model_kwargs=dict(model.get("kwargs") or {}),
                op_names=list(manifest["op_names"]),
                target_type=manifest["target_type"],
                num_classes=int(manifest["num_classes"]),
                label_names=list(manifest["label_names"]),
                assignment=archive["assignment"].copy(),
                cluster_labels=archive["cluster_labels"].copy(),
                completed=archive["completed"].copy(),
                model_state=model_state,
                features_state=features_state,
                metrics=dict(manifest.get("metrics") or {}),
                meta=dict(manifest.get("meta") or {}),
            )

    # ------------------------------------------------------------------
    def space(self) -> SearchSpace:
        return SearchSpace(self.op_names)

    def instantiate(self, dataset: Optional[HeteroDataset] = None) -> Tuple:
        """Rebuild ``(dataset, model, features)`` with the saved weights.

        The returned modules are in eval mode and bit-identical to the
        modules that produced the bundle.  ``dataset`` may be supplied to
        skip regeneration (it must match the bundle's spec).
        """
        dataset = dataset if dataset is not None else self.dataset.build()
        features = FixedAssignmentFeatures(dataset, self.hidden_dim,
                                           self.assignment, space=self.space())
        features.load_state_dict(self.features_state)
        model = build_model(self.model_name, dataset,
                            hidden_dim=self.hidden_dim, out_dim=self.out_dim,
                            **self.model_kwargs)
        model.load_state_dict(self.model_state)
        model.eval()
        features.eval()
        return dataset, model, features


def default_label_names(num_classes: int) -> List[str]:
    """Synthetic datasets have integer classes; name them deterministically."""
    return [f"class_{index}" for index in range(num_classes)]


def build_bundle(dataset: HeteroDataset, dataset_spec: DatasetSpec,
                 model_name: str, model, features: FixedAssignmentFeatures,
                 hidden_dim: int, out_dim: int,
                 model_kwargs: Optional[Mapping] = None,
                 cluster_labels: Optional[np.ndarray] = None,
                 label_names: Optional[List[str]] = None,
                 metrics: Optional[Mapping[str, float]] = None,
                 meta: Optional[Mapping] = None) -> ModelBundle:
    """Assemble a :class:`ModelBundle` from trained modules.

    The completed attributes are materialized here (one forward through
    the frozen feature builder, no gradients) so consumers of the bundle
    never need the completion ops at all.
    """
    model.eval()
    features.eval()
    with no_grad():
        completed_tensor = features.completed()
    if completed_tensor is None:
        completed = np.zeros((0, hidden_dim))
    else:
        completed = np.asarray(completed_tensor.data).copy()
    assignment = np.asarray(features.assignment, dtype=np.int64)
    if cluster_labels is None:
        cluster_labels = np.zeros_like(assignment)
    return ModelBundle(
        dataset=dataset_spec,
        model_name=model_name,
        hidden_dim=hidden_dim,
        out_dim=out_dim,
        model_kwargs=dict(model_kwargs or {}),
        op_names=list(features.space),
        target_type=dataset.target_type,
        num_classes=dataset.num_classes,
        label_names=list(label_names
                         or default_label_names(dataset.num_classes)),
        assignment=assignment,
        cluster_labels=np.asarray(cluster_labels, dtype=np.int64),
        completed=completed,
        model_state=model.state_dict(),
        features_state=features.state_dict(),
        metrics=dict(metrics or {}),
        meta=dict(meta or {}),
    )


def bundle_from_result(result, dataset: HeteroDataset,
                       dataset_spec: DatasetSpec, model_name: str,
                       config) -> ModelBundle:
    """Bundle a ``run_autoac(..., keep_artifacts=True)`` result.

    ``config`` is the :class:`~repro.core.AutoACConfig` the run used (the
    manifest needs its dimensions and model kwargs).
    """
    if result.artifacts is None:
        raise ValueError(
            "result has no retrain artifacts; run the pipeline with "
            "keep_artifacts=True to export a bundle")
    search = result.search
    return build_bundle(
        dataset, dataset_spec, model_name,
        result.artifacts.model, result.artifacts.features,
        hidden_dim=config.hidden_dim, out_dim=config.out_dim,
        model_kwargs=config.model_kwargs,
        cluster_labels=search.cluster_labels,
        metrics={"macro_f1": result.final.macro_f1,
                 "micro_f1": result.final.micro_f1,
                 "val_macro_f1": result.final.val_macro_f1,
                 "best_val_score": search.best_val_score},
        meta={"search_seconds": search.search_seconds,
              "retrain_seconds": result.final.train_seconds,
              "search_epochs": search.epochs_run,
              "retrain_epochs": result.final.epochs_run},
    )


__all__ = ["BUNDLE_FORMAT_VERSION", "BundleIntegrityError", "DatasetSpec",
           "ModelBundle", "build_bundle", "bundle_from_result",
           "default_label_names"]
