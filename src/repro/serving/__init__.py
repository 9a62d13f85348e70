"""``repro.serving`` — trained-model artifacts and the online inference layer.

Turns a finished search + retrain run into a servable artifact
(:class:`ModelBundle`, written atomically with per-array checksums —
:class:`BundleIntegrityError` on load means a torn/corrupt file),
answers queries from an :class:`InferenceEngine` whose answer table is
built by one forward at load, onboards brand-new nodes online
(:mod:`repro.serving.onboarding`, crash-safe via the
:class:`OnboardWAL`), and exposes the whole thing over stdlib HTTP
(:class:`ServingServer`: one process, persistent HTTP/1.1 connections,
per-request deadlines, bounded admission and a circuit breaker — see
:mod:`repro.serving.admission` and docs/SCALING.md).  Entry points on
the CLI: ``repro export`` / ``repro serve`` / ``repro predict``.
"""

from .admission import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    ShedError,
    check_deadline,
    deadline_scope,
)
from .artifact import (
    BUNDLE_FORMAT_VERSION,
    BundleIntegrityError,
    DatasetSpec,
    ModelBundle,
    build_bundle,
    bundle_from_result,
    default_label_names,
)
from .engine import InferenceEngine
from .onboarding import OnboardResult, OnboardingManager, parse_relation
from .server import ServerConfig, ServingServer, make_handler
from .wal import OnboardWAL, WalReplayError

__all__ = [
    "AdmissionController",
    "BUNDLE_FORMAT_VERSION",
    "BundleIntegrityError",
    "CircuitBreaker",
    "CircuitOpenError",
    "DatasetSpec",
    "Deadline",
    "DeadlineExceeded",
    "ModelBundle",
    "OnboardWAL",
    "ShedError",
    "WalReplayError",
    "build_bundle",
    "bundle_from_result",
    "check_deadline",
    "deadline_scope",
    "default_label_names",
    "InferenceEngine",
    "OnboardResult",
    "OnboardingManager",
    "parse_relation",
    "ServerConfig",
    "ServingServer",
    "make_handler",
]
