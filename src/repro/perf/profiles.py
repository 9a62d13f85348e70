"""Named runtime profiles: bundles of engine-wide performance settings.

A profile fixes two independent switches:

* the default float dtype (:mod:`repro.tensor.dtype`),
* the fused kernels (:func:`repro.tensor.functional.set_fused_kernels`).

``reference`` — float64, unfused — reproduces the historical engine
bit-for-bit and stays the process default.  ``fast`` — float32, fused —
is the ≥2× profile used for production-style search runs.  Apply one
with::

    with runtime_profile("fast"):
        result = run_autoac(dataset, "simple_hgn")

or process-wide with :func:`set_runtime_profile`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..tensor import get_default_dtype, set_default_dtype
from ..tensor.functional import fused_kernels_enabled, set_fused_kernels


@dataclass(frozen=True)
class RuntimeProfile:
    """One named bundle of engine performance settings."""

    name: str
    dtype: np.dtype
    fused_kernels: bool

    def describe(self) -> str:
        return (f"{self.name}: dtype={np.dtype(self.dtype).name}, "
                f"fused_kernels={'on' if self.fused_kernels else 'off'}")


_PROFILES: Dict[str, RuntimeProfile] = {
    "reference": RuntimeProfile("reference", np.dtype(np.float64),
                                fused_kernels=False),
    "fast": RuntimeProfile("fast", np.dtype(np.float32),
                           fused_kernels=True),
}

_CURRENT = [_PROFILES["reference"]]


def profile_names() -> List[str]:
    """The registered profile names (``reference`` and ``fast``)."""
    return list(_PROFILES)


def get_profile(name: str) -> RuntimeProfile:
    """Look up a profile by name."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown runtime profile {name!r}; "
                       f"expected one of {profile_names()}") from None


def current_profile() -> RuntimeProfile:
    """The profile currently applied to the engine."""
    return _CURRENT[0]


def set_runtime_profile(name: str) -> RuntimeProfile:
    """Apply a profile process-wide; returns the previously active one.

    Only affects tensors/modules created *after* the switch — existing
    float64 parameters are not converted.
    """
    profile = get_profile(name)
    previous = _CURRENT[0]
    set_default_dtype(profile.dtype)
    set_fused_kernels(profile.fused_kernels)
    _CURRENT[0] = profile
    return previous


@contextlib.contextmanager
def runtime_profile(name: str) -> Iterator[RuntimeProfile]:
    """Scoped profile switch; on exit the *actual* prior engine state is
    restored — including dtype/fused settings that were set manually
    outside any named profile — not merely the previous profile's
    defaults.

    Build the dataset, model and searcher *inside* the block so every
    array is allocated in the profile's dtype.
    """
    previous_profile = _CURRENT[0]
    previous_dtype = get_default_dtype()
    previous_fused = fused_kernels_enabled()
    set_runtime_profile(name)
    try:
        yield _CURRENT[0]
    finally:
        set_default_dtype(previous_dtype)
        set_fused_kernels(previous_fused)
        _CURRENT[0] = previous_profile


__all__ = ["RuntimeProfile", "profile_names", "get_profile",
           "current_profile", "set_runtime_profile", "runtime_profile"]
