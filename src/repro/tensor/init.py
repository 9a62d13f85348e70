"""Weight initialization schemes (Glorot/Xavier uniform, basics)."""

from __future__ import annotations

import math

import numpy as np

from .dtype import get_default_dtype
from .random import get_rng


def _fan_in_out(shape) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer needs at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def _cast(values: np.ndarray) -> np.ndarray:
    """Cast RNG draws (always float64) to the engine default dtype."""
    return values.astype(get_default_dtype(), copy=False)


def zeros(shape) -> np.ndarray:
    """All-zeros array of ``shape`` in the engine default dtype."""
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape) -> np.ndarray:
    """All-ones array of ``shape``."""
    return np.ones(shape, dtype=get_default_dtype())


def uniform(shape, low: float = -0.1, high: float = 0.1) -> np.ndarray:
    """Uniform samples in ``[low, high)`` from the engine RNG."""
    return _cast(get_rng().uniform(low, high, size=shape))


def normal(shape, mean: float = 0.0, std: float = 0.01) -> np.ndarray:
    """Gaussian samples ``N(mean, std²)`` from the engine RNG."""
    return _cast(get_rng().normal(mean, std, size=shape))


def xavier_uniform(shape, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: ``U(±gain·sqrt(6/(fan_in+fan_out)))``."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return _cast(get_rng().uniform(-bound, bound, size=shape))


__all__ = [
    "zeros",
    "ones",
    "uniform",
    "normal",
    "xavier_uniform",
]
