"""Dataset registry with scale presets and a per-process cache.

``scale`` controls the node-count multiplier against the paper's HGB sizes:
``tiny`` for unit tests (seconds), ``small`` for the benchmark suite
(minutes on CPU), ``paper`` for a full-size run.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .acm import ACM_SPEC
from .base import HeteroDataset
from .dblp import DBLP_SPEC
from .generator import SchemaSpec, generate
from .imdb import IMDB_SPEC
from .lastfm import LASTFM_SPEC

SPECS: Dict[str, SchemaSpec] = {
    "dblp": DBLP_SPEC,
    "acm": ACM_SPEC,
    "imdb": IMDB_SPEC,
    "lastfm": LASTFM_SPEC,
}

SCALES: Dict[str, float] = {
    "tiny": 0.03,
    "small": 0.10,
    "medium": 0.25,
    "paper": 1.0,
}

_CACHE: Dict[Tuple[str, str, int], HeteroDataset] = {}


def dataset_names() -> list:
    return sorted(SPECS)


def get_dataset(name: str, scale: str = "small", seed: int = 0,
                use_cache: bool = True) -> HeteroDataset:
    """Build (or fetch from cache) a synthetic dataset by name.

    Parameters
    ----------
    name:
        One of ``dblp``, ``acm``, ``imdb``, ``lastfm``.
    scale:
        Node-count multiplier preset, see :data:`SCALES`.
    seed:
        Seed for the generator; fixed seeds give identical datasets.
    """
    key = name.lower()
    if key not in SPECS:
        raise KeyError(f"unknown dataset {name!r}; choose from {dataset_names()}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    cache_key = (key, scale, seed)
    if use_cache and cache_key in _CACHE:
        return _CACHE[cache_key]
    spec = SPECS[key].scaled(SCALES[scale])
    dataset = generate(spec, seed=seed)
    if use_cache:
        _CACHE[cache_key] = dataset
    return dataset


__all__ = ["get_dataset", "dataset_names", "SPECS", "SCALES"]
