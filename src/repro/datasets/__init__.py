"""``repro.datasets`` — schema-faithful synthetic HGB-style datasets."""

from .acm import ACM_SPEC
from .base import HeteroDataset, Split, stratified_split
from .dblp import DBLP_SPEC
from .generator import (
    RelationSpec,
    SchemaSpec,
    generate,
    scale_spec,
    search_benchmark_spec,
    sparse_benchmark_spec,
    tune_benchmark_spec,
)
from .imdb import IMDB_SPEC
from .lastfm import LASTFM_SPEC
from .registry import SCALES, SPECS, dataset_names, get_dataset
from .stats import DatasetStats, TypeStat, dataset_statistics, render_table1

__all__ = [
    "HeteroDataset",
    "Split",
    "stratified_split",
    "RelationSpec",
    "SchemaSpec",
    "generate",
    "sparse_benchmark_spec",
    "search_benchmark_spec",
    "tune_benchmark_spec",
    "scale_spec",
    "DBLP_SPEC",
    "ACM_SPEC",
    "IMDB_SPEC",
    "LASTFM_SPEC",
    "get_dataset",
    "dataset_names",
    "SPECS",
    "SCALES",
    "DatasetStats",
    "TypeStat",
    "dataset_statistics",
    "render_table1",
]
