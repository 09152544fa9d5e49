"""Datasets: TIGER-like generators, the paper's tests A–E, file I/O."""

from .datasets import (DEFAULT_SCALE, PAPER_CARDINALITIES, DatasetPair,
                       effective_scale, load_test, scaled_count)
from .io import RectFileError, load_records, save_records
from .synthetic import (DEFAULT_WORLD, clustered_rects, degenerate_points,
                        uniform_rects)
from .tiger import SpatialDataset, regions, rivers_railways, streets

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_WORLD",
    "DatasetPair",
    "PAPER_CARDINALITIES",
    "RectFileError",
    "SpatialDataset",
    "clustered_rects",
    "degenerate_points",
    "effective_scale",
    "load_records",
    "load_test",
    "regions",
    "rivers_railways",
    "save_records",
    "scaled_count",
    "streets",
    "uniform_rects",
]
