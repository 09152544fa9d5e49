"""The spatial-database facade: named relations, joins, persistence,
and crash-safe durability (WAL + checkpoints + recovery)."""

from .checkpoint import format_geometry, parse_geometry
from .database import SpatialDatabase
from .durability import DurabilityManager
from .recovery import (RecoveredState, RecoveryError, RecoveryInfo,
                       apply_record, recover)
from .relation import SpatialRelation
from .table import GeometryTable

__all__ = [
    "DurabilityManager",
    "GeometryTable",
    "RecoveredState",
    "RecoveryError",
    "RecoveryInfo",
    "SpatialDatabase",
    "SpatialRelation",
    "apply_record",
    "format_geometry",
    "parse_geometry",
    "recover",
]
