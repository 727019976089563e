"""ROMIO-like MPI-IO layer: collective buffering, file domains, hints."""

from .aggregation import (
    FileDomains,
    FlatExchange,
    RegionMap,
    TamExchange,
    node_groups,
    pick_aggregators,
    pick_node_aggregators,
    place_aggregators,
)
from .file import MPIFile
from .hints import Hints, TAM_MODES

__all__ = [
    "FileDomains",
    "FlatExchange",
    "RegionMap",
    "TamExchange",
    "node_groups",
    "pick_aggregators",
    "pick_node_aggregators",
    "place_aggregators",
    "MPIFile",
    "Hints",
    "TAM_MODES",
]
