"""Overlay-graph substrate: dynamic graphs, builders, analyses, membership."""

from .builders import (
    erdos_renyi,
    heterogeneous_random,
    homogeneous_random,
    ring_lattice,
    scale_free,
)
from .arraygraph import ArrayOverlayGraph
from .graph import GraphError, OverlayGraph
from .membership import JoinReport, MembershipPolicy
from .repair import DegreeRepair, FullRepair, NoRepair, RepairPolicy
from .views import (
    DegreeStats,
    connectivity_margin,
    degree_histogram,
    degree_stats,
    is_connected,
    largest_component_fraction,
    powerlaw_exponent,
)

__all__ = [
    "ArrayOverlayGraph",
    "DegreeStats",
    "GraphError",
    "JoinReport",
    "DegreeRepair",
    "FullRepair",
    "MembershipPolicy",
    "NoRepair",
    "RepairPolicy",
    "OverlayGraph",
    "connectivity_margin",
    "degree_histogram",
    "degree_stats",
    "erdos_renyi",
    "heterogeneous_random",
    "homogeneous_random",
    "is_connected",
    "largest_component_fraction",
    "powerlaw_exponent",
    "ring_lattice",
    "scale_free",
]
