"""Read-only analyses over overlay graphs.

These helpers back Fig 7 (the scale-free degree distribution plot), the
connectivity arguments in §IV-A (average degree over ``log10 N`` keeps the
overlay connected) and §IV-D (aggregation degrades when departures disconnect
the overlay), and the test-suite's structural assertions.  They read the
graph's CSR twin (:meth:`~repro.overlay.graph.OverlayGraph.to_array`)
with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .arraygraph import ArrayOverlayGraph
from .graph import OverlayGraph

__all__ = [
    "DegreeStats",
    "degree_stats",
    "degree_histogram",
    "is_connected",
    "largest_component_fraction",
    "powerlaw_exponent",
    "connectivity_margin",
    "connected_component_sizes",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's degree distribution."""

    n: int
    m: int
    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    isolated: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for reporting."""
        return {
            "n": self.n,
            "m": self.m,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "median_degree": self.median_degree,
            "isolated": self.isolated,
        }


def degree_stats(graph: OverlayGraph) -> DegreeStats:
    """Compute :class:`DegreeStats` for ``graph`` (empty graphs allowed)."""
    view = graph.to_array()
    if view.n == 0:
        return DegreeStats(0, 0, 0, 0, 0.0, 0.0, 0)
    degs = view.degrees()
    return DegreeStats(
        n=view.n,
        m=view.m,
        min_degree=int(degs.min()),
        max_degree=int(degs.max()),
        mean_degree=float(degs.mean()),
        median_degree=float(np.median(degs)),
        isolated=int((degs == 0).sum()),
    )


def degree_histogram(graph: OverlayGraph) -> List[Tuple[int, int]]:
    """Return ``(degree, node_count)`` pairs, ascending by degree.

    This is exactly the data behind the paper's Fig 7 log-log plot.
    """
    view = graph.to_array()
    if view.n == 0:
        return []
    degs = view.degrees()
    values, counts = np.unique(degs, return_counts=True)
    return [(int(d), int(c)) for d, c in zip(values, counts)]


def is_connected(graph: OverlayGraph) -> bool:
    """Whether all alive nodes form a single connected component."""
    from ..core.kernels import bfs_frontier_distances  # import cycle guard

    view = graph.to_array()
    if view.n <= 1:
        return True
    return bool((bfs_frontier_distances(view, 0) >= 0).all())


def largest_component_fraction(graph: OverlayGraph) -> float:
    """Fraction of alive nodes inside the largest connected component.

    The paper attributes the Aggregation algorithm's collapse past ≈30%
    departures to exactly this quantity dropping (§IV-D: "loss of
    connectivity of the overlay ... prevents the propagation").
    """
    view = graph.to_array()
    if view.n == 0:
        return 0.0
    return connected_component_sizes(view)[0] / view.n


def connected_component_sizes(view: ArrayOverlayGraph) -> List[int]:
    """Sizes of the connected components of the twin ``view``, descending."""
    n = view.n
    seen = np.zeros(n, dtype=bool)
    sizes: List[int] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        count = 1
        stack = [start]
        while stack:
            u = stack.pop()
            for v in view.neighbors(u):
                v = int(v)
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        sizes.append(count)
    sizes.sort(reverse=True)
    return sizes


def powerlaw_exponent(graph: OverlayGraph, d_min: int = 3) -> float:
    """Maximum-likelihood (Clauset-style, discrete approximation) power-law
    exponent of the degree distribution, restricted to degrees >= ``d_min``.

    Used to confirm that :func:`repro.overlay.builders.scale_free` produces
    the ``P(d) ~ d^-gamma`` shape of Fig 7 (BA theory predicts gamma ≈ 3).
    """
    view = graph.to_array()
    degs = view.degrees()
    degs = degs[degs >= d_min]
    if degs.size < 2:
        raise ValueError("not enough high-degree nodes for a power-law fit")
    # Continuous MLE with the standard -1/2 discreteness correction.
    return 1.0 + degs.size / float(np.sum(np.log(degs / (d_min - 0.5))))


def connectivity_margin(graph: OverlayGraph) -> float:
    """The paper's §IV-A connectivity heuristic: mean degree over log10(N).

    Values comfortably above 1 indicate the random overlay stays connected
    with high probability (the Kaashoek–Karger O(log n) degree lemma the
    paper cites).  Returns ``inf`` for graphs with fewer than 2 nodes.
    """
    n = graph.size
    if n < 2:
        return float("inf")
    return graph.average_degree() / float(np.log10(n))
