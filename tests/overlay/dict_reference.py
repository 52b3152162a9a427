"""Dict-based reference loops for batch joins and repair rounds.

These are the join and repair loops as they ran on the adjacency dict,
one ``add_node`` / ``degree`` / ``try_add_edge`` call per step.  The
overlay code now runs them over the CSR twin and splices each batch in
at once; the op-sequence tests hold the two to the same draws, links,
arrays and generator end state.  Every function works on a graph whose
dict it builds and mutates, and on a generator it draws from in place.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.overlay.graph import OverlayGraph


def join(
    graph: OverlayGraph,
    count: int,
    gen: np.random.Generator,
    min_degree: int = 1,
    max_degree: int = 10,
) -> Tuple[List[int], int]:
    """``MembershipPolicy.join`` on the dict: ``(node ids, links created)``."""
    created: List[int] = []
    links = 0
    candidates: List[int] = graph.nodes()
    for _ in range(count):
        u = graph.add_node()
        created.append(u)
        pool = len(candidates)
        if pool:
            want = int(gen.integers(min_degree, max_degree + 1))
            want = min(want, pool)
            attempts = 0
            budget = 20 * max(want, 1)
            got = 0
            while got < want and attempts < budget:
                attempts += 1
                v = candidates[int(gen.integers(pool))]
                if graph.degree(v) >= max_degree:
                    continue
                if graph.try_add_edge(u, v):
                    got += 1
                    links += 1
        candidates.append(u)
    return created, links


def _link_to_random_peers(
    graph: OverlayGraph,
    gen: np.random.Generator,
    node: int,
    want: int,
    candidates: List[int],
) -> int:
    formed = 0
    attempts = 0
    pool = len(candidates)
    budget = 20 * max(want, 1)
    while formed < want and attempts < budget and pool > 1:
        attempts += 1
        v = candidates[int(gen.integers(pool))]
        if v == node or v not in graph:
            continue
        if graph.try_add_edge(node, v):
            formed += 1
    return formed


def degree_repair_round(
    graph: OverlayGraph,
    gen: np.random.Generator,
    min_degree: int = 3,
    target_degree: int = 5,
    max_links_per_round: int = 200,
) -> int:
    """``DegreeRepair.repair_round`` on the dict: the links formed."""
    if graph.size < 2:
        return 0
    candidates = graph.nodes()
    needy = [u for u in candidates if graph.degree(u) < min_degree]
    if not needy:
        return 0
    order = gen.permutation(len(needy))
    formed = 0
    for i in order:
        if formed >= max_links_per_round:
            break
        u = needy[int(i)]
        want = min(target_degree - graph.degree(u), max_links_per_round - formed)
        if want > 0:
            formed += _link_to_random_peers(graph, gen, u, want, candidates)
    return formed


def full_repair_round(
    graph: OverlayGraph, gen: np.random.Generator, target_degree: int = 7
) -> int:
    """``FullRepair.repair_round`` on the dict: the links formed."""
    if graph.size < 2:
        return 0
    candidates = graph.nodes()
    formed = 0
    for u in candidates:
        deficit = target_degree - graph.degree(u)
        if deficit > 0:
            formed += _link_to_random_peers(graph, gen, u, deficit, candidates)
    return formed
