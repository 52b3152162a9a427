"""Tests for the overlay constructors (paper §IV-A topologies)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.overlay.builders import (
    erdos_renyi,
    heterogeneous_random,
    homogeneous_random,
    ring_lattice,
    scale_free,
)
from repro.overlay.graph import GraphError
from repro.overlay.views import (
    connectivity_margin,
    degree_stats,
    is_connected,
    largest_component_fraction,
    powerlaw_exponent,
)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden(builder, *args, **kwargs):
    """(snapshot sha256, end-of-build generator state sha256) of one build;
    a builder that draws nothing (no ``seed``) pins its snapshot alone."""
    if "seed" not in kwargs:
        return _sha(builder(*args, **kwargs).snapshot()), None
    gen = np.random.default_rng(kwargs.pop("seed"))
    graph = builder(*args, rng=gen, **kwargs)
    return _sha(graph.snapshot()), _sha(gen.bit_generator.state)


#: Pinned builder output: the exact overlay *and* the exact generator
#: position each build leaves behind (callers keep drawing from the same
#: stream after the build).
GOLDEN_BUILDS = {
    "het_n1": (heterogeneous_random, (1,), {"seed": 7}),
    "het_n2": (heterogeneous_random, (2,), {"seed": 7}),
    "het_n500": (heterogeneous_random, (500,), {"seed": 7}),
    "het_n20000": (heterogeneous_random, (20_000,), {"seed": 11}),
    "het_clamped": (
        heterogeneous_random, (6,), {"max_degree": 10, "min_degree": 3, "seed": 5}
    ),
    "het_budget_exhausted": (
        heterogeneous_random, (500,), {"max_attempts_factor": 1, "seed": 7}
    ),
    "hom_n500": (homogeneous_random, (500,), {"k": 8, "seed": 0}),
    "hom_budget_exhausted": (homogeneous_random, (300,), {"k": 6, "seed": 1}),
    "hom_clamped": (homogeneous_random, (5,), {"k": 100, "seed": 2}),
    # scale_free's neighbour order is its set of chosen targets' order,
    # which fig8's estimates read: an equal edge set is not enough.
    "ba_n2000": (scale_free, (2_000,), {"m": 3, "seed": 3}),
    "ba_n300_m2": (scale_free, (300,), {"m": 2, "seed": 6}),
    "ba_seed_clique": (scale_free, (500,), {"m": 3, "seed_clique": 6, "seed": 4}),
    "ba_n2": (scale_free, (2,), {"m": 3, "seed": 0}),
    "er_n2000": (erdos_renyi, (2_000,), {"seed": 1}),
    # The target (100 links) exceeds n(n-1)/2 = 45.
    "er_dense_clamped": (erdos_renyi, (10,), {"avg_degree": 20, "seed": 2}),
    "ring_n100_k3": (ring_lattice, (100,), {"k": 3}),
    # Wrap-around repeats the links 5 apart.
    "ring_wraps": (ring_lattice, (10,), {"k": 5}),
}

GOLDEN_DIGESTS = {
    "ba_n2": (
        "2261dddbcd753e0918028cece5fb4f2b66c3b148b7942f267cb497b1e9d8a316",
        "a78e041703e449d431f046ec34026d547900f02e5ffcae3bef259ed50d3c8789",
    ),
    "ba_n2000": (
        "e849e92d02f1150636c4404e5e7eb74f2988477e3d7ac7d2a0e5a1056cc9a223",
        "192988a308072da35a4cbe394df60b4bfe4fa2ba6180239cbd49e1bfb275a59b",
    ),
    "ba_n300_m2": (
        "cf584974e1a8d5d167b175cf3245e7f831732e7747e3b4c4d48097d5b455c9bc",
        "6c6fdc424041e7b47fa963cfb52b8d57d417b6b8346e7f50bff539efd03db8b9",
    ),
    "ba_seed_clique": (
        "4e61e9e1bc2075ce1eec8af65a04a5fb66d43334bf15bbdb0b66dbc9fc8da5fc",
        "251c4d5be652eedd6f017223da303bdf94a471c947464bf6ea5b7ae4f8cab334",
    ),
    "er_dense_clamped": (
        "a48843ce08d50b21345a817387e528e20c23b09f03d9e0f651747d831750a013",
        "4321c4610928d703b778f4e5b708e4e33f1bfb4e24706c53cb69cd229b63592c",
    ),
    "er_n2000": (
        "cf0801eea2545ff60fb77181006c02899db0efb80fb2130f6dd2507c2d354deb",
        "b479bde961706299b7eebf1ec0f10dd92dd52f1656452d915fdef0c2420d4927",
    ),
    "het_budget_exhausted": (
        "3ab0588bd460feddf9d1d2585cbdd44fea8b489047cbf34e5d37321f836538f9",
        "91c3217d71e890e3a8a396dd4d2078bace7e36bb319c1a1e5015e59ec727175c",
    ),
    "het_clamped": (
        "d68737a62ef051bb308f0c7fa3ff75ff7ee8b2936236ad569e70d301b53593fb",
        "b61d0b195b017b86d55edeadec4497b7bd7e6257a92b8253144aada2ea7fb3ae",
    ),
    "het_n1": (
        "0f41d993d10e8a8bdf2574ed34f9d9a464be005cd16d090a66f33b55cfa09c7c",
        "8d2b35934f89cc2b9d6dfe3424f2092874a038cd3c66efb3f843aa1f9008a543",
    ),
    "het_n2": (
        "2261dddbcd753e0918028cece5fb4f2b66c3b148b7942f267cb497b1e9d8a316",
        "c6b4b3ea2f83733ab11900fafd7fdd2e10c17edfae4c188b01f919002b0e51d7",
    ),
    "het_n20000": (
        "bb1f80726a107fcae1a78d00d454d2e9b81c7ae9a8c171972b86506f8b46145c",
        "f59a23291fca2ea8d390e8a04476c720365b2c7f04f77765c710a0f1469da2e9",
    ),
    "het_n500": (
        "945581ebaad312c921109fd66222c364bfb188270325d4c18c5b42077e120f5c",
        "a8830b5f41e086ebd6a26956602b1c3f5aa3b5b96ae8589a374f6731d8b5ac60",
    ),
    "hom_budget_exhausted": (
        "1fe3955d3688e1441d8b460fae951c9ba5308eff6a0686445150e26f773c51f4",
        "e69ab59d04b7e9468e555d9199a83ee21b333968db6ef7cfb47bfb96c2eae955",
    ),
    "hom_clamped": (
        "fe6503eb4911596b845edde21a096a9629b1243c280e87f98d49c884a6dafd7f",
        "59aa9a65c48d8db07b49f873261c36de4a4be5ed9151d86b4b73fecda554ce37",
    ),
    "hom_n500": (
        "c92546aeb7e7aa2202321b0531d8ff3980db6ffd1f2d97b3f640e0f793140047",
        "43e0bbc55a465389979e242296418c2ad8590311ab37f22f150e69ebe43e3d1d",
    ),
    "ring_n100_k3": (
        "b9f525c8d2c0a5184412c12f98edbea201d3825385cfe0bd0065041f886e4b7b",
        None,
    ),
    "ring_wraps": (
        "fbdd7f5812c4f8f4116b9854bb89947458d99b8fec0353392abc149bd041ce30",
        None,
    ),
}


class TestGoldenBuilds:
    @pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
    def test_digest_pinned(self, case):
        builder, args, kwargs = GOLDEN_BUILDS[case]
        assert _golden(builder, *args, **dict(kwargs)) == GOLDEN_DIGESTS[case]

    def test_budget_cases_really_exhaust(self):
        # The small patience must actually cut wiring short, or the case
        # would not pin the budget path at all.
        short = heterogeneous_random(500, max_attempts_factor=1, rng=7)
        full = heterogeneous_random(500, rng=7)
        assert short.num_edges < full.num_edges
        # Two open nodes that are already linked: the end game can only
        # burn its remaining attempts.
        g = homogeneous_random(300, k=6, rng=1)
        short_of_k = [u for u in g if g.degree(u) < 6]
        assert len(short_of_k) == 2
        assert g.has_edge(*short_of_k)

    @pytest.mark.parametrize("bound", [1, 2, 7, 20_000, 10**6, 2**40])
    def test_block_draws_match_scalar_draws(self, bound):
        """The numpy property block-drawing builders rely on: ``k`` scalar
        ``integers(bound)`` calls equal one ``integers(bound, size=k)``,
        generator end state included."""
        scalar = np.random.default_rng(3)
        block = np.random.default_rng(3)
        for k in (1, 5, 1_000):
            one_by_one = [int(scalar.integers(bound)) for _ in range(k)]
            assert block.integers(bound, size=k).tolist() == one_by_one
            assert block.bit_generator.state == scalar.bit_generator.state


class TestHeterogeneousRandom:
    def test_size(self):
        assert heterogeneous_random(300, rng=1).size == 300

    def test_degree_cap_respected(self):
        g = heterogeneous_random(1_000, max_degree=10, rng=2)
        assert degree_stats(g).max_degree <= 10

    def test_paper_average_degree(self):
        # Paper: max 10 neighbours leads to an average of ≈7.2.
        g = heterogeneous_random(5_000, max_degree=10, rng=3)
        assert 6.5 <= degree_stats(g).mean_degree <= 7.9

    def test_degrees_heterogeneous(self):
        g = heterogeneous_random(2_000, max_degree=10, rng=4)
        stats = degree_stats(g)
        assert stats.min_degree < stats.max_degree  # genuinely mixed

    def test_mostly_connected(self):
        g = heterogeneous_random(2_000, max_degree=10, rng=5)
        assert largest_component_fraction(g) > 0.99

    def test_connectivity_margin_above_one(self):
        # §IV-A: average degree over log10(N) ensures connectivity.
        g = heterogeneous_random(2_000, max_degree=10, rng=6)
        assert connectivity_margin(g) > 1.0

    def test_deterministic_given_seed(self):
        a = heterogeneous_random(200, rng=9)
        b = heterogeneous_random(200, rng=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seeds_differ(self):
        a = heterogeneous_random(200, rng=9)
        b = heterogeneous_random(200, rng=10)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_single_node(self):
        g = heterogeneous_random(1, rng=0)
        assert g.size == 1 and g.num_edges == 0

    def test_max_degree_clamped_for_tiny_graphs(self):
        g = heterogeneous_random(3, max_degree=10, rng=0)
        assert degree_stats(g).max_degree <= 2

    def test_invalid_n(self):
        with pytest.raises(GraphError):
            heterogeneous_random(0)

    def test_invalid_degree_bounds(self):
        with pytest.raises(GraphError):
            heterogeneous_random(10, max_degree=2, min_degree=5)
        with pytest.raises(GraphError):
            heterogeneous_random(10, max_degree=2, min_degree=0)

    def test_invariants(self):
        heterogeneous_random(500, rng=1).check_invariants()


class TestHomogeneousRandom:
    def test_degrees_near_k(self):
        g = homogeneous_random(1_000, k=8, rng=1)
        stats = degree_stats(g)
        assert stats.max_degree <= 8
        degs = g.to_array().degrees()
        assert (degs == 8).mean() > 0.95  # near-regular

    def test_connected(self):
        g = homogeneous_random(1_000, k=8, rng=2)
        assert largest_component_fraction(g) > 0.99

    def test_k_clamped(self):
        g = homogeneous_random(4, k=100, rng=0)
        assert degree_stats(g).max_degree <= 3

    def test_invalid_k(self):
        with pytest.raises(GraphError):
            homogeneous_random(10, k=0)

    def test_deterministic(self):
        a = homogeneous_random(100, k=4, rng=5)
        b = homogeneous_random(100, k=4, rng=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_invariants(self):
        homogeneous_random(300, k=6, rng=1).check_invariants()


class TestScaleFree:
    def test_size_and_min_degree(self):
        g = scale_free(2_000, m=3, rng=1)
        assert g.size == 2_000
        assert degree_stats(g).min_degree >= 3  # every arrival brings m links

    def test_hub_emergence(self):
        # Paper Fig 7 at 100k: max degree ~1177 ≈ 1.2% of n; hubs must be
        # orders of magnitude above the mean.
        g = scale_free(3_000, m=3, rng=2)
        stats = degree_stats(g)
        assert stats.max_degree > 10 * stats.mean_degree

    def test_average_degree_about_2m(self):
        g = scale_free(3_000, m=3, rng=3)
        assert 5.0 <= degree_stats(g).mean_degree <= 7.0

    def test_powerlaw_exponent_near_3(self):
        g = scale_free(5_000, m=3, rng=4)
        gamma = powerlaw_exponent(g, d_min=3)
        assert 2.0 < gamma < 4.0  # BA theory: gamma -> 3

    def test_connected(self):
        # growth + attachment yields a single component by construction
        assert is_connected(scale_free(1_000, m=3, rng=5))

    def test_deterministic(self):
        a = scale_free(300, m=2, rng=6)
        b = scale_free(300, m=2, rng=6)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_tiny_graph(self):
        g = scale_free(2, m=3, rng=0)
        assert g.size == 2

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            scale_free(0)
        with pytest.raises(GraphError):
            scale_free(10, m=0)

    def test_invariants(self):
        scale_free(500, m=3, rng=1).check_invariants()


class TestErdosRenyi:
    def test_edge_count_matches_target(self):
        g = erdos_renyi(1_000, avg_degree=8.0, rng=1)
        assert g.num_edges == pytest.approx(4_000, rel=0.01)

    def test_zero_degree(self):
        g = erdos_renyi(100, avg_degree=0.0, rng=1)
        assert g.num_edges == 0

    def test_dense_request_clamped(self):
        g = erdos_renyi(10, avg_degree=100.0, rng=1)
        assert g.num_edges <= 45  # complete graph bound

    def test_invalid(self):
        with pytest.raises(GraphError):
            erdos_renyi(0)
        with pytest.raises(GraphError):
            erdos_renyi(10, avg_degree=-1)

    def test_invariants(self):
        erdos_renyi(300, avg_degree=6, rng=2).check_invariants()


class TestRingLattice:
    def test_exact_degrees(self):
        g = ring_lattice(20, k=2)
        assert all(g.degree(u) == 4 for u in g.nodes())

    def test_connected(self):
        assert is_connected(ring_lattice(50, k=1))

    def test_deterministic_structure(self):
        g = ring_lattice(6, k=1)
        assert sorted(g.edges()) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_small_ring_no_duplicate_edges(self):
        g = ring_lattice(3, k=2)  # k wraps all the way round
        g.check_invariants()
        assert g.num_edges == 3

    def test_invalid(self):
        with pytest.raises(GraphError):
            ring_lattice(0)
        with pytest.raises(GraphError):
            ring_lattice(5, k=0)
