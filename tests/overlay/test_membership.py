"""Tests for membership dynamics (joins wire in, leaves sever without repair)."""

from __future__ import annotations

import pytest

from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import GraphError, OverlayGraph
from repro.overlay.membership import MembershipPolicy


@pytest.fixture
def policy_graph():
    g = heterogeneous_random(400, rng=3)
    return g, MembershipPolicy(g, rng=4)


class TestJoin:
    def test_join_grows_size(self, policy_graph):
        g, policy = policy_graph
        report = policy.join(25)
        assert g.size == 425
        assert len(report.node_ids) == 25

    def test_joiners_are_wired(self, policy_graph):
        g, policy = policy_graph
        report = policy.join(30)
        wired = sum(1 for u in report.node_ids if g.degree(u) >= 1)
        assert wired == 30  # a 400-node overlay always has capacity

    def test_join_respects_max_degree(self, policy_graph):
        g, policy = policy_graph
        policy.join(100)
        assert max(g.degree(u) for u in g.nodes()) <= 10

    def test_join_degree_in_policy_range(self, policy_graph):
        g, policy = policy_graph
        report = policy.join(50)
        for u in report.node_ids:
            assert g.degree(u) <= 10

    def test_join_empty_overlay(self):
        g = OverlayGraph()
        policy = MembershipPolicy(g, rng=1)
        report = policy.join(3)
        assert g.size == 3
        # First joiner had nobody to link to; later ones could link to
        # earlier joiners.
        assert g.degree(report.node_ids[0]) <= 2

    def test_join_zero(self, policy_graph):
        g, policy = policy_graph
        before = g.size
        assert policy.join(0).node_ids == []
        assert g.size == before

    def test_join_negative_rejected(self, policy_graph):
        _, policy = policy_graph
        with pytest.raises(GraphError):
            policy.join(-1)

    def test_invariants_after_mass_join(self, policy_graph):
        g, policy = policy_graph
        policy.join(200)
        g.check_invariants()

    def test_join_links_counted(self, policy_graph):
        g, policy = policy_graph
        m_before = g.num_edges
        report = policy.join(20)
        assert g.num_edges - m_before == report.links_created


class TestLeave:
    def test_leave_shrinks_size(self, policy_graph):
        g, policy = policy_graph
        removed = policy.leave(50)
        assert g.size == 350
        assert len(removed) == 50
        assert all(u not in g for u in removed)

    def test_leave_no_repair(self):
        # A star graph: removing the hub must leave all leaves isolated.
        g = OverlayGraph(nodes=range(5), edges=[(0, i) for i in range(1, 5)])
        g.remove_node(0)
        assert all(g.degree(u) == 0 for u in g.nodes())

    def test_leave_all(self, policy_graph):
        g, policy = policy_graph
        policy.leave(g.size)
        assert g.size == 0

    def test_leave_too_many_rejected(self, policy_graph):
        g, policy = policy_graph
        with pytest.raises(GraphError):
            policy.leave(g.size + 1)

    def test_leave_negative_rejected(self, policy_graph):
        _, policy = policy_graph
        with pytest.raises(GraphError):
            policy.leave(-2)

    def test_invariants_after_mass_leave(self, policy_graph):
        g, policy = policy_graph
        policy.leave(300)
        g.check_invariants()


class TestPolicyValidation:
    def test_bad_degree_bounds(self):
        g = OverlayGraph()
        with pytest.raises(GraphError):
            MembershipPolicy(g, max_degree=2, min_degree=5)
        with pytest.raises(GraphError):
            MembershipPolicy(g, max_degree=5, min_degree=0)

    def test_determinism(self):
        g1 = heterogeneous_random(200, rng=5)
        g2 = heterogeneous_random(200, rng=5)
        r1 = MembershipPolicy(g1, rng=6).leave(20)
        r2 = MembershipPolicy(g2, rng=6).leave(20)
        assert r1 == r2
