"""Tests for churn traces and scenario factories."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.models import (
    ChurnEvent,
    ChurnTrace,
    _spread_counts,
    catastrophic_trace,
    growing_trace,
    shrinking_trace,
    steady_churn_trace,
)


class TestChurnEvent:
    def test_absolute_resolution(self):
        ev = ChurnEvent(time=1.0, joins=10, leaves=5)
        assert ev.resolve(100) == (10, 5)

    def test_fractional_resolution(self):
        ev = ChurnEvent(time=1.0, frac_leaves=0.25)
        assert ev.resolve(100) == (0, 25)

    def test_fractional_joins(self):
        ev = ChurnEvent(time=1.0, frac_joins=0.5)
        assert ev.resolve(200) == (100, 0)

    def test_leaves_capped_at_population(self):
        ev = ChurnEvent(time=1.0, leaves=50)
        assert ev.resolve(30) == (0, 30)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=0, joins=-1)

    def test_mixed_absolute_and_fraction_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=0, joins=1, frac_joins=0.5)
        with pytest.raises(ValueError):
            ChurnEvent(time=0, leaves=1, frac_leaves=0.5)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=0, frac_leaves=1.5)

    @pytest.mark.parametrize(
        "fields",
        [
            {"time": float("nan")},
            {"time": float("inf")},
            {"time": 0.0, "frac_joins": float("inf")},
            {"time": 0.0, "frac_joins": float("nan")},
        ],
    )
    def test_non_finite_time_or_fraction_rejected(self, fields):
        with pytest.raises(ValueError):
            ChurnEvent(**fields)

    def test_an_overflowing_fraction_names_the_event(self):
        """A finite frac_joins whose count is not finite raised
        OverflowError at the replay step that resolved it."""
        with pytest.raises(ValueError, match=r"ChurnEvent\(time=0.0.*frac_joins=1e\+308"):
            ChurnEvent(time=0.0, frac_joins=1e308).resolve(300)


class TestChurnTrace:
    def test_sorted_by_time(self):
        t = ChurnTrace([ChurnEvent(time=5, joins=1), ChurnEvent(time=1, joins=2)])
        assert [e.time for e in t] == [1, 5]

    def test_due_pops_incrementally(self):
        t = ChurnTrace([ChurnEvent(time=i, joins=1) for i in (1, 2, 3)])
        assert len(t.due(1.5)) == 1
        assert len(t.due(3.0)) == 2
        assert len(t.due(99)) == 0
        assert t.remaining == 0

    def test_reset(self):
        t = ChurnTrace([ChurnEvent(time=1, joins=1)])
        t.due(5)
        t.reset()
        assert t.remaining == 1

    def test_horizon(self):
        t = ChurnTrace([ChurnEvent(time=4, joins=1), ChurnEvent(time=9, joins=1)])
        assert t.horizon == 9
        assert ChurnTrace().horizon == 0.0

    def test_net_change_sequential_fractions(self):
        # two -25% events: 100 -> 75 -> 56 (not 50)
        t = ChurnTrace([
            ChurnEvent(time=1, frac_leaves=0.25),
            ChurnEvent(time=2, frac_leaves=0.25),
        ])
        assert t.net_change(100) == 56


class TestSpreadCounts:
    def test_exact_sum(self):
        assert sum(_spread_counts(10, 3)) == 10

    def test_near_equal(self):
        counts = _spread_counts(10, 3)
        assert max(counts) - min(counts) <= 1

    @given(st.integers(0, 10_000), st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_property_sum_and_balance(self, total, steps):
        counts = _spread_counts(total, steps)
        assert sum(counts) == total
        assert len(counts) == steps
        assert max(counts) - min(counts) <= 1


class TestScenarioFactories:
    def test_catastrophic_default_schedule(self):
        t = catastrophic_trace()
        times = [e.time for e in t]
        assert times == [100.0, 500.0, 700.0]
        # 100k: -25%, -25%, +25000 => 56250 + 25000
        assert t.net_change(100_000) == 81_250

    def test_catastrophic_without_rejoin(self):
        t = catastrophic_trace(rejoin_time=None)
        assert len(t) == 2
        assert t.net_change(100_000) == 56_250

    def test_growing_total(self):
        t = growing_trace(10_000, 0.5, start=1, end=100, steps=99)
        assert t.net_change(10_000) == 15_000

    def test_growing_times_in_range(self):
        t = growing_trace(1_000, 0.5, start=5, end=50, steps=10)
        assert all(5 <= e.time <= 50 for e in t)

    def test_shrinking_total(self):
        t = shrinking_trace(10_000, 0.5, start=1, end=100, steps=99)
        assert t.net_change(10_000) == 5_000

    def test_steady_is_size_neutral(self):
        t = steady_churn_trace(rate_per_step=7, steps=20)
        assert t.net_change(1_000) == 1_000
        assert len(t) == 20

    def test_single_step_traces(self):
        assert growing_trace(100, 0.5, steps=1).net_change(100) == 150
        assert shrinking_trace(100, 0.5, steps=1).net_change(100) == 50

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            growing_trace(0, 0.5)
        with pytest.raises(ValueError):
            growing_trace(10, -0.1)
        with pytest.raises(ValueError):
            shrinking_trace(10, 1.5)
        with pytest.raises(ValueError):
            shrinking_trace(10, 0.5, steps=0)
        with pytest.raises(ValueError):
            steady_churn_trace(-1)

    @given(
        st.integers(100, 50_000),
        st.floats(0.0, 1.0),
        st.integers(1, 150),
    )
    @settings(max_examples=150, deadline=None)
    def test_shrink_then_grow_bounds(self, n, frac, steps):
        shrink = shrinking_trace(n, frac, steps=steps)
        assert shrink.net_change(n) == n - int(round(n * frac))
        grow = growing_trace(n, frac, steps=steps)
        assert grow.net_change(n) == n + int(round(n * frac))
