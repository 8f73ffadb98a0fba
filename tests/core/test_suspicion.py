"""Tests for LHA-Suspicion's decaying timeout (paper Section IV-B)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.suspicion import (
    Suspicion,
    suspicion_bounds,
    suspicion_timeout,
)


class TestSuspicionBounds:
    def test_paper_formula_at_128(self):
        """Min = alpha * log10(n) * probe_interval; Max = beta * Min."""
        minimum, maximum = suspicion_bounds(5.0, 6.0, 128, 1.0)
        assert minimum == pytest.approx(5.0 * math.log10(128))
        assert maximum == pytest.approx(6.0 * minimum)

    def test_swim_baseline_beta_one(self):
        minimum, maximum = suspicion_bounds(5.0, 1.0, 128, 1.0)
        assert maximum == minimum

    def test_small_cluster_guard(self):
        """log10(n) is clamped at 1 so tiny groups keep usable timeouts."""
        minimum, _ = suspicion_bounds(5.0, 6.0, 3, 1.0)
        assert minimum == pytest.approx(5.0)

    def test_scales_with_probe_interval(self):
        min_a, _ = suspicion_bounds(5.0, 6.0, 100, 1.0)
        min_b, _ = suspicion_bounds(5.0, 6.0, 100, 2.0)
        assert min_b == pytest.approx(2 * min_a)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            suspicion_bounds(5.0, 6.0, 0, 1.0)

    @given(
        st.floats(min_value=0.5, max_value=10),
        st.floats(min_value=1.0, max_value=10),
        st.integers(min_value=1, max_value=10000),
    )
    def test_bounds_ordering(self, alpha, beta, n):
        minimum, maximum = suspicion_bounds(alpha, beta, n, 1.0)
        assert 0 < minimum <= maximum


class TestSuspicionTimeoutFormula:
    def test_no_confirmations_gives_max(self):
        assert suspicion_timeout(10.0, 60.0, 0, 3) == pytest.approx(60.0)

    def test_k_confirmations_gives_min(self):
        assert suspicion_timeout(10.0, 60.0, 3, 3) == pytest.approx(10.0)

    def test_beyond_k_stays_at_min(self):
        assert suspicion_timeout(10.0, 60.0, 7, 3) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "confirmations, elapsed, remaining",
        [(0, 0, 30), (1, 2, 14), (2, 3, 4.810524989903811), (3, 4, -2)],
    )
    def test_memberlist_reference_vector(self, confirmations, elapsed, remaining):
        """An independent reference, not re-derived from our formula:
        hashicorp/memberlist's ``TestSuspicion_remainingSuspicionTime``
        vector (k=3, min=2 s, max=30 s) as transcribed by the aioc port
        in SNIPPETS.md (``jettify/aioc/tests/test_suspicion.py``). It
        reports the time *remaining* at ``elapsed`` seconds after each
        confirmation: 30, 14, 4.8105..., -2 — i.e. total timeouts of
        30 / 16 / 7.8105... / 2."""
        timeout = suspicion_timeout(2, 30, confirmations, 3)
        assert timeout - elapsed == pytest.approx(remaining, abs=1e-12)
        assert timeout == pytest.approx(
            [30, 16, 7.810524989903811, 2][confirmations], abs=1e-12
        )

    def test_paper_formula_midway(self):
        minimum, maximum, k, c = 10.0, 60.0, 3, 1
        expected = maximum - (maximum - minimum) * math.log(c + 1) / math.log(k + 1)
        assert suspicion_timeout(minimum, maximum, c, k) == pytest.approx(expected)

    def test_logarithmic_decay_shrinks_steps(self):
        """Each successive confirmation reduces the timeout by less."""
        timeouts = [suspicion_timeout(10.0, 60.0, c, 5) for c in range(6)]
        drops = [a - b for a, b in zip(timeouts, timeouts[1:])]
        assert all(d > 0 for d in drops)
        assert all(a > b for a, b in zip(drops, drops[1:]))

    def test_k_zero_is_fixed_timeout(self):
        assert suspicion_timeout(10.0, 60.0, 0, 0) == 10.0
        assert suspicion_timeout(10.0, 60.0, 5, 0) == 10.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            suspicion_timeout(-1.0, 5.0, 0, 3)
        with pytest.raises(ValueError):
            suspicion_timeout(10.0, 5.0, 0, 3)
        with pytest.raises(ValueError):
            suspicion_timeout(1.0, 5.0, -1, 3)

    @given(
        st.floats(min_value=0.1, max_value=100),
        st.floats(min_value=0.0, max_value=500),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=10),
    )
    def test_always_within_bounds(self, minimum, extra, confirmations, k):
        maximum = minimum + extra
        timeout = suspicion_timeout(minimum, maximum, confirmations, k)
        assert minimum <= timeout <= maximum + 1e-9

    @given(
        st.floats(min_value=0.1, max_value=100),
        st.floats(min_value=0.0, max_value=500),
        st.integers(min_value=1, max_value=10),
    )
    def test_monotone_nonincreasing_in_confirmations(self, minimum, extra, k):
        maximum = minimum + extra
        timeouts = [
            suspicion_timeout(minimum, maximum, c, k) for c in range(k + 2)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(timeouts, timeouts[1:]))


class TestSuspicionObject:
    def make(self, k=3):
        return Suspicion("origin", started_at=100.0, minimum=10.0, maximum=60.0, k=k)

    def test_initial_deadline_at_max(self):
        suspicion = self.make()
        assert suspicion.deadline() == pytest.approx(160.0)
        assert suspicion.confirmations == 0

    def test_creator_not_an_independent_confirmation(self):
        suspicion = self.make()
        assert not suspicion.confirm("origin")
        assert suspicion.confirmations == 0

    def test_independent_confirmations_shrink_deadline(self):
        suspicion = self.make()
        before = suspicion.deadline()
        assert suspicion.confirm("peer1")
        assert suspicion.deadline() < before
        assert suspicion.confirmations == 1

    def test_duplicate_confirmer_ignored(self):
        suspicion = self.make()
        assert suspicion.confirm("peer1")
        assert not suspicion.confirm("peer1")
        assert suspicion.confirmations == 1

    def test_k_confirmations_reach_min(self):
        suspicion = self.make(k=3)
        for peer in ("p1", "p2", "p3"):
            suspicion.confirm(peer)
        assert suspicion.deadline() == pytest.approx(110.0)

    def test_confirmations_beyond_k_rejected(self):
        """Only the first K independent suspicions are re-gossiped."""
        suspicion = self.make(k=2)
        assert suspicion.confirm("p1")
        assert suspicion.confirm("p2")
        assert not suspicion.confirm("p3")
        assert suspicion.confirmations == 2

    def test_needs_confirmations(self):
        suspicion = self.make(k=1)
        assert suspicion.needs_confirmations
        suspicion.confirm("p1")
        assert not suspicion.needs_confirmations

    def test_k_zero_fixed_deadline(self):
        suspicion = Suspicion("origin", 0.0, minimum=10.0, maximum=10.0, k=0)
        assert suspicion.deadline() == pytest.approx(10.0)
        assert not suspicion.confirm("p1")

    def test_expired_and_remaining(self):
        suspicion = self.make(k=0)
        # k=0 with max=60: timeout formula returns minimum=10... see below.
        deadline = suspicion.deadline()
        assert not suspicion.expired(deadline - 1)
        assert suspicion.expired(deadline)
        assert suspicion.remaining(deadline - 2.5) == pytest.approx(2.5)

    def test_has_confirmed(self):
        suspicion = self.make()
        assert suspicion.has_confirmed("origin")
        assert not suspicion.has_confirmed("p1")
        suspicion.confirm("p1")
        assert suspicion.has_confirmed("p1")

    def test_confirmers_frozen_view(self):
        suspicion = self.make()
        suspicion.confirm("p1")
        assert suspicion.confirmers == frozenset({"origin", "p1"})

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            Suspicion("x", 0.0, 1.0, 2.0, k=-1)
