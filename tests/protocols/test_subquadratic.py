"""Tests for the sub-quadratic cheaters: they really are sub-quadratic,
they look plausible in easy cases, and they are genuinely incorrect."""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.bound import weak_consensus_floor
from repro.omission.isolation import isolate_group
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
    ring_token_spec,
    silent_cheater_spec,
)


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestPlausibleBehaviour:
    """Fault-free, each cheater looks like a weak consensus protocol."""

    @pytest.mark.parametrize("builder", CHEATERS.values())
    def test_weak_validity_fault_free(self, builder):
        spec = builder(10, 8)
        assert decisions(spec.run_uniform(0)) == {0}
        assert decisions(spec.run_uniform(1)) == {1}

    @pytest.mark.parametrize("builder", CHEATERS.values())
    def test_fault_free_agreement_on_mixed(self, builder):
        if builder is silent_cheater_spec:
            pytest.skip("silent cheater is honest only on unanimity")
        spec = builder(10, 8)
        execution = spec.run([0, 1] * 5)
        assert len(decisions(execution)) == 1


class TestSubQuadraticBudgets:
    def test_silent_sends_nothing(self):
        spec = silent_cheater_spec(64, 56)
        assert spec.run_uniform(0).message_complexity() == 0

    def test_leader_echo_linear(self):
        for t in (16, 32, 56):
            n = t + 8
            spec = leader_echo_spec(n, t)
            messages = spec.run_uniform(0).message_complexity()
            assert messages == 2 * (n - 1)

    def test_leader_echo_below_floor_at_scale(self):
        t = 128
        n = t + 8
        spec = leader_echo_spec(n, t)
        messages = spec.run_uniform(0).message_complexity()
        assert messages < weak_consensus_floor(t)

    def test_committee_message_count(self):
        """Exact count: reports to the committee + verdict broadcasts."""
        n, t, c = 10, 8, 2
        spec = committee_cheater_spec(n, t, committee_size=c)
        messages = spec.run_uniform(0).message_complexity()
        # Each process reports to every committee member but itself:
        # c(c-1) within the committee plus (n-c)c from outside = c(n-1).
        reports = c * (n - 1)
        verdicts = c * (n - 1)
        assert messages == reports + verdicts

    def test_committee_subquadratic_scaling(self):
        """With the √t default committee, the exponent stays below 2."""
        from repro.analysis.fitting import fit_power_law

        ts = [16, 36, 64, 100]
        counts = []
        for t in ts:
            spec = committee_cheater_spec(t + 8, t)
            counts.append(spec.run_uniform(0).message_complexity())
        fit = fit_power_law(ts, counts)
        assert fit.exponent < 1.8

    def test_ring_token_linear(self):
        for t in (16, 48):
            n = t + 8
            spec = ring_token_spec(n, t)
            messages = spec.run_uniform(0).message_complexity()
            assert messages == 2 * (n - 1)


class TestGenuineIncorrectness:
    """Hand-built failing executions, independent of the attack driver."""

    def test_leader_echo_splits_under_isolation_swap_setup(self):
        """Isolating one process makes it default to 1 while the rest
        decide 0 — the disagreement the driver later 'launders' into a
        correct-vs-correct violation via swap_omission."""
        spec = leader_echo_spec(8, 4)
        execution = spec.run_uniform(0, isolate_group({7}, 1))
        assert execution.decision(7) == 1
        assert execution.decision(1) == 0

    def test_ring_token_critical_round_flip(self):
        """The ring cheater's correct-group decision flips with the
        isolation round — the Lemma-4 structure in the wild."""
        n, t = 12, 8
        spec = ring_token_spec(n, t)
        group_b = frozenset({n - 4, n - 3})
        early = spec.run_uniform(0, isolate_group(group_b, 1))
        late = spec.run_uniform(0, isolate_group(group_b, n))
        assert early.decision(0) == 1  # poisoned token: default wins
        assert late.decision(0) == 0  # isolation came too late

    def test_committee_ignores_minority_isolation(self):
        spec = committee_cheater_spec(10, 8, committee_size=2)
        execution = spec.run_uniform(0, isolate_group({8, 9}, 1))
        # The committee never notices: outsiders decide 0, the isolated
        # pair misses the verdicts and defaults to 1.
        assert execution.decision(0) == 0
        assert execution.decision(8) == 1


class TestGuards:
    def test_committee_size_bounds(self):
        with pytest.raises(ValueError, match="committee size"):
            committee_cheater_spec(5, 2, committee_size=6).factory(0, 0)
        with pytest.raises(ValueError, match="committee size"):
            committee_cheater_spec(5, 2, committee_size=0).factory(0, 0)
