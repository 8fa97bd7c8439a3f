"""Tests for the Theorem-2 attack pipeline (Lemmas 2-5 end to end)."""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.lowerbound.partition import ABCPartition, canonical_partition
from repro.lowerbound.witnesses import ViolationKind, verify_witness
from repro.protocols.base import ProtocolSpec
from repro.protocols.subquadratic import (
    leader_echo_spec,
    ring_token_spec,
    silent_cheater_spec,
)
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.engine import object_counts, object_counts_delta
from repro.sim.process import Process


class TestBreaksEveryCheater:
    @pytest.mark.parametrize("builder", CHEATERS.values())
    @pytest.mark.parametrize("t", [8, 16])
    def test_cheater_broken_with_verified_witness(self, builder, t):
        n = t + 4
        spec = builder(n, t)
        outcome = attack_weak_consensus(spec)
        assert outcome.found_violation
        # Independent re-verification (the driver already did one).
        verify_witness(outcome.witness, spec.factory)
        # The witness execution respects the corruption budget.
        assert len(outcome.witness.execution.faulty) <= t

    def test_silent_cheater_yields_fault_free_disagreement(self):
        """The zero-message protocol is broken by an execution with *no*
        faults at all — the strongest possible counterexample."""
        outcome = attack_weak_consensus(silent_cheater_spec(12, 8))
        assert outcome.witness.kind is ViolationKind.AGREEMENT
        assert outcome.witness.execution.faulty == frozenset()

    def test_ring_cheater_exercises_the_interpolation(self):
        """The ring protocol survives the round-1 stages; the driver must
        find its default bit and walk the Lemma-4 scan."""
        outcome = attack_weak_consensus(ring_token_spec(16, 8))
        assert outcome.default_bit == 1
        assert outcome.found_violation
        assert any("Lemma 3 consistent" in line for line in outcome.log)

    def test_leader_echo_dies_at_round_one_stage(self):
        outcome = attack_weak_consensus(leader_echo_spec(12, 8))
        assert outcome.found_violation
        assert any(
            "Lemma 2 premise violated" in line for line in outcome.log
        )


class TestCorrectAlgorithmsSurvive:
    def test_broadcast_weak_consensus_not_broken(self):
        spec = broadcast_weak_consensus_spec(10, 8)
        outcome = attack_weak_consensus(spec)
        assert not outcome.found_violation
        assert not outcome.bound.below_floor

    def test_reduction_built_weak_consensus_not_broken(self):
        from repro.protocols.strong_consensus import (
            authenticated_strong_consensus_spec,
        )
        from repro.reductions.weak_from_any import reduce_weak_consensus
        from repro.validity.standard import strong_consensus_problem

        inner = authenticated_strong_consensus_spec(7, 3)
        reduced = reduce_weak_consensus(
            inner, strong_consensus_problem(7, 3)
        )
        outcome = attack_weak_consensus(reduced)
        assert not outcome.found_violation

    def test_survives_at_paper_scale_without_building_failed_swaps(self):
        """At t=64 every Lemma-2 swap fails the t budget; none is built.

        The count is deterministic: the 640 behaviors belong to the 8
        executions the driver materializes (80 processes each).  Building
        the 48 doomed swaps as well would add 3840 more.
        """
        before = object_counts()
        outcome = attack_weak_consensus(
            broadcast_weak_consensus_spec(80, 64)
        )
        built = object_counts_delta(before)["behaviors_built"]
        assert not outcome.found_violation
        assert outcome.bound.observed >= 64**2 / 32
        assert built <= 640


class TestDriverInterface:
    def test_custom_partition(self):
        partition = ABCPartition(
            n=12,
            t=8,
            group_b=frozenset({4, 5}),
            group_c=frozenset({10, 11}),
        )
        outcome = attack_weak_consensus(
            leader_echo_spec(12, 8), partition
        )
        assert outcome.found_violation
        assert outcome.partition is partition

    def test_coordinator_inside_isolated_group(self):
        """Isolating the cheater's own leader still yields a violation:
        the silenced coordinator changes the default-bit landscape, and
        the Lemma-3 merge path picks up the slack."""
        partition = ABCPartition(
            n=12,
            t=8,
            group_b=frozenset({0, 1}),  # the leader sits in B
            group_c=frozenset({10, 11}),
        )
        outcome = attack_weak_consensus(
            leader_echo_spec(12, 8), partition
        )
        assert outcome.found_violation

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            attack_weak_consensus(
                leader_echo_spec(12, 8),
                canonical_partition(16, 8),
            )

    def test_outcome_render(self):
        outcome = attack_weak_consensus(silent_cheater_spec(12, 8))
        text = outcome.render()
        assert "VIOLATION" in text
        assert "t=8" in text

    def test_bound_comparison_tracks_worst_execution(self):
        spec = leader_echo_spec(12, 8)
        outcome = attack_weak_consensus(spec)
        fault_free = spec.run_uniform(0).message_complexity()
        assert outcome.bound.observed >= fault_free


class _NonTerminating(Process):
    """Never decides: the driver must produce a termination witness."""

    def outgoing(self, round_):
        return {}

    def deliver(self, round_, received):
        return None


class _BiasedValidity(Process):
    """Always decides 1 — violates Weak Validity in the all-0 run."""

    def outgoing(self, round_):
        return {}

    def deliver(self, round_, received):
        self.decide(1)


class TestDirectViolations:
    def test_non_termination_caught_immediately(self):
        spec = ProtocolSpec(
            name="never-decides",
            n=12,
            t=8,
            rounds=2,
            factory=lambda pid, v: _NonTerminating(pid, 12, 8, v),
        )
        outcome = attack_weak_consensus(spec)
        assert outcome.witness.kind is ViolationKind.TERMINATION

    def test_weak_validity_breach_caught_immediately(self):
        spec = ProtocolSpec(
            name="always-one",
            n=12,
            t=8,
            rounds=1,
            factory=lambda pid, v: _BiasedValidity(pid, 12, 8, v),
        )
        outcome = attack_weak_consensus(spec)
        assert outcome.witness.kind is ViolationKind.WEAK_VALIDITY
        assert outcome.witness.execution.faulty == frozenset()
