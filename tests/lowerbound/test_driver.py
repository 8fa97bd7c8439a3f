"""Tests for the Theorem-2 attack pipeline (Lemmas 2-5 end to end)."""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import (
    LowerBoundDriver,
    SurvivedBelowFloor,
    attack_weak_consensus,
)
from repro.lowerbound.partition import ABCPartition, canonical_partition
from repro.lowerbound.witnesses import ViolationKind, verify_witness
from repro.protocols.base import ProtocolSpec
from repro.protocols.subquadratic import (
    leader_echo_spec,
    ring_token_spec,
    silent_cheater_spec,
)
from repro.protocols.weak_consensus import (
    broadcast_weak_consensus_spec,
    naive_flooding_spec,
)
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

        The count is deterministic: the 160 behaviors belong to the two
        fault-free executions (80 processes each), the only ones a
        survivor materializes.  Isolations and merges are decided on
        masks; building the 48 doomed swaps would add 3840 more.
        """
        before = object_counts()
        outcome = attack_weak_consensus(
            broadcast_weak_consensus_spec(80, 64)
        )
        built = object_counts_delta(before)["behaviors_built"]
        assert not outcome.found_violation
        assert outcome.bound.observed >= 64**2 / 32
        assert built == 2 * 80

    def test_flooding_survivor_builds_only_its_fault_free_messages(self):
        """naive-flooding at (40, 32) materializes exactly its two
        fault-free runs: 40·39 messages a round for 33 rounds each."""
        before = object_counts()
        outcome = attack_weak_consensus(naive_flooding_spec(40, 32))
        built = object_counts_delta(before)["messages_materialized"]
        assert not outcome.found_violation
        assert built == 2 * 40 * 39 * 33


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


class TestSurvivalObligation:
    """No violation and fewer than t²/32 messages is a driver bug."""

    @staticmethod
    def _observe_nothing(monkeypatch):
        monkeypatch.setattr(
            LowerBoundDriver,
            "_observe_messages",
            lambda self, messages, run: None,
        )

    def test_driver_raises_below_the_floor(self, monkeypatch):
        self._observe_nothing(monkeypatch)
        with pytest.raises(SurvivedBelowFloor, match="t²/32") as excinfo:
            attack_weak_consensus(broadcast_weak_consensus_spec(12, 8))
        outcome = excinfo.value.outcome
        assert not outcome.found_violation
        assert outcome.bound.observed == 0

    def test_violations_are_exempt(self, monkeypatch):
        self._observe_nothing(monkeypatch)
        assert attack_weak_consensus(leader_echo_spec(12, 8)).witness

    def test_sweep_cell_reports_the_error(self, monkeypatch):
        from repro.parallel import AttackJob, SweepScheduler

        self._observe_nothing(monkeypatch)
        report = SweepScheduler(jobs=1).run(
            [AttackJob("correct", 12, 8), AttackJob("silent", 12, 8)]
        )
        failed, broken = report.cells
        assert failed.error is not None and failed.result is None
        assert "t²/32" in failed.error.message
        assert broken.error is None


class TestEngineParity:
    """The kernel path decides on masks; the object engine decides on
    objects.  Outcomes (log included) and certificates must agree."""

    @pytest.mark.parametrize("name", sorted(CHEATERS))
    def test_cheater_narrative_and_certificate_match(self, name):
        spec = CHEATERS[name](24, 16)
        kernel = attack_weak_consensus(spec, certify=True)
        objects = attack_weak_consensus(spec, certify=True, kernel="object")
        assert kernel == objects
        assert kernel.certificate.dumps() == objects.certificate.dumps()

    @pytest.mark.parametrize(
        "spec",
        [naive_flooding_spec(24, 16), broadcast_weak_consensus_spec(80, 64)],
        ids=["naive-flooding-24-16", "correct-80-64"],
    )
    def test_survivor_narrative_matches(self, spec):
        kernel = attack_weak_consensus(spec)
        objects = attack_weak_consensus(spec, kernel="object")
        assert kernel == objects  # the log is part of the outcome
