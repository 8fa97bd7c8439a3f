"""Tests for repro.omission.swap (Algorithm 4 / Lemma 15)."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.omission.indistinguishability import indistinguishable_to_all
from repro.omission.isolation import IsolationAdversary, isolate_group
from repro.omission.masks import compile_omissions
from repro.omission.swap import (
    _plan_swap,
    blamed_senders,
    swap_omission,
    swap_omission_checked,
    swapped_faulty_set,
)
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
)
from repro.protocols.weak_consensus import (
    broadcast_weak_consensus_spec,
    naive_flooding_spec,
)
from repro.sim.adversary import (
    CrashAdversary,
    OmissionSchedule,
    ScheduledOmissionAdversary,
)
from repro.sim.execution import Execution, check_execution
from repro.sim.kernel import run_kernel
from repro.sim.simulator import SimulationConfig
from repro.sim.state import BUILT, Behavior


def reference_swap(execution, pid):
    """Algorithm 4 as a per-fragment loop that rescans ``M`` every time.

    The literal reading of lines 9-11, kept as the oracle the one-pass
    :func:`swap_omission` is compared against.
    """
    dropped = execution.behavior(pid).all_receive_omitted()
    new_faulty = set()
    new_behaviors = []
    for pz in range(execution.n):
        behavior = execution.behavior(pz)
        fragments = []
        commits_fault = False
        for fragment in behavior:
            sent_z = frozenset(
                message
                for message in dropped
                if message.round == fragment.round
                and message.sender == pz
            )
            new_fragment = fragment.replacing(
                sent=fragment.sent - sent_z,
                send_omitted=fragment.send_omitted | sent_z,
                receive_omitted=fragment.receive_omitted - dropped,
            )
            if new_fragment.commits_fault:
                commits_fault = True
            fragments.append(new_fragment)
        if commits_fault:
            new_faulty.add(pz)
        new_behaviors.append(
            Behavior(tuple(fragments), final_state=behavior.final_state)
        )
    return Execution(
        n=execution.n,
        t=execution.t,
        faulty=frozenset(new_faulty),
        behaviors=tuple(new_behaviors),
    )


def budget_message(reference):
    return (
        f"Lemma 15 precondition: swapped faulty set "
        f"{sorted(reference.faulty)} exceeds t={reference.t}"
    )


def assert_same_swap(swapped, reference):
    assert swapped.faulty == reference.faulty
    for behavior, expected in zip(swapped.behaviors, reference.behaviors):
        assert behavior.final_state == expected.final_state
        for fragment, want in zip(behavior, expected, strict=True):
            assert fragment.state == want.state
            assert fragment.sent == want.sent
            assert fragment.send_omitted == want.send_omitted
            assert fragment.received == want.received
            assert fragment.receive_omitted == want.receive_omitted
    assert swapped == reference


SWAP_SPECS = {
    "leader-echo": leader_echo_spec,
    "committee": committee_cheater_spec,
    "broadcast": broadcast_weak_consensus_spec,
}


@st.composite
def isolated_runs(draw):
    """A small run with one or two isolated groups, and a process to free.

    Some runs also crash a few processes outside the groups, so that
    fragments with send-omissions of their own meet the swap too.
    """
    builder = SWAP_SPECS[draw(st.sampled_from(sorted(SWAP_SPECS)))]
    n = draw(st.integers(4, 8))
    t = draw(st.integers(2, n - 1))
    faulty = draw(
        st.lists(
            st.integers(0, n - 1), min_size=1, max_size=t, unique=True
        )
    )
    members = faulty[: draw(st.integers(1, len(faulty)))]
    crashed = {pid: draw(st.integers(1, 3)) for pid in faulty[len(members):]}
    split = draw(st.integers(1, len(members)))
    groups = {frozenset(members[:split]): draw(st.integers(1, 3))}
    if split < len(members):
        groups[frozenset(members[split:])] = draw(st.integers(1, 3))
    isolation = IsolationAdversary(groups)
    crash = CrashAdversary(crashed)
    adversary = ScheduledOmissionAdversary(
        faulty,
        OmissionSchedule(
            send_drops=crash.send_omits,
            receive_drops=lambda m: (
                isolation.receive_omits(m) or crash.receive_omits(m)
            ),
        ),
    )
    proposals = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    execution = builder(n, t).run(proposals, adversary)
    pid = draw(st.sampled_from(members) | st.integers(0, n - 1))
    return execution, pid


def isolated_leader_echo(n=8, t=4, k=1, group=None):
    spec = leader_echo_spec(n, t)
    group = frozenset(group or {n - 1})
    return spec, group, spec.run_uniform(0, isolate_group(group, k))


class TestSwapMechanics:
    def test_focal_process_becomes_correct(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        swapped = swap_omission(execution, pid)
        assert pid not in swapped.faulty

    def test_blame_moves_to_senders(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        senders = blamed_senders(execution, pid)
        assert senders == {0}  # only the leader's verdict was dropped
        swapped = swap_omission(execution, pid)
        assert senders <= swapped.faulty

    def test_messages_move_to_send_omitted(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        dropped = execution.behavior(pid).all_receive_omitted()
        swapped = swap_omission(execution, pid)
        assert swapped.behavior(pid).all_receive_omitted() == frozenset()
        for message in dropped:
            sender_behavior = swapped.behavior(message.sender)
            assert message in sender_behavior.all_send_omitted()
            assert message not in sender_behavior.all_sent()

    def test_no_omissions_yields_empty_faulty(self):
        """Swapping a process that omitted nothing un-faults everyone who
        committed no faults (e.g. late isolation that never bit)."""
        spec = leader_echo_spec(6, 3)
        execution = spec.run_uniform(
            0, isolate_group({5}, 10)  # beyond the 2-round horizon
        )
        swapped = swap_omission(execution, 5)
        assert swapped.faulty == frozenset()


class TestLemma15Conclusions:
    def test_checked_swap_validates_everything(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        result = swap_omission_checked(
            execution, pid, witness_correct=1
        )
        check_execution(result.execution)
        assert indistinguishable_to_all(execution, result.execution)
        assert result.now_correct == pid
        assert result.newly_faulty == {0}

    def test_precondition_send_omissions_rejected(self):
        spec = leader_echo_spec(6, 3)
        execution = spec.run_uniform(0, CrashAdversary({5: 1}))
        with pytest.raises(ModelViolation, match="must not send-omit"):
            swap_omission_checked(execution, 5)

    def test_precondition_budget_rejected(self):
        """A chatty protocol blames too many senders: |F'| > t.

        The budget is checked before the swapped execution is built, so
        the failing call constructs no behavior at all.
        """
        spec = broadcast_weak_consensus_spec(8, 2)
        execution = spec.run_uniform(0, isolate_group({7}, 1))
        expected = budget_message(reference_swap(execution, 7))
        before = BUILT.behaviors
        with pytest.raises(ModelViolation, match="exceeds t") as excinfo:
            swap_omission_checked(execution, 7)
        assert str(excinfo.value) == expected
        assert BUILT.behaviors == before

    def test_witness_correct_preserved(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        # p0 (the leader) is blamed; using it as a witness must fail.
        with pytest.raises(ModelViolation, match="became faulty"):
            swap_omission_checked(execution, pid, witness_correct=0)

    def test_decisions_preserved_by_swap(self):
        """Indistinguishability at work: every decision is unchanged."""
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        swapped = swap_omission(execution, pid)
        assert swapped.decisions() == execution.decisions()


class TestSwapProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 3),
        committee=st.integers(1, 2),
        member=st.integers(0, 1),
    )
    def test_lemma15_on_random_isolations(self, k, committee, member):
        """Property: for the sparse committee cheater, any isolated
        member can be swapped and all Lemma-15 conclusions hold."""
        n, t = 9, 4
        spec = committee_cheater_spec(n, t, committee_size=committee)
        group = frozenset({n - 2, n - 1})
        execution = spec.run_uniform(0, isolate_group(group, k))
        pid = sorted(group)[member]
        result = swap_omission_checked(execution, pid)
        assert pid not in result.execution.faulty
        assert indistinguishable_to_all(execution, result.execution)


class TestSwapMatchesReference:
    """The one-pass swap equals the per-fragment loop, record for record."""

    def test_over_budget_instance(self):
        execution = broadcast_weak_consensus_spec(8, 2).run_uniform(
            0, isolate_group({7}, 1)
        )
        reference = reference_swap(execution, 7)
        assert len(reference.faulty) > execution.t
        assert_same_swap(swap_omission(execution, 7), reference)

    @settings(max_examples=60, deadline=None)
    @given(run=isolated_runs())
    def test_random_isolations(self, run):
        execution, pid = run
        reference = reference_swap(execution, pid)
        assert_same_swap(swap_omission(execution, pid), reference)
        if execution.behavior(pid).all_send_omitted():
            event("focal process send-omits")
            with pytest.raises(ModelViolation, match="must not send-omit"):
                swap_omission_checked(execution, pid)
        elif len(reference.faulty) > execution.t:
            event("over budget")
            with pytest.raises(ModelViolation) as excinfo:
                swap_omission_checked(execution, pid)
            assert str(excinfo.value) == budget_message(reference)
        else:
            event("within budget")
            result = swap_omission_checked(execution, pid)
            assert_same_swap(result.execution, reference)


MASK_SPECS = {
    **SWAP_SPECS,
    "naive-flooding": naive_flooding_spec,
}


@st.composite
def kernel_isolations(draw):
    """A kernel trace with one or two isolated groups, and a process to
    free: the runs the driver swaps on its mask path."""
    builder = MASK_SPECS[draw(st.sampled_from(sorted(MASK_SPECS)))]
    n = draw(st.integers(4, 9))
    t = draw(st.integers(2, n - 1))
    faulty = draw(
        st.lists(
            st.integers(0, n - 1), min_size=1, max_size=t, unique=True
        )
    )
    split = draw(st.integers(1, len(faulty)))
    groups = {frozenset(faulty[:split]): draw(st.integers(1, 3))}
    if split < len(faulty):
        groups[frozenset(faulty[split:])] = draw(st.integers(1, 3))
    spec = builder(n, t)
    proposals = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    trace = run_kernel(
        SimulationConfig(n=n, t=t, rounds=spec.rounds),
        proposals,
        spec.factory,
        compile_omissions(IsolationAdversary(groups), n),
    )
    pid = draw(st.sampled_from(faulty) | st.integers(0, n - 1))
    return trace, pid


class TestMaskSwapMatchesObjects:
    """The mask budget check decides exactly as the object swap does."""

    @settings(max_examples=80, deadline=None)
    @given(run=kernel_isolations())
    def test_mask_faulty_set_and_errors(self, run):
        trace, pid = run
        before = BUILT.behaviors
        try:
            from_masks = swap_omission_checked(trace, pid)
        except ModelViolation as error:
            from_masks = error
        built = BUILT.behaviors - before
        mask_faulty = swapped_faulty_set(trace, pid)
        execution = trace.to_execution()
        assert mask_faulty == _plan_swap(execution, pid)[0]
        try:
            from_objects = swap_omission_checked(execution, pid)
        except ModelViolation as error:
            from_objects = error
        if isinstance(from_objects, ModelViolation):
            event("over budget")
            assert isinstance(from_masks, ModelViolation)
            assert str(from_masks) == str(from_objects)
            # Decided on masks: nothing was built before the error.
            assert built == 0
        else:
            event("within budget")
            assert from_masks == from_objects

    def test_over_budget_trace_builds_nothing(self):
        spec = broadcast_weak_consensus_spec(8, 2)
        trace = run_kernel(
            SimulationConfig(n=8, t=2, rounds=spec.rounds),
            [0] * 8,
            spec.factory,
            compile_omissions(isolate_group({7}, 1), 8),
        )
        before = BUILT.behaviors
        with pytest.raises(ModelViolation) as excinfo:
            swap_omission_checked(trace, 7)
        assert BUILT.behaviors == before
        expected = budget_message(reference_swap(trace.to_execution(), 7))
        assert str(excinfo.value) == expected
