"""Tests for repro.omission.merge (Algorithm 5 / Definition 2 / Lemma 16)."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.omission.isolation import check_isolated, isolate_group
from repro.omission.masks import compile_omissions
from repro.omission.merge import (
    MergeSpec,
    check_merge_inputs,
    check_merge_result,
    is_mergeable,
    merge,
    uniform_proposal,
)
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
)
from repro.protocols.weak_consensus import (
    broadcast_weak_consensus_spec,
    naive_flooding_spec,
)
from repro.sim.kernel import (
    KernelRound,
    KernelTrace,
    PrefixForker,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.simulator import SimulationConfig
from repro.sim.state import behaviors_indistinguishable

N, T = 7, 4
GROUP_B = frozenset({5})
GROUP_C = frozenset({6})


@pytest.fixture
def spec():
    return broadcast_weak_consensus_spec(N, T)


def isolated(spec, group, k, bit=0):
    return spec.run_uniform(bit, isolate_group(group, k))


def merge_spec(k_b, k_c):
    return MergeSpec(
        group_b=GROUP_B, group_c=GROUP_C, round_b=k_b, round_c=k_c
    )


class TestMergeSpec:
    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="disjoint"):
            MergeSpec(
                group_b=frozenset({1}),
                group_c=frozenset({1}),
                round_b=1,
                round_c=1,
            )

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError, match="non-empty"):
            MergeSpec(
                group_b=frozenset(),
                group_c=frozenset({1}),
                round_b=1,
                round_c=1,
            )

    def test_group_a_is_complement(self):
        assert merge_spec(1, 1).group_a(N) == frozenset(range(5))


class TestMergeability:
    def test_round_one_pair_always_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        assert is_mergeable(merge_spec(1, 1), exec_b, exec_c)

    def test_adjacent_rounds_same_bit_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 3, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=0)
        assert is_mergeable(merge_spec(3, 2), exec_b, exec_c)

    def test_adjacent_rounds_different_bits_not_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 3, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=1)
        assert not is_mergeable(merge_spec(3, 2), exec_b, exec_c)

    def test_distant_rounds_not_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 4, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=0)
        assert not is_mergeable(merge_spec(4, 2), exec_b, exec_c)

    def test_isolation_round_must_match_claim(self, spec):
        exec_b = isolated(spec, GROUP_B, 2, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=0)
        with pytest.raises(ModelViolation):
            check_merge_inputs(merge_spec(1, 2), exec_b, exec_c)

    def test_uniform_proposal_required(self, spec):
        mixed = spec.run(
            [0, 0, 0, 1, 1, 0, 0], isolate_group(GROUP_B, 1)
        )
        with pytest.raises(ModelViolation, match="uniform"):
            uniform_proposal(mixed)


class TestLemma16Conclusions:
    def test_merge_round_one(self, spec):
        """The E_0^{B(1)} + E_1^{C(1)} splice of Lemma 3's base case."""
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        merged = merge(merge_spec(1, 1), exec_b, exec_c, spec.factory)
        # check=True already ran the Lemma 16 verifier; spot-check the
        # conclusions independently.
        assert merged.faulty == GROUP_B | GROUP_C
        check_isolated(merged, GROUP_B, 1)
        check_isolated(merged, GROUP_C, 1)
        for pid in GROUP_B:
            assert behaviors_indistinguishable(
                merged.behavior(pid), exec_b.behavior(pid)
            )
        for pid in GROUP_C:
            assert behaviors_indistinguishable(
                merged.behavior(pid), exec_c.behavior(pid)
            )

    def test_merged_proposals_come_from_both_sides(self, spec):
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        merged = merge(merge_spec(1, 1), exec_b, exec_c, spec.factory)
        proposals = merged.proposals()
        assert all(proposals[pid] == 0 for pid in range(5))
        assert proposals[5] == 0  # B side proposes with exec_b
        assert proposals[6] == 1  # C side proposes with exec_c

    def test_replayed_groups_keep_their_decisions(self, spec):
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        merged = merge(merge_spec(1, 1), exec_b, exec_c, spec.factory)
        for pid in GROUP_B:
            assert merged.decision(pid) == exec_b.decision(pid)
        for pid in GROUP_C:
            assert merged.decision(pid) == exec_c.decision(pid)

    @settings(max_examples=12, deadline=None)
    @given(
        k_b=st.integers(1, 5),
        delta=st.sampled_from([-1, 0, 1]),
    )
    def test_lemma16_across_adjacent_rounds(self, k_b, delta):
        """Property: every Definition-2 pair merges into a valid
        execution with both isolations and both indistinguishabilities.

        (`merge` with check=True machine-verifies all of Lemma 16; the
        test also cross-checks with phase king, a chattier protocol.)"""
        k_c = k_b + delta
        if k_c < 1:
            k_c = 1
        spec = phase_king_spec(9, 2)
        group_b, group_c = frozenset({7}), frozenset({8})
        exec_b = spec.run_uniform(0, isolate_group(group_b, k_b))
        exec_c = spec.run_uniform(0, isolate_group(group_c, k_c))
        merged = merge(
            MergeSpec(
                group_b=group_b,
                group_c=group_c,
                round_b=k_b,
                round_c=k_c,
            ),
            exec_b,
            exec_c,
            spec.factory,
        )
        assert merged.faulty == group_b | group_c


class TestPaperRegimeGroups:
    def test_merge_with_quarter_sized_groups(self):
        """The paper's |B| = |C| = t/4 sizing at t = 16: groups of 4."""
        from repro.lowerbound.partition import paper_partition

        n, t = 24, 16
        spec = broadcast_weak_consensus_spec(n, t)
        partition = paper_partition(n, t)
        exec_b = spec.run_uniform(
            0, isolate_group(partition.group_b, 3)
        )
        exec_c = spec.run_uniform(
            0, isolate_group(partition.group_c, 2)
        )
        merged = merge(
            MergeSpec(
                group_b=partition.group_b,
                group_c=partition.group_c,
                round_b=3,
                round_c=2,
            ),
            exec_b,
            exec_c,
            spec.factory,
        )
        assert (
            merged.faulty == partition.group_b | partition.group_c
        )
        assert len(merged.faulty) == t // 2


class TestStrictReplay:
    def test_wrong_factory_detected(self, spec):
        """Merging executions of algorithm X with algorithm Y's factory
        trips the determinism cross-check."""
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        other = phase_king_spec(N, T // 2)
        with pytest.raises(ModelViolation):
            merge(
                merge_spec(1, 1), exec_b, exec_c, other.factory
            )


MASK_SPECS = {
    "leader-echo": leader_echo_spec,
    "committee": committee_cheater_spec,
    "broadcast": broadcast_weak_consensus_spec,
    "naive-flooding": naive_flooding_spec,
}


def kernel_isolation(spec, group, k, bit):
    config = SimulationConfig(n=spec.n, t=spec.t, rounds=spec.rounds)
    return run_kernel(
        config,
        [bit] * spec.n,
        spec.factory,
        compile_omissions(isolate_group(group, k), spec.n),
    )


@st.composite
def mergeable_traces(draw):
    """Two Definition-2 mergeable kernel traces, with the merge spec and
    (sometimes) the fault-free forker the driver would pass along."""
    name = draw(st.sampled_from(sorted(MASK_SPECS)))
    n = draw(st.integers(5, 9))
    t = draw(st.integers(2, n - 2))
    spec = MASK_SPECS[name](n, t)
    ids = draw(st.permutations(range(n)))
    size_b = draw(st.integers(1, t - 1))
    size_c = draw(st.integers(1, t - size_b))
    group_b = frozenset(ids[:size_b])
    group_c = frozenset(ids[size_b:size_b + size_c])
    if draw(st.booleans()):
        k_b = k_c = 1
        bit_b, bit_c = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    else:
        k_b = draw(st.integers(2, spec.rounds + 1))
        k_c = k_b + draw(st.sampled_from([-1, 0, 1]))
        bit_b = bit_c = draw(st.integers(0, 1))
    event(f"k_B - k_C = {k_b - k_c}")
    trace_b = kernel_isolation(spec, group_b, k_b, bit_b)
    trace_c = kernel_isolation(spec, group_c, k_c, bit_c)
    prefix = None
    if bit_b == bit_c and draw(st.booleans()):
        config = SimulationConfig(n=n, t=t, rounds=spec.rounds)
        base = run_kernel(
            config, [bit_b] * n, spec.factory, no_faults_compiled(n)
        )
        prefix = PrefixForker(config, [bit_b] * n, spec.factory, base)
    merge_spec_ = MergeSpec(
        group_b=group_b, group_c=group_c, round_b=k_b, round_c=k_c
    )
    return spec, merge_spec_, trace_b, trace_c, prefix


def tampered(trace, index, edit):
    """A copy of ``trace`` whose row ``index`` went through ``edit``."""
    rows = list(trace.rounds)
    row = rows[index]
    copy = KernelRound(
        list(row.send_masks),
        [dict(payloads) for payloads in row.payloads],
        list(row.recv_masks),
        list(row.omit_masks),
        row.decisions,
    )
    edit(copy)
    rows[index] = copy
    return KernelTrace(
        trace.n, trace.t, trace.proposals, trace.corrupted, rows
    )


def raises_violation(check) -> bool:
    try:
        check()
    except ModelViolation:
        return True
    return False


class TestMaskMergeMatchesObjects:
    """The kernel-run merge is the object merge, and its row checks
    decide as the object checks do."""

    @settings(max_examples=60, deadline=None)
    @given(case=mergeable_traces())
    def test_merged_trace_materializes_to_the_object_merge(self, case):
        spec, merge_spec_, trace_b, trace_c, prefix = case
        merged = merge(
            merge_spec_, trace_b, trace_c, spec.factory, prefix=prefix
        )
        assert isinstance(merged, KernelTrace)
        expected = merge(
            merge_spec_,
            trace_b.to_execution(),
            trace_c.to_execution(),
            spec.factory,
        )
        assert merged.to_execution() == expected

    @settings(max_examples=80, deadline=None)
    @given(case=mergeable_traces(), data=st.data())
    def test_lemma16_on_masks_flags_exactly_what_objects_flag(
        self, case, data
    ):
        spec, merge_spec_, trace_b, trace_c, prefix = case
        merged = merge(
            merge_spec_, trace_b, trace_c, spec.factory, prefix=prefix
        )
        side = data.draw(st.sampled_from(["B", "C"]))
        source, group = (
            (trace_b, merge_spec_.group_b)
            if side == "B"
            else (trace_c, merge_spec_.group_c)
        )
        pid = data.draw(st.sampled_from(sorted(group)))
        index = data.draw(st.integers(0, source.rounds_run - 1))
        sender = data.draw(
            st.sampled_from([q for q in range(spec.n) if q != pid])
        )
        if data.draw(st.booleans()):
            def edit(row):
                row.recv_masks[pid] ^= 1 << sender
            kind = "receive bit"
        else:
            receivers = set(source.rounds[index].payloads[sender])
            receiver = data.draw(st.sampled_from(sorted(receivers | {pid})))

            def edit(row):
                row.payloads[sender][receiver] = ("tampered",)
                row.send_masks[sender] |= 1 << receiver
            kind = "payload"
        bad = tampered(source, index, edit)
        bad_b, bad_c = (bad, trace_c) if side == "B" else (trace_b, bad)
        from_masks = raises_violation(
            lambda: check_merge_result(merge_spec_, bad_b, bad_c, merged)
        )
        from_objects = raises_violation(
            lambda: check_merge_result(
                merge_spec_,
                bad_b.to_execution(),
                bad_c.to_execution(),
                merged.to_execution(),
            )
        )
        event(f"{kind}: {'caught' if from_objects else 'invisible'}")
        assert from_masks == from_objects

    def test_untampered_sources_pass_on_masks(self):
        spec = broadcast_weak_consensus_spec(N, T)
        trace_b = kernel_isolation(spec, GROUP_B, 1, 0)
        trace_c = kernel_isolation(spec, GROUP_C, 1, 1)
        merged = merge(merge_spec(1, 1), trace_b, trace_c, spec.factory)
        check_merge_result(merge_spec(1, 1), trace_b, trace_c, merged)

    @pytest.mark.parametrize(
        "edit,match",
        [
            ("phantom receive", "differ from the senders targeting it"),
            ("received and omitted", "both received and receive-omitted"),
            ("omission by a correct process", "omission-validity"),
        ],
    )
    def test_invalid_merged_rows_rejected(self, edit, match):
        """Conclusion 1 on masks: the A.1.6 guarantees of the rows."""
        spec = broadcast_weak_consensus_spec(N, T)
        trace_b = kernel_isolation(spec, GROUP_B, 1, 0)
        trace_c = kernel_isolation(spec, GROUP_C, 1, 1)
        merged = merge(merge_spec(1, 1), trace_b, trace_c, spec.factory)
        first = merged.rounds[0]
        sender = next(s for s in range(N) if first.send_masks[s])
        receiver = next(
            r for r in range(5) if first.send_masks[sender] >> r & 1
        )
        silent = next(
            s for s in range(N) if not first.send_masks[s] and s != receiver
        )

        def rows(row):
            if edit == "phantom receive":
                row.recv_masks[receiver] |= 1 << silent
            elif edit == "received and omitted":
                row.omit_masks[receiver] |= 1 << sender
            else:
                row.recv_masks[receiver] &= ~(1 << sender)
                row.omit_masks[receiver] |= 1 << sender

        bad = tampered(merged, 0, rows)
        with pytest.raises(ModelViolation, match=match):
            check_merge_result(merge_spec(1, 1), trace_b, trace_c, bad)

    def test_wrong_factory_detected_on_masks(self):
        spec = broadcast_weak_consensus_spec(N, T)
        trace_b = kernel_isolation(spec, GROUP_B, 1, 0)
        trace_c = kernel_isolation(spec, GROUP_C, 1, 1)
        other = phase_king_spec(N, T // 2)
        with pytest.raises(ModelViolation):
            merge(merge_spec(1, 1), trace_b, trace_c, other.factory)

    def test_mixed_inputs_rejected(self):
        spec = broadcast_weak_consensus_spec(N, T)
        trace_b = kernel_isolation(spec, GROUP_B, 1, 0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        with pytest.raises(TypeError, match="two kernel traces"):
            merge(merge_spec(1, 1), trace_b, exec_c, spec.factory)
