"""The ``swap_omission`` procedure (Algorithm 4) and Lemma 15.

``swap_omission(E, p_i)`` builds an execution ``E'`` in which every message
``p_i`` receive-omitted in ``E`` is instead *send-omitted by its sender*.
Nobody's observations change (received sets are untouched), so ``E'`` is
indistinguishable from ``E`` to every process — but the blame moves:
``p_i`` becomes correct, while the senders whose messages were dropped
become faulty.  This is the step that turns "a faulty process disagreed"
into "a *correct* process disagreed", completing the Lemma-2 contradiction.

The module provides the raw transformation (:func:`swap_omission`) and a
checked wrapper (:func:`swap_omission_checked`) asserting every conclusion
of Lemma 15 on the concrete instance.  The checked wrapper also accepts a
mask-kernel :class:`~repro.sim.kernel.KernelTrace`: it decides the t
budget from the trace's omit masks (:func:`swapped_faulty_set`) and
materializes the trace only for a swap that fits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import ModelViolation
from repro.omission.indistinguishability import indistinguishable_to_all
from repro.sim.execution import Execution, check_execution
from repro.sim.kernel import KernelTrace, mask_members
from repro.sim.message import Message
from repro.sim.state import Behavior, Fragment
from repro.types import ProcessId, Round


_Edit = tuple[
    int, frozenset[Message], frozenset[Message], frozenset[Message]
]
"""A planned fragment change: its index and new sent, send-omitted and
receive-omitted sets."""


def _plan_swap(
    execution: Execution, pid: ProcessId
) -> tuple[frozenset[ProcessId], dict[ProcessId, list[_Edit]]]:
    """Algorithm 4 for ``pid`` worked out before any record is built.

    Returns the post-swap faulty set ``F'`` (lines 10-11) and, per
    process, the fragments whose message sets change.  ``M`` (everything
    ``pid`` receive-omitted) is bucketed by ``(sender, round)`` in one
    pass, so each fragment looks up the messages it must send-omit
    instead of rescanning ``M``.  A fragment is edited only if it gains
    send-omissions (line 9) or loses receive-omissions
    (``M^{RO(j)} \\ M``).
    """
    dropped = execution.behavior(pid).all_receive_omitted()
    moved: dict[tuple[ProcessId, Round], set[Message]] = defaultdict(set)
    for message in dropped:
        moved[message.sender, message.round].add(message)
    faulty: set[ProcessId] = set()
    edits: dict[ProcessId, list[_Edit]] = {}
    for pz, behavior in enumerate(execution.behaviors):
        changed: list[_Edit] = []
        commits_fault = False
        for index, fragment in enumerate(behavior.fragments):
            receive_omitted = fragment.receive_omitted
            if receive_omitted:
                receive_omitted = receive_omitted - dropped
            sent_z = moved.get((pz, fragment.round))
            if sent_z:
                changed.append((
                    index,
                    fragment.sent - sent_z,
                    fragment.send_omitted | sent_z,
                    receive_omitted,
                ))
                commits_fault = True
                continue
            if len(receive_omitted) != len(fragment.receive_omitted):
                changed.append((
                    index,
                    fragment.sent,
                    fragment.send_omitted,
                    receive_omitted,
                ))
            if fragment.send_omitted or receive_omitted:
                commits_fault = True
        if commits_fault:
            faulty.add(pz)
        if changed:
            edits[pz] = changed
    return frozenset(faulty), edits


def _build_swap(
    execution: Execution,
    faulty: frozenset[ProcessId],
    edits: dict[ProcessId, list[_Edit]],
) -> Execution:
    """The planned execution; records without edits are shared."""
    behaviors = list(execution.behaviors)
    for pz, changed in edits.items():
        behavior = behaviors[pz]
        fragments = list(behavior.fragments)
        for index, sent, send_omitted, receive_omitted in changed:
            fragment = fragments[index]
            fragments[index] = Fragment(
                fragment.state,
                sent,
                send_omitted,
                fragment.received,
                receive_omitted,
            )
        behaviors[pz] = Behavior(
            tuple(fragments), final_state=behavior.final_state
        )
    return Execution(
        n=execution.n,
        t=execution.t,
        faulty=faulty,
        behaviors=tuple(behaviors),
    )


def swapped_faulty_set(
    trace: KernelTrace, pid: ProcessId
) -> frozenset[ProcessId]:
    """Algorithm 4's ``F'`` (lines 10-11) read off a kernel trace's masks.

    A kernel trace has no send-omissions, so after freeing ``pid`` the
    faulty processes are the senders ``pid`` ever receive-omitted (they
    now send-omit) plus every other process that receive-omits anything
    itself.  Equal to :func:`_plan_swap`'s set on the materialized
    execution, at the cost of one OR per process and round (memoized on
    the trace).
    """
    unions = trace.omit_unions()
    faulty = unions[pid]
    for pz, union in enumerate(unions):
        if union and pz != pid:
            faulty |= 1 << pz
    return frozenset(mask_members(faulty))


def _budget_error(faulty: frozenset[ProcessId], t: int) -> ModelViolation:
    return ModelViolation(
        f"Lemma 15 precondition: swapped faulty set "
        f"{sorted(faulty)} exceeds t={t}"
    )


def swap_omission(execution: Execution, pid: ProcessId) -> Execution:
    """Algorithm 4: re-attribute ``pid``'s receive-omissions to the senders.

    For every process ``p_z`` and round ``j``:

    * messages of ``p_z`` that ``pid`` receive-omitted move from
      ``sent`` to ``send_omitted`` (line 9);
    * ``pid``'s receive-omitted set is emptied of those messages
      (``M^{RO(j)} \\ M``, line 9);
    * the new faulty set contains exactly the processes that still commit
      an omission fault afterwards (lines 10-11).

    Fragments and behaviors the swap does not touch are reused as they
    are (they are immutable records).  The result's faulty set may exceed
    ``t`` if the preconditions of Lemma 15 do not hold; use
    :func:`swap_omission_checked` to enforce them.
    """
    return _build_swap(execution, *_plan_swap(execution, pid))


@dataclass(frozen=True)
class SwapResult:
    """Outcome of a checked swap: the new execution and what Lemma 15 says.

    Attributes:
        execution: the transformed execution ``E'``.
        now_correct: the focal process, correct in ``E'``.
        newly_faulty: senders blamed for the former receive-omissions.
    """

    execution: Execution
    now_correct: ProcessId
    newly_faulty: frozenset[ProcessId]


def swap_omission_checked(
    execution: Execution | KernelTrace,
    pid: ProcessId,
    witness_correct: ProcessId | None = None,
) -> SwapResult:
    """Run Algorithm 4 and machine-check every clause of Lemma 15.

    Preconditions checked (the lemma's hypotheses):

    * ``pid`` commits no send-omission faults in ``execution``;
    * the resulting faulty set fits the budget ``t``.

    Conclusions checked (the lemma's statements 1-4):

    1. the result is a valid execution (all A.1.6 guarantees);
    2. the result is indistinguishable from ``execution`` to every process;
    3. ``pid`` is correct in the result;
    4. ``witness_correct`` (if given) remains correct in the result.

    A :class:`KernelTrace` gets its budget decided from masks first
    (:func:`swapped_faulty_set`): over budget, the same error is raised
    and nothing is built; within budget, the trace is materialized and
    every check above runs on the execution.

    Raises:
        ModelViolation: if any hypothesis or conclusion fails — meaning
            either misuse, or (if hypotheses held) a bug falsifying the
            lemma on this instance.
    """
    if isinstance(execution, KernelTrace):
        faulty = swapped_faulty_set(execution, pid)
        if len(faulty) > execution.t:
            raise _budget_error(faulty, execution.t)
        execution = execution.to_execution()
    original_behavior = execution.behavior(pid)
    if original_behavior.all_send_omitted():
        raise ModelViolation(
            f"Lemma 15 precondition: p{pid} must not send-omit"
        )
    faulty, edits = _plan_swap(execution, pid)
    if len(faulty) > execution.t:  # before building anything
        raise _budget_error(faulty, execution.t)
    swapped = _build_swap(execution, faulty, edits)
    check_execution(swapped)  # conclusion 1
    if not indistinguishable_to_all(execution, swapped):  # conclusion 2
        raise ModelViolation(
            "swap_omission changed some process's observations"
        )
    if pid in swapped.faulty:  # conclusion 3
        raise ModelViolation(f"p{pid} still faulty after swap")
    if (
        witness_correct is not None
        and witness_correct in swapped.faulty
    ):  # conclusion 4
        raise ModelViolation(
            f"witness p{witness_correct} became faulty after swap"
        )
    return SwapResult(
        execution=swapped,
        now_correct=pid,
        newly_faulty=swapped.faulty - execution.faulty,
    )


def blamed_senders(
    execution: Execution, pid: ProcessId
) -> frozenset[ProcessId]:
    """The paper's set ``S``: senders of messages ``pid`` receive-omits.

    These are the processes the swap will blame; Lemma 2 bounds
    ``|S ∩ X| < t/2`` via the counting argument on ``M_{X→p}``.
    """
    return frozenset(
        message.sender
        for message in execution.behavior(pid).all_receive_omitted()
    )
