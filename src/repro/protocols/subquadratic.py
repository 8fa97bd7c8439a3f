"""Sub-quadratic weak-consensus "cheaters" — the lower bound's prey (§3).

Theorem 2 says every correct weak consensus algorithm sends at least
``t²/32`` messages in some execution.  These protocols send (far) fewer —
so they *must* be incorrect, and the constructive content of the paper's
proof is that the incorrectness can be exhibited mechanically: the driver
in :mod:`repro.lowerbound.driver` runs the Lemma 2–5 pipeline against each
of them and produces a concrete, machine-verified violating execution.

Each cheater is a plausible-looking design a practitioner might try:

* :class:`SilentCheater` — zero messages: decide your own proposal.
* :class:`LeaderEchoCheater` — O(n): a leader collects proposals and
  announces the verdict.
* :class:`CommitteeCheater` — O(n·c): a c-member committee collects,
  verdicts are decided by committee majority.

All are deterministic state machines in the omission model, as Lemma 1
requires.
"""

from __future__ import annotations

from typing import Mapping

from repro.protocols.base import ProtocolSpec
from repro.sim.process import Process
from repro.types import Bit, Payload, ProcessId, Round


class SilentCheater(Process):
    """Decide your own proposal without any communication.

    Agreement obviously fails whenever proposals differ — but note that
    weak consensus only constrains executions; the driver still has to
    *construct* one with ≤ t omission faults where two *correct* processes
    disagree, which it does via the merge of round-1 isolations.
    """

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        return {}

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ == 1:
            self.decide(self.proposal)


def silent_cheater_spec(n: int, t: int) -> ProtocolSpec:
    """:class:`SilentCheater` as a spec (horizon 1)."""

    def factory(pid: ProcessId, proposal: Payload) -> SilentCheater:
        return SilentCheater(pid, n, t, proposal)

    return ProtocolSpec(
        name="silent-cheater", n=n, t=t, rounds=1, factory=factory
    )


class LeaderEchoCheater(Process):
    """O(n) messages: everyone reports to a leader, who announces a verdict.

    Round 1: all send their proposal to the leader.  Round 2: the leader
    broadcasts 0 iff every report (plus its own proposal) was 0, else 1.
    Everyone decides the leader's verdict, defaulting to 1 if the verdict
    never arrives.

    The fragility the driver exploits: an isolated group never hears the
    verdict and defaults to 1 — but its round-1 *reports still reach the
    leader* (isolation drops only incoming traffic), so after the
    omission-swap the defaulting process becomes correct while the leader
    is blamed, splitting correct decisions.
    """

    LEADER: ProcessId = 0

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        default: Bit = 1,
    ) -> None:
        super().__init__(pid, n, t, proposal)
        self.default = default
        self._reports: dict[ProcessId, Payload] = {pid: proposal}

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        if round_ == 1 and self.pid != self.LEADER:
            return {self.LEADER: ("report", self.proposal)}
        if round_ == 2 and self.pid == self.LEADER:
            verdict = self._verdict()
            return {
                other: ("verdict", verdict)
                for other in range(self.n)
                if other != self.pid
            }
        return {}

    def _verdict(self) -> Bit:
        if len(self._reports) == self.n and all(
            value == 0 for value in self._reports.values()
        ):
            return 0
        return 1

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ == 1 and self.pid == self.LEADER:
            for sender, payload in sorted(received.items()):
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == "report"
                ):
                    self._reports[sender] = payload[1]
        if round_ == 2:
            if self.pid == self.LEADER:
                self.decide(self._verdict())
                return
            payload = received.get(self.LEADER)
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "verdict"
            ):
                self.decide(payload[1])
            else:
                self.decide(self.default)


def leader_echo_spec(n: int, t: int, default: Bit = 1) -> ProtocolSpec:
    """:class:`LeaderEchoCheater` as a spec (horizon 2)."""

    def factory(pid: ProcessId, proposal: Payload) -> LeaderEchoCheater:
        return LeaderEchoCheater(pid, n, t, proposal, default=default)

    return ProtocolSpec(
        name="leader-echo-cheater", n=n, t=t, rounds=2, factory=factory
    )


class CommitteeCheater(Process):
    """O(n·c) messages: a committee of ``c`` leaders votes on the verdict.

    Round 1: everyone reports its proposal to every committee member.
    Round 2: each committee member broadcasts its local verdict (0 iff all
    ``n`` reports were 0).  Everyone decides the majority verdict among
    the committee messages it received (absent votes count as 1, ties
    decide 1).

    Replicating the leader does not help: isolating a group that contains
    *no* committee member still silences all verdicts towards it, and the
    same swap argument applies.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        committee_size: int,
        default: Bit = 1,
    ) -> None:
        super().__init__(pid, n, t, proposal)
        if not 1 <= committee_size <= n:
            raise ValueError(
                f"committee size {committee_size} outside [1, {n}]"
            )
        self.committee: tuple[ProcessId, ...] = tuple(
            range(committee_size)
        )
        self.default = default
        self._reports: dict[ProcessId, Payload] = {pid: proposal}

    @property
    def on_committee(self) -> bool:
        """Whether this process is a committee member."""
        return self.pid in self.committee

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        if round_ == 1:
            return {
                member: ("report", self.proposal)
                for member in self.committee
                if member != self.pid
            }
        if round_ == 2 and self.on_committee:
            verdict = self._verdict()
            return {
                other: ("verdict", verdict)
                for other in range(self.n)
                if other != self.pid
            }
        return {}

    def _verdict(self) -> Bit:
        if len(self._reports) == self.n and all(
            value == 0 for value in self._reports.values()
        ):
            return 0
        return 1

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ == 1 and self.on_committee:
            for sender, payload in sorted(received.items()):
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == "report"
                ):
                    self._reports[sender] = payload[1]
        if round_ == 2:
            votes: list[Bit] = []
            own_vote = self._verdict() if self.on_committee else None
            for member in self.committee:
                if member == self.pid:
                    votes.append(own_vote)
                    continue
                payload = received.get(member)
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == "verdict"
                ):
                    votes.append(payload[1])
                else:
                    votes.append(self.default)
            zeros = sum(1 for vote in votes if vote == 0)
            self.decide(0 if zeros * 2 > len(votes) else 1)


def committee_cheater_spec(
    n: int, t: int, committee_size: int | None = None, default: Bit = 1
) -> ProtocolSpec:
    """:class:`CommitteeCheater` as a spec (horizon 2).

    The default committee size ``max(1, ⌊√t⌋)`` keeps the message count at
    ``O(n·√t)`` — asymptotically ``o(t²)`` when ``n ∈ O(t)``, so the
    Theorem-2 floor eventually dwarfs it.  (A committee of ``Θ(t)`` would
    be quadratic and outside the cheater story.)
    """
    import math

    size = (
        committee_size
        if committee_size is not None
        else max(1, math.isqrt(t))
    )

    def factory(pid: ProcessId, proposal: Payload) -> CommitteeCheater:
        return CommitteeCheater(
            pid, n, t, proposal, committee_size=size, default=default
        )

    return ProtocolSpec(
        name=f"committee-cheater(c={size})",
        n=n,
        t=t,
        rounds=2,
        factory=factory,
    )


class RingTokenCheater(Process):
    """O(n) messages: a conjunction token around the ring, then a verdict.

    Process 0 starts a token carrying "all proposals so far are 0"; process
    ``j`` expects it in round ``j``, folds in its own proposal, and passes
    it on (forwarding a poisoned token if it arrives late or never — a
    deterministic reaction to detected silence).  Process ``n-1``
    broadcasts the final verdict in round ``n``; everyone decides it,
    defaulting to 1 when the verdict goes missing.

    ≈ ``2n`` messages total.  Unlike the one-shot cheaters, this one's
    decision under group isolation genuinely depends on *when* the group
    is isolated — its default-bit behaviour flips at a critical round, so
    the driver must walk the full Lemma-4 interpolation (stage 4) to break
    it.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        default: Bit = 1,
    ) -> None:
        super().__init__(pid, n, t, proposal)
        self.default = default
        self._token_value: bool | None = (
            None if pid != 0 else proposal == 0
        )

    @property
    def verdict_round(self) -> Round:
        """Round ``n``: the last ring member broadcasts the verdict."""
        return self.n

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        if round_ == self.pid + 1 and self.pid != self.n - 1:
            # Our slot in the ring: pass the (possibly poisoned) token.
            token = bool(self._token_value)
            return {self.pid + 1: ("token", token)}
        if round_ == self.verdict_round and self.pid == self.n - 1:
            verdict = 0 if self._token_value else 1
            return {
                other: ("verdict", verdict)
                for other in range(self.n)
                if other != self.pid
            }
        return {}

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ == self.pid and self.pid != 0:
            payload = received.get(self.pid - 1)
            arrived = (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "token"
                and payload[1] is True
            )
            self._token_value = arrived and self.proposal == 0
        if round_ == self.verdict_round:
            if self.pid == self.n - 1:
                self.decide(0 if self._token_value else 1)
                return
            payload = received.get(self.n - 1)
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "verdict"
            ):
                self.decide(payload[1])
            else:
                self.decide(self.default)


def ring_token_spec(n: int, t: int, default: Bit = 1) -> ProtocolSpec:
    """:class:`RingTokenCheater` as a spec (horizon ``n``)."""

    def factory(pid: ProcessId, proposal: Payload) -> RingTokenCheater:
        return RingTokenCheater(pid, n, t, proposal, default=default)

    return ProtocolSpec(
        name="ring-token-cheater", n=n, t=t, rounds=n, factory=factory
    )


def seeded_committee_cheater_spec(
    n: int, t: int, seed: int = 0, default: Bit = 1
) -> ProtocolSpec:
    """A 'randomized' committee cheater with its coins fixed by ``seed``.

    Samples a pseudo-random committee of ``max(1, ⌊√t⌋)`` members from a
    hash of ``seed`` — the sampling-based sub-quadratic designs of §6's
    randomized lines, with the coin flips baked in.  The paper's model is
    deterministic, so this is exactly what a randomized protocol looks
    like *after* conditioning on its randomness: each seed instance is a
    deterministic algorithm, and Theorem 2 breaks every one of them.
    (Whether randomization helps against a weaker adversary over the
    *distribution* of seeds is the paper's §7 future work.)
    """
    import hashlib
    import math

    size = max(1, math.isqrt(t))
    digest = hashlib.sha256(
        f"committee|{n}|{t}|{seed}".encode()
    ).digest()
    scored = sorted(
        range(n),
        key=lambda pid: (digest[pid % len(digest)] ^ (pid * 131) % 251, pid),
    )
    committee = tuple(sorted(scored[:size]))

    def factory(pid: ProcessId, proposal: Payload) -> "SampledCommitteeCheater":
        return SampledCommitteeCheater(
            pid, n, t, proposal, committee=committee, default=default
        )

    return ProtocolSpec(
        name=f"seeded-committee-cheater(seed={seed})",
        n=n,
        t=t,
        rounds=2,
        factory=factory,
    )


class SampledCommitteeCheater(CommitteeCheater):
    """A :class:`CommitteeCheater` over an arbitrary committee set."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        committee: tuple[ProcessId, ...],
        default: Bit = 1,
    ) -> None:
        super().__init__(
            pid, n, t, proposal, committee_size=1, default=default
        )
        if not committee:
            raise ValueError("committee must be non-empty")
        self.committee = tuple(sorted(committee))

