"""Correct weak consensus (§1, §3).

*Weak Validity*: if **all** processes are correct and they all propose the
same value, that value must be decided.  Any other scenario leaves the
decision unconstrained (within ``V_O``), which is what makes weak consensus
the weakest non-trivial agreement problem (Lemma 6) — and what makes its
``t²/32`` lower bound (Lemma 1) so strong.

The implementation decides the designated process 0's proposal as
broadcast by Dolev–Strong, falling back to ``default`` when the broadcast
exposes a faulty sender:

* *Termination* / *Agreement* — inherited from Dolev–Strong (any ``t<n``).
* *Weak Validity* — if everyone is correct and proposes ``b``, process 0
  is correct and broadcasts ``b``, so all decide ``b``.

Because Byzantine resilience subsumes omission resilience, the protocol is
also a correct omission-model weak consensus — the setting of Lemma 1 —
and its fault-free message complexity is ≈ ``n²`` ≥ ``t²/32``: the bound
is respected, as experiment E1 verifies.  (A naive "flood proposals and
decide 0 iff all were 0" protocol is *not* correct under omission faults:
a faulty sender reaching one correct process but not another in the final
round splits the decision.  The test-suite demonstrates that failure mode
explicitly.)
"""

from __future__ import annotations

from typing import Mapping

from repro.protocols.base import ProtocolSpec
from repro.protocols.dolev_strong import (
    SENDER_FAULTY,
    DolevStrongProcess,
    dolev_strong_spec,
)
from repro.sim.process import Process
from repro.types import Bit, Payload, ProcessId, Round


class BroadcastWeakConsensus(Process):
    """Weak consensus by broadcasting process 0's proposal (any ``t<n``)."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        inner: DolevStrongProcess,
        default: Payload = 1,
    ) -> None:
        super().__init__(pid, n, t, proposal)
        self.inner = inner
        self.default = default

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        return self.inner.outgoing(round_)

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        self.inner.deliver(round_, received)
        if self.inner.decision is not None and self.decision is None:
            broadcast = self.inner.decision
            if broadcast == SENDER_FAULTY:
                self.decide(self.default)
            else:
                self.decide(broadcast)


def broadcast_weak_consensus_spec(
    n: int,
    t: int,
    *,
    default: Bit = 1,
    seed: bytes | str = b"repro-weak",
) -> ProtocolSpec:
    """Weak consensus via Dolev–Strong broadcast of process 0's proposal."""
    ds = dolev_strong_spec(n, t, sender=0, seed=seed, instance="weak")

    def factory(pid: ProcessId, proposal: Payload) -> BroadcastWeakConsensus:
        inner = ds.factory(pid, proposal)
        assert isinstance(inner, DolevStrongProcess)
        return BroadcastWeakConsensus(
            pid, n, t, proposal, inner=inner, default=default
        )

    return ProtocolSpec(
        name="weak-consensus-broadcast",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=True,
    )


class NaiveFloodingWeakConsensus(Process):
    """The *incorrect* textbook attempt, kept as a counterexample.

    Floods all known ``(origin, proposal)`` pairs for ``t+1`` rounds and
    decides 0 iff it learned a 0-proposal... no — iff it learned that
    *every* process proposed 0.  Under crash faults this is the classic
    FloodSet argument; under **omission** faults it is unsound: a faulty
    process whose sends are dropped towards one correct process but not
    another in the last round splits the correct decisions.  The
    test-suite constructs that execution (``tests/protocols/
    test_weak_consensus.py``), illustrating why the paper's lower bound
    cannot be dodged by cheap flooding.
    """

    def __init__(
        self, pid: ProcessId, n: int, t: int, proposal: Payload
    ) -> None:
        super().__init__(pid, n, t, proposal)
        self.known: dict[ProcessId, Payload] = {pid: proposal}

    @property
    def last_round(self) -> Round:
        return self.t + 1

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        if round_ > self.last_round:
            return {}
        payload = tuple(sorted(self.known.items()))
        return {
            other: payload for other in range(self.n) if other != self.pid
        }

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ > self.last_round:
            return
        if len(self.known) < self.n:
            # Keys of ``known`` are ``pid`` and origins in ``[0, n)``:
            # once it holds ``n`` entries no payload can add one.
            for _, payload in sorted(received.items()):
                if not isinstance(payload, tuple):
                    continue
                for entry in payload:
                    if not (isinstance(entry, tuple) and len(entry) == 2):
                        continue
                    origin, value = entry
                    if (
                        isinstance(origin, int)
                        and 0 <= origin < self.n
                        and origin not in self.known
                    ):
                        self.known[origin] = value
        if round_ == self.last_round:
            all_zero = len(self.known) == self.n and all(
                value == 0 for value in self.known.values()
            )
            self.decide(0 if all_zero else 1)


def naive_flooding_spec(n: int, t: int) -> ProtocolSpec:
    """The unsound flooding protocol (counterexample; see class docs)."""

    def factory(
        pid: ProcessId, proposal: Payload
    ) -> NaiveFloodingWeakConsensus:
        return NaiveFloodingWeakConsensus(pid, n, t, proposal)

    return ProtocolSpec(
        name="naive-flooding-weak-consensus",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=False,
    )
