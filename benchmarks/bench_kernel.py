"""Bitmask round-kernel benchmarks (not a paper experiment).

Measures the compiled-by-representation fast path
(:mod:`repro.sim.kernel`) against the object engine on identical
workloads:

* the *representation pair* — one dense flood protocol with trivially
  cheap machines, so nearly all measured time is engine representation
  overhead (per-message objects vs per-round masks).  This pair carries
  the CI speedup gate: run ``python benchmarks/bench_kernel.py --gate
  8`` to fail when the kernel's advantage on loop minima decays;
* the *fork fan-out* — the Lemma-4 batched scan primitive
  (:class:`~repro.sim.kernel.PrefixForker` + ``fork_kernel``) vs
  fresh full-horizon kernel runs;
* the *end-to-end pair* — the full lower-bound attack under the
  default ``kernel="auto"`` (the mask kernel) vs ``kernel="object"``.

Both engines run the same machines, and every kernel result is
asserted against the object engine's, so a timing run doubles as an
equivalence run.
"""

from __future__ import annotations

import time

from repro.lowerbound.driver import attack_weak_consensus
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.subquadratic import ring_token_spec
from repro.sim.adversary import NoFaults
from repro.sim.kernel import (
    PrefixForker,
    fork_kernel,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.process import Process
from repro.sim.simulator import SimulationConfig, run_execution

FLOOD_N = 48
FLOOD_ROUNDS = 6


class EchoFlood(Process):
    """All-to-all broadcast with near-zero machine cost.

    ``outgoing`` returns a prebuilt row and ``deliver`` only decides at
    the horizon, so a timed run measures the *engine's* per-message /
    per-mask cost rather than protocol logic.
    """

    def __init__(self, pid, n, t, proposal, rounds):
        super().__init__(pid, n, t, proposal)
        self._rounds = rounds
        self._row = {
            receiver: proposal for receiver in range(n) if receiver != pid
        }

    def outgoing(self, round_):
        return self._row

    def deliver(self, round_, received):
        if round_ >= self._rounds and self.decision is None:
            self.decide(self.proposal)


def _flood_config(n=FLOOD_N, rounds=FLOOD_ROUNDS):
    config = SimulationConfig(n=n, t=0, rounds=rounds, check=False)

    def factory(pid, proposal):
        return EchoFlood(pid, n, 0, proposal, rounds)

    return config, factory


def _flood_object(n=FLOOD_N, rounds=FLOOD_ROUNDS):
    config, factory = _flood_config(n, rounds)
    execution = run_execution(config, [1] * n, factory, NoFaults())
    assert execution.decision(0) == 1
    return execution


def _flood_kernel(n=FLOOD_N, rounds=FLOOD_ROUNDS):
    config, factory = _flood_config(n, rounds)
    trace = run_kernel(config, [1] * n, factory, no_faults_compiled(n))
    assert trace.decision(0) == 1
    return trace


def bench_kernel_flood_mask(benchmark):
    """The mask kernel on the dense flood (representation numerator)."""
    trace = benchmark(_flood_kernel)
    assert trace.rounds_run == FLOOD_ROUNDS


def bench_kernel_flood_object(benchmark):
    """The object engine on the identical flood (the denominator)."""
    execution = benchmark(_flood_object)
    assert execution.rounds == FLOOD_ROUNDS


def bench_kernel_flood_equivalence(benchmark):
    """Mask run plus materialization, asserted equal to the object run.

    The delta against ``bench_kernel_flood_mask`` is the one-time
    materialization cost a trace pays only when a consumer actually
    needs the Appendix-A record.
    """
    reference = _flood_object()

    def run():
        trace = _flood_kernel()
        execution = trace.to_execution()
        assert execution == reference
        return execution

    benchmark(run)


def bench_kernel_fork_fanout(benchmark):
    """Fanning 8 isolation candidates out of one shared prefix."""
    spec = ring_token_spec(12, 8)
    config = SimulationConfig(
        n=12, t=8, rounds=spec.rounds, check=False
    )
    base = run_kernel(
        config, [0] * 12, spec.factory, no_faults_compiled(12)
    )

    def fanout():
        forker = PrefixForker(config, [0] * 12, spec.factory, base)
        traces = []
        for from_round in range(2, 10):
            machines, _ = forker.machines_at(from_round)
            compiled = compile_omissions(
                isolate_group({8, 9}, from_round), 12
            )
            traces.append(
                fork_kernel(config, machines, compiled, base, from_round)
            )
        return traces

    traces = benchmark(fanout)
    assert len(traces) == 8


def bench_kernel_attack_mask(benchmark):
    """The full lower-bound attack on the default (mask) kernel."""
    outcome = benchmark(lambda: attack_weak_consensus(ring_token_spec(12, 8)))
    assert outcome.found_violation


def bench_kernel_attack_object(benchmark):
    """The same attack pinned to the object engine (e2e denominator)."""
    outcome = benchmark(
        lambda: attack_weak_consensus(
            ring_token_spec(12, 8), kernel="object"
        )
    )
    assert outcome.found_violation


# ----------------------------------------------------------------------
# benchmark-observatory registration (`repro bench run`)
# ----------------------------------------------------------------------

from repro.obs.bench import register as _register

_register("kernel", "flood_mask_n48", _flood_kernel, quick=True)
_register("kernel", "flood_object_n48", _flood_object, quick=True)


def _observatory_attack_mask():
    outcome = attack_weak_consensus(ring_token_spec(12, 8))
    assert outcome.found_violation
    return outcome


def _observatory_attack_object():
    outcome = attack_weak_consensus(
        ring_token_spec(12, 8), kernel="object"
    )
    assert outcome.found_violation
    return outcome


_register("kernel", "attack_mask_n12_t8", _observatory_attack_mask,
          quick=True)
_register("kernel", "attack_object_n12_t8", _observatory_attack_object,
          quick=True)


def _flood_kernel_n64():
    return _flood_kernel(n=64)


_register("kernel", "flood_mask_n64", _flood_kernel_n64)


# ----------------------------------------------------------------------
# the CI speedup gate: `python benchmarks/bench_kernel.py --gate 8`
# ----------------------------------------------------------------------


def _best_of(fn, repetitions=15):
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def speedup_gate(threshold: float, repetitions: int = 15) -> int:
    """Fail (exit 1) when mask/object loop-minima speedup < threshold.

    Both sides run interleaved warm in the same process, so the ratio of
    minima is largely machine- and load-independent — the same
    noise-dodging idea as ``repro bench compare``'s median gate, applied
    to a ratio that must stay *large* rather than a delta that must stay
    small.
    """
    _flood_kernel()  # warm both paths (intern caches, bytecode)
    _flood_object()
    mask = _best_of(_flood_kernel, repetitions)
    objects = _best_of(_flood_object, repetitions)
    ratio = objects / mask if mask else float("inf")
    verdict = "OK" if ratio >= threshold else "REGRESSED"
    print(
        f"kernel speedup gate: object {objects * 1e3:.2f} ms / "
        f"mask {mask * 1e3:.2f} ms = {ratio:.1f}x "
        f"(threshold {threshold:.1f}x) {verdict}"
    )
    return 0 if ratio >= threshold else 1


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="mask-vs-object kernel speedup gate"
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=8.0,
        help="minimum acceptable speedup on flood loop minima",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=15,
        help="timing repetitions per engine (minima are compared)",
    )
    raise SystemExit(
        speedup_gate(parser.parse_args().gate,
                     parser.parse_args().repetitions)
    )
