"""Traced twin of one ``python -m repro`` invocation.

Usage: ``python traced.py OUT.json ARGV...`` with ``src`` on
``PYTHONPATH``.  The script times ``import repro.cli``, wraps the public
entry point of each layer where its caller looks the name up, runs
``repro.cli.main(ARGV)`` and writes the per-span aggregates and counts
to ``OUT.json``.  Its stdout and exit code are the CLI's own, so the
parent can require them to equal the untraced run's.  Nothing inside
``repro`` is changed; the attack keeps its default kernel path.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# The entry point each span name wraps, by layer:
#   cli        cli.import (import repro.cli), cli.main (repro.cli.main)
#   lowerbound repro.cli.attack_weak_consensus
#   kernel     run_kernel, fork_kernel (driver), PrefixForker.machines_at
#   protocols  deliver / outgoing of every concrete Process subclass
#   objects    KernelTrace.to_execution
#   omission   swap_omission_checked, merge (driver)
#   check      check_execution, verify_witness (driver)
#   certify    build_certificate, verify_certificate
#   engine     ProtocolSpec.run_uniform, resume_execution (driver)
#   worldlog   WorldLog.append, read_records


class Recorder:
    """Nested spans kept in memory: ``[name, start, end, parent]`` rows,
    ``parent`` being the index of the enclosing open span or ``-1``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` (duration minus the direct
    child spans), and ``busy_s`` (duration of the spans that have no
    enclosing span of the same layer, so a layer's busy time is never
    counted twice when it re-enters itself)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        layer, outer = layer_of(name), parent
        while outer >= 0 and layer_of(spans[outer][0]) != layer:
            outer = spans[outer][3]
        if outer < 0:
            row["busy_s"] += end - start
    return table


def _wrap(recorder: Recorder, owner, attr: str, name: str, after=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(result, args)
        return result

    setattr(owner, attr, wrapper)


def _wrap_swap(recorder: Recorder, driver) -> None:
    from repro.errors import ModelViolation

    original = driver.swap_omission_checked

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.open("omission.swap")
        try:
            return original(*args, **kwargs)
        except ModelViolation:
            recorder.count("omission.swap_failed")
            raise
        finally:
            recorder.close(index)

    driver.swap_omission_checked = wrapper


def _wrap_engine(recorder: Recorder, owner, attr: str, name: str) -> None:
    """Engine spans also attribute the machine deep copies made inside
    them (the kernel's PrefixForker bumps the same tally)."""
    from repro.sim.engine import object_counts

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before = object_counts()["machine_snapshots"]
        index = recorder.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index)
            recorder.count(
                "engine.machine_snapshots",
                object_counts()["machine_snapshots"] - before,
            )

    setattr(owner, attr, wrapper)


def _process_classes(root):
    seen, pending = [], [root]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points (after ``repro.cli`` is imported)."""
    import repro.certify.format as cert_format
    import repro.certify.verifier as cert_verifier
    import repro.cli as cli
    import repro.lowerbound.driver as driver
    import repro.worldlog.store as store
    from repro.protocols.base import ProtocolSpec
    from repro.sim.kernel import KernelTrace, PrefixForker
    from repro.sim.process import Process

    def attack_done(outcome, _args):
        recorder.count("lowerbound.rounds_simulated", outcome.rounds_simulated)
        recorder.count("lowerbound.rounds_baseline", outcome.rounds_baseline)

    def kernel_done(trace, _args):
        recorder.count("kernel.rounds", len(trace.rounds) - trace.prefix_rounds)

    def verified(_report, args):
        if isinstance(args[0], (bytes, bytearray)):
            recorder.count("certify.bytes", len(args[0]))

    _wrap(recorder, cli, "attack_weak_consensus", "lowerbound.attack", attack_done)
    _wrap(recorder, driver, "run_kernel", "kernel.run", kernel_done)
    _wrap(recorder, driver, "fork_kernel", "kernel.fork_run", kernel_done)
    _wrap(recorder, PrefixForker, "machines_at", "kernel.fork")
    for cls in _process_classes(Process):
        for attr in ("deliver", "outgoing"):
            if attr in vars(cls):
                _wrap(recorder, cls, attr, f"protocols.{attr}")
    _wrap(recorder, KernelTrace, "to_execution", "objects.materialize")
    _wrap_swap(recorder, driver)
    _wrap(recorder, driver, "merge", "omission.merge")
    _wrap(recorder, driver, "check_execution", "check.execution")
    _wrap(recorder, driver, "verify_witness", "check.witness")
    _wrap(recorder, cert_format, "build_certificate", "certify.build")
    _wrap(recorder, cert_verifier, "verify_certificate", "certify.verify", verified)
    _wrap_engine(recorder, ProtocolSpec, "run_uniform", "engine.run")
    _wrap_engine(recorder, driver, "resume_execution", "engine.resume")
    _wrap(recorder, store.WorldLog, "append", "worldlog.append")
    _wrap(recorder, store, "read_records", "worldlog.read")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    before = set(sys.modules)
    index = recorder.open("cli.import")
    import repro.cli

    recorder.close(index)
    modules = len(set(sys.modules) - before)
    install(recorder)
    from repro.sim.engine import object_counts, object_counts_delta

    counts_before = object_counts()
    index = recorder.open("cli.main")
    code = repro.cli.main(argv)
    recorder.close(index)
    delta = object_counts_delta(counts_before)
    sys.stdout.flush()
    recorder.count("cli.modules", modules)
    recorder.count("objects.messages_built", delta["messages_materialized"])
    recorder.count("objects.behaviors_built", delta["behaviors_built"])
    # Aggregating is tracing overhead: it stays unattributed, before t_end.
    spans = aggregate(recorder.spans)
    t_end = time.perf_counter()
    with open(out_path, "w") as handle:
        json.dump({"t0": T0, "t_end": t_end, "spans": spans, "counts": recorder.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
