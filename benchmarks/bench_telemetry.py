"""Telemetry benchmarks: sampling overhead and export throughput.

The observability issue's performance bar is two-sided: telemetry must
be *free when off* and *cheap when on* (≤5% at the default interval).
The kernels here measure every piece of that budget in isolation — the
off-interval ``maybe_sample`` fast path (one clock read, one compare),
the full snapshot fold, the write-through sampled append, the two
export adapters and the incremental tail reader — each over synthetic
inputs large enough to dominate fixed costs.  Every kernel asserts its
shape claim, so a timing run doubles as a correctness run; the quick
tier feeds the committed ``benchmarks/baselines/BENCH_telemetry.json``
baseline and the CI ``telemetry-equivalence`` job.
"""

import atexit
import os
import shutil
import tempfile

from repro.obs.bench import benchmark_kernel
from repro.obs.export import chrome_trace, render_prometheus, registry_from_events
from repro.obs.ledger import LedgerEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.obs.telemetry import TelemetryBus
from repro.worldlog.store import LogTailer, WorldLog, read_worldlog

ROUNDS = 512
SNAPSHOTS = 64
TAIL_RECORDS = 2048

_SCRATCH = tempfile.mkdtemp(prefix="bench-telemetry")
atexit.register(shutil.rmtree, _SCRATCH, ignore_errors=True)


class _Event:
    """The one method the round tap reads off an engine round event."""

    @staticmethod
    def sent_by_correct():
        return 6


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("engine.round").add(ROUNDS)
    registry.counter("cache.hits").add(300)
    registry.counter("cache.alias_hits").add(50)
    registry.counter("cache.misses").add(150)
    registry.gauge("bound.vs_floor").set(1.5)
    for index in range(64):
        registry.histogram("engine.round_seconds").record(
            0.001 * (index % 7 + 1)
        )
    return registry


def _synthetic_events() -> list[LedgerEvent]:
    """A span-and-counter stream shaped like a recorded attack run."""
    events: list[LedgerEvent] = []

    def emit(kind, name, ts, value=None, cell=None):
        events.append(
            LedgerEvent(
                kind=kind,
                name=name,
                ts=ts,
                value=value,
                run_id="bench",
                cell_id=cell,
                worker_id=1,
            )
        )

    clock = 0.0
    for index in range(96):
        cell = f"cell/{index:03d}"
        emit("span-start", "attack", clock, cell=cell)
        for round_index in range(16):
            clock += 0.001
            emit("counter", "engine.round", clock, value=1, cell=cell)
        emit("gauge", "cell.wall_seconds", clock, value=0.016, cell=cell)
        clock += 0.001
        emit("span-end", "attack", clock, cell=cell)
    return events


_EVENTS = _synthetic_events()


def _loaded_bus(log: WorldLog, clock=None) -> TelemetryBus:
    """A bus with every section attached — the worst-case fold."""
    kwargs = {} if clock is None else {"clock": clock}
    bus = TelemetryBus(
        log, interval=1.0, source="bench", metrics=_registry(), **kwargs
    )
    progress = SweepProgress(96, label="bench")
    progress.start("cell/000")
    bus.attach_progress(progress)
    tap = bus.round_tap(floor=8.0)
    tap.on_run_start(None, None, None)
    tap.rounds_seen = ROUNDS  # pre-counted rounds, no per-round pump
    tap.cum_messages = ROUNDS * 6
    bus.add_source("service", lambda: {"queued": 3, "busy": 1})
    return bus


@benchmark_kernel("telemetry", "maybe_sample_off_interval", quick=True)
def bench_maybe_sample_off_interval():
    """The per-round fast path: not-due polls must append nothing."""
    path = os.path.join(_SCRATCH, "idle.worldlog")
    with WorldLog.create(path, run_id="bench") as log:
        bus = _loaded_bus(log)
        bus.sample()  # arm the interval clock
        for _ in range(200_000):
            bus.maybe_sample()
        assert bus.samples == 1
    return bus


@benchmark_kernel("telemetry", "snapshot_fold", quick=True)
def bench_snapshot_fold():
    """Folding every attached section into one snapshot payload."""
    path = os.path.join(_SCRATCH, "fold.worldlog")
    with WorldLog.create(path, run_id="bench") as log:
        bus = _loaded_bus(log)
        for _ in range(SNAPSHOTS):
            payload = bus.build_snapshot()
    assert payload["rounds"]["seen"] == ROUNDS
    assert payload["cache_hit_rate"] == 0.7
    assert payload["service"]["queued"] == 3
    return payload


@benchmark_kernel("telemetry", "sampled_append", quick=True)
def bench_sampled_append():
    """Write-through sampled snapshots landing in a real world log."""
    path = os.path.join(_SCRATCH, "append.worldlog")
    with WorldLog.create(path, run_id="bench") as log:
        bus = _loaded_bus(log)
        for _ in range(SNAPSHOTS):
            bus.sample()
    records = read_worldlog(path)
    snaps = [r for r in records if r.kind == "telemetry.snapshot"]
    assert len(snaps) == SNAPSHOTS
    return snaps


@benchmark_kernel("telemetry", "prometheus_render", quick=True)
def bench_prometheus_render():
    """Event refold plus exposition text for a full recorded run."""
    registry = registry_from_events(_EVENTS)
    document = render_prometheus(registry.snapshot())
    assert "repro_engine_round_total 1536" in document
    assert "repro_span_attack_seconds_count 96" in document
    return document


@benchmark_kernel("telemetry", "chrome_render", quick=True)
def bench_chrome_render():
    """Chrome trace assembly for the same recorded run."""
    trace = chrome_trace(_EVENTS)
    events = trace["traceEvents"]
    spans = [entry for entry in events if entry["ph"] in ("B", "E")]
    assert len(spans) == 2 * 96
    return trace


@benchmark_kernel("telemetry", "tailer_full_poll", quick=True)
def bench_tailer_full_poll():
    """One cold poll over a multi-thousand-record log."""
    path = os.path.join(_SCRATCH, "tail.worldlog")
    if not os.path.exists(path):
        with WorldLog.create(path, run_id="bench") as log:
            for index in range(TAIL_RECORDS):
                log.append("bench.point", {"i": index})
    records = LogTailer(path).poll()
    assert len(records) == TAIL_RECORDS + 1  # + log.open header
    return records
