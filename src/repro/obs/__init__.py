"""Observability: the unified run ledger, tracer, metrics and reports.

The layer every pipeline stage emits into and every report reads from:

* :mod:`repro.obs.ledger` — the append-only in-memory event log with
  the ``run_id`` / ``cell_id`` / ``worker_id`` correlation triple and
  the cross-process splice protocol (persisted only through the world
  log, :mod:`repro.worldlog`);
* :mod:`repro.obs.tracer` — span tracing with a zero-overhead no-op
  default (:data:`NULL_TRACER`) and the per-round engine observer;
* :mod:`repro.obs.metrics` — the associative registry of named
  counters, gauges and histograms;
* :mod:`repro.obs.report` — the ``repro trace`` timeline;
* :mod:`repro.obs.telemetry` — the sampled telemetry bus folding live
  metrics/progress/round accounting into observability-only
  ``telemetry.snapshot`` world-log records;
* :mod:`repro.obs.export` — Prometheus text exposition and Chrome
  trace-event JSON adapters.

Telemetry is wall-clock data: it never participates in outcome
equality, and the parallel sweep backends are required to agree only on
the *event order* (``kind``/``name``/``cell_id`` sequence), never on
timestamps or worker ids.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "chrome_trace": "repro.obs.export",
    "registry_from_events": "repro.obs.export",
    "render_prometheus": "repro.obs.export",
    "EVENT_KINDS": "repro.obs.ledger",
    "LedgerEvent": "repro.obs.ledger",
    "RunLedger": "repro.obs.ledger",
    "cell_label": "repro.obs.ledger",
    "new_run_id": "repro.obs.ledger",
    "order_signature": "repro.obs.ledger",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "TELEMETRY_SCHEMA": "repro.obs.telemetry",
    "TelemetryBus": "repro.obs.telemetry",
    "parse_interval": "repro.obs.telemetry",
    "NULL_TRACER": "repro.obs.tracer",
    "LedgerTracer": "repro.obs.tracer",
    "RoundTraceObserver": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
