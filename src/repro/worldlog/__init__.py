"""``repro.worldlog`` — the single append-only record store.

One run writes one *world log*: a tick-ordered JSONL sequence of typed
:class:`~repro.worldlog.record.Record` envelopes.  It is the
repository's only on-disk recording format: ledger events, attack
certificates, benchmark points, sweep cells and service jobs are all
records, and the artifact files are *views* derived by scanning the log
(:mod:`repro.worldlog.views`).  :mod:`repro.worldlog.store` is the only
code that writes or reads it.  On top of the views sit
the time-travel tools: a replay cursor that materializes "what the
system knew at tick T" (:mod:`repro.worldlog.replay`), a tick-aligned
semantic differ (:mod:`repro.worldlog.diffing`), and post-hoc metric
extraction (:func:`~repro.worldlog.replay.log_stats`).  See
``docs/WORLDLOG.md`` for the contract.
"""

from repro.worldlog.diffing import LogDiff, diff_logs
from repro.worldlog.record import (
    KINDS,
    WORLDLOG_SCHEMA,
    Record,
    log_order_signature,
)
from repro.worldlog.replay import (
    ReplayCursor,
    ReplayState,
    log_stats,
    replay_state,
    select_records,
)
from repro.worldlog.store import (
    LogTailer,
    WorldLog,
    read_records,
    read_worldlog,
)
from repro.worldlog.views import derive_views

__all__ = [
    "KINDS",
    "WORLDLOG_SCHEMA",
    "LogDiff",
    "LogTailer",
    "Record",
    "ReplayCursor",
    "ReplayState",
    "WorldLog",
    "derive_views",
    "diff_logs",
    "log_order_signature",
    "log_stats",
    "read_records",
    "read_worldlog",
    "replay_state",
    "select_records",
]
