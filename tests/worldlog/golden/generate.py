"""Regenerate the golden world log and its expected derived views.

The committed fixture pins the *record → view* contract: CI (the
``worldlog-replay`` job) and ``tests/worldlog/test_golden.py`` derive
the certificate and bench views from ``run.worldlog`` and byte-diff
them against ``expected/``.  The expected artifacts are written here by
the artifact writers themselves (``Certificate.to_bytes`` and the
``BENCH_<suite>.json`` document format), so the diff proves the views
reproduce the writers' bytes — not merely their own earlier output.

Regenerate (only when the record schema or a writer legitimately
changes) from the repository root::

    PYTHONPATH=src python tests/worldlog/golden/generate.py

Both the log and ``expected/`` are rewritten together; a regeneration
that changes bytes should be a reviewed, deliberate event.
"""

import itertools
import json
import os
import shutil

from repro.lowerbound.driver import attack_weak_consensus
from repro.obs.bench import BENCH_SCHEMA
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.protocols.subquadratic import silent_cheater_spec
from repro.worldlog import WorldLog

HERE = os.path.dirname(os.path.abspath(__file__))
LOG_PATH = os.path.join(HERE, "run.worldlog")
EXPECTED = os.path.join(HERE, "expected")

BENCH_POINT = {
    "schema": BENCH_SCHEMA,
    "suite": "golden",
    "kernel": "attack/silent-cheater/n8/t4",
    "tier": "quick",
    "wall_seconds_median": 0.125,
    "unix_time": 0.0,
}


def main() -> None:
    ticks = itertools.count()

    def clock() -> float:
        # A deterministic ledger clock: only deltas within a run are
        # meaningful, so a plain counter keeps the fixture stable.
        return float(next(ticks))

    worldlog = WorldLog.create(LOG_PATH, run_id="golden")
    ledger = RunLedger(
        run_id="golden",
        worker_id=1,
        clock=clock,
        sink=worldlog.record_event,
    )
    outcome = attack_weak_consensus(
        silent_cheater_spec(8, 4),
        certify=True,
        tracer=LedgerTracer(ledger),
        worldlog=worldlog,
    )
    worldlog.append("bench.point", BENCH_POINT, worker_id=1)
    worldlog.close()

    shutil.rmtree(EXPECTED, ignore_errors=True)
    os.makedirs(EXPECTED)
    # certificate: the canonical bytes the artifact file ships.
    cert_dir = os.path.join(EXPECTED, "certificates")
    os.makedirs(cert_dir)
    label = f"{outcome.protocol}-n8-t4"
    with open(os.path.join(cert_dir, f"{label}.cert.json"), "wb") as out:
        out.write(outcome.certificate.to_bytes())
    # bench: the trajectory document format append_points persists.
    with open(
        os.path.join(EXPECTED, "BENCH_golden.json"), "w", encoding="utf-8"
    ) as out:
        json.dump(
            {"schema": BENCH_SCHEMA, "points": [BENCH_POINT]},
            out,
            indent=2,
            sort_keys=True,
        )
        out.write("\n")
    print(f"wrote {LOG_PATH} and {EXPECTED}/")


if __name__ == "__main__":
    main()
