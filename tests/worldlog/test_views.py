"""Derived views: artifact files and ledger events read from a world log.

*record → view*: the artifacts derived from a world log match what the
artifact writer persists for the same run, byte for byte, and the
ledger events read back equal the live run ledger's.
"""

import json
import os

from repro.lowerbound.driver import attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.protocols.subquadratic import silent_cheater_spec
from repro.worldlog import WorldLog, derive_views, read_worldlog
from repro.worldlog.views import certificate_texts, ledger_events


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestDerivedViews:
    def test_ledger_view_byte_identical_to_run_ledger_write(
        self, tmp_path
    ):
        """The events read back are byte for byte what the ledger wrote."""
        log_path = str(tmp_path / "run.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            ledger = RunLedger(run_id="r", sink=log.record_event)
            attack_weak_consensus(
                silent_cheater_spec(8, 4),
                tracer=LedgerTracer(ledger),
                worldlog=log,
            )
        records = read_worldlog(log_path)
        assert [event.to_json() for event in ledger_events(records)] == [
            event.to_json() for event in ledger.events
        ]
        # The driver's fault-free checkpoints stay in memory.
        assert {record.kind for record in records} == {
            "log.open",
            "ledger.event",
        }
        # Ledger events are read in memory only: no file view.
        assert derive_views(records, str(tmp_path / "views")) == {}

    def test_certificate_view_byte_identical_to_artifact(self, tmp_path):
        log_path = str(tmp_path / "run.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            outcome = attack_weak_consensus(
                silent_cheater_spec(8, 4), certify=True, worldlog=log
            )
        records = read_worldlog(log_path)
        texts = certificate_texts(records)
        label = f"{outcome.protocol}-n8-t4"
        assert texts == {label: outcome.certificate.dumps()}
        written = derive_views(records, str(tmp_path / "views"))
        (cert_path,) = written["certificates"]
        assert os.path.basename(cert_path) == f"{label}.cert.json"
        assert _read(cert_path).encode() == outcome.certificate.to_bytes()

    def test_ledger_view_reads_after_last_gather_marker(self, tmp_path):
        """Crash-mid-gather safety: only the final splice survives."""
        log_path = str(tmp_path / "run.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            ledger = RunLedger(run_id="r", sink=log.record_event)
            ledger.emit("counter", "stale.splice", value=1)
            log.append("gather.start", {"cells": 1})
            ledger.emit("counter", "final.splice", value=1)
        events = ledger_events(read_worldlog(log_path))
        assert [event.name for event in events] == ["final.splice"]


class TestJobsView:
    """The service-era jobs view: one manifest entry per job key."""

    def _record(self, tick, kind, payload):
        from repro.worldlog.record import Record

        return Record(
            tick=tick,
            kind=kind,
            payload=payload,
            run_id="r",
            worker_id=1,
        )

    def _records(self):
        return [
            self._record(
                1,
                "job.submitted",
                {
                    "key": "aa",
                    "tenant": "alice",
                    "priority": 2,
                    "job": {"kind": "classify"},
                },
            ),
            self._record(2, "job.start", {"key": "aa"}),
            self._record(3, "job.result", {"key": "aa", "result": {}}),
            self._record(
                4,
                "job.submitted",
                {
                    "key": "bb",
                    "tenant": "bob",
                    "priority": 0,
                    "job": {"kind": "attack"},
                },
            ),
            self._record(5, "job.start", {"key": "bb"}),
            self._record(
                6,
                "job.error",
                {
                    "key": "bb",
                    "error_kind": "exception",
                    "message": "boom",
                },
            ),
        ]

    def test_manifest_folds_the_lifecycle(self):
        from repro.worldlog.views import JOBS_SCHEMA, jobs_manifest

        manifest = jobs_manifest(self._records())
        assert manifest["schema"] == JOBS_SCHEMA
        done, failed = manifest["jobs"]
        assert done["key"] == "aa"
        assert done["state"] == "done"
        assert (done["submitted_tick"], done["terminal_tick"]) == (1, 3)
        assert failed["state"] == "failed"
        assert failed["error_kind"] == "exception"
        assert failed["message"] == "boom"

    def test_started_but_unfinished_job_shows_running(self):
        from repro.worldlog.views import jobs_manifest

        manifest = jobs_manifest(self._records()[:2])
        (entry,) = manifest["jobs"]
        assert entry["state"] == "running"
        assert entry["terminal_tick"] is None

    def test_derive_views_writes_jobs_json(self, tmp_path):
        out_dir = str(tmp_path / "views")
        written = derive_views(self._records(), out_dir)
        assert written["jobs"] == [os.path.join(out_dir, "jobs.json")]
        document = json.loads(_read(written["jobs"][0]))
        assert document["schema"] == "repro.jobs/v1"
        assert [entry["key"] for entry in document["jobs"]] == [
            "aa",
            "bb",
        ]

    def test_logs_without_jobs_derive_no_jobs_view(self, tmp_path):
        written = derive_views([], str(tmp_path / "empty"))
        assert "jobs" not in written
