"""Tests for the run ledger: events, recording, the splice protocol."""

import pickle

import pytest

from repro.obs.ledger import (
    EVENT_KINDS,
    LedgerEvent,
    RunLedger,
    cell_label,
    new_run_id,
    order_signature,
)


class TestLedgerEvent:
    def test_json_round_trip(self):
        event = LedgerEvent(
            kind="counter",
            name="cache.hits",
            ts=1.5,
            value=3,
            run_id="abc",
            cell_id="attack/silent/n12/t8",
            worker_id=41,
            attrs=(("round", 2), ("run", 0)),
        )
        assert LedgerEvent.from_json(event.to_json()) == event

    def test_json_key_order_is_stable(self):
        event = LedgerEvent(kind="gauge", name="x", ts=0.0, value=1)
        keys = list(__import__("json").loads(event.to_json()))
        assert keys == [
            "ts",
            "kind",
            "name",
            "value",
            "run_id",
            "cell_id",
            "worker_id",
            "attrs",
        ]

    def test_attr_lookup(self):
        event = LedgerEvent(
            kind="counter", name="x", ts=0.0, attrs=(("round", 7),)
        )
        assert event.attr("round") == 7
        assert event.attr("absent", "d") == "d"

    def test_events_are_picklable(self):
        event = LedgerEvent(
            kind="span-start", name="attack", ts=0.0, attrs=(("n", 8),)
        )
        assert pickle.loads(pickle.dumps(event)) == event


class TestRunLedger:
    def test_emit_stamps_correlation_triple(self):
        ledger = RunLedger(run_id="r", worker_id=9, clock=lambda: 2.0)
        event = ledger.emit("counter", "x", value=1, cell_id="c")
        assert (event.run_id, event.cell_id, event.worker_id) == (
            "r",
            "c",
            9,
        )
        assert event.ts == 2.0

    def test_emit_rejects_unknown_kind(self):
        ledger = RunLedger(run_id="r")
        with pytest.raises(ValueError, match="unknown event kind"):
            ledger.emit("bogus", "x")

    def test_all_kinds_accepted(self):
        ledger = RunLedger(run_id="r")
        for kind in EVENT_KINDS:
            ledger.emit(kind, "x")
        assert len(ledger) == len(EVENT_KINDS)

    def test_splice_rewrites_run_id_keeps_worker_id(self):
        parent = RunLedger(run_id="parent", worker_id=1)
        worker = RunLedger(run_id="scratch", worker_id=77)
        worker.emit("counter", "x", value=1)
        worker.emit("gauge", "y", value=2.0)
        assert parent.splice(worker.segment()) == 2
        assert [e.run_id for e in parent.events] == ["parent"] * 2
        assert [e.worker_id for e in parent.events] == [77, 77]

    def test_write_and_read_round_trip(self, tmp_path):
        """A ledger recorded into a world log reads back event for event."""
        from repro.worldlog import WorldLog, read_worldlog
        from repro.worldlog.views import ledger_events

        path = str(tmp_path / "run.worldlog")
        with WorldLog.create(path, run_id="r") as log:
            ledger = RunLedger(
                run_id="r", worker_id=3, clock=lambda: 0.0,
                sink=log.record_event,
            )
            ledger.emit("span-start", "attack", n=12)
            ledger.emit("span-end", "attack")
        assert ledger_events(read_worldlog(path)) == ledger.events

    def test_random_run_ids_are_distinct(self):
        assert new_run_id() != new_run_id()


class TestHelpers:
    def test_cell_label(self):
        assert (
            cell_label(("attack", "silent", 12, 8))
            == "attack/silent/n12/t8"
        )

    def test_order_signature_ignores_timing_and_worker(self):
        a = RunLedger(run_id="a", worker_id=1, clock=lambda: 1.0)
        b = RunLedger(run_id="b", worker_id=2, clock=lambda: 9.0)
        for ledger in (a, b):
            ledger.emit("counter", "x", value=5, cell_id="c")
            ledger.emit("gauge", "y", value=1.0)
        assert order_signature(a.events) == order_signature(b.events)
