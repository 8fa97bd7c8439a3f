"""JSON codecs for the records crash-resume replays.

A resumed sweep must reconstruct each completed cell's
:class:`~repro.parallel.jobs.JobResult` — outcome value, cache
counters, certificate bytes, ledger segment — from its terminal
``cell.result`` record alone, bit-identically to what the original
worker shipped.  This module is that round trip, built on the shared
:mod:`repro.sim.serialization` codec (executions, payloads) so there is
exactly one encoding policy in the repository.

Wall-clock fields (``wall_seconds``) round-trip verbatim: they are the
*original* run's telemetry, excluded from outcome equality like every
other timing.

Deliberately not encoded:

* ``AttackOutcome.profile`` — wall-clock phase timings, ``compare=False``;
* ``AttackOutcome.certificate`` — the live object; the canonical bytes
  travel separately (``JobResult.certificate``), exactly as they do
  across process boundaries.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ReproError
from repro.sim.serialization import (
    decode_payload,
    encode_payload,
    execution_from_dict,
    execution_to_dict,
)


# ----------------------------------------------------------------------
# jobs (the sweep.plan payload)
# ----------------------------------------------------------------------


def encode_job(job: Any) -> dict[str, Any]:
    """One sweep job as a JSON-safe plan entry."""
    from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob

    if isinstance(job, ClassifyJob):
        return {
            "kind": "classify",
            "builder": job.builder,
            "n": job.n,
            "t": job.t,
            "ledger": job.ledger,
        }
    if isinstance(job, AttackJob):
        return {
            "kind": "attack",
            "builder": job.builder,
            "n": job.n,
            "t": job.t,
            "verify": job.verify,
            "check": job.check,
            "early_stop": job.early_stop,
            "reuse": job.reuse,
            "profile": job.profile,
            "certify": job.certify,
            "ledger": job.ledger,
        }
    if isinstance(job, MeasureJob):
        return {
            "kind": "measure",
            "builder": job.builder,
            "n": job.n,
            "t": job.t,
            "include_mixed": job.include_mixed,
            "ledger": job.ledger,
        }
    raise ReproError(
        f"cannot encode sweep job of type {type(job).__name__}"
    )


def decode_job(data: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_job`."""
    from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob

    kind = data.get("kind")
    if kind == "classify":
        return ClassifyJob(
            builder=data["builder"],
            n=data["n"],
            t=data["t"],
            ledger=data["ledger"],
        )
    if kind == "attack":
        return AttackJob(
            builder=data["builder"],
            n=data["n"],
            t=data["t"],
            verify=data["verify"],
            check=data["check"],
            early_stop=data["early_stop"],
            reuse=data["reuse"],
            profile=data["profile"],
            certify=data["certify"],
            ledger=data["ledger"],
        )
    if kind == "measure":
        return MeasureJob(
            builder=data["builder"],
            n=data["n"],
            t=data["t"],
            include_mixed=data["include_mixed"],
            ledger=data["ledger"],
        )
    raise ReproError(f"unknown sweep job kind {kind!r}")


# ----------------------------------------------------------------------
# job values (AttackOutcome / SweepPoint)
# ----------------------------------------------------------------------


def _encode_outcome(outcome: Any) -> dict[str, Any]:
    record: dict[str, Any] = {
        "kind": "attack-outcome",
        "protocol": outcome.protocol,
        "n": outcome.n,
        "t": outcome.t,
        "partition": {
            "n": outcome.partition.n,
            "t": outcome.partition.t,
            "b": sorted(outcome.partition.group_b),
            "c": sorted(outcome.partition.group_c),
        },
        "witness": None,
        "bound": {
            "t": outcome.bound.t,
            "observed": outcome.bound.observed,
        },
        "default_bit": (
            None
            if outcome.default_bit is None
            else encode_payload(outcome.default_bit)
        ),
        "critical_round": outcome.critical_round,
        "log": list(outcome.log),
        "rounds_simulated": outcome.rounds_simulated,
        "rounds_baseline": outcome.rounds_baseline,
    }
    if outcome.witness is not None:
        witness = outcome.witness
        record["witness"] = {
            "kind": witness.kind.value,
            "culprit": witness.culprit,
            "counterpart": witness.counterpart,
            "note": witness.note,
            "execution": execution_to_dict(witness.execution),
        }
    return record


def _decode_outcome(data: dict[str, Any]) -> Any:
    from repro.lowerbound.bound import BoundComparison
    from repro.lowerbound.driver import AttackOutcome
    from repro.lowerbound.partition import ABCPartition
    from repro.lowerbound.witnesses import (
        ViolationKind,
        ViolationWitness,
    )

    witness = None
    if data["witness"] is not None:
        raw = data["witness"]
        witness = ViolationWitness(
            kind=ViolationKind(raw["kind"]),
            execution=execution_from_dict(raw["execution"]),
            culprit=raw["culprit"],
            counterpart=raw["counterpart"],
            note=raw["note"],
        )
    return AttackOutcome(
        protocol=data["protocol"],
        n=data["n"],
        t=data["t"],
        partition=ABCPartition(
            n=data["partition"]["n"],
            t=data["partition"]["t"],
            group_b=frozenset(data["partition"]["b"]),
            group_c=frozenset(data["partition"]["c"]),
        ),
        witness=witness,
        bound=BoundComparison(
            t=data["bound"]["t"], observed=data["bound"]["observed"]
        ),
        default_bit=(
            None
            if data["default_bit"] is None
            else decode_payload(data["default_bit"])
        ),
        critical_round=data["critical_round"],
        log=tuple(data["log"]),
        rounds_simulated=data["rounds_simulated"],
        rounds_baseline=data["rounds_baseline"],
    )


def _encode_point(point: Any) -> dict[str, Any]:
    return {
        "kind": "sweep-point",
        "protocol": point.protocol,
        "n": point.n,
        "t": point.t,
        "worst_messages": point.worst_messages,
        "scenario": point.scenario,
    }


def _decode_point(data: dict[str, Any]) -> Any:
    from repro.analysis.complexity import SweepPoint

    return SweepPoint(
        protocol=data["protocol"],
        n=data["n"],
        t=data["t"],
        worst_messages=data["worst_messages"],
        scenario=data["scenario"],
    )


def _encode_verdict(verdict: Any) -> dict[str, Any]:
    return {
        "kind": "classify-verdict",
        "problem": verdict.problem,
        "n": verdict.n,
        "t": verdict.t,
        "trivial": verdict.trivial,
        "cc_holds": verdict.cc_holds,
        "authenticated_solvable": verdict.authenticated_solvable,
        "unauthenticated_solvable": verdict.unauthenticated_solvable,
    }


def _decode_verdict(data: dict[str, Any]) -> Any:
    from repro.parallel.jobs import ClassifyVerdict

    return ClassifyVerdict(
        problem=data["problem"],
        n=data["n"],
        t=data["t"],
        trivial=data["trivial"],
        cc_holds=data["cc_holds"],
        authenticated_solvable=data["authenticated_solvable"],
        unauthenticated_solvable=data["unauthenticated_solvable"],
    )


def encode_value(value: Any) -> dict[str, Any]:
    """Encode a job payload (outcome, sweep point or verdict)."""
    from repro.analysis.complexity import SweepPoint
    from repro.lowerbound.driver import AttackOutcome
    from repro.parallel.jobs import ClassifyVerdict

    if isinstance(value, AttackOutcome):
        return _encode_outcome(value)
    if isinstance(value, SweepPoint):
        return _encode_point(value)
    if isinstance(value, ClassifyVerdict):
        return _encode_verdict(value)
    raise ReproError(
        f"cannot encode job value of type {type(value).__name__}"
    )


def decode_value(data: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_value`."""
    kind = data.get("kind")
    if kind == "attack-outcome":
        return _decode_outcome(data)
    if kind == "sweep-point":
        return _decode_point(data)
    if kind == "classify-verdict":
        return _decode_verdict(data)
    raise ReproError(f"unknown job value kind {kind!r}")


# ----------------------------------------------------------------------
# ledger events and job results
# ----------------------------------------------------------------------


def encode_event(event: Any) -> dict[str, Any]:
    """One ledger event as its ``ledger.event`` payload (key order kept)."""
    return json.loads(event.to_json())


def decode_event(data: dict[str, Any]) -> Any:
    from repro.obs.ledger import LedgerEvent

    return LedgerEvent.from_json(json.dumps(data))


def encode_job_result(result: Any) -> dict[str, Any]:
    """A shipped :class:`~repro.parallel.jobs.JobResult`, JSON-safe."""
    return {
        "key": list(result.key),
        "value": encode_value(result.value),
        "wall_seconds": result.wall_seconds,
        "cache": (
            None
            if result.cache is None
            else {
                "hits": result.cache.hits,
                "alias_hits": result.cache.alias_hits,
                "misses": result.cache.misses,
            }
        ),
        "rounds_simulated": result.rounds_simulated,
        "rounds_baseline": result.rounds_baseline,
        "certificate": (
            None
            if result.certificate is None
            else result.certificate.decode("utf-8")
        ),
        "events": (
            None
            if result.events is None
            else [encode_event(event) for event in result.events]
        ),
    }


def decode_job_result(data: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_job_result`."""
    from repro.parallel.jobs import CacheStats, JobResult

    return JobResult(
        key=tuple(data["key"]),
        value=decode_value(data["value"]),
        wall_seconds=data["wall_seconds"],
        cache=(
            None
            if data["cache"] is None
            else CacheStats(
                hits=data["cache"]["hits"],
                alias_hits=data["cache"]["alias_hits"],
                misses=data["cache"]["misses"],
            )
        ),
        rounds_simulated=data["rounds_simulated"],
        rounds_baseline=data["rounds_baseline"],
        certificate=(
            None
            if data["certificate"] is None
            else data["certificate"].encode("utf-8")
        ),
        events=(
            None
            if data["events"] is None
            else tuple(
                decode_event(event) for event in data["events"]
            )
        ),
    )
