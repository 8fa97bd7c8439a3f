"""Portable attack certificates — the v1 artifact format.

A :class:`Certificate` is a single JSON document that makes a
lower-bound attack *portable*: everything a third party needs in order
to check the attack's claim — without trusting (or even running) the
attack driver — travels inside the artifact:

* the **claim**: which protocol, at which ``(n, t)``, and the verdict
  (``"violation"`` or ``"bound-respected"``);
* the **executions**: every recorded trace the claim rests on (the
  witness execution, the merge inputs, the pre-swap source, or — for a
  respected bound — the trace attaining the observed maximum), encoded
  through the :mod:`repro.sim.serialization` codec;
* the **provenance chain**: which constructions (Definition-1
  isolation, Algorithm-5 ``merge``, Algorithm-4 ``swap_omission``)
  produced which execution from which;
* the **indistinguishability pairs** each construction promises (the
  Lemma-15/16 conclusions), stated as checkable claims;
* the **isolation claims** (Definition 1) for each isolated input;
* the **message-count accounting** against the Lemma-1 ``t²/32`` floor.

The schema is versioned (:data:`CERTIFICATE_SCHEMA`); loaders reject
unknown versions loudly.  Certificates are rendered canonically
(``sort_keys`` plus the codec's canonical set ordering), so one attack
produces byte-identical artifacts on every interpreter and backend.

The independent checker lives in :mod:`repro.certify.verifier` and
shares *no* code path with the attack driver's live checks — see that
module for the trust argument.

>>> CERTIFICATE_SCHEMA
1
>>> CERTIFICATE_FORMAT
'repro-attack-certificate'
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import ReproError
from repro.lowerbound.bound import weak_consensus_floor
from repro.lowerbound.partition import ABCPartition
from repro.sim.execution import Execution
from repro.sim.serialization import (
    PayloadEncoder,
    encode_payload,
    execution_from_dict,
    execution_to_dict,
)

CERTIFICATE_FORMAT = "repro-attack-certificate"
CERTIFICATE_SCHEMA = 1

VERDICT_VIOLATION = "violation"
VERDICT_BOUND = "bound-respected"


@dataclass(frozen=True)
class Certificate:
    """A versioned, machine-checkable attack artifact (schema v1).

    Thin immutable wrapper around the JSON-safe ``payload`` dictionary;
    the accessors below decode the embedded records on demand.  Equality
    is payload equality — two certificates are equal iff their artifacts
    are byte-identical when dumped.
    """

    payload: dict

    @property
    def schema(self) -> int:
        """The artifact's schema version."""
        return self.payload.get("schema", 0)

    @property
    def verdict(self) -> str:
        """``"violation"`` or ``"bound-respected"``."""
        return self.payload["claim"]["verdict"]

    @property
    def protocol(self) -> str:
        """The attacked candidate's name."""
        return self.payload["claim"]["protocol"]

    @property
    def n(self) -> int:
        """The system size of the claim."""
        return self.payload["claim"]["n"]

    @property
    def t(self) -> int:
        """The corruption budget of the claim."""
        return self.payload["claim"]["t"]

    @property
    def execution_labels(self) -> tuple[str, ...]:
        """Labels of the embedded executions, sorted."""
        return tuple(sorted(self.payload["executions"]))

    def execution(self, label: str) -> Execution:
        """Decode the embedded execution stored under ``label``."""
        try:
            record = self.payload["executions"][label]
        except KeyError:
            raise ReproError(
                f"certificate embeds no execution {label!r}"
            ) from None
        return execution_from_dict(record)

    def witness(self):
        """Reconstruct the embedded violation witness, if any.

        Returns ``None`` for bound-respected certificates.  The
        reconstructed witness can be re-verified against live protocol
        code with :func:`repro.lowerbound.witnesses.verify_witness`.
        """
        from repro.lowerbound.witnesses import (
            ViolationKind,
            ViolationWitness,
        )

        record = self.payload.get("witness")
        if record is None:
            return None
        return ViolationWitness(
            kind=ViolationKind(record["kind"]),
            execution=self.execution(record["execution"]),
            culprit=record["culprit"],
            counterpart=record["counterpart"],
            note=record["note"],
        )

    def dumps(self) -> str:
        """Serialize to the canonical JSON artifact string."""
        return json.dumps(self.payload, sort_keys=True)

    def to_bytes(self) -> bytes:
        """The canonical artifact as UTF-8 bytes (for shipping)."""
        return self.dumps().encode("utf-8")

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        """Load a certificate from its JSON artifact string.

        Raises:
            ReproError: if the document is not a v1 attack certificate.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"certificate is not valid JSON: {error}"
            ) from None
        return cls.from_dict(payload)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Certificate":
        """Load a certificate from :meth:`to_bytes` output."""
        return cls.loads(blob.decode("utf-8"))

    @classmethod
    def from_dict(cls, payload: Any) -> "Certificate":
        """Wrap an already-parsed payload, checking format and version."""
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CERTIFICATE_FORMAT
        ):
            raise ReproError("document is not a repro attack certificate")
        if payload.get("schema") != CERTIFICATE_SCHEMA:
            raise ReproError(
                f"unsupported certificate schema "
                f"{payload.get('schema')!r} (this library reads "
                f"v{CERTIFICATE_SCHEMA})"
            )
        return cls(payload=payload)


def build_certificate(
    *,
    protocol: str,
    n: int,
    t: int,
    rounds: int,
    partition: ABCPartition,
    executions: Mapping[str, Execution],
    witness=None,
    witness_label: str | None = None,
    provenance: Sequence[Mapping[str, Any]] = (),
    indistinguishability: Sequence[Mapping[str, Any]] = (),
    isolations: Sequence[Mapping[str, Any]] = (),
    observed: int = 0,
    max_label: str | None = None,
    default_bit: Any = None,
    critical_round: int | None = None,
) -> Certificate:
    """Assemble a v1 certificate from the attack driver's records.

    Args:
        protocol, n, t, rounds: the attacked candidate's identity.
        partition: the (A, B, C) split the pipeline used.
        executions: label → recorded execution, every trace the claim
            references (and nothing more — certificates stay small).
        witness: the driver's :class:`ViolationWitness`, or ``None``.
        witness_label: the label under which the witness execution is
            embedded (required iff ``witness`` is given).
        provenance: construction steps, each an op record referencing
            execution labels (``simulate`` / ``merge`` / ``swap``).
        indistinguishability: claims ``{left, right, processes}`` — the
            named processes observe identical proposals and received
            sets in both executions (Lemma 15/16 conclusions).
        isolations: claims ``{execution, group, from_round}`` — the
            group is isolated per Definition 1 in that execution.
        observed: the worst §2 message count the attack observed.
        max_label: label of the embedded execution attaining
            ``observed`` (bound-respected certificates), or ``None``.
        default_bit: the Lemma-3 common decision, if reached.
        critical_round: the Lemma-4 round ``R``, if reached.

    Raises:
        ReproError: on inconsistent inputs (dangling labels, a witness
            without its execution).
    """
    encoder = PayloadEncoder()
    encoded_executions = {
        label: execution_to_dict(execution, encoder)
        for label, execution in executions.items()
    }

    def require_label(label: str, context: str) -> None:
        if label not in encoded_executions:
            raise ReproError(
                f"certificate {context} references unembedded "
                f"execution {label!r}"
            )

    witness_record = None
    if witness is not None:
        if witness_label is None:
            raise ReproError(
                "a violation certificate needs its witness execution "
                "embedded under a label"
            )
        require_label(witness_label, "witness")
        witness_record = {
            "kind": witness.kind.value,
            "culprit": witness.culprit,
            "counterpart": witness.counterpart,
            "note": witness.note,
            "execution": witness_label,
        }
    for claim in indistinguishability:
        require_label(claim["left"], "indistinguishability claim")
        require_label(claim["right"], "indistinguishability claim")
    for claim in isolations:
        require_label(claim["execution"], "isolation claim")
    if max_label is not None:
        require_label(max_label, "accounting")
    per_execution = {
        label: execution.message_complexity()
        for label, execution in executions.items()
    }
    floor = weak_consensus_floor(t)
    payload = {
        "format": CERTIFICATE_FORMAT,
        "schema": CERTIFICATE_SCHEMA,
        "claim": {
            "protocol": protocol,
            "n": n,
            "t": t,
            "rounds": rounds,
            "verdict": (
                VERDICT_VIOLATION if witness is not None else VERDICT_BOUND
            ),
            "default_bit": (
                None if default_bit is None else encode_payload(default_bit)
            ),
            "critical_round": critical_round,
        },
        "partition": {
            "a": sorted(partition.group_a),
            "b": sorted(partition.group_b),
            "c": sorted(partition.group_c),
        },
        "executions": encoded_executions,
        "witness": witness_record,
        "provenance": [dict(step) for step in provenance],
        "indistinguishability": [
            {
                "left": claim["left"],
                "right": claim["right"],
                "processes": sorted(claim["processes"]),
            }
            for claim in indistinguishability
        ],
        "isolation": [
            {
                "execution": claim["execution"],
                "group": sorted(claim["group"]),
                "from_round": claim["from_round"],
            }
            for claim in isolations
        ],
        "accounting": {
            "t": t,
            "observed": observed,
            "floor": floor,
            "below_floor": observed < floor,
            "max_execution": max_label,
            "per_execution": per_execution,
        },
    }
    return Certificate(payload=payload)


def read_certificate(path: str) -> Certificate:
    """Load a certificate artifact *file*, with the uniform diagnostic.

    The file-facing twin of :meth:`Certificate.loads`: a file that
    exists but is not a v1 attack certificate raises the shared
    :mod:`repro.artifact` one-liner (:class:`~repro.errors
    .ArtifactError`, CLI exit 2) — a malformed artifact is an
    environment failure, distinct from a well-formed certificate that
    fails verification (a domain failure, exit 1).

    Raises:
        ArtifactError: when the document is not a v1 certificate.
        OSError: when the file cannot be read.
    """
    from repro.artifact import load_artifact

    return load_artifact(path, "attack certificate", Certificate.loads)


def dump_certificate(certificate: Certificate) -> str:
    """Serialize a certificate to its canonical JSON artifact string."""
    return certificate.dumps()


def load_certificate(text: str) -> Certificate:
    """Load a certificate from :func:`dump_certificate` output.

    Always run :func:`repro.certify.verifier.verify_certificate` before
    trusting a loaded artifact.
    """
    return Certificate.loads(text)
