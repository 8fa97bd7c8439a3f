"""JSON serialization for executions and violation witnesses.

A violation witness is only as useful as its portability: a third party
should be able to load the counterexample and re-run the checks without
re-running the attack.  This module round-trips the full Appendix-A
record — executions, behaviors, fragments, messages — through plain JSON.

Payloads are arbitrary hashables in memory; the codec covers the closed
set of types the library's protocols actually put on the wire:

* ``None``, ``bool``, ``int``, ``str``, ``bytes``;
* ``tuple`` and ``frozenset`` of codable values;
* :class:`~repro.crypto.signatures.Signature` and
  :class:`~repro.crypto.chains.SignedChain`;
* :class:`~repro.protocols.external_validity.Transaction`.

Unknown types raise :class:`~repro.errors.ReproError` at encode time —
fail loudly rather than write an artifact that cannot be reloaded.

Encoding is *canonical*: the same value always yields the same JSON,
regardless of set iteration order (which varies across interpreters with
hash randomization).  Unordered collections are sorted by
:func:`canonical_json` of their encoded elements, so two equal payloads
— however they were built — encode identically:

>>> left = encode_payload(frozenset({(1, 2), (0, 9)}))
>>> right = encode_payload(frozenset({(0, 9), (1, 2)}))
>>> left == right
True
>>> value = (1, frozenset({(2, 3), (1, 4), None}), b"\\x00")
>>> decode_payload(encode_payload(value)) == value
True
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

from repro.errors import ReproError
from repro.sim.execution import Execution
from repro.sim.message import Message
from repro.sim.state import Behavior, Fragment, StateSnapshot

FORMAT_VERSION = 1

_CANONICAL = itemgetter(1)
"""Sort key of an ``(encoded, canonical_json)`` pair."""


def canonical_json(data: Any) -> str:
    """The canonical JSON rendering of an already-encoded record.

    Used as the sort key for unordered collections (frozensets, message
    sets).  ``sort_keys=True`` makes the key independent of dict insertion
    order, so the ordering depends only on the *values* of the encoded
    elements — never on set iteration order, which hash randomization
    scrambles across interpreters.  Before this canonicalization, a
    ``tuple`` nested inside a ``frozenset`` could legally serialize in
    different element orders on different interpreters (the old sort key
    preserved insertion order of record keys), breaking byte-identity of
    artifacts across machines.

    >>> canonical_json({"k": "lit", "v": 1})
    '{"k":"lit","v":1}'
    >>> canonical_json({"v": 1, "k": "lit"})
    '{"k":"lit","v":1}'
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class PayloadEncoder:
    """Encodes payloads and messages, each distinct object once.

    Flooding protocols put the same payload object (and the same nested
    sets, round after round) into thousands of messages, and
    one :class:`~repro.sim.message.Message` appears in its sender's
    ``sent`` and its receiver's ``received`` sets.  The encoder memoizes
    every encoding with its :func:`canonical_json` rendering, keyed by
    object identity — never by value, since ``1 == True`` and
    ``(1,) == (True,)`` hash equal yet encode differently — and keeps
    each encoded object alive, so an identity is never reused while the
    memo holds it.  Canonical renderings of tuples, sets and messages are
    joined from their elements' cached renderings, which is what
    :func:`canonical_json` produces for the nested record.  One encoder
    serves one :func:`execution_to_dict` call, or every execution of one
    certificate; an object that recurs shares one encoded record.
    """

    __slots__ = ("_payloads", "_messages")

    def __init__(self) -> None:
        self._payloads: dict[int, tuple[Any, Any, str]] = {}
        self._messages: dict[int, tuple[Message, dict, str]] = {}

    def payload(self, value: Any) -> tuple[Any, str]:
        """``(encode_payload(value), canonical_json(...) of it)``."""
        entry = self._payloads.get(id(value))
        if entry is None:
            encoded, canonical = self._encode(value)
            entry = self._payloads[id(value)] = (value, encoded, canonical)
        return entry[1], entry[2]

    def _encode(self, value: Any) -> tuple[Any, str]:
        if value is None or isinstance(value, (bool, int, str)):
            encoded = {"k": "lit", "v": value}
            return encoded, canonical_json(encoded)
        if isinstance(value, bytes):
            encoded = {"k": "bytes", "v": value.hex()}
            return encoded, canonical_json(encoded)
        if isinstance(value, tuple):
            elements = [self.payload(element) for element in value]
            return (
                {"k": "tuple", "v": [encoded for encoded, _ in elements]},
                '{"k":"tuple","v":['
                + ",".join(canonical for _, canonical in elements)
                + "]}",
            )
        if isinstance(value, frozenset):
            elements = [self.payload(element) for element in value]
            elements.sort(key=_CANONICAL)  # canonical order, see above
            return (
                {"k": "fset", "v": [encoded for encoded, _ in elements]},
                '{"k":"fset","v":['
                + ",".join(canonical for _, canonical in elements)
                + "]}",
            )
        encoded = self._encode_signed(value)
        return encoded, canonical_json(encoded)

    def _encode_signed(self, value: Any) -> dict:
        from repro.crypto.chains import SignedChain
        from repro.crypto.signatures import Signature
        from repro.protocols.external_validity import Transaction

        if isinstance(value, Signature):
            return {
                "k": "sig",
                "signer": value.signer,
                "tag": value.tag.hex(),
            }
        if isinstance(value, SignedChain):
            return {
                "k": "chain",
                "instance": self.payload(value.instance)[0],
                "value": self.payload(value.value)[0],
                "signatures": [
                    self.payload(signature)[0]
                    for signature in value.signatures
                ],
            }
        if isinstance(value, Transaction):
            return {
                "k": "tx",
                "client": value.client,
                "body": self.payload(value.body)[0],
                "signature": self.payload(value.signature)[0],
            }
        raise ReproError(
            f"cannot serialize payload of type {type(value).__name__}"
        )

    def message(self, message: Message) -> tuple[dict, str]:
        """A message's record and its canonical rendering (its sort key)."""
        entry = self._messages.get(id(message))
        if entry is None:
            payload, canonical = self.payload(message.payload)
            record = {
                "sender": message.sender,
                "receiver": message.receiver,
                "round": message.round,
                "payload": payload,
            }
            entry = self._messages[id(message)] = (
                message,
                record,
                f'{{"payload":{canonical},"receiver":{message.receiver},'
                f'"round":{message.round},"sender":{message.sender}}}',
            )
        return entry[1], entry[2]


def encode_payload(value: Any) -> Any:
    """Encode one payload value into JSON-safe structures."""
    return PayloadEncoder().payload(value)[0]


def decode_payload(data: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    from repro.crypto.chains import SignedChain
    from repro.crypto.signatures import Signature
    from repro.protocols.external_validity import Transaction

    if not isinstance(data, dict) or "k" not in data:
        raise ReproError(f"malformed payload record: {data!r}")
    kind = data["k"]
    if kind == "lit":
        return data["v"]
    if kind == "bytes":
        return bytes.fromhex(data["v"])
    if kind == "sig":
        return Signature(
            signer=data["signer"], tag=bytes.fromhex(data["tag"])
        )
    if kind == "chain":
        return SignedChain(
            instance=decode_payload(data["instance"]),
            value=decode_payload(data["value"]),
            signatures=tuple(
                decode_payload(signature)
                for signature in data["signatures"]
            ),
        )
    if kind == "tx":
        return Transaction(
            client=data["client"],
            body=decode_payload(data["body"]),
            signature=decode_payload(data["signature"]),
        )
    if kind == "tuple":
        return tuple(
            decode_payload(element) for element in data["v"]
        )
    if kind == "fset":
        return frozenset(
            decode_payload(element) for element in data["v"]
        )
    raise ReproError(f"unknown payload kind {kind!r}")


def _decode_message(data: dict) -> Message:
    return Message(
        sender=data["sender"],
        receiver=data["receiver"],
        round=data["round"],
        payload=decode_payload(data["payload"]),
    )


def _encode_messages(
    messages: frozenset[Message], encoder: PayloadEncoder
) -> list:
    encoded = [encoder.message(message) for message in messages]
    encoded.sort(key=_CANONICAL)
    return [record for record, _ in encoded]


def _decode_messages(data: list) -> frozenset[Message]:
    return frozenset(_decode_message(entry) for entry in data)


def _encode_state(state: StateSnapshot, encoder: PayloadEncoder) -> dict:
    return {
        "process": state.process,
        "round": state.round,
        "proposal": encoder.payload(state.proposal)[0],
        "decision": (
            None
            if state.decision is None
            else encoder.payload(state.decision)[0]
        ),
    }


def _decode_state(data: dict) -> StateSnapshot:
    return StateSnapshot(
        process=data["process"],
        round=data["round"],
        proposal=decode_payload(data["proposal"]),
        decision=(
            None
            if data["decision"] is None
            else decode_payload(data["decision"])
        ),
    )


def _encode_fragment(fragment: Fragment, encoder: PayloadEncoder) -> dict:
    return {
        "state": _encode_state(fragment.state, encoder),
        "sent": _encode_messages(fragment.sent, encoder),
        "send_omitted": _encode_messages(fragment.send_omitted, encoder),
        "received": _encode_messages(fragment.received, encoder),
        "receive_omitted": _encode_messages(
            fragment.receive_omitted, encoder
        ),
    }


def _decode_fragment(data: dict) -> Fragment:
    return Fragment(
        state=_decode_state(data["state"]),
        sent=_decode_messages(data["sent"]),
        send_omitted=_decode_messages(data["send_omitted"]),
        received=_decode_messages(data["received"]),
        receive_omitted=_decode_messages(data["receive_omitted"]),
    )


def _encode_behavior(behavior: Behavior, encoder: PayloadEncoder) -> dict:
    return {
        "fragments": [
            _encode_fragment(fragment, encoder)
            for fragment in behavior.fragments
        ],
        "final_state": _encode_state(behavior.final_state, encoder),
    }


def _decode_behavior(data: dict) -> Behavior:
    return Behavior(
        tuple(
            _decode_fragment(fragment)
            for fragment in data["fragments"]
        ),
        final_state=_decode_state(data["final_state"]),
    )


def execution_to_dict(
    execution: Execution, encoder: PayloadEncoder | None = None
) -> dict:
    """Encode an execution as a JSON-safe dictionary.

    Pass one ``encoder`` to encode several executions that share
    messages and payloads (the executions of one certificate); each is
    then encoded once.
    """
    if encoder is None:
        encoder = PayloadEncoder()
    return {
        "format": FORMAT_VERSION,
        "n": execution.n,
        "t": execution.t,
        "faulty": sorted(execution.faulty),
        "behaviors": [
            _encode_behavior(behavior, encoder)
            for behavior in execution.behaviors
        ],
    }


def execution_from_dict(data: dict) -> Execution:
    """Decode an execution; structural checks run in the constructors."""
    if data.get("format") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported execution format {data.get('format')!r}"
        )
    return Execution(
        n=data["n"],
        t=data["t"],
        faulty=frozenset(data["faulty"]),
        behaviors=tuple(
            _decode_behavior(behavior)
            for behavior in data["behaviors"]
        ),
    )


def dump_execution(execution: Execution) -> str:
    """Serialize an execution to a JSON string (deterministic)."""
    return json.dumps(
        execution_to_dict(execution), sort_keys=True, indent=None
    )


def load_execution(text: str) -> Execution:
    """Deserialize an execution from :func:`dump_execution` output."""
    return execution_from_dict(json.loads(text))


def dump_witness(witness) -> str:
    """Serialize a violation witness to JSON."""
    from repro.lowerbound.witnesses import ViolationWitness

    assert isinstance(witness, ViolationWitness)
    return json.dumps(
        {
            "format": FORMAT_VERSION,
            "kind": witness.kind.value,
            "culprit": witness.culprit,
            "counterpart": witness.counterpart,
            "note": witness.note,
            "execution": execution_to_dict(witness.execution),
        },
        sort_keys=True,
    )


def load_witness(text: str):
    """Deserialize a witness; re-verify with
    :func:`repro.lowerbound.witnesses.verify_witness` before trusting it."""
    from repro.lowerbound.witnesses import ViolationKind, ViolationWitness

    data = json.loads(text)
    version = data.get("format") if isinstance(data, dict) else None
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported witness format {version!r}")
    return ViolationWitness(
        kind=ViolationKind(data["kind"]),
        execution=execution_from_dict(data["execution"]),
        culprit=data["culprit"],
        counterpart=data["counterpart"],
        note=data["note"],
    )
