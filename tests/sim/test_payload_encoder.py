"""The memoizing payload encoder against the encoder it replaced.

``PayloadEncoder`` encodes each distinct payload and message object once
and builds sort keys from cached canonical renderings.  These tests pin
its output to a test-only copy of the per-value recursive encoder it
replaced (``reference_payload``/``reference_execution``): same records,
same canonical JSON, same message order, hence the same artifact bytes.
"""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import Signature
from repro.experiments import CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.weak_consensus import naive_flooding_spec
from repro.sim.adversary import CrashAdversary
from repro.sim.message import Message
from repro.sim.serialization import (
    PayloadEncoder,
    canonical_json,
    encode_payload,
    execution_to_dict,
)

# -- the replaced encoder, kept verbatim as the oracle -------------------


def reference_payload(value):
    from repro.crypto.chains import SignedChain
    from repro.protocols.external_validity import Transaction

    if value is None or isinstance(value, (bool, int, str)):
        return {"k": "lit", "v": value}
    if isinstance(value, bytes):
        return {"k": "bytes", "v": value.hex()}
    if isinstance(value, Signature):
        return {"k": "sig", "signer": value.signer, "tag": value.tag.hex()}
    if isinstance(value, SignedChain):
        return {
            "k": "chain",
            "instance": reference_payload(value.instance),
            "value": reference_payload(value.value),
            "signatures": [
                reference_payload(signature)
                for signature in value.signatures
            ],
        }
    if isinstance(value, Transaction):
        return {
            "k": "tx",
            "client": value.client,
            "body": reference_payload(value.body),
            "signature": reference_payload(value.signature),
        }
    if isinstance(value, tuple):
        return {"k": "tuple", "v": [reference_payload(e) for e in value]}
    if isinstance(value, frozenset):
        encoded = [reference_payload(element) for element in value]
        encoded.sort(key=canonical_json)
        return {"k": "fset", "v": encoded}
    raise TypeError(type(value).__name__)


def reference_message(message):
    return {
        "sender": message.sender,
        "receiver": message.receiver,
        "round": message.round,
        "payload": reference_payload(message.payload),
    }


def reference_messages(messages):
    encoded = [reference_message(message) for message in messages]
    encoded.sort(key=canonical_json)
    return encoded


def reference_state(state):
    return {
        "process": state.process,
        "round": state.round,
        "proposal": reference_payload(state.proposal),
        "decision": (
            None
            if state.decision is None
            else reference_payload(state.decision)
        ),
    }


def reference_execution(execution):
    return {
        "format": 1,
        "n": execution.n,
        "t": execution.t,
        "faulty": sorted(execution.faulty),
        "behaviors": [
            {
                "fragments": [
                    {
                        "state": reference_state(fragment.state),
                        "sent": reference_messages(fragment.sent),
                        "send_omitted": reference_messages(
                            fragment.send_omitted
                        ),
                        "received": reference_messages(fragment.received),
                        "receive_omitted": reference_messages(
                            fragment.receive_omitted
                        ),
                    }
                    for fragment in behavior.fragments
                ],
                "final_state": reference_state(behavior.final_state),
            }
            for behavior in execution.behaviors
        ],
    }


# -- payload strategies: the types whose equality crosses kinds ---------

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.binary(max_size=2),
    st.sampled_from(["", "a", "1", "é"]),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(children, max_size=4),
    ),
    max_leaves=16,
)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_one_payload(self, value):
        encoded, canonical = PayloadEncoder().payload(value)
        assert encoded == reference_payload(value)
        assert canonical == canonical_json(reference_payload(value))
        assert encode_payload(value) == reference_payload(value)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(PAYLOADS, max_size=8))
    @example([(1,), (True,), 1, True, frozenset({0}), frozenset({False})])
    def test_one_encoder_many_equal_payloads(self, values):
        """Equal payloads of different kinds (``1``/``True``,
        ``(1,)``/``(True,)``) share a hash; the memo must still give
        each its own encoding."""
        encoder = PayloadEncoder()
        for value in values:
            encoded, canonical = encoder.payload(value)
            assert canonical_json(encoded) == canonical
            assert canonical == canonical_json(reference_payload(value))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
                PAYLOADS,
            ),
            max_size=8,
        )
    )
    def test_message_records_and_sort_keys(self, rows):
        encoder = PayloadEncoder()
        messages = [
            Message(s, r, k, payload)
            for s, r, k, payload in rows
            if s != r
        ]
        for message in messages:
            record, key = encoder.message(message)
            assert record == reference_message(message)
            assert key == canonical_json(reference_message(message))
        ordered = sorted(
            (encoder.message(message) for message in set(messages)),
            key=lambda pair: pair[1],
        )
        assert [record for record, _ in ordered] == reference_messages(
            set(messages)
        )

    def test_signatures_and_unknown_types(self):
        signature = Signature(signer=3, tag=b"\x01\x02")
        value = (signature, frozenset({signature, 1}))
        assert encode_payload(value) == reference_payload(value)
        with pytest.raises(Exception, match="cannot serialize"):
            encode_payload(object())


class TestExecutionsMatchReference:
    @pytest.mark.parametrize(
        "execution",
        [
            naive_flooding_spec(6, 3).run_uniform(1),
            naive_flooding_spec(6, 3).run(
                [0, 1, 0, 1, 1, 0], CrashAdversary({4: 2})
            ),
            dolev_strong_spec(4, 1).run_uniform(1),
        ],
        ids=["flooding", "flooding-crash", "dolev-strong"],
    )
    def test_execution_records_equal(self, execution):
        assert canonical_json(execution_to_dict(execution)) == (
            canonical_json(reference_execution(execution))
        )


# SHA-256 of the certificate bytes the replaced encoder produced.
CHEATER_CERTIFICATES_24_16 = {
    "committee": (
        "3d12d4d8c2aeb8847e5b3d4934d75946302bada166ff3235838123467990ed9e"
    ),
    "leader-echo": (
        "cd398556f136c26a172795796b5a3f57cf86b3e1e7a3b0eb3acc264ca74770c8"
    ),
    "ring-token": (
        "ce711f80ec14bc80a2b09f92f05828de3e36336ee082dbbefc7e883ed4904815"
    ),
    "seeded-committee": (
        "33b4750c7e085bef2dd0a55bfbf3e32be120536c0c5114678ced5e9773d0560b"
    ),
    "silent": (
        "da1daf3a4c8bc511fd7c7d5554257ad43734e5594c7feba853fa3dc9cba641d9"
    ),
}


class TestCertificateBytesUnchanged:
    def test_every_cheater_is_pinned(self):
        assert sorted(CHEATER_CERTIFICATES_24_16) == sorted(CHEATERS)

    @pytest.mark.parametrize("name", sorted(CHEATER_CERTIFICATES_24_16))
    def test_certificate_digest(self, name):
        outcome = attack_weak_consensus(CHEATERS[name](24, 16), certify=True)
        blob = outcome.certificate.to_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            CHEATER_CERTIFICATES_24_16[name]
        )
