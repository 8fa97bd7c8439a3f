"""Malformed bytes never crash the artifact readers.

Hypothesis mutates two committed artifacts — the golden world log and
the golden silent-cheater certificate — with byte flips, deletions and
inserted ``{``, ``"`` and ``1e999`` fragments.  The readers may only
answer with their named conditions:

* :func:`~repro.worldlog.store.read_worldlog` returns records or raises
  :class:`~repro.errors.ArtifactError` (CLI exit 2);
* :func:`~repro.certify.verifier.verify_certificate` returns a
  :class:`~repro.certify.verifier.VerificationReport` — rejecting
  whenever the mutant is not even JSON — or raises ``ArtifactError``.

Any other exception is a crash and fails the test.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.certify.verifier import VerificationReport, verify_certificate
from repro.errors import ArtifactError
from repro.worldlog.store import read_worldlog

_GOLDEN = os.path.join(os.path.dirname(__file__), "worldlog", "golden")
_LOG = os.path.join(_GOLDEN, "run.worldlog")
_CERT = os.path.join(
    _GOLDEN, "expected", "certificates", "silent-cheater-n8-t4.cert.json"
)

with open(_LOG, "rb") as _handle:
    LOG_BYTES = _handle.read()
with open(_CERT, "rb") as _handle:
    CERT_BYTES = _handle.read()

_INSERTS = [b"{", b'"', b"1e999"]


@st.composite
def _mutants(draw, original: bytes) -> bytes:
    """``original`` after one to four flips, deletions or insertions."""
    data = bytearray(original)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        op = draw(st.sampled_from(["flip", "delete", "insert"]))
        if op == "flip":
            data[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif op == "delete":
            length = draw(st.integers(min_value=1, max_value=16))
            del data[at : at + length]
        else:
            data[at:at] = draw(st.sampled_from(_INSERTS))
        if not data:
            data = bytearray(b"{")
    return bytes(data)


_FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWorldLogReader:
    @_FUZZ
    @given(_mutants(LOG_BYTES))
    def test_only_the_named_error(self, blob):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "mutant.worldlog")
            with open(path, "wb") as handle:
                handle.write(blob)
            try:
                records = read_worldlog(path)
            except ArtifactError:
                return
        assert records[0].kind == "log.open"


class TestCertificateVerifier:
    @_FUZZ
    @given(_mutants(CERT_BYTES))
    def test_rejects_or_names_the_artifact_error(self, blob):
        try:
            report = verify_certificate(blob)
        except ArtifactError:
            return
        assert isinstance(report, VerificationReport)
        if report.ok:
            # Only a mutant that still parses can still verify.
            json.loads(blob.decode("utf-8"))

    def test_unmutated_golden_certificate_verifies(self):
        assert verify_certificate(CERT_BYTES).ok
