"""Portable attack certificates (format v1) and their independent verifier.

Two halves, deliberately decoupled:

* :mod:`repro.certify.format` — the producer side: the versioned
  :class:`Certificate` artifact and :func:`build_certificate`, used by
  the attack driver to package its claim.
* :mod:`repro.certify.verifier` — the consumer side:
  :func:`verify_certificate` re-derives every claim from the raw JSON
  artifact, sharing no code path with the driver's live checks.

Re-exports are lazy (PEP 562) so that ``import repro.certify.verifier``
does not drag the producer side — and with it the simulator and the
attack driver — into the process.  A third party auditing an artifact
loads stdlib-only code.

See ``docs/CERTIFICATES.md`` for the schema and the refutation workflow.
"""

from typing import Any

_EXPORTS = {
    "CERTIFICATE_FORMAT": "repro.certify.format",
    "CERTIFICATE_SCHEMA": "repro.certify.format",
    "VERDICT_BOUND": "repro.certify.format",
    "VERDICT_VIOLATION": "repro.certify.format",
    "Certificate": "repro.certify.format",
    "build_certificate": "repro.certify.format",
    "dump_certificate": "repro.certify.format",
    "load_certificate": "repro.certify.format",
    "VerificationFailure": "repro.certify.verifier",
    "VerificationReport": "repro.certify.verifier",
    "is_valid_certificate": "repro.certify.verifier",
    "verify_certificate": "repro.certify.verifier",
}

__all__ = sorted(_EXPORTS)


# A hook of its own rather than :mod:`repro.lazy`'s: a structural
# verification loads the verifier and the package roots and nothing else.
def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return __all__
