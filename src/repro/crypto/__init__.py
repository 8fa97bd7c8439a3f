"""Simulated authentication substrate (idealized signatures, §5.1).

Provides deterministic per-process keys, HMAC-style unforgeable-in-sim
signatures, and Dolev–Strong signature chains.  The substitution rationale
(paper's idealized signatures → keyed hashes inside a closed simulation) is
documented in DESIGN.md §1.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "SignedChain": "repro.crypto.chains",
    "start_chain": "repro.crypto.chains",
    "verify_chain": "repro.crypto.chains",
    "KeyRegistry": "repro.crypto.keys",
    "SecretKey": "repro.crypto.keys",
    "Signature": "repro.crypto.signatures",
    "SignatureScheme": "repro.crypto.signatures",
    "Signer": "repro.crypto.signatures",
    "canonical_bytes": "repro.crypto.signatures",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
