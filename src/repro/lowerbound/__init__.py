"""Theorem 2 made executable: the Ω(t²) lower-bound attack pipeline.

* :mod:`repro.lowerbound.bound` — the ``t²/32`` floor and comparisons.
* :mod:`repro.lowerbound.partition` — the (A, B, C) partitions (Table 1).
* :mod:`repro.lowerbound.witnesses` — machine-checkable violation
  counterexamples.
* :mod:`repro.lowerbound.driver` — the Lemma 2–5 pipeline that breaks any
  sub-quadratic weak consensus candidate.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "BoundComparison": "repro.lowerbound.bound",
    "dolev_reischuk_floor": "repro.lowerbound.bound",
    "weak_consensus_floor": "repro.lowerbound.bound",
    "AttackOutcome": "repro.lowerbound.driver",
    "LowerBoundDriver": "repro.lowerbound.driver",
    "attack_weak_consensus": "repro.lowerbound.driver",
    "ABCPartition": "repro.lowerbound.partition",
    "canonical_partition": "repro.lowerbound.partition",
    "paper_partition": "repro.lowerbound.partition",
    "ViolationKind": "repro.lowerbound.witnesses",
    "ViolationWitness": "repro.lowerbound.witnesses",
    "is_valid_witness": "repro.lowerbound.witnesses",
    "minimize_witness": "repro.lowerbound.witnesses",
    "verify_witness": "repro.lowerbound.witnesses",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
