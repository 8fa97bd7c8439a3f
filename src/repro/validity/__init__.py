"""The validity-property formalism of §4.1.

* :mod:`repro.validity.input_config` — process-proposal pairs, the set
  ``I`` of input configurations, and enumeration for finite domains.
* :mod:`repro.validity.property` — validity properties and agreement
  problems as values.
* :mod:`repro.validity.standard` — the named properties of the paper.
* :mod:`repro.validity.containment` — the ⊇ relation, ``Cnt(c)`` and the
  Lemma-7 intersection.
* :mod:`repro.validity.triviality` — the trivial/non-trivial divide.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "admissible_under_containment": "repro.validity.containment",
    "check_partial_order_axioms": "repro.validity.containment",
    "containment_set": "repro.validity.containment",
    "contains": "repro.validity.containment",
    "InputConfig": "repro.validity.input_config",
    "count_input_configs": "repro.validity.input_config",
    "enumerate_full_configs": "repro.validity.input_config",
    "enumerate_input_configs": "repro.validity.input_config",
    "AgreementProblem": "repro.validity.property",
    "ValidityFn": "repro.validity.property",
    "cached": "repro.validity.property",
    "problem_from_table": "repro.validity.property",
    "tabulate": "repro.validity.property",
    "ABSENT": "repro.validity.standard",
    "STANDARD_PROBLEMS": "repro.validity.standard",
    "byzantine_broadcast_problem": "repro.validity.standard",
    "constant_problem": "repro.validity.standard",
    "correct_proposal_problem": "repro.validity.standard",
    "external_validity_problem": "repro.validity.standard",
    "interactive_consistency_problem": "repro.validity.standard",
    "strong_consensus_problem": "repro.validity.standard",
    "vector_consensus_problem": "repro.validity.standard",
    "weak_consensus_problem": "repro.validity.standard",
    "TrivialityReport": "repro.validity.triviality",
    "is_trivial": "repro.validity.triviality",
    "triviality_report": "repro.validity.triviality",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
