"""Omission-model proof constructions (§3, Appendix A.2).

* :mod:`repro.omission.isolation` — Definition 1 (group isolation) as an
  adversary strategy plus a recorded-execution verifier.
* :mod:`repro.omission.indistinguishability` — the §3 indistinguishability
  relation and Figure-1 divergence profiling.
* :mod:`repro.omission.swap` — Algorithm 4 (``swap_omission``) with the
  Lemma-15 checks.
* :mod:`repro.omission.merge` — Algorithm 5 (``merge``) with Definition 2
  (mergeability) and the Lemma-16 checks.
* :mod:`repro.omission.masks` — compilation of the static omission
  adversaries above to the bitmask kernel's AND-mask form.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

# ``merge`` shares its name with the submodule that defines it.
# Importing the submodule binds the package attribute to the
# module, so a lazy ``merge`` would resolve to the module; the
# eager import binds the function once, before any such import.
from repro.omission.merge import merge

_ORIGINS = {
    "DivergenceProfile": "repro.omission.indistinguishability",
    "ExecutionDiff": "repro.omission.indistinguishability",
    "diff_executions": "repro.omission.indistinguishability",
    "divergence_profile": "repro.omission.indistinguishability",
    "first_distinguishing_round": "repro.omission.indistinguishability",
    "first_send_divergence": "repro.omission.indistinguishability",
    "indistinguishable_to": "repro.omission.indistinguishability",
    "indistinguishable_to_all": "repro.omission.indistinguishability",
    "IsolationAdversary": "repro.omission.isolation",
    "check_isolated": "repro.omission.isolation",
    "is_isolated": "repro.omission.isolation",
    "isolate_group": "repro.omission.isolation",
    "quiescent_toward": "repro.omission.isolation",
    "compile_omissions": "repro.omission.masks",
    "MergeSpec": "repro.omission.merge",
    "check_merge_inputs": "repro.omission.merge",
    "check_merge_result": "repro.omission.merge",
    "is_mergeable": "repro.omission.merge",
    "uniform_proposal": "repro.omission.merge",
    "SwapResult": "repro.omission.swap",
    "blamed_senders": "repro.omission.swap",
    "swap_omission": "repro.omission.swap",
    "swap_omission_checked": "repro.omission.swap",
}

__all__ = sorted([*_ORIGINS, "merge"])

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
