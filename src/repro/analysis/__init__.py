"""Measurement, fitting and reporting harness for the experiments.

* :mod:`repro.analysis.complexity` — (n, t) sweeps of worst-case message
  counts across fault-free and adversarial scenarios.
* :mod:`repro.analysis.fitting` — power-law exponent fits (the Ω(t²) /
  o(t²) shape checks).
* :mod:`repro.analysis.tables` — monospace table rendering.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "SweepPoint": "repro.analysis.complexity",
    "default_scenarios": "repro.analysis.complexity",
    "exhaustive_isolation_scan": "repro.analysis.complexity",
    "measure_point": "repro.analysis.complexity",
    "mixed_workload": "repro.analysis.complexity",
    "quadratic_parameter_grid": "repro.analysis.complexity",
    "sweep": "repro.analysis.complexity",
    "uniform_workloads": "repro.analysis.complexity",
    "MultiShotReport": "repro.analysis.amortization",
    "run_multi_shot_broadcast": "repro.analysis.amortization",
    "LatencyReport": "repro.analysis.latency",
    "dolev_strong_round_floor": "repro.analysis.latency",
    "PowerLawFit": "repro.analysis.fitting",
    "fit_power_law": "repro.analysis.fitting",
    "fit_sweep": "repro.analysis.fitting",
    "is_subquadratic": "repro.analysis.fitting",
    "is_superquadratic": "repro.analysis.fitting",
    "render_divergence": "repro.analysis.spacetime",
    "render_spacetime": "repro.analysis.spacetime",
    "render_execution": "repro.analysis.tables",
    "render_kv": "repro.analysis.tables",
    "render_sweep": "repro.analysis.tables",
    "render_table": "repro.analysis.tables",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
