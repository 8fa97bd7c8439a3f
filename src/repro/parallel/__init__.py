"""Parallel sweep execution: multi-core fan-out of attack matrices.

The subsystem has two modules:

* :mod:`repro.parallel.jobs` — picklable job descriptions
  (:class:`AttackJob`, :class:`MeasureJob`) that rebuild protocol specs
  from :mod:`repro.registry` names inside each worker;
* :mod:`repro.parallel.scheduler` — :class:`SweepScheduler`, which
  shards a job matrix over a process pool (or a bit-identical serial
  fallback), gathers results in deterministic cell order and merges
  per-worker cache accounting into a :class:`SweepReport`.

Every symbol is loaded lazily (PEP 562): the scheduler imports the
lower-bound driver and the protocol registry at module level, so an
eager import here would make ``import repro.parallel`` pay for the
whole attack stack even when a caller only wants one registry lookup.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "AttackJob": "repro.parallel.jobs",
    "CacheStats": "repro.parallel.jobs",
    "ClassifyJob": "repro.parallel.jobs",
    "ClassifyVerdict": "repro.parallel.jobs",
    "JobResult": "repro.parallel.jobs",
    "MeasureJob": "repro.parallel.jobs",
    "SweepJob": "repro.parallel.jobs",
    "UnknownBuilderError": "repro.registry",
    "execute_job": "repro.parallel.jobs",
    "registered_builders": "repro.registry",
    "registered_problems": "repro.registry",
    "resolve_builder": "repro.registry",
    "resolve_problem": "repro.registry",
    "CellError": "repro.parallel.scheduler",
    "SweepCell": "repro.parallel.scheduler",
    "SweepReport": "repro.parallel.scheduler",
    "SweepScheduler": "repro.parallel.scheduler",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
