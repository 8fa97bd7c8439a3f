"""Synchronous round simulator and the Appendix-A execution formalism.

Public surface:

* :class:`~repro.sim.message.Message` — model messages.
* :class:`~repro.sim.state.StateSnapshot`, :class:`~repro.sim.state.Fragment`,
  :class:`~repro.sim.state.Behavior` — the observer's records (A.1.2–A.1.5).
* :class:`~repro.sim.execution.Execution` and
  :func:`~repro.sim.execution.check_execution` — executions and their
  validity conditions (A.1.6).
* :class:`~repro.sim.process.Process` — deterministic state machines.
* :class:`~repro.sim.adversary.Adversary` and friends — static adversaries.
* :class:`~repro.sim.engine.RoundEngine` and its
  :class:`~repro.sim.engine.RoundObserver`\\ s — the event-driven round
  loop and its pluggable per-round consumers.
* :func:`~repro.sim.simulator.run_execution` — the standard entry point
  (engine + trace recorder + incremental checker).
* :class:`~repro.sim.metrics.ComplexityReport` /
  :class:`~repro.sim.metrics.StreamingComplexity` — message accounting
  (§2), post-hoc and streaming.
* :mod:`repro.sim.kernel` — the bitmask round kernel: the same
  semantics over per-round integer bitmasks for compiled omission
  adversaries, with :class:`~repro.sim.kernel.KernelOracle`
  cross-checking it against the object engine.

Every exported name is imported on first access (PEP 562, see
:mod:`repro.lazy`), so importing one submodule does not load its
siblings.
"""

from repro.lazy import lazy_exports

_ORIGINS = {
    "AdaptiveOmissionAdversary": "repro.sim.adversary",
    "Adversary": "repro.sim.adversary",
    "ByzantineAdversary": "repro.sim.adversary",
    "ChattiestTargetAdversary": "repro.sim.adversary",
    "CrashAdversary": "repro.sim.adversary",
    "NoFaults": "repro.sim.adversary",
    "OmissionSchedule": "repro.sim.adversary",
    "ScheduledOmissionAdversary": "repro.sim.adversary",
    "SilenceAdversary": "repro.sim.adversary",
    "compose_omissions": "repro.sim.adversary",
    "EarlyStopPolicy": "repro.sim.engine",
    "IncrementalChecker": "repro.sim.engine",
    "MachineCheckpointer": "repro.sim.engine",
    "RoundEngine": "repro.sim.engine",
    "RoundEvent": "repro.sim.engine",
    "RoundObserver": "repro.sim.engine",
    "TraceRecorder": "repro.sim.engine",
    "Execution": "repro.sim.execution",
    "ExecutionSummary": "repro.sim.execution",
    "check_execution": "repro.sim.execution",
    "check_transitions": "repro.sim.execution",
    "group_decisions": "repro.sim.execution",
    "majority_decision": "repro.sim.execution",
    "unanimous_decision": "repro.sim.execution",
    "CompiledOmissions": "repro.sim.kernel",
    "KernelOracle": "repro.sim.kernel",
    "KernelTrace": "repro.sim.kernel",
    "PrefixForker": "repro.sim.kernel",
    "fork_kernel": "repro.sim.kernel",
    "no_faults_compiled": "repro.sim.kernel",
    "run_kernel": "repro.sim.kernel",
    "Message": "repro.sim.message",
    "broadcast_payload": "repro.sim.message",
    "ComplexityReport": "repro.sim.metrics",
    "StreamingComplexity": "repro.sim.metrics",
    "count_signatures": "repro.sim.metrics",
    "dolev_reischuk_floor": "repro.sim.metrics",
    "dolev_reischuk_signature_floor": "repro.sim.metrics",
    "meets_lower_bound": "repro.sim.metrics",
    "quadratic_ratio": "repro.sim.metrics",
    "signature_complexity": "repro.sim.metrics",
    "weak_consensus_floor": "repro.sim.metrics",
    "Process": "repro.sim.process",
    "ProcessFactory": "repro.sim.process",
    "ReplayProcess": "repro.sim.process",
    "drive_replay": "repro.sim.process",
    "dump_execution": "repro.sim.serialization",
    "dump_witness": "repro.sim.serialization",
    "execution_from_dict": "repro.sim.serialization",
    "execution_to_dict": "repro.sim.serialization",
    "load_execution": "repro.sim.serialization",
    "load_witness": "repro.sim.serialization",
    "SimulationConfig": "repro.sim.simulator",
    "all_correct_decided": "repro.sim.simulator",
    "decisions_by_value": "repro.sim.simulator",
    "resume_execution": "repro.sim.simulator",
    "run_execution": "repro.sim.simulator",
    "run_with_uniform_proposal": "repro.sim.simulator",
    "Behavior": "repro.sim.state",
    "Fragment": "repro.sim.state",
    "StateSnapshot": "repro.sim.state",
    "behavior_from_fragments": "repro.sim.state",
    "behaviors_indistinguishable": "repro.sim.state",
    "check_behavior": "repro.sim.state",
    "check_fragment": "repro.sim.state",
    "initial_state": "repro.sim.state",
}

__all__ = sorted(_ORIGINS)

__getattr__, __dir__ = lazy_exports(__name__, _ORIGINS)
