"""The executable lower-bound argument (Lemmas 2–5, Theorem 2).

Given *any* candidate weak consensus algorithm (as a
:class:`~repro.protocols.base.ProtocolSpec`), the driver walks the paper's
proof as a concrete attack:

1. **Fault-free sanity** — the all-0 and all-1 executions must decide
   their proposals (Weak Validity + Termination); failures are immediate
   witnesses.
2. **Round-1 isolations** — run ``E_b^{G(1)}`` for both bits and both
   groups; in each, all correct processes must agree, and (Lemma 2) a
   majority of the isolated group must decide the correct processes' bit
   — otherwise the swap-omission construction is attempted to extract a
   witness.
3. **Lemma-3 consistency** — the four round-1 executions must share one
   correct-group decision ``d`` (they are pairwise mergeable).  On a
   mismatch, the two executions are *merged* (Algorithm 5) and the
   extraction runs inside the merged execution.
4. **Critical round** (Lemma 4) — with ``f = 1 - d``, scan
   ``E_f^{B(k)}`` for increasing ``k`` until the correct decision flips
   from ``d`` to ``f``; Lemma 2 is re-checked at every step.
5. **The final merge** (Lemma 5, Figure 2) — merge ``E_f^{B(R+1)}`` with
   ``E_f^{C(R)}``; group A's decision necessarily disagrees with the
   replayed majority of B or of C, and the extraction produces the
   witness.

Every produced witness is re-verified from scratch
(:func:`~repro.lowerbound.witnesses.verify_witness`).  If no witness is
found — e.g. because every extraction ran into the ``t/2``
receive-omission budget, which is exactly what ≥ ``t²/32``-message
algorithms buy themselves — the outcome reports the observed message
counts against the Lemma-1 floor.

**Execution reuse.**  The pipeline's cost is dominated by re-simulating
near-identical configurations: every ``E_b^{G(k)}`` shares its first
``k - 1`` rounds with the fault-free ``E_b``, and consecutive scan steps
``E_f^{B(k)}``, ``E_f^{B(k+1)}`` are *literally equal* whenever no
outside message targets ``B`` in round ``k`` (see
:func:`~repro.omission.isolation.quiescent_toward`).  The
:class:`ExecutionCache` exploits both: fault-free runs are checkpointed
per round (:class:`~repro.sim.engine.MachineCheckpointer`) so isolation
runs resume at their isolation round, and quiescent scan spans collapse
onto one simulation.  Both reuses produce bit-identical executions —
machines are deterministic — so witnesses and verdicts are unchanged;
the engine counters in :class:`AttackOutcome` report the savings.

**The mask kernel.**  The driver's adversaries are exactly the family
the bitmask kernel (:mod:`repro.sim.kernel`) compiles, so by default
(``kernel="auto"``) simulation runs over per-round integer bitmasks
instead of message objects: the fault-free run records a mask trace, the
Lemma-4 scan fans candidates out of its shared prefix via
:class:`~repro.sim.kernel.PrefixForker` (one machine deep-copy per
divergence round instead of one per round boundary), and §2 complexity
is popcount accumulation.  Traces materialize into bit-identical
:class:`~repro.sim.execution.Execution` records on demand, so every
downstream consumer — merges, swaps, witnesses, certificates — is
engine-agnostic.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.certify.format import Certificate
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import TelemetryBus
    from repro.worldlog.store import WorldLog

from repro.errors import ModelViolation, ReproError
from repro.lowerbound.bound import BoundComparison, weak_consensus_floor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.lowerbound.partition import ABCPartition, canonical_partition
from repro.lowerbound.witnesses import (
    ViolationKind,
    ViolationWitness,
    verify_witness,
)
from repro.omission.isolation import isolate_group, quiescent_toward
from repro.omission.masks import compile_omissions
from repro.omission.merge import MergeSpec, merge
from repro.omission.swap import swap_omission_checked
from repro.parallel.profiling import (
    AttackProfile,
    PhaseTimer,
    ProfilingObserver,
)
from repro.protocols.base import ProtocolSpec
from repro.sim.engine import (
    EarlyStopPolicy,
    MachineCheckpointer,
    RoundObserver,
    object_counts,
    object_counts_delta,
)
from repro.sim.execution import Execution, check_execution, majority_decision
from repro.sim.kernel import (
    KernelTrace,
    PrefixForker,
    fork_kernel,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.metrics import StreamingComplexity
from repro.sim.simulator import SimulationConfig, resume_execution
from repro.types import Bit, Payload, ProcessId, Round

_SpecKey = tuple[str, int, int, int]


@dataclass
class _CacheEntry:
    """One cached simulation: the trace, its §2 message count, and
    whether it ran to the configured horizon (early-stopped traces are
    valid for decision queries but not as witnesses or merge inputs)."""

    execution: Execution
    messages: int
    complete: bool


@dataclass
class ExecutionCache:
    """Cache of simulated executions keyed by (protocol, bit, adversary).

    The key triple is ``(spec key, proposal bit, adversary signature)``
    where the spec key is ``(name, n, t, rounds)`` and the signature is
    ``None`` for fault-free runs or ``(group, from_round)`` for the
    isolation adversaries of Definition 1 — the only adversary family
    the pipeline simulates.  A cache may be shared across drivers (and
    thus across partitions) attacking the same protocol.

    Besides exact hits, the cache performs two *semantic* reuses, both
    returning executions bit-identical to a fresh simulation:

    * **quiescent aliasing** — ``E_b^{G(k)}`` equals a cached
      ``E_b^{G(k')}`` when no outside message targets ``G`` between the
      two isolation rounds (:func:`~repro.omission.isolation.quiescent_toward`);
    * **beyond-horizon identity** — for ``k`` past the horizon the
      isolation never acts, so the fault-free behaviors are reused with
      the faulty set rewritten to ``G``.

    ``hits`` counts exact key hits, ``alias_hits`` the semantic reuses,
    ``misses`` actual simulations.

    Process-boundary note: ``_entries`` hold full execution traces,
    ``_checkpointers`` hold live machine deep-copies and
    ``_kernel_states`` hold live mask traces with their fork machinery —
    none is ever shipped across process boundaries.  A parallel sweep
    gives every worker its own cache and sends back *counters only* (see
    :class:`repro.parallel.jobs.CacheStats`), which the scheduler folds
    into one aggregate via :meth:`merge_stats`.
    """

    hits: int = 0
    alias_hits: int = 0
    misses: int = 0
    _entries: dict = field(default_factory=dict, repr=False)
    _checkpointers: dict = field(default_factory=dict, repr=False)
    _kernel_states: dict = field(default_factory=dict, repr=False)

    def merge_stats(self, other) -> None:
        """Fold another cache's *counters* into this one (counters only).

        ``other`` is anything exposing ``hits`` / ``alias_hits`` /
        ``misses`` integer attributes — a sibling :class:`ExecutionCache`
        or the picklable :class:`repro.parallel.jobs.CacheStats` a worker
        ships home.  Entries and checkpointers are deliberately *not*
        merged: traces and machine snapshots stay within the process that
        produced them.
        """
        self.hits += other.hits
        self.alias_hits += other.alias_hits
        self.misses += other.misses

    def lookup(self, key: tuple) -> _CacheEntry | None:
        """The entry stored under the exact ``key``, if any."""
        return self._entries.get(key)

    def store(self, key: tuple, entry: _CacheEntry) -> None:
        """Insert or replace the entry for ``key``."""
        self._entries[key] = entry

    def isolation_family(
        self,
        spec_key: _SpecKey,
        bit: Bit,
        group: frozenset[ProcessId],
    ) -> list[tuple[Round, _CacheEntry]]:
        """All cached ``(from_round, entry)`` isolations of ``group``."""
        family = []
        for (skey, kbit, sig), entry in self._entries.items():
            if (
                skey == spec_key
                and kbit == bit
                and sig is not None
                and sig[0] == group
            ):
                family.append((sig[1], entry))
        return family

    def checkpointer(
        self, spec_key: _SpecKey, bit: Bit
    ) -> MachineCheckpointer | None:
        """The fault-free run's checkpointer for ``bit``, if recorded."""
        return self._checkpointers.get((spec_key, bit))

    def store_checkpointer(
        self,
        spec_key: _SpecKey,
        bit: Bit,
        checkpointer: MachineCheckpointer,
    ) -> None:
        """Record the fault-free checkpointer for later resume calls."""
        self._checkpointers[(spec_key, bit)] = checkpointer

    def kernel_state(
        self, spec_key: _SpecKey, bit: Bit
    ) -> "tuple[KernelTrace, PrefixForker] | None":
        """The fault-free kernel trace and its forker, if recorded."""
        return self._kernel_states.get((spec_key, bit))

    def store_kernel_state(
        self,
        spec_key: _SpecKey,
        bit: Bit,
        state: "tuple[KernelTrace, PrefixForker]",
    ) -> None:
        """Record the mask-kernel analogue of the checkpointer: the
        fault-free trace (the shared prefix) plus the
        :class:`~repro.sim.kernel.PrefixForker` the Lemma-4 scan fans
        out of."""
        self._kernel_states[(spec_key, bit)] = state


@dataclass(frozen=True)
class AttackOutcome:
    """The result of running the lower-bound pipeline on one candidate.

    Attributes:
        protocol: the candidate's name.
        n, t: system parameters.
        partition: the (A, B, C) partition used.
        witness: a verified violation witness, or ``None``.
        bound: observed worst message count vs the ``t²/32`` floor.
        default_bit: the Lemma-3 common decision ``d`` (if reached).
        critical_round: the Lemma-4 round ``R`` (if reached).
        log: the pipeline's step-by-step narrative (including the engine
            round counters).
        rounds_simulated: rounds the engine actually simulated.
        rounds_baseline: rounds a reuse-free pipeline (one full-horizon
            simulation per distinct configuration) would have simulated.
        profile: wall-clock phase/round timings when profiling was
            requested (``None`` otherwise).  Excluded from equality:
            two runs of one attack agree on witnesses and verdicts but
            never on wall time.
        certificate: the portable v1 artifact packaging this outcome's
            claim (when certification was requested).  Excluded from
            equality like ``profile``: the certificate is derived
            evidence, and reuse-enabled and reuse-free runs of one
            attack may embed differently-labeled (yet equally valid)
            execution sets.
    """

    protocol: str
    n: int
    t: int
    partition: ABCPartition
    witness: ViolationWitness | None
    bound: BoundComparison
    default_bit: Payload | None = None
    critical_round: Round | None = None
    log: tuple[str, ...] = ()
    rounds_simulated: int = 0
    rounds_baseline: int = 0
    profile: AttackProfile | None = field(default=None, compare=False)
    certificate: "Certificate | None" = field(default=None, compare=False)

    @property
    def found_violation(self) -> bool:
        """Whether the candidate was broken."""
        return self.witness is not None

    def render(self, profile: bool = True) -> str:
        """A short report block.

        Args:
            profile: include the wall-clock profile block (callers that
                route timings to a diagnostic stream pass ``False`` and
                render ``self.profile`` separately).
        """
        lines = [
            f"attack on {self.protocol} (n={self.n}, t={self.t}; "
            f"{self.partition.describe()})",
            f"  {self.bound.render()}",
        ]
        if self.default_bit is not None:
            lines.append(f"  default bit d = {self.default_bit!r}")
        if self.critical_round is not None:
            lines.append(f"  critical round R = {self.critical_round}")
        if self.rounds_baseline:
            lines.append(
                f"  simulated {self.rounds_simulated} rounds "
                f"(baseline {self.rounds_baseline})"
            )
        if self.witness is not None:
            lines.append(f"  VIOLATION: {self.witness.summary()}")
        else:
            lines.append("  no violation found (bound respected)")
        if self.certificate is not None:
            lines.append(
                f"  certificate: schema v{self.certificate.schema}, "
                f"{len(self.certificate.execution_labels)} execution(s) "
                "embedded"
            )
        if profile and self.profile is not None:
            lines.extend(
                "  " + line for line in self.profile.render().splitlines()
            )
        return "\n".join(lines)


class _Found(Exception):
    """Internal: unwinds the pipeline when a witness is in hand."""

    def __init__(self, witness: ViolationWitness) -> None:
        super().__init__(witness.summary())
        self.witness = witness


@dataclass
class LowerBoundDriver:
    """Runs the Lemma 2–5 pipeline against one candidate algorithm.

    Attributes:
        spec: the candidate weak consensus algorithm.
        partition: the (A, B, C) split; defaults to
            :func:`~repro.lowerbound.partition.canonical_partition`.
        verify: re-verify any produced witness from scratch.
        check: validate every simulated trace against the model
            conditions (disable for speed once a protocol is trusted).
        early_stop: halt decision-only simulations once *every* process
            has decided.  Witnesses, merge inputs and the observed bound
            always come from full-horizon traces (re-materialized on
            demand), so outcomes are unchanged.
        reuse: enable the execution cache's checkpoint-resume and
            quiescent-aliasing reuses.  Disabling both ``early_stop``
            and ``reuse`` replicates the simulate-everything pipeline.
        cache: a shared :class:`ExecutionCache`; by default each driver
            builds its own.
        profile: record wall-clock timings — a
            :class:`~repro.parallel.profiling.ProfilingObserver` on every
            engine run plus per-phase driver spans — surfaced as
            ``AttackOutcome.profile``.
        tracer: the structured-telemetry sink (default: the shared
            zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`).  A
            live :class:`~repro.obs.tracer.LedgerTracer` receives every
            pipeline phase as a span, every simulated round as an
            ``engine.round`` event with message-count attributes, and
            the final cache/bound counters — the run-ledger view of the
            attack.  Telemetry never affects outcomes.
        certify: package the outcome as a portable v1 attack
            certificate (``AttackOutcome.certificate``): the pipeline
            records which configuration produced each trace and which
            merge/swap produced the witness, and the final artifact
            embeds the evidence chain for
            :func:`repro.certify.verifier.verify_certificate`.
        worldlog: an open :class:`~repro.worldlog.store.WorldLog` to
            record the certificate into (default ``None``: no records).
            When ``certify`` is on, the driver appends a
            ``cert.artifact`` record carrying the assembled
            certificate's exact canonical text, so the certificate view
            derived from the log is byte-identical to the file the CLI
            writes.  Recording never affects outcomes.
        kernel: which round engine simulates — ``"object"`` forces the
            per-message object engine; ``"mask"`` requests the bitmask
            kernel (:mod:`repro.sim.kernel`); ``"auto"`` (default)
            selects the kernel whenever the run is kernel-representable.
            The driver's adversaries (no-fault and Definition-1
            isolation) always compile, so under ``auto`` the kernel
            runs unless an engine-level observer is required: profiling
            and live tracing consume per-round
            :class:`~repro.sim.engine.RoundEvent` streams the kernel
            does not produce, so both force the object engine (also
            under ``"mask"``).  Both engines produce bit-identical
            executions and therefore equal outcomes — witnesses,
            bounds, logs and reuse counters; only speed differs.
    """

    spec: ProtocolSpec
    partition: ABCPartition | None = None
    verify: bool = True
    check: bool = True
    early_stop: bool = True
    reuse: bool = True
    cache: ExecutionCache | None = None
    profile: bool = False
    certify: bool = False
    tracer: Tracer = NULL_TRACER
    worldlog: "WorldLog | None" = None
    telemetry: "TelemetryBus | None" = None
    kernel: str = "auto"
    _use_kernel: bool = field(default=False, repr=False)
    _counts_at_start: dict | None = field(default=None, repr=False)
    _phase_timer: PhaseTimer | None = field(default=None, repr=False)
    _profiler: ProfilingObserver | None = field(default=None, repr=False)
    _metrics: "MetricsRegistry | None" = field(default=None, repr=False)
    _trace_observers: tuple = field(default=(), repr=False)
    _log: list[str] = field(default_factory=list, repr=False)
    _max_messages: int = field(default=0, repr=False)
    _requested: set = field(default_factory=set, repr=False)
    _rounds_simulated: int = field(default=0, repr=False)
    _rounds_baseline: int = field(default=0, repr=False)
    _prefix_rounds_skipped: int = field(default=0, repr=False)
    _early_stops: int = field(default=0, repr=False)
    # certification trail: which (bit, group, from_round) produced each
    # trace, plus the merge/swap contexts the witness (if any) fell out
    # of.  Keyed by object identity — the cache keeps the traces alive
    # for the driver's lifetime.
    _cert_origin: dict = field(default_factory=dict, repr=False)
    _cert_merge_ctx: dict | None = field(default=None, repr=False)
    _cert_swap_ctx: dict | None = field(default=None, repr=False)
    _cert_max_execution: Execution | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.partition is None:
            self.partition = canonical_partition(self.spec.n, self.spec.t)
        if (self.partition.n, self.partition.t) != (
            self.spec.n,
            self.spec.t,
        ):
            raise ValueError("partition does not match the spec's (n, t)")
        if self.cache is None:
            self.cache = ExecutionCache()
        if self.profile:
            self._phase_timer = PhaseTimer()
            self._profiler = ProfilingObserver()
        if self.tracer.enabled:
            from repro.obs.metrics import MetricsRegistry

            self._metrics = MetricsRegistry()
            self._trace_observers = self.tracer.round_observers(
                floor=weak_consensus_floor(self.spec.t),
                metrics=self._metrics,
            )
            self._counts_at_start = object_counts()
        if self.telemetry is not None:
            # Sampled telemetry rides the same observer slot.  It never
            # forces the object engine (unlike live tracing): under the
            # mask kernel the per-round tap sees nothing and sampling
            # happens at execution boundaries instead.
            if self._metrics is None:
                from repro.obs.metrics import MetricsRegistry

                self._metrics = MetricsRegistry()
            self.telemetry.attach_metrics(self._metrics)
            self._trace_observers = (
                *self._trace_observers,
                self.telemetry.round_tap(
                    floor=weak_consensus_floor(self.spec.t)
                ),
            )
        if self.kernel not in ("auto", "object", "mask"):
            raise ValueError(
                f"kernel must be 'auto', 'object' or 'mask', "
                f"not {self.kernel!r}"
            )
        # Profiling and live tracing need the object engine's per-round
        # event stream; the kernel produces none, so they win.
        self._use_kernel = (
            self.kernel != "object"
            and not self.profile
            and not self.tracer.enabled
        )
        self._spec_key: _SpecKey = (
            self.spec.name,
            self.spec.n,
            self.spec.t,
            self.spec.rounds,
        )

    def attack(self) -> AttackOutcome:
        """Run the full pipeline; always returns (never raises _Found)."""
        with self.tracer.span(
            "attack",
            protocol=self.spec.name,
            n=self.spec.n,
            t=self.spec.t,
        ):
            return self._attack()

    def _attack(self) -> AttackOutcome:
        witness: ViolationWitness | None = None
        default_bit: Payload | None = None
        critical_round: Round | None = None
        try:
            with self._phase("fault-free"):
                self._fault_free_checks()
            with self._phase("isolation-scan"):
                decisions = self._round_one_isolations()
            default_bit = self._lemma3_consistency(decisions)
            if default_bit is not None:
                with self._phase("isolation-scan"):
                    critical_round = self._critical_round_scan(
                        default_bit
                    )
                if critical_round is not None:
                    self._final_merge(default_bit, critical_round)
            self._note("pipeline exhausted without a violation")
        except _Found as found:
            witness = found.witness
            if self.verify:
                with self._phase("witness-verify"):
                    verify_witness(witness, self.spec.factory)
                self._note("witness re-verified from scratch")
        assert self.partition is not None
        assert self.cache is not None
        self._note(
            f"engine: simulated {self._rounds_simulated} rounds vs "
            f"{self._rounds_baseline} baseline "
            f"({self.cache.hits} cache hits, "
            f"{self.cache.alias_hits} reuse hits, "
            f"{self._prefix_rounds_skipped} prefix rounds skipped, "
            f"{self._early_stops} early stops)"
        )
        profile: AttackProfile | None = None
        if self._phase_timer is not None:
            profile = self._phase_timer.profile(self._profiler)
        certificate: "Certificate | None" = None
        if self.certify:
            with self._phase("certify"):
                certificate = self._build_certificate(
                    witness, default_bit, critical_round
                )
            self._note(
                "certificate assembled: "
                f"{len(certificate.execution_labels)} execution(s) "
                "embedded"
            )
            if self.worldlog is not None:
                label = f"{self.spec.name}-n{self.spec.n}-t{self.spec.t}"
                self.worldlog.append(
                    "cert.artifact",
                    {"label": label, "text": certificate.dumps()},
                    cell_id=label,
                )
        self._flush_telemetry(witness)
        return AttackOutcome(
            protocol=self.spec.name,
            n=self.spec.n,
            t=self.spec.t,
            partition=self.partition,
            witness=witness,
            bound=BoundComparison(
                t=self.spec.t, observed=self._max_messages
            ),
            default_bit=default_bit,
            critical_round=critical_round,
            log=tuple(self._log),
            rounds_simulated=self._rounds_simulated,
            rounds_baseline=self._rounds_baseline,
            profile=profile,
            certificate=certificate,
        )

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    def _fault_free_checks(self) -> None:
        """Stage 1: Weak Validity and Termination in E_0 and E_1."""
        for bit in (0, 1):
            execution = self._run(bit, group=None, from_round=None)
            self._require_unanimous(
                execution, context=f"fault-free all-{bit}"
            )
            for pid in range(self.spec.n):
                decision = execution.decision(pid)
                if decision != bit:
                    self._found(
                        ViolationWitness(
                            kind=ViolationKind.WEAK_VALIDITY,
                            execution=execution,
                            culprit=pid,
                            note=(
                                f"all processes correct and propose {bit} "
                                f"but p{pid} decided {decision!r}"
                            ),
                        )
                    )

    def _round_one_isolations(self) -> dict[tuple[Bit, str], Payload]:
        """Stage 2: the four ``E_b^{G(1)}`` executions plus Lemma-2 checks."""
        decisions: dict[tuple[Bit, str], Payload] = {}
        for bit in (0, 1):
            for label in ("B", "C"):
                execution = self._run(bit, group=label, from_round=1)
                refetch = self._materializer(bit, label, 1)
                decided = self._require_unanimous(
                    execution,
                    context=f"E_{bit}^{{{label}(1)}}",
                    refetch=refetch,
                )
                decisions[(bit, label)] = decided
                self._lemma2_check(
                    execution, label, 1, decided, refetch=refetch
                )
        return decisions

    def _lemma3_consistency(
        self, decisions: dict[tuple[Bit, str], Payload]
    ) -> Payload | None:
        """Stage 3: the four round-1 decisions must coincide (Lemma 3).

        Returns the common bit ``d`` when consistent; on a mismatch merges
        the offending mergeable pair and attempts extraction inside it,
        returning ``None`` if nothing could be extracted (pipeline over).
        """
        values = set(decisions.values())
        if len(values) == 1:
            d = values.pop()
            self._note(f"Lemma 3 consistent: default bit d = {d!r}")
            return d
        self._note(
            f"Lemma 3 violated across round-1 isolations: {decisions}"
        )
        for bit_b in (0, 1):
            for bit_c in (0, 1):
                d_b = decisions[(bit_b, "B")]
                d_c = decisions[(bit_c, "C")]
                if d_b == d_c:
                    continue
                self._merge_and_extract(
                    exec_b=self._run(bit_b, "B", 1, full=True),
                    exec_c=self._run(bit_c, "C", 1, full=True),
                    round_b=1,
                    round_c=1,
                    expect_b=d_b,
                    expect_c=d_c,
                )
        self._note("merge extraction inconclusive at round-1 stage")
        return None

    def _critical_round_scan(self, default_bit: Payload) -> Round | None:
        """Stage 4 (Lemma 4): find R with decisions d at B(R), f at B(R+1)."""
        family_bit = 1 - int(default_bit)  # binary weak consensus
        previous = default_bit
        for k in range(2, self.spec.rounds + 3):
            execution = self._run(family_bit, "B", k)
            refetch = self._materializer(family_bit, "B", k)
            decided = self._require_unanimous(
                execution,
                context=f"E_{family_bit}^{{B({k})}}",
                refetch=refetch,
            )
            self._lemma2_check(
                execution, "B", k, decided, refetch=refetch
            )
            if decided != previous:
                critical = k - 1
                self._note(
                    f"critical round R = {critical}: decisions "
                    f"{previous!r} at B({critical}) vs {decided!r} at "
                    f"B({critical + 1})"
                )
                return critical
        self._note(
            "no critical round found within the horizon — the decision "
            "never flipped, contradicting Weak Validity bookkeeping"
        )
        return None

    def _final_merge(
        self, default_bit: Payload, critical_round: Round
    ) -> None:
        """Stage 5 (Lemma 5 / Figure 2): merge B(R+1) with C(R)."""
        family_bit = 1 - int(default_bit)
        exec_c = self._run(family_bit, "C", critical_round, full=True)
        decided_c = self._require_unanimous(
            execution=exec_c,
            context=f"E_{family_bit}^{{C({critical_round})}}",
        )
        self._lemma2_check(exec_c, "C", critical_round, decided_c)
        if decided_c == default_bit:
            # The paper's main line: B at R+1 decides f, C at R decides d.
            self._merge_and_extract(
                exec_b=self._run(
                    family_bit, "B", critical_round + 1, full=True
                ),
                exec_c=exec_c,
                round_b=critical_round + 1,
                round_c=critical_round,
                expect_b=family_bit,
                expect_c=default_bit,
            )
        else:
            # Lemma 3 already fails for the same-round pair (B(R), C(R)).
            self._merge_and_extract(
                exec_b=self._run(
                    family_bit, "B", critical_round, full=True
                ),
                exec_c=exec_c,
                round_b=critical_round,
                round_c=critical_round,
                expect_b=default_bit,
                expect_c=decided_c,
            )
        self._note("final merge extraction inconclusive")

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def _merge_and_extract(
        self,
        exec_b: Execution,
        exec_c: Execution,
        round_b: Round,
        round_c: Round,
        expect_b: Payload,
        expect_c: Payload,
    ) -> None:
        """Merge two isolated executions and try both extractions.

        ``expect_b``/``expect_c`` are the decisions the replayed groups
        carry over by indistinguishability; group A must disagree with at
        least one of them when the expectations differ.
        """
        assert self.partition is not None
        spec = MergeSpec(
            group_b=self.partition.group_b,
            group_c=self.partition.group_c,
            round_b=round_b,
            round_c=round_c,
        )
        with self._phase("merge"):
            merged = merge(spec, exec_b, exec_c, self.spec.factory)
        if self.certify:
            self._cert_merge_ctx = {
                "exec_b": exec_b,
                "exec_c": exec_c,
                "round_b": round_b,
                "round_c": round_c,
                "merged": merged,
            }
        self._observe(merged)
        self._note(
            f"merged B({round_b}) with C({round_c}); expecting B->"
            f"{expect_b!r}, C->{expect_c!r}"
        )
        decided = self._require_unanimous(
            merged, context=f"merge(B({round_b}), C({round_c}))"
        )
        if decided != expect_b:
            self._lemma2_extract(merged, "B", round_b, decided)
        if decided != expect_c:
            self._lemma2_extract(merged, "C", round_c, decided)

    def _lemma2_check(
        self,
        execution: Execution,
        group_label: str,
        from_round: Round,
        correct_decision: Payload,
        refetch: "Callable[[], Execution] | None" = None,
    ) -> None:
        """If the isolated group's majority strays, try the extraction."""
        group = self._group(group_label)
        majority = majority_decision(execution, sorted(group))
        if majority != correct_decision:
            self._note(
                f"Lemma 2 premise violated: majority of {group_label} "
                f"decided {majority!r} vs correct {correct_decision!r}"
            )
            if refetch is not None and self._truncated(execution):
                execution = refetch()
            self._lemma2_extract(
                execution, group_label, from_round, correct_decision
            )

    def _lemma2_extract(
        self,
        execution: Execution,
        group_label: str,
        from_round: Round,
        correct_decision: Payload,
    ) -> None:
        """Lemma 2's constructive step: swap omissions to free a deviant.

        Scans the isolated group's members in order of how few messages
        from correct processes they receive-omitted (the paper's
        ``|M_{X→p}| < t/2`` counting argument picks exactly these), and
        for each deviant attempts ``swap_omission``; a successful swap
        yields a valid execution in which the deviant is *correct* yet
        disagrees with (or never decides unlike) a correct witness.
        """
        group = self._group(group_label)
        correct = execution.correct

        def omitted_from_correct(pid: ProcessId) -> int:
            behavior = execution.behavior(pid)
            return sum(
                1
                for message in behavior.all_receive_omitted()
                if message.sender in correct
            )

        candidates = sorted(
            (pid for pid in group
             if execution.decision(pid) != correct_decision),
            key=lambda pid: (omitted_from_correct(pid), pid),
        )
        for pid in candidates:
            try:
                with self._phase("swap"):
                    swapped = swap_omission_checked(execution, pid)
            except ModelViolation as error:
                self._note(
                    f"extraction via p{pid} failed: {error} "
                    "(the message-count premise protects the algorithm "
                    "here)"
                )
                continue
            remaining_correct = sorted(
                correct - swapped.execution.faulty
            )
            witnesses = [
                q
                for q in remaining_correct
                if swapped.execution.decision(q) == correct_decision
            ]
            if not witnesses:
                self._note(
                    f"extraction via p{pid}: no correct witness survived "
                    "the swap"
                )
                continue
            counterpart = witnesses[0]
            if self.certify:
                self._cert_swap_ctx = {
                    "source": execution,
                    "result": swapped.execution,
                    "process": pid,
                }
            if swapped.execution.decision(pid) is None:
                self._found(
                    ViolationWitness(
                        kind=ViolationKind.TERMINATION,
                        execution=swapped.execution,
                        culprit=pid,
                        note=(
                            f"swap freed p{pid} (isolated in {group_label} "
                            f"from round {from_round}) which never decides"
                        ),
                    )
                )
            self._found(
                ViolationWitness(
                    kind=ViolationKind.AGREEMENT,
                    execution=swapped.execution,
                    culprit=pid,
                    counterpart=counterpart,
                    note=(
                        f"swap freed p{pid} (isolated in {group_label} "
                        f"from round {from_round}); decides "
                        f"{swapped.execution.decision(pid)!r} vs "
                        f"p{counterpart}'s {correct_decision!r}"
                    ),
                )
            )

    def _require_unanimous(
        self,
        execution: Execution,
        context: str,
        refetch: "Callable[[], Execution] | None" = None,
    ) -> Payload:
        """All correct processes decided one value — or a direct witness.

        ``refetch`` re-materializes the full-horizon trace when the
        checked execution was early-stopped and a witness must embed it
        (decisions are write-once, so the decision data is unaffected).
        """
        undecided = [
            pid
            for pid in sorted(execution.correct)
            if execution.decision(pid) is None
        ]
        if undecided:
            if refetch is not None and self._truncated(execution):
                execution = refetch()
            self._found(
                ViolationWitness(
                    kind=ViolationKind.TERMINATION,
                    execution=execution,
                    culprit=undecided[0],
                    note=f"correct p{undecided[0]} undecided in {context}",
                )
            )
        by_value: dict[Payload, ProcessId] = {}
        for pid in sorted(execution.correct):
            by_value.setdefault(execution.decision(pid), pid)
        if len(by_value) > 1:
            if refetch is not None and self._truncated(execution):
                execution = refetch()
            values = sorted(by_value, key=repr)
            self._found(
                ViolationWitness(
                    kind=ViolationKind.AGREEMENT,
                    execution=execution,
                    culprit=by_value[values[0]],
                    counterpart=by_value[values[1]],
                    note=f"correct processes split in {context}",
                )
            )
        return next(iter(by_value))

    def _truncated(self, execution: Execution) -> bool:
        return execution.rounds < self.spec.rounds

    def _materializer(
        self, bit: Bit, group: str, from_round: Round
    ) -> "Callable[[], Execution]":
        """A thunk re-running the configuration at full horizon."""
        return lambda: self._run(bit, group, from_round, full=True)

    def _run(
        self,
        bit: Bit,
        group: str | None,
        from_round: Round | None,
        *,
        full: bool = False,
    ) -> Execution:
        """Run (and cache) ``E_bit`` or ``E_bit^{G(k)}``.

        ``full`` demands a full-horizon trace (witness embedding, merge
        input); otherwise a cached early-stopped trace is acceptable for
        decision queries.  Both the quiescent-alias and checkpoint-resume
        paths return executions bit-identical to a fresh simulation, so
        callers never observe the difference.
        """
        execution = self._run_config(bit, group, from_round, full=full)
        if self.certify:
            # Remember which configuration produced the trace; with
            # quiescent aliasing one trace may serve several requested
            # rounds, and the *first* (actually simulated) origin is the
            # one whose isolation claim certainly holds.
            self._cert_origin.setdefault(
                id(execution), (bit, group, from_round)
            )
        return execution

    def _run_config(
        self,
        bit: Bit,
        group: str | None,
        from_round: Round | None,
        *,
        full: bool = False,
    ) -> Execution:
        assert self.cache is not None
        horizon = self.spec.rounds
        sig = (
            None
            if group is None
            else (self._group(group), from_round)
        )
        # Baseline accounting: the reuse-free pipeline simulates each
        # distinct configuration once, at full horizon.
        if (bit, sig) not in self._requested:
            self._requested.add((bit, sig))
            self._rounds_baseline += horizon
        key = (self._spec_key, bit, sig)
        entry = self.cache.lookup(key)
        if entry is not None and (entry.complete or not full):
            self.cache.hits += 1
            return entry.execution
        if group is None:
            return self._run_fault_free(bit, key)
        assert from_round is not None
        members = self._group(group)
        if self.reuse:
            reused = self._try_reuse(
                key, bit, members, from_round, horizon
            )
            if reused is not None:
                return reused
        return self._simulate_isolation(
            key, bit, members, from_round, horizon, full
        )

    def _run_fault_free(self, bit: Bit, key: tuple) -> Execution:
        """Simulate a fault-free run, checkpointing it for later resumes.

        Always full-horizon: fault-free traces anchor the observed bound
        and the Weak Validity witnesses, and their checkpoints seed every
        prefix resume.
        """
        assert self.cache is not None
        if self._use_kernel:
            return self._run_fault_free_kernel(bit, key)
        streaming = StreamingComplexity()
        observers: list[RoundObserver] = [streaming]
        checkpointer: MachineCheckpointer | None = None
        if self.reuse:
            # Only start-of-round states the Lemma-4 scan can actually
            # resume from (from_round >= 2, within the horizon).
            checkpointer = MachineCheckpointer(
                rounds=range(2, self.spec.rounds + 1)
            )
            observers.append(checkpointer)
        observers.extend(self._engine_observers())
        execution = self.spec.run_uniform(
            bit, None, check=self.check, observers=observers
        )
        self._rounds_simulated += execution.rounds
        messages = streaming.correct_messages
        self._observe_messages(messages, execution=execution)
        self.cache.store(key, _CacheEntry(execution, messages, True))
        self.cache.misses += 1
        if checkpointer is not None and checkpointer.enabled:
            self.cache.store_checkpointer(self._spec_key, bit, checkpointer)
        return execution

    def _run_fault_free_kernel(self, bit: Bit, key: tuple) -> Execution:
        """The mask-kernel fault-free run.

        Instead of a :class:`MachineCheckpointer` deep-copying machines
        at every registered round boundary, the cache records the mask
        trace plus a :class:`~repro.sim.kernel.PrefixForker`; scan
        candidates deep-copy once at their divergence round.  The
        materialized execution is additionally pushed through
        :func:`check_execution` when checking is on — fault-free traces
        anchor witnesses and the observed bound, so they get the full
        Appendix-A treatment even on the fast path.
        """
        assert self.cache is not None
        proposals = [bit] * self.spec.n
        trace = run_kernel(
            self._sim_config(),
            proposals,
            self.spec.factory,
            no_faults_compiled(self.spec.n),
        )
        execution = trace.to_execution()
        if self.check:
            check_execution(execution)
        self._rounds_simulated += trace.rounds_run
        messages = trace.message_complexity()
        self._observe_messages(messages, execution=execution)
        self.cache.store(key, _CacheEntry(execution, messages, True))
        self.cache.misses += 1
        if self.reuse:
            forker = PrefixForker(
                self._sim_config(), proposals, self.spec.factory, trace
            )
            self.cache.store_kernel_state(
                self._spec_key, bit, (trace, forker)
            )
        return execution

    def _try_reuse(
        self,
        key: tuple,
        bit: Bit,
        members: frozenset[ProcessId],
        from_round: Round,
        horizon: int,
    ) -> Execution | None:
        """The semantic reuses: beyond-horizon identity and aliasing."""
        assert self.cache is not None
        if from_round > horizon:
            # The isolation never acts within the horizon: the trace is
            # the fault-free one with the faulty set rewritten to the
            # (fault-committing-nothing) isolated group.
            base = self._run(bit, None, None)
            execution = Execution(
                n=self.spec.n,
                t=self.spec.t,
                faulty=members,
                behaviors=base.behaviors,
            )
            entry = _CacheEntry(
                execution, execution.message_complexity(), True
            )
            self.cache.store(key, entry)
            self.cache.alias_hits += 1
            self._observe_messages(entry.messages, execution=execution)
            return execution
        family = self.cache.isolation_family(self._spec_key, bit, members)
        for k_prime, sibling in sorted(family, reverse=True):
            if k_prime == from_round or not sibling.complete:
                continue
            lo, hi = sorted((k_prime, from_round))
            if quiescent_toward(sibling.execution, members, lo, hi):
                self.cache.store(key, sibling)
                self.cache.alias_hits += 1
                self._observe_messages(
                    sibling.messages, execution=sibling.execution
                )
                return sibling.execution
        return None

    def _simulate_isolation(
        self,
        key: tuple,
        bit: Bit,
        members: frozenset[ProcessId],
        from_round: Round,
        horizon: int,
        full: bool,
    ) -> Execution:
        """Actually simulate ``E_bit^{G(from_round)}``.

        Resumes from the fault-free checkpoint at ``from_round`` when
        available (the isolated run is identical to the fault-free one
        before its isolation round); falls back to a from-scratch run,
        early-stopped when only decisions are needed.
        """
        assert self.cache is not None
        if self._use_kernel:
            return self._simulate_isolation_kernel(
                key, bit, members, from_round, horizon, full
            )
        adversary = isolate_group(members, from_round)
        checkpointer = (
            self.cache.checkpointer(self._spec_key, bit)
            if self.reuse
            else None
        )
        if (
            checkpointer is not None
            and checkpointer.enabled
            and from_round >= 2
            and checkpointer.has_checkpoint(from_round)
        ):
            base = self._run(bit, None, None)
            config = SimulationConfig(
                n=self.spec.n,
                t=self.spec.t,
                rounds=horizon,
                check=self.check,
            )
            prefix = [
                [
                    base.behavior(pid).fragment(round_)
                    for round_ in range(1, from_round)
                ]
                for pid in range(self.spec.n)
            ]
            execution = resume_execution(
                config,
                checkpointer.checkpoint(from_round),
                adversary,
                prefix,
                from_round,
                observers=self._engine_observers(),
            )
            self._rounds_simulated += horizon - from_round + 1
            self._prefix_rounds_skipped += from_round - 1
            messages = execution.message_complexity()
            self._observe_messages(messages, execution=execution)
            self.cache.store(key, _CacheEntry(execution, messages, True))
            self.cache.misses += 1
            return execution
        streaming = StreamingComplexity()
        observers: list[RoundObserver] = [streaming]
        if self.early_stop and not full:
            observers.append(EarlyStopPolicy(scope="all"))
        observers.extend(self._engine_observers())
        execution = self.spec.run_uniform(
            bit, adversary, check=self.check, observers=observers
        )
        self._rounds_simulated += execution.rounds
        complete = execution.rounds == horizon
        if not complete:
            self._early_stops += 1
        messages = streaming.correct_messages
        if complete:
            # Truncated traces undercount §2 complexity (protocols may
            # keep sending after deciding), so only full runs feed the
            # observed bound.
            self._observe_messages(messages, execution=execution)
        self.cache.store(key, _CacheEntry(execution, messages, complete))
        self.cache.misses += 1
        return execution

    def _simulate_isolation_kernel(
        self,
        key: tuple,
        bit: Bit,
        members: frozenset[ProcessId],
        from_round: Round,
        horizon: int,
        full: bool,
    ) -> Execution:
        """The batched mask-kernel isolation scan step.

        Candidates with ``from_round >= 2`` fan out of the fault-free
        prefix via the recorded :class:`~repro.sim.kernel.PrefixForker`
        (one deep-copy at the divergence round, memoized across
        candidates and bits of the scan) and simulate only their tail as
        a mask delta.  The forker's prefix replays are checkpoint
        *provisioning* — the kernel analogue of the object path's
        per-round :class:`MachineCheckpointer` deep-copies — and like
        those are excluded from the ``rounds_simulated`` counter, so the
        two engines report identical reuse accounting (and outcomes stay
        engine-independent under ``AttackOutcome`` equality).
        """
        assert self.cache is not None
        compiled = compile_omissions(
            isolate_group(members, from_round), self.spec.n
        )
        assert compiled is not None  # isolations always compile
        state = (
            self.cache.kernel_state(self._spec_key, bit)
            if self.reuse
            else None
        )
        if state is not None and 2 <= from_round <= horizon:
            base_trace, forker = state
            machines, _advanced = forker.machines_at(from_round)
            if machines is not None:
                # Touch the fault-free base through the cache exactly as
                # the object resume path does (same hit accounting, same
                # certification origin bookkeeping).
                self._run(bit, None, None)
                trace = fork_kernel(
                    self._sim_config(),
                    machines,
                    compiled,
                    base_trace,
                    from_round,
                )
                execution = trace.to_execution()
                self._rounds_simulated += horizon - from_round + 1
                self._prefix_rounds_skipped += from_round - 1
                messages = trace.message_complexity()
                self._observe_messages(messages, execution=execution)
                self.cache.store(
                    key, _CacheEntry(execution, messages, True)
                )
                self.cache.misses += 1
                return execution
        early = "all" if self.early_stop and not full else None
        trace = run_kernel(
            self._sim_config(),
            [bit] * self.spec.n,
            self.spec.factory,
            compiled,
            early_stop=early,
        )
        execution = trace.to_execution()
        self._rounds_simulated += trace.rounds_run
        complete = trace.rounds_run == horizon
        if not complete:
            self._early_stops += 1
        messages = trace.message_complexity()
        if complete:
            self._observe_messages(messages, execution=execution)
        self.cache.store(key, _CacheEntry(execution, messages, complete))
        self.cache.misses += 1
        return execution

    def _sim_config(self) -> SimulationConfig:
        """The kernel-run configuration mirroring ``spec.run_uniform``."""
        return SimulationConfig(
            n=self.spec.n,
            t=self.spec.t,
            rounds=self.spec.rounds,
            check=self.check,
        )

    def _phase(self, name: str):
        """A span for ``name`` — timed and/or traced, no-op otherwise."""
        if self._phase_timer is None and not self.tracer.enabled:
            return nullcontext()
        if self._phase_timer is None:
            return self.tracer.span(name)
        if not self.tracer.enabled:
            return self._phase_timer.phase(name)
        stack = ExitStack()
        stack.enter_context(self._phase_timer.phase(name))
        stack.enter_context(self.tracer.span(name))
        return stack

    def _engine_observers(self) -> tuple[RoundObserver, ...]:
        """The telemetry observers attached to every engine run.

        The tracing observers come before the profiler so profiled
        round times keep their historical meaning (simulation plus the
        checking observers, not the telemetry cost).
        """
        extra: tuple[RoundObserver, ...] = self._trace_observers
        if self._profiler is not None:
            extra = (*extra, self._profiler)
        return extra

    def _flush_telemetry(self, witness: ViolationWitness | None) -> None:
        """Fold the pipeline's final counters into the metrics/ledger."""
        if self._metrics is None:
            return
        assert self.cache is not None
        registry = self._metrics
        registry.absorb_cache(self.cache)
        registry.counter("engine.rounds_simulated").add(
            self._rounds_simulated
        )
        registry.counter("engine.rounds_baseline").add(
            self._rounds_baseline
        )
        registry.counter("engine.prefix_rounds_skipped").add(
            self._prefix_rounds_skipped
        )
        registry.counter("engine.early_stops").add(self._early_stops)
        if self._counts_at_start is not None:
            # Interpreter-wide materialization deltas over the attack:
            # machine deep-copies plus the kernel's mask/popcount work
            # (zero whenever tracing forced the object engine, which
            # still documents *which* engine ran).
            delta = object_counts_delta(self._counts_at_start)
            registry.counter("engine.machine_snapshots").add(
                delta["machine_snapshots"]
            )
            registry.counter("engine.masks_built").add(
                delta["masks_built"]
            )
            registry.counter("engine.popcounts").add(delta["popcounts"])
        registry.counter("witness.found").add(1 if witness else 0)
        floor = weak_consensus_floor(self.spec.t)
        registry.gauge("bound.observed").set(self._max_messages)
        registry.gauge("bound.floor").set(floor)
        if floor:
            registry.gauge("bound.vs_floor").set(
                self._max_messages / floor
            )
        registry.emit(self.tracer)

    def _group(self, label: str) -> frozenset[ProcessId]:
        assert self.partition is not None
        if label == "B":
            return self.partition.group_b
        if label == "C":
            return self.partition.group_c
        raise ReproError(f"unknown group label {label!r}")

    def _observe(self, execution: Execution) -> None:
        self._observe_messages(
            execution.message_complexity(), execution=execution
        )

    def _observe_messages(
        self, messages: int, execution: Execution | None = None
    ) -> None:
        if (
            self.certify
            and execution is not None
            and (
                messages > self._max_messages
                or self._cert_max_execution is None
            )
        ):
            self._cert_max_execution = execution
        self._max_messages = max(self._max_messages, messages)
        if self.telemetry is not None:
            # The kernel path produces no round events; execution
            # boundaries are its sampling points.
            self.telemetry.maybe_sample()

    def _note(self, message: str) -> None:
        self._log.append(message)

    def _found(self, witness: ViolationWitness) -> None:
        self._note(f"violation: {witness.summary()}")
        raise _Found(witness)

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------

    def _build_certificate(
        self,
        witness: ViolationWitness | None,
        default_bit: Payload | None,
        critical_round: Round | None,
    ) -> "Certificate":
        """Package the attack's evidence chain as a v1 certificate.

        Embeds only the critical-path traces: the witness execution, the
        pre-swap source, the merge inputs (when the source is a merge
        result) — or, for a respected bound, the trace attaining the
        observed maximum.  Each embedded trace carries its provenance
        (which configuration simulated it, which construction derived
        it), the Definition-1 isolation claims its origin guarantees,
        and the Lemma-15/16 indistinguishability conclusions.
        """
        from repro.certify.format import build_certificate

        assert self.partition is not None
        executions: dict[str, Execution] = {}
        provenance: list[dict] = []
        indistinguishability: list[dict] = []
        isolations: list[dict] = []

        def embed(execution: Execution, label: str) -> str:
            executions[label] = execution
            origin = self._cert_origin.get(id(execution))
            if origin is not None:
                bit, group, from_round = origin
                step: dict = {"op": "simulate", "result": label,
                              "proposal_bit": bit}
                if group is not None:
                    step["op"] = "isolate"
                    step["isolated_group"] = group
                    step["from_round"] = from_round
                    isolations.append(
                        {
                            "execution": label,
                            "group": sorted(self._group(group)),
                            "from_round": from_round,
                        }
                    )
                provenance.append(step)
            return label

        def embed_with_history(execution: Execution, label: str) -> str:
            ctx = self._cert_merge_ctx
            if ctx is not None and ctx["merged"] is execution:
                embed(ctx["exec_b"], "merge-input-b")
                embed(ctx["exec_c"], "merge-input-c")
                executions[label] = execution
                provenance.append(
                    {
                        "op": "merge",
                        "inputs": ["merge-input-b", "merge-input-c"],
                        "result": label,
                        "round_b": ctx["round_b"],
                        "round_c": ctx["round_c"],
                    }
                )
                # Lemma 16: the merge replays B's and C's behaviors
                # verbatim, so each group cannot tell the merged
                # execution from its own input.
                indistinguishability.append(
                    {
                        "left": "merge-input-b",
                        "right": label,
                        "processes": sorted(self.partition.group_b),
                    }
                )
                indistinguishability.append(
                    {
                        "left": "merge-input-c",
                        "right": label,
                        "processes": sorted(self.partition.group_c),
                    }
                )
            else:
                embed(execution, label)
            return label

        witness_label: str | None = None
        max_label: str | None = None
        if witness is not None:
            witness_label = "witness"
            swap_ctx = self._cert_swap_ctx
            if (
                swap_ctx is not None
                and swap_ctx["result"] is witness.execution
            ):
                embed_with_history(swap_ctx["source"], "pre-swap")
                executions[witness_label] = witness.execution
                provenance.append(
                    {
                        "op": "swap",
                        "source": "pre-swap",
                        "result": witness_label,
                        "process": swap_ctx["process"],
                    }
                )
                # Lemma 15: swap_omission only re-attributes blame;
                # nobody's observations change.
                indistinguishability.append(
                    {
                        "left": "pre-swap",
                        "right": witness_label,
                        "processes": list(range(self.spec.n)),
                    }
                )
            else:
                embed_with_history(witness.execution, witness_label)
        elif self._cert_max_execution is not None:
            max_label = embed_with_history(
                self._cert_max_execution, "max-messages"
            )
        return build_certificate(
            protocol=self.spec.name,
            n=self.spec.n,
            t=self.spec.t,
            rounds=self.spec.rounds,
            partition=self.partition,
            executions=executions,
            witness=witness,
            witness_label=witness_label,
            provenance=provenance,
            indistinguishability=indistinguishability,
            isolations=isolations,
            observed=self._max_messages,
            max_label=max_label,
            default_bit=default_bit,
            critical_round=critical_round,
        )


def attack_weak_consensus(
    spec: ProtocolSpec,
    partition: ABCPartition | None = None,
    *,
    verify: bool = True,
    minimize: bool = False,
    check: bool = True,
    early_stop: bool = True,
    reuse: bool = True,
    cache: ExecutionCache | None = None,
    profile: bool = False,
    certify: bool = False,
    tracer: Tracer = NULL_TRACER,
    worldlog: "WorldLog | None" = None,
    telemetry: "TelemetryBus | None" = None,
    kernel: str = "auto",
) -> AttackOutcome:
    """Run the full lower-bound pipeline against ``spec``.

    Args:
        partition: the (A, B, C) split (default: canonical sizing).
        verify: re-verify any witness from scratch before returning.
        minimize: additionally truncate the witness execution to its
            shortest still-verifying prefix (agreement witnesses only).
            The certificate (if requested) embeds the *unminimized*
            witness execution — the artifact must stay self-consistent.
        check: validate simulated traces against the model conditions.
        early_stop: halt decision-only simulations at the decision round.
        reuse: enable checkpoint-resume and quiescent-alias execution
            reuse (``early_stop=False, reuse=False`` reproduces the
            simulate-everything pipeline round for round).
        cache: a shared :class:`ExecutionCache` for attacking the same
            protocol repeatedly (e.g. across partitions).
        profile: record wall-clock phase and per-round timings on
            ``AttackOutcome.profile`` (timings never affect equality).
        certify: attach a portable v1 attack certificate
            (``AttackOutcome.certificate``) packaging the witness, its
            merge/swap provenance, the isolation and
            indistinguishability claims, and the ``t²/32`` accounting
            for :func:`repro.certify.verifier.verify_certificate`.
        tracer: the structured-telemetry sink (a
            :class:`~repro.obs.tracer.LedgerTracer` to record the run
            ledger; the zero-overhead no-op by default).
        worldlog: an open :class:`~repro.worldlog.store.WorldLog` for
            the in-band ``cert.artifact`` record.
        telemetry: an optional :class:`~repro.obs.telemetry
            .TelemetryBus` sampling the attack into observability-only
            ``telemetry.snapshot`` records (a per-round tap on the
            object engine, execution-boundary pumps on the kernel).
            ``None`` (the default) costs nothing.
        kernel: round-engine selection — ``"auto"`` (default) runs the
            bitmask kernel whenever representable, ``"object"`` forces
            the per-message engine, ``"mask"`` requests the kernel
            (profiling/tracing still force the object engine; see
            :class:`LowerBoundDriver`).  Outcomes are engine-independent.
    """
    driver = LowerBoundDriver(
        spec=spec,
        partition=partition,
        verify=verify,
        check=check,
        early_stop=early_stop,
        reuse=reuse,
        cache=cache,
        profile=profile,
        certify=certify,
        tracer=tracer,
        worldlog=worldlog,
        telemetry=telemetry,
        kernel=kernel,
    )
    outcome = driver.attack()
    if minimize and outcome.witness is not None:
        from dataclasses import replace

        from repro.lowerbound.witnesses import minimize_witness

        outcome = replace(
            outcome,
            witness=minimize_witness(outcome.witness, spec.factory),
        )
    return outcome
