"""The experiment suite: one function per DESIGN.md experiment id.

Each ``run_eN`` function executes the experiment at the given scale and
returns an :class:`ExperimentResult` — structured data plus a rendered
text report (the "table/figure" the paper-shaped harness regenerates).
The CLI (``python -m repro``) and the pytest benchmarks both call these,
so the printed artifacts and the benchmarked code paths are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.complexity import (
    SweepPoint,
    quadratic_parameter_grid,
    sweep,
)
from repro.analysis.fitting import fit_sweep
from repro.analysis.tables import render_kv, render_sweep, render_table
from repro.lowerbound.bound import weak_consensus_floor
from repro.lowerbound.driver import AttackOutcome
from repro.lowerbound.partition import canonical_partition
from repro.omission.indistinguishability import divergence_profile
from repro.omission.isolation import isolate_group
from repro.omission.merge import MergeSpec, merge
from repro.omission.swap import swap_omission_checked
from repro.protocols.base import ProtocolSpec
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.external_validity import (
    ClientPool,
    external_validity_spec,
)
from repro.protocols.interactive_consistency import authenticated_ic_spec
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
    ring_token_spec,
    seeded_committee_cheater_spec,
    silent_cheater_spec,
)
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.reductions.weak_from_any import (
    reduce_weak_consensus,
    reduce_weak_consensus_from_executions,
)
from repro.solvability.strong_consensus import sweep_boundary
from repro.solvability.theorem import classify
from repro.validity.standard import (
    byzantine_broadcast_problem,
    constant_problem,
    correct_proposal_problem,
    interactive_consistency_problem,
    strong_consensus_problem,
    vector_consensus_problem,
    weak_consensus_problem,
)


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's structured outcome plus its rendered report.

    Attributes:
        experiment: the DESIGN.md experiment id (e.g. ``"E1"``).
        title: what the experiment regenerates.
        report: the printable artifact.
        data: machine-readable results for tests/benches to assert on.
    """

    experiment: str
    title: str
    report: str
    data: dict[str, Any] = field(default_factory=dict)


def run_e1(max_t: int = 16) -> ExperimentResult:
    """E1 — Theorem 2: correct weak consensus respects the t²/32 floor."""
    points = sweep(
        lambda n, t: broadcast_weak_consensus_spec(n, t),
        quadratic_parameter_grid(max_t),
    )
    fit = fit_sweep(points)
    violations = [
        point for point in points if point.worst_messages < point.floor
    ]
    report = "\n".join(
        [
            "E1 — worst-case message complexity of correct weak consensus",
            render_sweep(points),
            f"power-law fit: {fit.render()}",
            f"points below the t^2/32 floor: {len(violations)}",
        ]
    )
    return ExperimentResult(
        experiment="E1",
        title="weak consensus vs the t²/32 floor",
        report=report,
        data={
            "points": points,
            "fit": fit,
            "floor_violations": violations,
        },
    )


def run_e2(n: int = 10, t: int = 3, isolate_at: int = 2) -> ExperimentResult:
    """E2 — Figure 1: divergence bands under group isolation.

    Uses EIG (everyone relays everything it heard, every round) so both
    of Figure 1's bands are visible: the isolated group's sends deviate
    from round ``R+1`` (red band — its received sets shrank at ``R``) and
    the outside's sends deviate from round ``R+2`` (blue band — one
    propagation step later, as the group's altered relays reach it).
    Proposals are mixed so relayed content actually varies.
    """
    from repro.protocols.eig import eig_consensus_spec

    spec = eig_consensus_spec(n, t)
    partition = canonical_partition(n, t)
    proposals = [index % 2 for index in range(n)]
    reference = spec.run(proposals)
    isolated = spec.run(
        proposals, isolate_group(partition.group_b, isolate_at)
    )
    profile = divergence_profile(reference, isolated)
    in_group = profile.earliest_send_divergence(partition.group_b)
    outside = profile.earliest_send_divergence(
        partition.group_a | partition.group_c
    )
    rows = [
        (
            f"p{pid}",
            "B (isolated)" if pid in partition.group_b else "outside",
            profile.receive_divergence[pid],
            profile.send_divergence[pid],
        )
        for pid in range(n)
    ]
    from repro.analysis.spacetime import render_divergence

    report = "\n".join(
        [
            f"E2 — Figure 1: group B isolated from round {isolate_at}",
            render_table(
                ("process", "group", "first obs divergence",
                 "first send divergence"),
                rows,
            ),
            f"earliest send divergence inside B: round {in_group} "
            f"(Figure 1 predicts >= {isolate_at + 1})",
            f"earliest send divergence outside B: round {outside} "
            f"(Figure 1 predicts >= {isolate_at + 2})",
            "",
            "space-time bands (the figure itself):",
            render_divergence(
                reference,
                isolated,
                groups=[partition.group_b],
            ),
        ]
    )
    return ExperimentResult(
        experiment="E2",
        title="isolation divergence bands (Figure 1)",
        report=report,
        data={
            "profile": profile,
            "in_group_divergence": in_group,
            "outside_divergence": outside,
            "isolate_at": isolate_at,
        },
    )


CHEATERS: dict[str, Callable[[int, int], ProtocolSpec]] = {
    "silent": silent_cheater_spec,
    "leader-echo": leader_echo_spec,
    "committee": committee_cheater_spec,
    "ring-token": ring_token_spec,
    "seeded-committee": seeded_committee_cheater_spec,
}
"""Every cheater's spec builder, called as ``builder(n, t)``, by CLI name."""


def run_e3(
    ts: tuple[int, ...] = (8, 16, 24),
    *,
    jobs: int = 1,
    ledger: "Any | None" = None,
    progress: bool = False,
    stall_after: float = 30.0,
) -> ExperimentResult:
    """E3 — Lemmas 2–5: break every sub-quadratic cheater, every t.

    Args:
        jobs: worker count for the attack matrix; ``1`` (the default)
            runs the historical in-process sweep, ``> 1`` fans the cells
            out over a process pool (bit-identical outcomes — see
            :mod:`repro.parallel`).
        ledger: optional sweep :class:`~repro.obs.ledger.RunLedger`; the
            scheduler traces every cell into it and splices the segments
            in cell order, identically under either backend.
    """
    from repro.parallel import AttackJob, SweepScheduler

    matrix = [
        AttackJob(builder=name, n=t + 4, t=t, certify=True)
        for name in CHEATERS
        for t in ts
    ]
    sweep_report = SweepScheduler(
        jobs=jobs,
        ledger=ledger,
        progress=progress,
        stall_after=stall_after,
    ).run(matrix)
    sweep_report.raise_errors()
    outcomes: list[AttackOutcome] = sweep_report.values()
    rows = []
    for job, outcome in zip(matrix, outcomes):
        rows.append(
            (
                job.builder,
                job.n,
                job.t,
                outcome.bound.observed,
                f"{weak_consensus_floor(job.t):.1f}",
                outcome.witness.kind.value
                if outcome.witness
                else "NOT BROKEN",
                outcome.critical_round
                if outcome.critical_round is not None
                else "-",
            )
        )
    broken = sum(1 for outcome in outcomes if outcome.found_violation)
    report = "\n".join(
        [
            "E3 — the lower-bound attack vs sub-quadratic cheaters",
            render_table(
                ("cheater", "n", "t", "worst msgs", "t^2/32",
                 "violation", "critical R"),
                rows,
            ),
            f"broken: {broken}/{len(outcomes)} "
            "(every witness re-verified from scratch)",
            f"certificates: {sweep_report.certificates_verified}/"
            f"{len(outcomes)} cells shipped a portable attack "
            "certificate accepted by the independent verifier",
        ]
    )
    return ExperimentResult(
        experiment="E3",
        title="attack driver vs cheaters (Figure 2 pipeline)",
        report=report,
        data={
            "outcomes": outcomes,
            "broken": broken,
            "sweep": sweep_report,
        },
    )


def run_e4(n: int = 6, t: int = 2) -> ExperimentResult:
    """E4 — Algorithm 1: zero-message reduction on real protocols."""
    from repro.protocols.strong_consensus import (
        authenticated_strong_consensus_spec,
    )

    rows = []
    overheads = []
    anchors = [
        (
            "strong-consensus",
            authenticated_strong_consensus_spec(n, t),
            strong_consensus_problem(n, t),
        ),
        (
            "byzantine-broadcast",
            dolev_strong_spec(n, t),
            byzantine_broadcast_problem(n, t),
        ),
        (
            "interactive-consistency",
            authenticated_ic_spec(n, t),
            interactive_consistency_problem(n, t),
        ),
    ]
    for label, spec, problem in anchors:
        weak = reduce_weak_consensus(spec, problem)
        for bit in (0, 1):
            outer = weak.run_uniform(bit)
            decisions = set(outer.correct_decisions().values())
            inner_msgs = spec.run(
                [
                    weak_proposal
                    for weak_proposal in _inner_proposals(weak, bit, n)
                ]
            ).message_complexity()
            overhead = outer.message_complexity() - inner_msgs
            overheads.append(overhead)
            rows.append(
                (
                    label,
                    bit,
                    sorted(decisions),
                    outer.message_complexity(),
                    inner_msgs,
                    overhead,
                )
            )
    report = "\n".join(
        [
            "E4 — Algorithm 1: weak consensus from non-trivial problems",
            render_table(
                ("anchor problem", "proposal", "decisions",
                 "outer msgs", "inner msgs", "overhead"),
                rows,
            ),
            f"max reduction overhead: {max(overheads)} messages "
            "(the paper's reduction is zero-message)",
        ]
    )
    return ExperimentResult(
        experiment="E4",
        title="zero-message reduction (Algorithm 1)",
        report=report,
        data={"rows": rows, "max_overhead": max(overheads)},
    )


def _inner_proposals(weak_spec: ProtocolSpec, bit: int, n: int) -> list:
    """Recover the inner proposals a reduction run uses for ``bit``."""
    machines = [weak_spec.factory(pid, bit) for pid in range(n)]
    return [machine.inner.proposal for machine in machines]  # type: ignore[attr-defined]


def run_e5(n: int = 4, t: int = 1) -> ExperimentResult:
    """E5 — Theorem 4: classify the standard problems; run Algorithm 2."""
    from repro.errors import UnsolvableProblemError
    from repro.reductions.any_from_ic import solve_via_ic

    problems = [
        weak_consensus_problem(n, t),
        strong_consensus_problem(n, t),
        byzantine_broadcast_problem(n, t),
        interactive_consistency_problem(n, t),
        vector_consensus_problem(n, t),
        correct_proposal_problem(n, t),
        constant_problem(n, t, value=0),
    ]
    reports = [classify(problem) for problem in problems]
    rows = []
    for problem, result in zip(problems, reports):
        solved = "-"
        if not result.trivial and result.cc.holds:
            spec = solve_via_ic(problem, authenticated=True)
            execution = spec.run(
                [problem.input_values[index % len(problem.input_values)]
                 for index in range(n)]
            )
            decisions = set(execution.correct_decisions().values())
            solved = "yes" if len(decisions) == 1 else "SPLIT"
        rows.append(
            (
                result.problem_name,
                "Y" if result.trivial else "N",
                "Y" if result.cc.holds else "N",
                "Y" if result.authenticated_solvable else "N",
                "Y" if result.unauthenticated_solvable else "N",
                solved,
            )
        )
    unauth_blocked = 0
    for problem, result in zip(problems, reports):
        if result.trivial or not result.cc.holds:
            continue
        if n <= 3 * t:
            try:
                solve_via_ic(problem, authenticated=False)
            except UnsolvableProblemError:
                unauth_blocked += 1
    report = "\n".join(
        [
            f"E5 — Theorem 4 classification at n={n}, t={t}",
            render_table(
                ("problem", "trivial", "CC", "auth-solvable",
                 "unauth-solvable", "Algorithm-2 run"),
                rows,
            ),
        ]
    )
    return ExperimentResult(
        experiment="E5",
        title="general solvability theorem (Theorem 4)",
        report=report,
        data={"reports": reports, "rows": rows},
    )


def run_e6(max_n: int = 7) -> ExperimentResult:
    """E6 — Theorem 5: the n > 2t boundary for strong consensus."""
    points = sweep_boundary(
        list(range(2, max_n + 1)), list(range(1, max_n))
    )
    mismatches = [
        point for point in points if not point.matches_theorem
    ]
    rows = [
        (
            point.n,
            point.t,
            "Y" if point.cc_holds else "N",
            "Y" if point.expected else "N",
            "ok" if point.matches_theorem else "MISMATCH",
        )
        for point in points
    ]
    report = "\n".join(
        [
            "E6 — Theorem 5: strong consensus CC vs the n > 2t line",
            render_table(
                ("n", "t", "CC holds", "n > 2t", "verdict"), rows
            ),
            f"grid points: {len(points)}, mismatches: {len(mismatches)}",
        ]
    )
    return ExperimentResult(
        experiment="E6",
        title="strong-consensus solvability boundary (Theorem 5)",
        report=report,
        data={"points": points, "mismatches": mismatches},
    )


def run_e7(
    max_t: int = 8,
    *,
    jobs: int = 1,
    ledger: "Any | None" = None,
    progress: bool = False,
    stall_after: float = 30.0,
) -> ExperimentResult:
    """E7 — Dolev–Reischuk context: measured protocol complexities.

    Args:
        jobs: worker count for the measurement matrix (``1`` = serial;
            ``> 1`` fans cells out over a process pool, bit-identical).
        ledger: optional sweep :class:`~repro.obs.ledger.RunLedger` the
            scheduler splices every cell's trace into.
    """
    from repro.parallel import MeasureJob, SweepScheduler

    grids = {
        # n = 2t keeps the population proportional to the budget, so the
        # quadratic term is visible in the fitted exponent even at small
        # scale (with constant slack the additive term dominates).
        # Each label maps to its registered builder name so cells can be
        # rebuilt inside worker processes.
        "dolev-strong": (
            "dolev-strong",
            [(2 * t, t) for t in range(2, max_t + 1, 2)],
        ),
        "phase-king": (
            "phase-king",
            [(3 * t + 1, t) for t in range(1, max(2, max_t // 2))],
        ),
        "ic-parallel-ds": (
            "ic",
            quadratic_parameter_grid(min(max_t, 6), step=2),
        ),
    }
    matrix = [
        MeasureJob(builder=builder, n=n, t=t)
        for builder, grid in grids.values()
        for n, t in grid
    ]
    sweep_report = SweepScheduler(
        jobs=jobs,
        ledger=ledger,
        progress=progress,
        stall_after=stall_after,
    ).run(matrix)
    sweep_report.raise_errors()
    points_iter = iter(sweep_report.values())
    all_points: dict[str, list[SweepPoint]] = {}
    sections = ["E7 — measured message complexity of the real protocols"]
    for label, (_, grid) in grids.items():
        points = [next(points_iter) for _ in grid]
        all_points[label] = points
        fit = fit_sweep(points)
        sections.append(f"\n[{label}] {fit.render()}")
        sections.append(render_sweep(points))
    return ExperimentResult(
        experiment="E7",
        title="protocol complexity vs Dolev–Reischuk",
        report="\n".join(sections),
        data={"points": all_points, "sweep": sweep_report},
    )


def run_e8(n: int = 6, t: int = 2) -> ExperimentResult:
    """E8 — Corollary 1: external validity is bound by t²/32 too."""
    pool = ClientPool(clients=n)
    spec = external_validity_spec(
        n, t, validator=pool.validator(), fallback=pool.issue(0, "noop")
    )
    tx_a = [pool.issue(client, f"transfer-A-{client}") for client in range(n)]
    tx_b = [pool.issue(client, f"transfer-B-{client}") for client in range(n)]
    exec_a = spec.run(tx_a)
    exec_b = spec.run(tx_b)
    decision_a = exec_a.decision(0)
    decision_b = exec_b.decision(0)
    weak = reduce_weak_consensus_from_executions(spec, tx_a, tx_b)
    weak_zero = weak.run_uniform(0)
    weak_one = weak.run_uniform(1)
    floor = weak_consensus_floor(t)
    rows = [
        ("fully-correct run A decision", repr(decision_a)),
        ("fully-correct run B decision", repr(decision_b)),
        ("decisions differ (Corollary 1 hypothesis)",
         decision_a != decision_b),
        ("reduced weak consensus all-0 decisions",
         sorted(set(weak_zero.correct_decisions().values()))),
        ("reduced weak consensus all-1 decisions",
         sorted(set(weak_one.correct_decisions().values()))),
        ("measured messages (run A)", exec_a.message_complexity()),
        ("t^2/32 floor", f"{floor:.1f}"),
        ("meets floor", exec_a.message_complexity() >= floor),
    ]
    report = "\n".join(
        [
            "E8 — Corollary 1: external-validity agreement",
            render_kv("external validity on signed transactions",
                      rows),
        ]
    )
    return ExperimentResult(
        experiment="E8",
        title="External Validity under the bound (Corollary 1)",
        report=report,
        data={
            "decision_a": decision_a,
            "decision_b": decision_b,
            "messages": exec_a.message_complexity(),
            "floor": floor,
            "weak_zero": weak_zero,
            "weak_one": weak_one,
        },
    )


def run_e9(n: int = 10, t: int = 4, samples: int = 6) -> ExperimentResult:
    """E9/E10 — Lemmas 15 & 16: swap/merge validity at bench scale.

    The swap checks use a low-traffic protocol (the leader-echo cheater):
    Lemma 15's ``|F'| <= t`` precondition is exactly the message-count
    premise of the lower bound, and chatty protocols rightly blow the
    budget — the correct broadcast protocol exercises the merge checks
    instead.
    """
    spec = broadcast_weak_consensus_spec(n, t)
    sparse = leader_echo_spec(n, t)
    partition = canonical_partition(n, t)
    swap_checks = 0
    for k in range(1, samples + 1):
        isolated = sparse.run_uniform(
            0, isolate_group(partition.group_b, k)
        )
        for pid in sorted(partition.group_b):
            swap_omission_checked(isolated, pid)
            swap_checks += 1
    merge_checks = 0
    for k in range(1, samples):
        exec_b = spec.run_uniform(
            0, isolate_group(partition.group_b, k)
        )
        for delta in (-1, 0, 1):
            k_c = k + delta
            if k_c < 1:
                continue
            exec_c = spec.run_uniform(
                0, isolate_group(partition.group_c, k_c)
            )
            merge(
                MergeSpec(
                    group_b=partition.group_b,
                    group_c=partition.group_c,
                    round_b=k,
                    round_c=k_c,
                ),
                exec_b,
                exec_c,
                spec.factory,
            )
            merge_checks += 1
    report = "\n".join(
        [
            "E9/E10 — Lemma 15 (swap) and Lemma 16 (merge) checks",
            f"swap_omission_checked: {swap_checks} instances, all of "
            "Lemma 15's conclusions verified",
            f"merge: {merge_checks} mergeable pairs, all of Lemma 16's "
            "conclusions verified",
        ]
    )
    return ExperimentResult(
        experiment="E9",
        title="swap/merge construction validity (Lemmas 15-16)",
        report=report,
        data={"swap_checks": swap_checks, "merge_checks": merge_checks},
    )


ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "e1": run_e1,
    "e2": run_e2,
    "e3": run_e3,
    "e4": run_e4,
    "e5": run_e5,
    "e6": run_e6,
    "e7": run_e7,
    "e8": run_e8,
    "e9": run_e9,
}
"""Default-scale runners for every experiment, keyed by id."""
