"""Every name the CLI and the sweep jobs accept, and where it is defined.

Each table maps a name to a ``"module:function"`` path that
:func:`resolve` imports on first use.  Listing names imports nothing,
so ``repro --help`` builds its choice lists without loading a protocol,
the attack driver or the experiment suite, and
``resolve_builder("correct")`` imports only the module that defines
that builder.  These tables are the only name tables:
:data:`repro.experiments.CHEATERS` resolves :data:`CHEATERS`, and the
CLI's subcommands and choices are read from here.

>>> CORRECT["naive-flooding"]
'repro.protocols.weak_consensus:naive_flooding_spec'
>>> resolve(CORRECT["naive-flooding"]).__name__
'naive_flooding_spec'
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from repro.errors import ReproError

CHEATERS = {
    "silent": "repro.protocols.subquadratic:silent_cheater_spec",
    "leader-echo": "repro.protocols.subquadratic:leader_echo_spec",
    "committee": "repro.protocols.subquadratic:committee_cheater_spec",
    "ring-token": "repro.protocols.subquadratic:ring_token_spec",
    "seeded-committee": (
        "repro.protocols.subquadratic:seeded_committee_cheater_spec"
    ),
}
"""Every sub-quadratic cheater's ``(n, t) -> spec`` builder, by CLI name."""

CORRECT = {
    "correct": (
        "repro.protocols.weak_consensus:broadcast_weak_consensus_spec"
    ),
    "weak-consensus": (
        "repro.protocols.weak_consensus:broadcast_weak_consensus_spec"
    ),
    "naive-flooding": "repro.protocols.weak_consensus:naive_flooding_spec",
    "dolev-strong": "repro.protocols.dolev_strong:dolev_strong_spec",
    "phase-king": "repro.protocols.phase_king:phase_king_spec",
    "ic": "repro.protocols.interactive_consistency:authenticated_ic_spec",
}
"""The non-cheater builders every sweep layer shares."""

ATTACKABLE = (*sorted(CHEATERS), "correct", "naive-flooding")
"""The weak consensus candidates ``attack``/``certify``/``verify-*`` take."""

PROBLEMS = {
    "weak": "repro.validity.standard:weak_consensus_problem",
    "strong": "repro.validity.standard:strong_consensus_problem",
    "broadcast": "repro.validity.standard:byzantine_broadcast_problem",
    "ic": "repro.validity.standard:interactive_consistency_problem",
    "correct-proposal": "repro.validity.standard:correct_proposal_problem",
}
"""The standard agreement problems ``classify`` and classify jobs take."""

EXPERIMENTS = {
    f"e{index}": f"repro.experiments:run_e{index}" for index in range(1, 10)
}
"""Every experiment id, mapped to its default-scale runner."""


class UnknownBuilderError(ReproError):
    """A job named a spec builder the registry does not know."""


def resolve(path: str) -> Callable[..., Any]:
    """Import ``"module:function"`` and return the function."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def resolve_builder(name: str) -> Callable[[int, int], Any]:
    """Resolve a registered builder name to its ``(n, t) -> spec`` callable.

    Raises:
        UnknownBuilderError: for unregistered names (in a worker this
            surfaces as a structured per-cell error, not a sweep abort).
    """
    path = CHEATERS.get(name) or CORRECT.get(name)
    if path is None:
        raise UnknownBuilderError(
            f"unknown spec builder {name!r}; registered: "
            f"{', '.join(registered_builders())}"
        )
    return resolve(path)


def registered_builders() -> list[str]:
    """All resolvable builder names (cheaters plus correct protocols)."""
    return sorted({**CHEATERS, **CORRECT})


def resolve_problem(name: str) -> Callable[[int, int], Any]:
    """Resolve a standard problem name to its ``(n, t) -> problem``.

    Raises:
        UnknownBuilderError: for unregistered names, mirroring
            :func:`resolve_builder`.
    """
    if name not in PROBLEMS:
        raise UnknownBuilderError(
            f"unknown standard problem {name!r}; registered: "
            f"{', '.join(registered_problems())}"
        )
    return resolve(PROBLEMS[name])


def registered_problems() -> list[str]:
    """All resolvable standard problem names."""
    return sorted(PROBLEMS)
