"""Workloads of the time-to-verdict benchmark, and the checks on their output.

A workload is a list of ``python -m repro`` invocations that a user runs
one after another to get every verdict they asked for.  The seed picks
each invocation's ``n`` from a small window around the workload's base
``n``; ``t`` stays at the paper's scale (32 or 64), where the ``t²/32``
floor is a real number of messages.  The program receives only argv.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

CHEATERS = ("silent", "committee", "ring-token", "leader-echo", "seeded-committee")

WORKLOADS = {
    "cheaters-t64": "break each of the 5 cheaters at t=64 and verify the "
    "certificate: start-up, certify and the kernel scan dominate",
    "flood-t32": "naive-flooding survives at t=32: the most protocol deliver "
    "work of any workload, plus swap and materialization",
    "correct-t64": "broadcast weak consensus survives at t=64: swap dominates "
    "and deliver barely runs",
    "recorded-t64": "correct-t64 with --ledger, then trace and log stats: "
    "the only path through the object engine and the world log",
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check its output must pass.

    ``check`` names the rule in :func:`check_output`; ``t`` is the
    invocation's fault bound, from which the floor is computed.
    """

    argv: tuple[str, ...]
    check: str
    t: int


def build(workload: str, seed: int, workdir: str) -> list[Invocation]:
    """The workload's invocations for ``seed`` (same seed, same argv)."""
    # recorded-t64 draws from correct-t64's stream, so one seed gives the
    # recorded attack and its unrecorded twin the same argv.
    stream = "correct-t64" if workload == "recorded-t64" else workload
    rng = random.Random(f"{stream}:{seed}")
    if workload == "cheaters-t64":
        calls = []
        for protocol in CHEATERS:
            n = 80 + rng.randint(-4, 4)
            out = os.path.join(workdir, f"{protocol}.cert.json")
            calls.append(Invocation(
                ("certify", protocol, "--n", str(n), "--t", "64", "--out", out),
                "certify", 64,
            ))
            calls.append(Invocation(("verify-cert", out), "verify-cert", 64))
        return calls
    if workload == "flood-t32":
        n = 40 + rng.randint(-1, 1)
        return [Invocation(
            ("attack", "naive-flooding", "--n", str(n), "--t", "32"), "survivor", 32
        )]
    if workload in ("correct-t64", "recorded-t64"):
        attack = ("attack", "correct", "--n", str(80 + rng.randint(-2, 2)), "--t", "64")
        if workload == "correct-t64":
            return [Invocation(attack, "survivor", 64)]
        log = os.path.join(workdir, "correct.worldlog")
        return [
            Invocation(attack + ("--ledger", log), "recorded-attack", 64),
            Invocation(("trace", log), "trace", 64),
            Invocation(("log", "stats", log), "log-stats", 64),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, calls: list[Invocation], workdir: str) -> Invocation:
    """The discarded invocation that fills ``__pycache__`` first.

    For ``recorded-t64`` it is the unrecorded twin of the recorded
    attack, whose stdout the recorded run must reproduce byte for byte;
    elsewhere it is a small run of the workload's first subcommand.
    """
    if workload == "recorded-t64":
        argv = calls[0].argv
        return Invocation(argv[: argv.index("--ledger")], "survivor", calls[0].t)
    if workload == "cheaters-t64":
        out = os.path.join(workdir, "warmup.cert.json")
        return Invocation(
            ("certify", "silent", "--n", "12", "--t", "8", "--out", out), "certify", 8
        )
    protocol = calls[0].argv[1]
    return Invocation(("attack", protocol, "--n", "12", "--t", "8"), "survivor", 8)


_BOUND_LINE = re.compile(
    r"t=(\d+): observed (\d+) (?:<|>=) floor t\^2/32 = [0-9.]+"
)


def parse_observed(stdout: str, t: int) -> int:
    """The observed message count of a surviving attack's report.

    Raises ``ValueError`` unless the report says no violation was found,
    names the expected ``t``, and observed at least ``t²/32`` messages:
    the obligation the lower bound puts on every survivor.
    """
    match = _BOUND_LINE.search(stdout)
    if match is None:
        raise ValueError("no 'observed ... floor' line in the attack report")
    reported_t, observed = int(match.group(1)), int(match.group(2))
    if reported_t != t:
        raise ValueError(f"report is for t={reported_t}, expected t={t}")
    if observed < t * t / 32:
        raise ValueError(f"observed {observed} < floor t^2/32 = {t * t / 32:.2f}")
    if "no violation found" not in stdout:
        raise ValueError("survivor report lacks 'no violation found'")
    return observed


def check_output(
    call: Invocation, returncode: int, stdout: str, twin: str | None = None,
    observed: int | None = None,
) -> str | None:
    """Why ``call``'s result is wrong, or ``None`` when it is right.

    ``twin`` is the unrecorded attack's stdout (for ``recorded-attack``);
    ``observed`` is the recorded attack's count (for ``log-stats``).
    """
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        if call.check in ("survivor", "recorded-attack"):
            parse_observed(stdout, call.t)
            if call.check == "recorded-attack" and stdout != twin:
                return "recorded attack stdout differs from its unrecorded twin"
        elif call.check == "certify":
            if "VIOLATION:" not in stdout or "VERIFIED" not in stdout:
                return "certify printed no verified violation"
        elif call.check == "verify-cert":
            if ": VERIFIED" not in stdout:
                return "verify-cert did not print VERIFIED"
        elif call.check == "trace":
            if "phase tree" not in stdout:
                return "trace printed no phase tree"
        elif call.check == "log-stats":
            stats = json.loads(stdout)
            if stats.get("messages_observed") != observed:
                return (
                    f"log stats messages_observed={stats.get('messages_observed')} "
                    f"!= attack observed {observed}"
                )
    except ValueError as error:
        return str(error)
    return None
