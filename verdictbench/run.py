"""Time-to-verdict benchmark for the ``python -m repro`` CLI.

Usage (from the repository root)::

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's invocations in a closed loop: each is a
fresh ``python -m repro`` process, spawned only after the previous one
exited, so interpreter start-up is paid on every call as users pay it.
A pass is one run of the workload's invocation list; passes repeat until
their summed time reaches ``--seconds``.  Each child is timed from spawn to exit, and
its CPU time and peak RSS are read from ``os.wait4``.  Every output is
checked (see ``workloads.check_output``).

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced pass, then at least two traced passes in
which each invocation runs under ``traced.py``, and reports per-layer
metrics.  The last stdout line is one JSON object.  Exit code 0 when
every check passed, 1 when one failed, 2 when the repository is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# Per-layer metrics: metric -> the span names whose self time it sums.
LAYER_TIMES = {
    "cli.interpreter_s": ("cli.start", "cli.exit"),
    "cli.import_s": ("cli.import",),
    "lowerbound.self_s": ("lowerbound.attack",),
    "kernel.self_s": ("kernel.run", "kernel.fork_run"),
    "kernel.fork_s": ("kernel.fork",),
    "protocols.deliver_s": ("protocols.deliver",),
    "protocols.outgoing_s": ("protocols.outgoing",),
    "objects.materialize_s": ("objects.materialize",),
    "omission.swap_s": ("omission.swap",),
    "omission.merge_s": ("omission.merge",),
    "check.s": ("check.execution",),
    "check.witness_verify_s": ("check.witness",),
    "certify.build_s": ("certify.build",),
    "certify.verify_s": ("certify.verify",),
    "engine.s": ("engine.run", "engine.resume"),
    "worldlog.append_s": ("worldlog.append",),
    "worldlog.read_s": ("worldlog.read",),
}
# Per-layer counts: metric -> the span names whose calls it sums.
LAYER_CALLS = {
    "kernel.calls": ("kernel.run", "kernel.fork_run"),
    "protocols.deliver_calls": ("protocols.deliver",),
    "objects.materialize_calls": ("objects.materialize",),
    "omission.swap_calls": ("omission.swap",),
    "omission.merge_calls": ("omission.merge",),
    "check.calls": ("check.execution",),
    "engine.runs": ("engine.run", "engine.resume"),
    "worldlog.appends": ("worldlog.append",),
}
# Counts the traced child reports itself.
CHILD_COUNTS = (
    "cli.modules",
    "lowerbound.rounds_simulated",
    "lowerbound.rounds_baseline",
    "kernel.rounds",
    "omission.swap_failed",
    "objects.messages_built",
    "objects.behaviors_built",
    "certify.bytes",
    "engine.machine_snapshots",
)
COUNT_UNITS = {"certify.bytes": "B"}
# Every per-layer time the traced run reports.
TIMES = (*LAYER_TIMES, "trace.wall_s", "trace.unattributed_s")
# The world log's size is measured, not counted: its records carry
# wall-clock timestamps and durations whose printed digits vary.
SIZES = {"worldlog.bytes": "B"}
# Entry points that must record calls on a workload; zero calls there
# means a wrapper lost its target (say, after an import rename).
COMMON_CALLS = (
    "cli.import", "cli.main", "lowerbound.attack", "protocols.deliver",
    "protocols.outgoing", "omission.swap",
)
KERNEL_PATH = ("kernel.run", "objects.materialize", "check.execution")
EXPECTED_CALLS = {
    "cheaters-t64": COMMON_CALLS + KERNEL_PATH + (
        "kernel.fork_run", "kernel.fork", "check.witness", "certify.build",
        "certify.verify",
    ),
    "flood-t32": COMMON_CALLS + KERNEL_PATH + ("omission.merge",),
    "correct-t64": COMMON_CALLS + KERNEL_PATH + ("omission.merge",),
    "recorded-t64": COMMON_CALLS + (
        "omission.merge", "engine.run", "worldlog.append", "worldlog.read",
    ),
}


@dataclass
class Result:
    """One finished child: spawn/exit times, resource use, output."""

    spawn: float
    exit: float
    cpu_s: float
    rss_kb: int
    returncode: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn


def spawn(command: list[str], env: dict, workdir: str) -> Result:
    """Run one child to completion; time it from spawn to exit."""
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, env=env)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Result(
        spawn=start, exit=end, cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss, returncode=proc.returncode,
        stdout=stdout.decode("utf-8", "replace"), stderr=stderr,
    )


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "repro", *argv]


def tail_percentile(samples: list[float]):
    """The highest percentile of ``PERCENTILES`` with at least ten samples
    beyond it, as ``(percentile, value, samples_beyond)``; ``None`` when
    fewer than twenty samples leave no percentile with ten beyond."""
    ordered = sorted(samples)
    best = None
    for percentile in PERCENTILES:
        beyond = int(len(ordered) * (100 - percentile) / 100 + 1e-9)
        if beyond >= 10:
            best = (percentile, ordered[len(ordered) - beyond - 1], beyond)
    return best


def describe_timing(label: str, samples: list[float]) -> str:
    line = f"{label}: {len(samples)} samples, median {statistics.median(samples):.4f} s"
    tail = tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.4f} s ({tail[2]} beyond)"
    return line


class Checker:
    """Runs the output checks of one workload and tallies failures."""

    def __init__(self, twin: str | None) -> None:
        self.twin = twin
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check_pass(self, calls, results: list[Result], tag: str) -> None:
        observed = None
        for call, result in zip(calls, results):
            self.attempted += 1
            if call.check == "recorded-attack" and result.returncode == 0:
                try:
                    observed = workloads.parse_observed(result.stdout, call.t)
                except ValueError:
                    observed = None
            error = workloads.check_output(
                call, result.returncode, result.stdout, self.twin, observed
            )
            if error is not None:
                self.failed += 1
                self.fail(f"{tag} {' '.join(call.argv)}: {error}", result.stderr)

    def fail(self, message: str, stderr: str = "") -> None:
        self.errors.append(message)
        print(f"FAILED {message}", file=sys.stderr)
        if stderr:
            print(stderr[-2000:], file=sys.stderr)


def run_pass(calls, env: dict, workdir: str) -> list[Result]:
    return [spawn(cli_command(call.argv), env, workdir) for call in calls]


def host_reference() -> float:
    """Median time of a fixed pure-Python loop.  Not a metric: it shows
    how fast the host ran during this run, since shared hosts drift."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment(env: dict, workdir: str) -> str:
    """nproc, the Python version, the threads numpy's import starts, and
    the host-speed reference."""
    probe = spawn([sys.executable, "-c", (
        "import os, numpy; t = '/proc/self/task'; "
        "print(len(os.listdir(t)) - 1 if os.path.isdir(t) else 'unknown')"
    )], env, workdir)
    threads = probe.stdout.strip() if probe.returncode == 0 else "unknown"
    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy_threads={threads} host_reference_s={host_reference():.4f}"
    )


def untraced(calls, env, workdir, seconds, checker) -> dict:
    setup: list[float] = []

    def measure_setup(samples: int) -> None:
        for _ in range(samples):
            result = spawn(cli_command(["--help"]), env, workdir)
            if result.returncode != 0 or "usage:" not in result.stdout:
                checker.fail("repro --help failed", result.stderr)
            setup.append(result.wall_s)

    # Start-up time comes in bursts seconds long on a shared host, so the
    # set-up samples are spread between the passes, not taken in a row.
    measure_setup(3)
    passes = []
    while not passes or sum(p[-1].exit - p[0].spawn for p in passes) < seconds:
        results = run_pass(calls, env, workdir)
        checker.check_pass(calls, results, f"pass {len(passes) + 1}")
        passes.append(results)
        measure_setup(2)
    measure_setup(max(0, SETUP_SAMPLES - len(setup)))
    verdict = [p[-1].exit - p[0].spawn for p in passes]
    cpu = [sum(r.cpu_s for r in p) for p in passes]
    rss = [max(r.rss_kb for r in p) / 1024 for p in passes]
    for index, (v, c, r) in enumerate(zip(verdict, cpu, rss), 1):
        print(f"pass {index}: verdict {v:.4f} s, cpu {c:.4f} s, peak rss {r:.1f} MB")
    print(describe_timing("verdict_s", verdict))
    print(describe_timing("invocation wall", [r.wall_s for p in passes for r in p]))
    print(describe_timing("setup_s", setup))
    return {
        "verdict_s": {"value": statistics.median(verdict), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def traced_pass(calls, env, workdir, twins: list[Result], checker, tag):
    """One pass under ``traced.py``: (wall, span table by name, counts)."""
    spans: dict[str, dict[str, float]] = {}
    counts = dict.fromkeys((*CHILD_COUNTS, *SIZES), 0)
    results = []
    trace_path = os.path.join(workdir, "trace.json")
    for call, twin in zip(calls, twins):
        if os.path.exists(trace_path):
            os.remove(trace_path)
        result = spawn(
            [sys.executable, os.path.join(HERE, "traced.py"), trace_path, *call.argv],
            env, workdir,
        )
        results.append(result)
        label = f"{tag} {' '.join(call.argv)}"
        # trace and log stats print wall-clock timings, so only their
        # checked content (not their bytes) can match the untraced twin.
        if call.check not in ("trace", "log-stats") and result.stdout != twin.stdout:
            checker.fail(f"{label}: traced stdout differs from untraced")
        if not os.path.exists(trace_path):
            checker.fail(f"{label}: the traced child wrote no trace", result.stderr)
            continue
        with open(trace_path) as handle:
            trace = json.load(handle)
        # Interpreter start and teardown happen outside the child's clock
        # readings; the shared monotonic clock puts them under cli.
        for name, span in (("cli.start", trace["t0"] - result.spawn),
                           ("cli.exit", result.exit - trace["t_end"])):
            trace["spans"][name] = {"calls": 1, "self_s": span, "busy_s": span}
        for name, row in trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            for key in total:
                total[key] += row[key]
        for name, value in trace["counts"].items():
            # Modules are per process: report the largest import set.
            merge = max if name == "cli.modules" else int.__add__
            counts[name] = merge(counts[name], value)
        if "--ledger" in call.argv:
            counts["worldlog.bytes"] += os.path.getsize(
                call.argv[call.argv.index("--ledger") + 1]
            )
    checker.check_pass(calls, results, tag)
    return results[-1].exit - results[0].spawn, spans, counts


def layer_metrics(wall: float, spans, counts) -> dict[str, float]:
    metrics: dict[str, float] = {
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(row["self_s"] for row in spans.values()),
    }
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, names in LAYER_CALLS.items():
        metrics[metric] = sum(int(spans.get(n, {}).get("calls", 0)) for n in names)
    metrics.update(counts)
    return metrics


def print_layer_table(spans, wall: float, remainder: float) -> None:
    """Print calls, busy and self time per layer, and the unattributed
    remainder: traced wall time that no layer's self time covers."""
    layers: dict[str, list[float]] = {}
    for name, row in spans.items():
        entry = layers.setdefault(name.split(".", 1)[0], [0, 0.0, 0.0])
        entry[0] += row["calls"]
        entry[1] += row["busy_s"]
        entry[2] += row["self_s"]
    print(f"{'layer':<12}{'calls':>10}{'busy s':>10}{'self s':>10}{'self %':>8}")
    for layer, (calls, busy, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        print(f"{layer:<12}{int(calls):>10}{busy:>10.4f}{self_s:>10.4f}{100 * self_s / wall:>7.1f}%")
    print(f"{'unattributed':<12}{'':>10}{'':>10}{remainder:>10.4f}{100 * remainder / wall:>7.1f}%")
    print(f"{'traced wall':<12}{'':>10}{'':>10}{wall:>10.4f}")


def traced(workload, calls, env, workdir, seconds, checker) -> dict:
    started = time.perf_counter()
    twins = run_pass(calls, env, workdir)
    checker.check_pass(calls, twins, "untraced twin")
    untraced_wall = twins[-1].exit - twins[0].spawn
    passes = []
    while len(passes) < 2 or time.perf_counter() - started < seconds:
        passes.append(traced_pass(
            calls, env, workdir, twins, checker, f"traced pass {len(passes) + 1}"
        ))
    per_pass = [layer_metrics(*one_pass) for one_pass in passes]
    count_names = list(LAYER_CALLS) + list(CHILD_COUNTS)
    for name in count_names:
        values = [metrics[name] for metrics in per_pass]
        if len(set(values)) > 1:
            checker.fail(f"DEFECT: count {name} varied across passes of one seed: {values}")
    for name in EXPECTED_CALLS[workload]:
        if any(spans.get(name, {}).get("calls", 0) == 0 for _, spans, _ in passes):
            checker.fail(f"entry point {name} recorded no calls on {workload}")
    if workload != "recorded-t64" and per_pass[0]["engine.runs"] != 0:
        checker.fail(f"object engine ran {per_pass[0]['engine.runs']} times on {workload}")
    walls = [wall for wall, _, _ in passes]
    middle = sorted(range(len(passes)), key=lambda i: walls[i])[(len(passes) - 1) // 2]
    print(f"per-layer table (traced pass {middle + 1} of {len(passes)}, the median wall):")
    print_layer_table(passes[middle][1], walls[middle], per_pass[middle]["trace.unattributed_s"])
    overhead = statistics.median(walls) - untraced_wall
    print(f"tracing overhead: {overhead:.4f} s (traced median {statistics.median(walls):.4f} s"
          f" - untraced {untraced_wall:.4f} s)")
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
        for name, unit in (*((name, "s") for name in TIMES), *SIZES.items())
    }
    for name in count_names:
        metrics[name] = {"value": per_pass[0][name], "unit": COUNT_UNITS.get(name, "count")}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    calls = workloads.build(args.workload, args.seed, workdir)
    print(f"verdictbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment(env, workdir))
    for index, call in enumerate(calls):
        print(f"argv[{index}]: {' '.join(call.argv)}")
    warm_call = workloads.warmup(args.workload, calls, workdir)
    warm = spawn(cli_command(warm_call.argv), env, workdir)
    checker = Checker(twin=warm.stdout)
    error = workloads.check_output(warm_call, warm.returncode, warm.stdout)
    if error is not None:
        checker.fail(f"warm-up {' '.join(warm_call.argv)}: {error}", warm.stderr)
    if args.trace:
        metrics = traced(args.workload, calls, env, workdir, args.seconds, checker)
    else:
        metrics = untraced(calls, env, workdir, args.seconds, checker)
    correct = not checker.errors
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
