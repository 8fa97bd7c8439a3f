"""Unit tests of the benchmark's own arithmetic, argv generation and checks.

Run with ``python -m pytest verdictbench/tests -q`` from the repository root.
"""

import json
import os

import pytest

import run
import workloads
from traced import Recorder, aggregate


def _fake_clock(ticks):
    readings = iter(ticks)
    return lambda: next(readings)


def test_self_time_of_deliver_inside_kernel_inside_attack():
    # attack [0, 10] > kernel.run [1, 7] > deliver [2, 3], deliver [4, 6]
    recorder = Recorder(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0]))
    attack = recorder.open("lowerbound.attack")
    kernel = recorder.open("kernel.run")
    for _ in range(2):
        recorder.close(recorder.open("protocols.deliver"))
    recorder.close(kernel)
    recorder.close(attack)
    table = aggregate(recorder.spans)
    assert table["lowerbound.attack"] == {"calls": 1, "self_s": 4.0, "busy_s": 10.0}
    assert table["kernel.run"] == {"calls": 1, "self_s": 3.0, "busy_s": 6.0}
    assert table["protocols.deliver"] == {"calls": 2, "self_s": 3.0, "busy_s": 3.0}
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_busy_time_counts_a_reentered_layer_once():
    # kernel.fork [0, 4] replays through kernel.run [1, 3]: the kernel
    # layer is busy 4 s, not 6 s.
    spans = [["kernel.fork", 0.0, 4.0, -1], ["kernel.run", 1.0, 3.0, 0]]
    table = aggregate(spans)
    assert table["kernel.fork"]["busy_s"] + table["kernel.run"]["busy_s"] == 4.0
    assert table["kernel.fork"]["self_s"] == 2.0


@pytest.mark.parametrize("count, expected", [
    (19, None),
    (20, (50, 9.0, 10)),
    (100, (90, 89.0, 10)),
    (1000, (99, 989.0, 10)),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    samples = [float(value) for value in range(count)]
    assert run.tail_percentile(list(reversed(samples))) == expected


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_argv(workload, tmp_path):
    first = workloads.build(workload, 7, str(tmp_path))
    assert first == workloads.build(workload, 7, str(tmp_path))
    others = {tuple(workloads.build(workload, seed, str(tmp_path))) for seed in range(20)}
    assert len(others) > 1


def test_recorded_twin_has_the_correct_workloads_argv(tmp_path):
    for seed in range(10):
        plain = workloads.build("correct-t64", seed, str(tmp_path))[0]
        recorded = workloads.build("recorded-t64", seed, str(tmp_path))
        twin = workloads.warmup("recorded-t64", recorded, str(tmp_path))
        assert twin.argv == plain.argv
        assert recorded[0].argv[: len(plain.argv)] == plain.argv


SURVIVOR = (
    "attack on weak-consensus-broadcast (n=80, t=64; ...)\n"
    "  t=64: observed {observed} {relation} floor t^2/32 = 128.00 (ratio 1.00)\n"
    "  no violation found (bound respected)\n"
)


def test_floor_parser_accepts_a_survivor_at_the_floor():
    assert workloads.parse_observed(SURVIVOR.format(observed=128, relation=">="), 64) == 128


@pytest.mark.parametrize("observed, relation", [(127, "<"), (127, ">=")])
def test_floor_parser_rejects_observed_below_floor(observed, relation):
    with pytest.raises(ValueError, match="< floor"):
        workloads.parse_observed(SURVIVOR.format(observed=observed, relation=relation), 64)


def test_floor_parser_rejects_wrong_t_and_missing_verdict():
    with pytest.raises(ValueError, match="expected t=32"):
        workloads.parse_observed(SURVIVOR.format(observed=6320, relation=">="), 32)
    report = SURVIVOR.format(observed=6320, relation=">=").replace("no violation found", "VIOLATION")
    with pytest.raises(ValueError, match="no violation found"):
        workloads.parse_observed(report, 64)


def test_check_output_flags_exit_code_and_twin_mismatch():
    call = workloads.Invocation(("attack", "correct"), "recorded-attack", 64)
    good = SURVIVOR.format(observed=6320, relation=">=")
    assert workloads.check_output(call, 0, good, twin=good) is None
    assert "differs" in workloads.check_output(call, 0, good, twin=good + "x")
    assert workloads.check_output(call, 1, good, twin=good) == "exit code 1"
    stats = workloads.Invocation(("log", "stats", "w"), "log-stats", 64)
    assert workloads.check_output(stats, 0, '{"messages_observed": 6320}', observed=6320) is None
    assert "!=" in workloads.check_output(stats, 0, '{"messages_observed": 1}', observed=6320)


def test_benchmark_json_lists_every_reported_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "verdict_s", "cpu_s", "peak_rss_mb", "setup_s",
    }
    assert {m["name"] for m in spec["per_layer"]} == {
        *run.TIMES, *run.LAYER_CALLS, *run.CHILD_COUNTS, *run.SIZES, "trace.overhead_s",
    }
