"""Execution reuse in the attack driver (acceptance for the engine PR).

The refactored :class:`LowerBoundDriver` avoids re-simulating rounds it
can prove redundant — exact cache hits, quiescent-aliasing of isolation
runs, checkpoint resume of fault-free prefixes, and early stopping of
decision-only probes.  The acceptance bar: on the seed cheater
candidates the fast pipeline simulates at least **2x fewer** rounds in
aggregate than the reuse-free pipeline, while producing *identical*
witnesses and verdicts.

The reuse-free round count is measured two ways and cross-checked:
``rounds_simulated`` of an actual slow run, and ``rounds_baseline``
(distinct logical runs x horizon) accounted by the fast run.  They must
agree exactly — otherwise the baseline would be a fiction.
"""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.protocols.subquadratic import ring_token_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec

GRID = [(12, 8), (20, 16)]


def _attack_pair(spec):
    fast = attack_weak_consensus(spec)
    slow = attack_weak_consensus(
        spec, early_stop=False, reuse=False
    )
    return fast, slow


def _outcomes_agree(fast, slow):
    assert fast.found_violation == slow.found_violation
    assert fast.default_bit == slow.default_bit
    assert fast.critical_round == slow.critical_round
    assert (fast.witness is None) == (slow.witness is None)
    if fast.witness is not None:
        assert fast.witness == slow.witness
    if fast.bound is not None and slow.bound is not None:
        assert fast.bound.observed == slow.bound.observed


class TestReuseAcceptance:
    def test_aggregate_two_x_on_seed_candidates(self):
        fast_total = 0
        slow_total = 0
        for n, t in GRID:
            for build in CHEATERS.values():
                fast, slow = _attack_pair(build(n, t))
                _outcomes_agree(fast, slow)
                # The baseline accounted by the fast run must equal
                # what the reuse-free pipeline actually simulates.
                assert fast.rounds_baseline == slow.rounds_simulated
                assert slow.rounds_baseline == slow.rounds_simulated
                fast_total += fast.rounds_simulated
                slow_total += slow.rounds_simulated
        assert slow_total >= 2 * fast_total, (
            f"aggregate reuse below 2x on the seed matrix: "
            f"{slow_total} baseline vs {fast_total} simulated"
        )

    @pytest.mark.parametrize("n, t", GRID)
    def test_ring_token_individually_two_x(self, n, t):
        fast, slow = _attack_pair(ring_token_spec(n, t))
        _outcomes_agree(fast, slow)
        assert slow.rounds_simulated >= 2 * fast.rounds_simulated

    def test_counter_line_in_log(self):
        fast = attack_weak_consensus(ring_token_spec(12, 8))
        engine_lines = [
            line for line in fast.log if "engine: simulated" in line
        ]
        assert len(engine_lines) == 1
        assert "reuse hits" in engine_lines[0]
        assert "baseline" in engine_lines[0]
        rendered = fast.render()
        assert (
            f"simulated {fast.rounds_simulated} rounds "
            f"(baseline {fast.rounds_baseline})" in rendered
        )

    def test_correct_protocol_unaffected(self):
        spec = broadcast_weak_consensus_spec(12, 8)
        fast, slow = _attack_pair(spec)
        assert not fast.found_violation
        assert not slow.found_violation
        assert fast.bound is not None
        assert fast.bound.observed == slow.bound.observed
