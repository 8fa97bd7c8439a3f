"""Consistency checks on the experiment and cheater registries."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, CHEATERS


class TestExperimentRegistry:
    def test_all_ids_sequential(self):
        assert list(ALL_EXPERIMENTS) == [
            f"e{index}" for index in range(1, 10)
        ]

    def test_runners_are_callable_and_distinct(self):
        assert len(set(ALL_EXPERIMENTS.values())) == len(
            ALL_EXPERIMENTS
        )
        for runner in ALL_EXPERIMENTS.values():
            assert callable(runner)

    def test_experiment_ids_match_results(self):
        # Spot-check two cheap runners.
        assert ALL_EXPERIMENTS["e6"]().experiment == "E6"
        assert ALL_EXPERIMENTS["e2"]().experiment == "E2"


class TestCheaterRegistry:
    @pytest.mark.parametrize("name", sorted(CHEATERS))
    def test_every_cheater_builds_and_runs(self, name):
        spec = CHEATERS[name](12, 8)
        execution = spec.run_uniform(0)
        assert execution.n == 12

    @pytest.mark.parametrize("name", sorted(CHEATERS))
    def test_every_cheater_is_subquadratic_in_spirit(self, name):
        """Registry invariant: at the paper-regime scale every entry
        spends less than a correct protocol must somewhere — concretely,
        below n(n-1) (single all-to-all round), the cheapest conceivable
        quadratic behaviour."""
        n, t = 20, 16
        spec = CHEATERS[name](n, t)
        messages = spec.run_uniform(0).message_complexity()
        assert messages < n * (n - 1)


def _subcommands():
    """``{name: subparser}`` of the CLI's command tree."""
    from repro.cli import build_parser

    (action,) = [
        action
        for action in build_parser()._actions
        if action.dest == "command"
    ]
    return action.choices


def _choices(command, dest):
    (action,) = [
        action
        for action in _subcommands()[command]._actions
        if action.dest == dest
    ]
    return list(action.choices)


class TestNameTables:
    """The CLI's names come from :mod:`repro.registry`, and each name
    resolves to what the runtime tables hold."""

    def test_attackable_names(self):
        from repro.registry import ATTACKABLE, resolve_builder

        assert list(ATTACKABLE) == [
            *sorted(CHEATERS), "correct", "naive-flooding"
        ]
        for name in ATTACKABLE:
            assert callable(resolve_builder(name))
        for command, dest in (
            ("attack", "protocol"),
            ("verify-witness", "protocol"),
            ("verify-cert", "replay"),
        ):
            assert _choices(command, dest) == list(ATTACKABLE)
        assert _choices("certify", "protocol") == [*ATTACKABLE, "matrix"]

    def test_experiment_ids(self):
        from repro.registry import EXPERIMENTS, resolve

        assert list(EXPERIMENTS) == list(ALL_EXPERIMENTS)
        for experiment_id, path in EXPERIMENTS.items():
            assert resolve(path) is ALL_EXPERIMENTS[experiment_id]
            assert experiment_id in _subcommands()

    def test_builders(self):
        from repro.registry import CORRECT, registered_builders, resolve_builder

        assert registered_builders() == sorted({*CHEATERS, *CORRECT})
        for name in registered_builders():
            assert callable(resolve_builder(name))
        for name, build in CHEATERS.items():
            assert resolve_builder(name) is build
        assert _choices("sweep", "protocol") == registered_builders()

    def test_problems(self):
        from repro.registry import registered_problems, resolve_problem

        for name in registered_problems():
            assert callable(resolve_problem(name))
        assert _choices("classify", "problem") == registered_problems()
