"""Start-up gates: each ``repro`` subcommand imports only the layers it runs.

Every invocation is a fresh interpreter, so the modules a subcommand
imports are paid for on every call.  These gates count modules, which is
deterministic, rather than time: each runs the CLI in a subprocess and
lists the ``repro`` modules loaded when it returns.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

_LIST_MODULES = (
    "import json, sys\n"
    "{body}\n"
    "print(json.dumps(sorted(\n"
    "    name for name in sys.modules\n"
    "    if name == 'repro' or name.startswith('repro.')\n"
    ")))\n"
)
_RUN_CLI = (
    "import contextlib, io, repro.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    with contextlib.redirect_stderr(io.StringIO()):\n"
    "        try:\n"
    "            code = repro.cli.main({argv!r})\n"
    "        except SystemExit as stop:\n"
    "            code = stop.code\n"
    "assert code == 0, code"
)


def loaded_modules(body: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``body``."""
    completed = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES.format(body=body)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def cli_modules(*argv: str) -> list[str]:
    """The ``repro`` modules loaded by one successful CLI invocation."""
    return loaded_modules(_RUN_CLI.format(argv=list(argv)))


def under(modules: list[str], *packages: str) -> list[str]:
    """The members of ``modules`` that are, or sit inside, ``packages``."""
    return [
        name
        for name in modules
        if any(
            name == package or name.startswith(package + ".")
            for package in packages
        )
    ]


# The attack layers: a command that only reads or lists must not load them.
ATTACK_LAYERS = ("repro.lowerbound", "repro.sim", "repro.protocols")
# The layers an attack or a certificate does not use.
NOT_ATTACK_LAYERS = (
    "repro.experiments",
    "repro.analysis",
    "repro.solvability",
    "repro.service",
    "repro.obs.telemetry",
)


@pytest.fixture(scope="module")
def certify_run(tmp_path_factory):
    """One ``certify`` run: its loaded modules and the artifact path."""
    path = tmp_path_factory.mktemp("startup") / "silent.cert.json"
    modules = cli_modules(
        "certify", "silent", "--n", "12", "--t", "8", "--out", str(path)
    )
    return modules, str(path)


class TestStartupImports:
    def test_importing_the_cli_loads_under_30_modules(self):
        modules = loaded_modules("import repro.cli")
        assert len(modules) < 30, modules

    def test_help_loads_no_attack_layer(self):
        modules = cli_modules("--help")
        assert under(modules, *ATTACK_LAYERS) == []
        assert len(modules) < 30, modules

    def test_verify_cert_loads_no_attack_layer(self, certify_run):
        _, path = certify_run
        modules = cli_modules("verify-cert", path)
        assert under(modules, *ATTACK_LAYERS) == []

    def test_attack_loads_only_attack_layers(self):
        modules = cli_modules("attack", "silent", "--n", "12", "--t", "8")
        assert "repro.lowerbound.driver" in modules
        assert under(modules, *NOT_ATTACK_LAYERS) == []

    def test_certify_loads_only_attack_layers(self, certify_run):
        modules, _ = certify_run
        assert "repro.certify.format" in modules
        assert under(modules, *NOT_ATTACK_LAYERS) == []

    def test_resolving_a_builder_imports_only_its_module(self):
        modules = loaded_modules(
            "from repro.registry import resolve_builder\n"
            "resolve_builder('correct')"
        )
        assert "repro.protocols.weak_consensus" in modules
        assert under(
            modules, "repro.experiments", "repro.lowerbound", "repro.parallel"
        ) == []
