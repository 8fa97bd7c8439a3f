"""Sanity checks on the public API surface.

Every name exported through a package ``__all__`` must resolve; the
top-level package must expose version and error types.  Catches stale
exports before users do.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.crypto",
    "repro.omission",
    "repro.lowerbound",
    "repro.validity",
    "repro.solvability",
    "repro.reductions",
    "repro.protocols",
    "repro.analysis",
    "repro.certify",
    "repro.obs",
    "repro.worldlog",
    "repro.parallel",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__")
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package_name}.__all__ exports unresolvable {name!r}"
            )

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        package = importlib.import_module(package_name)
        names = list(package.__all__)
        assert len(names) == len(set(names)), (
            f"{package_name}.__all__ has duplicates"
        )

    def test_version_exposed(self):
        import repro

        assert repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_packages_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and package.__doc__.strip()

    def test_every_public_symbol_documented(self):
        """Spot-check: exported classes/functions carry docstrings."""
        import repro.sim as sim

        import typing

        undocumented = [
            name
            for name in sim.__all__
            if callable(getattr(sim, name))
            and not getattr(sim, name).__doc__
            # typing aliases cannot carry runtime docstrings
            and not isinstance(
                getattr(sim, name), type(typing.Callable[[int], int])
            )
        ]
        assert undocumented == []
