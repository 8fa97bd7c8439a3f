"""PEP 562 re-exports: a package names its public symbols without importing them.

A package ``__init__`` that re-exports from its submodules with plain
``from ... import`` statements loads every submodule, and everything
they import, as soon as any one of them is needed.  The packages built
with :func:`lazy_exports` resolve each exported name on first access
instead, so ``import repro.sim.message`` loads the message module and
not the kernel, the engine and the serialization codec besides.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, origins: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``origins`` maps each exported name to the submodule defining it.
    A resolved name is cached in the package namespace, so the hook runs
    once per name.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in origins:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(origins[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__
