"""Lazy package exports: one PEP 562 name table per package.

A package ``__init__`` declares which module defines each public name
and binds what :func:`lazy_exports` returns::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.runtime.journal": "Journal JournalError read_journal",
    })

``import repro.runtime`` then loads no submodule; the first
``repro.runtime.Journal`` (or ``from repro.runtime import Journal``)
imports :mod:`repro.runtime.journal` and caches the name in the package
namespace, so later lookups never reach the hook.  A name that equals
its own submodule's name (``repro.obs.profile``) must be imported
eagerly instead: importing the submodule binds the module object under
that name and the hook would never run.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package owning
    *namespace*, serving each name listed (space-separated) under its
    defining module in *exports* from that module on first access."""
    package = namespace["__name__"]
    source = {
        name: module for module, names in exports.items() for name in names.split()
    }

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return list(source), __getattr__, __dir__
