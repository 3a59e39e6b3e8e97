"""Tests for the import boundary and the lazy package API.

Each command loads only the modules it runs: the engine never imports
the analysis, service or CLI layers, and the package ``__init__``\\ s
are lazy name tables (:mod:`repro.core.lazy`).  The boundary checks run
in a fresh interpreter, since this one has long since imported
everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PACKAGES = ("repro", "repro.runtime", "repro.service", "repro.obs")


def fresh(statements: str, expression: str):
    """The JSON value of *expression* in a fresh interpreter that has
    run only *statements*."""
    code = f"import json, sys\n{statements}\nprint(json.dumps({expression}))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def loaded_after(module: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after importing
    *module*."""
    return fresh(
        f"import {module}", "sorted(m for m in sys.modules if m.startswith('repro'))"
    )


def under(modules: list[str], *packages: str) -> list[str]:
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


class TestImportBoundary:
    def test_the_engine_loads_no_higher_layer(self):
        loaded = loaded_after("repro.semantics.lts")
        assert "repro.semantics.lts" in loaded
        assert under(
            loaded,
            "repro.service", "repro.runtime.supervisor", "repro.analysis",
            "repro.equivalence", "repro.protocols", "repro.cli",
        ) == []

    def test_the_cli_top_level_loads_no_engine_or_service(self):
        loaded = loaded_after("repro.cli")
        assert "repro.cli" in loaded
        assert under(loaded, "repro.semantics", "repro.service") == []

    def test_serve_loads_no_cluster_router(self):
        loaded = loaded_after("repro.service.server")
        assert "repro.service.server" in loaded
        assert under(loaded, "repro.service.router") == []


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyPackageApi:
    def test_every_exported_name_is_its_defining_object(self, package):
        module = importlib.import_module(package)
        assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            if name == "__version__":
                continue
            value = getattr(module, name)
            homes = [
                m for key, m in list(sys.modules.items())
                if key.startswith("repro.") and key not in PACKAGES
                and vars(m).get(name) is value
            ]
            assert homes, f"{package}.{name} is defined by no submodule"
            if getattr(value, "__qualname__", None) == name:  # a class or function
                assert getattr(sys.modules[value.__module__], name) is value, name

    def test_dir_lists_every_exported_name_before_first_use(self, package):
        listed = fresh(f"import {package} as p", "[dir(p), p.__all__]")
        assert set(listed[1]) <= set(listed[0])

    def test_star_import_binds_every_exported_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) <= set(namespace)

    def test_unknown_attribute_raises_the_standard_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError) as caught:
            module.no_such_name  # noqa: B018 - the lookup is the test
        assert str(caught.value) == (
            f"module {package!r} has no attribute 'no_such_name'"
        )

