"""The benchmark's traced run can wrap every function it names.

``bench/layers.py`` looks each traced target up by name when it installs
its wrappers, so renaming or removing one of them breaks
``bench/run.py --trace 1``.  This module only resolves the names: it
installs no wrapper and starts no process.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers")


def test_traced_functions_exist(layers):
    for mod in layers.FSWL_MODULES:
        importlib.import_module(mod)
    missing = [f"{mod}.{attr}" for mod, attr, _ in layers.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"traced functions not found: {missing}"


def test_traced_methods_exist(layers):
    missing = []
    for mod, cls, meth, _ in layers.METHODS:
        owner = getattr(importlib.import_module(mod), cls, None)
        if owner is None or meth not in owner.__dict__:
            missing.append(f"{mod}.{cls}.{meth}")
    assert not missing, f"traced methods not found: {missing}"


def test_suite_names_match_verify(layers):
    from fswl.verify import SUITES

    assert sorted(layers.SUITE_NAMES) == sorted(SUITES)
