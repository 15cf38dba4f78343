"""No public name survives if only its own tests use it.

Every name in a ``fswl`` module's ``__all__`` must be referenced somewhere in
the package outside its own top-level definition (a re-export in
``__init__.py`` or an import alone does not count), or be named by the
benchmark under ``bench/``.  A few names are exempt, each for a stated
reason; an exemption that is no longer needed fails the test too.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fswl"

EXEMPT = {
    ("solver", "vanishing_viscosity_sweep"):
        "acceptance criterion 9 drives the eps ladder through it",
    ("entropy", "entropy_balance_residual"):
        "paper-facing regularized entropy balance, waiting for its verify row",
    ("entropy", "smooth_capped_entropy"):
        "the C^1 entropy the balance pairing needs, waiting with it",
}


def _references() -> dict[tuple[str, str | None], set[str]]:
    """Identifiers read by each top-level definition of each module (None
    collects the module-level statements outside any def or class)."""
    refs: dict[tuple[str, str | None], set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            names = refs.setdefault((path.stem, owner), set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return refs


def _unused_public_names() -> set[tuple[str, str]]:
    refs = _references()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "bench").rglob("*.py")))
    unused = set()
    for module, _ in {key for key in refs}:
        for name in getattr(importlib.import_module(f"fswl.{module}"), "__all__", ()):
            used = any(name in names for key, names in refs.items() if key != (module, name))
            if not used and not re.search(rf"\b{re.escape(name)}\b", bench):
                unused.add((module, name))
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = _unused_public_names()
    assert unused - EXEMPT.keys() == set(), "public names used only by tests"
    assert EXEMPT.keys() - unused == set(), "exemptions no longer needed"
