"""No public name survives if only its own tests use it.

Every name in a ``fswl`` module's ``__all__`` must be referenced somewhere in
the package outside its own top-level definition (an import alone or a
dataclass field declared under the same name does not count).  The same
holds for each public method and property of a class in an ``__all__``,
outside its own definition, where only a read of an attribute of that name
counts: a local variable that shares the name does not.  The benchmark
under ``bench/`` is no caller.  A few names are exempt, each for a stated
reason; an exemption that is no longer needed fails the test too.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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
    ("diagnostics", "energy_balance_residual"):
        "acceptance criterion 6 drives the balance identities through them",
    ("diagnostics", "v_balance_residual"):
        "acceptance criterion 6 drives the balance identities through them",
    ("sobolev", "check_linf_interp"):
        "acceptance criterion 3 checks the sharp inequalities through them",
    ("sobolev", "check_product_bound"):
        "acceptance criterion 3 checks the sharp inequalities through them",
    ("sobolev", "check_chain_rule"):
        "acceptance criterion 3 checks the sharp inequalities through them",
    # Read only by the benchmark, which traces or reads them; they go when it
    # moves to theta_envelope, the sobolev row helpers and Trajectory.spectra.
    ("diagnostics", "record_diagnostics"): "traced by the benchmark only",
    ("diagnostics", "diagnose_trajectory"): "traced by the benchmark only",
    ("sobolev", "check_algebra"): "traced by the benchmark only",
    ("solver", "Trajectory.u_specs"): "read by the benchmark's reference check only",
    ("solver", "Trajectory.v_specs"): "read by the benchmark's reference check only",
    ("cli", "read_trajectory"): "read by the benchmark's reference check only",
}


def _references() -> dict[tuple[str, str | None, str | None], tuple[set[str], set[str]]]:
    """Identifiers each top-level definition of each module reads, as a
    pair: every name and attribute, and the attributes read alone.  Keyed
    (module, definition, member): member names a method or property of a
    class and is None elsewhere; definition None collects the module-level
    statements outside any def or class."""
    refs: dict[tuple[str, str | None, str | None], tuple[set[str], set[str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            items = [node]
            if isinstance(node, ast.ClassDef):
                items = [*node.decorator_list, *node.bases, *node.keywords, *node.body]
            for item in items:
                member = getattr(item, "name", None) if item is not node else None
                names, attrs = refs.setdefault((path.stem, owner, member), (set(), set()))
                declared = set()  # a field declaration ``name: type`` reads nothing
                for sub in ast.walk(item):
                    if isinstance(sub, ast.AnnAssign):
                        declared.add(sub.target)
                    elif sub in declared:
                        continue
                    elif isinstance(sub, ast.Name):
                        names.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        names.add(sub.attr)
                        if isinstance(sub.ctx, ast.Load):
                            attrs.add(sub.attr)
    return refs


def _public_members(cls) -> list[str]:
    """Public methods and properties defined in a class body."""
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (property, staticmethod, classmethod)))]


def _unused_public_names() -> set[tuple[str, str]]:
    """(module, name) of every unused name in an ``__all__``, and
    (module, "Class.member") of every unused public method or property of a
    class in one; a member is used if an attribute of its name is read
    outside its own definition."""
    refs = _references()
    unused = set()
    for module in {key[0] for key in refs}:
        mod = importlib.import_module(f"fswl.{module}")
        for name in getattr(mod, "__all__", ()):
            owner = getattr(mod, name)
            members = _public_members(owner) if inspect.isclass(owner) else []
            for label, ident, own, kind in [(name, name, (module, name), 0)] + [
                    (f"{name}.{m}", m, (module, name, m), 1) for m in members]:
                if not any(ident in read[kind] for key, read in refs.items()
                           if key[:len(own)] != own):
                    unused.add((module, label))
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = _unused_public_names()
    assert unused - EXEMPT.keys() == set(), "public names used only by tests"
    assert EXEMPT.keys() - unused == set(), "exemptions no longer needed"


def test_package_init_holds_its_docstring_alone():
    # each name is imported from the module that defines it, so the package
    # keeps no second registry of names to maintain by hand
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree) is not None
    assert [type(node) for node in tree.body] == [ast.Expr]
