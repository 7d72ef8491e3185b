"""Every public function or class in ``sheafkit`` has a caller in the package.

A module-level name counts as called when some module of ``src/sheafkit``
other than the package ``__init__`` (whose re-exports are not callers) uses
it: as a bare name, as an attribute (``dynamics.evolve``) or in an import.
Names that only the tests use either move to ``tests/helpers.py`` or sit in
``ALLOWED`` with the reason they stay public.
"""

from __future__ import annotations

import ast
from pathlib import Path

import sheafkit

PACKAGE = Path(sheafkit.__file__).resolve().parent

#: (module, name) -> why the name stays without a caller in the package
ALLOWED = {
    ("dynamics", "step"): "the tests need the stepped (rho, S); evolve returns no state",
    ("gluing", "model_from_global_weights"): "ROADMAP item 6 gives it a caller (p_NC)",
    ("presheaf", "restrict"): "the one-section case of restriction_map, which the package calls",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public_definitions(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("_")
    }


def _referenced_names(modules: dict[str, ast.Module]) -> set[str]:
    names: set[str] = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    referenced = _referenced_names(modules)
    uncalled = {
        (module, name)
        for module, name in _public_definitions(modules)
        if name not in referenced
    }
    assert sorted(uncalled - ALLOWED.keys()) == []


def test_allowlist_names_exist_and_still_need_their_reason():
    modules = _modules()
    assert ALLOWED.keys() <= _public_definitions(modules)
    assert not any(name in _referenced_names(modules) for _, name in ALLOWED)
