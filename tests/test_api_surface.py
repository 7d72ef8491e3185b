"""Every public function or class in ``sheafkit`` has a caller in the package,
and every defaulted parameter of a public function is passed by one.

A module-level name counts as called when some module of ``src/sheafkit``
other than the package ``__init__`` (whose re-exports are not callers) uses
it: as a bare name, as an attribute (``dynamics.evolve``) or in an import.
Names that only the tests use either move to ``tests/helpers.py`` or sit in
``ALLOWED`` with the reason they stay public.  Likewise a parameter with a
default counts as passed when some call in those modules gives it, by
keyword or by position; a default no such call overrides is a knob only the
tests turn, so it goes or sits in ``ALLOWED_UNPASSED`` with its reason.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import sheafkit

PACKAGE = Path(sheafkit.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

#: (module, name) -> why the name stays without a caller in the package
ALLOWED = {
    ("dynamics", "step"): "the tests need the stepped (rho, S); evolve returns no state",
    ("gluing", "model_from_global_weights"): "ROADMAP item 8 gives it a caller (p_NC)",
}

#: span targets of the traced bench run that no longer resolve (ROADMAP item 1)
STALE_SPAN_TARGETS = {
    ("sheafkit.cli", "sheaf_check"),
    ("sheafkit.cli", "is_noncontextual"),
    ("sheafkit.simplex", "feasible_eq"),
    ("sheafkit.cohomology", "solve"),
}

#: (module, function, parameter) -> why no call in the package passes it
ALLOWED_UNPASSED = {
    ("cli", "main", "argv"): "the console script calls main() to read sys.argv; "
                             "the tests and the bench pass argv",
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


def _defaulted_parameters(modules: dict[str, ast.Module]) -> dict[str, list[tuple]]:
    """function name -> (module, parameter, position or None if keyword-only)
    for each defaulted parameter of each public module-level function."""
    found: dict[str, list[tuple]] = {}
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or (module, node.name) in ALLOWED):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = found.setdefault(node.name, [])
            params += [(module, a.arg, i) for i, a in enumerate(positional) if i >= first]
            params += [(module, a.arg, None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _calls(modules: dict[str, ast.Module]):
    """(callee name, positional count, keyword names) of each call."""
    for tree in modules.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_passed_in_the_package():
    modules = _modules()
    defaulted = _defaulted_parameters(modules)
    passed = set()
    for name, n_positional, keywords in _calls(modules):
        for module, param, position in defaulted.get(name, ()):
            if param in keywords or (position is not None and position < n_positional):
                passed.add((module, name, param))
    unpassed = {
        (module, name, param)
        for name, params in defaulted.items()
        for module, param, _ in params
        if (module, name, param) not in passed
    }
    assert sorted(unpassed) == sorted(ALLOWED_UNPASSED)


def _span_targets() -> tuple[tuple[str, str, str], ...]:
    """``TARGETS`` of the bench's span tracer, read without importing it."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return ast.literal_eval(value)


def test_every_traced_layer_resolves():
    # the tracer skips a target it cannot find, so a rename would silently
    # turn its layer's spans off
    targets = {(module, attr) for module, attr, _ in _span_targets()
               if module.split(".")[0] == "sheafkit"}
    assert len(targets) > len(STALE_SPAN_TARGETS)
    missing = {(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)}
    assert sorted(missing - STALE_SPAN_TARGETS) == []
