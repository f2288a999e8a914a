"""Module-level state: every mutable global is a declared constant or a
functools cache; every public function, class, method and property has a
caller or is a listed oracle."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import graphinv
from graphinv import enumeration, graph, poset
from graphinv.smallgraphs import named_class


def _undeclared_state(module) -> list[str]:
    """Module-level dicts, lists and sets named neither UPPER_CASE nor as a dunder."""
    return sorted(
        name
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set))
        and not name.isupper()
        and not (name.startswith("__") and name.endswith("__"))
    )


def test_no_undeclared_module_state():
    found = {}
    for info in pkgutil.iter_modules(graphinv.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"graphinv.{info.name}")
        names = _undeclared_state(module)
        if names:
            found[info.name] = names
    assert found == {}


_CACHES = (
    graph._canon_from_packed,
    graph.support_automorphisms,
    graph._class_counts,
    enumeration._edge_series,
    enumeration.connected_classes_by_degree,
)


@pytest.mark.parametrize("cache", _CACHES, ids=lambda c: c.__name__)
def test_memos_are_clearable_caches(cache):
    def work():
        p4 = poset.build_full_poset(4)
        return (
            [graph.support_automorphisms(m) for m in p4.members],
            graph.subgraph_class_counts(named_class("K4"), 3),
            enumeration.graph_count_series(5),
            enumeration.connected_classes_by_degree(3),
        )

    before = work()
    assert cache.cache_info().currsize > 0
    cache.cache_clear()
    assert cache.cache_info().currsize == 0
    assert work() == before
    assert cache.cache_info().currsize > 0


def _listed_oracles() -> set[str]:
    """The `module.name` entries of the oracle list in the package docstring."""
    return set(re.findall(r"`(\w+\.\w+)`", graphinv.__doc__))


def _uncalled_public_names() -> list[str]:
    """Public module-level functions and classes that no other statement in the
    package references by name or attribute, and public methods and properties
    of package classes that no attribute outside their own body references
    (nor an alias in their class body); listed oracles excepted."""
    package = Path(graphinv.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    used = {
        id(stmt): {n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))}
        for stmt in statements
    }
    oracles = _listed_oracles()
    uncalled = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and f"{module}.{stmt.name}" not in oracles
        and not any(stmt.name in used[id(other)] for other in statements if other is not stmt)
    ]
    attributes = Counter(n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    for module, tree in trees.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            aliased = {stmt.value.id for stmt in cls.body
                       if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)}
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_") or fn.name in aliased:
                    continue
                own = sum(1 for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == fn.name)
                if attributes[fn.name] == own:
                    uncalled.append(f"{module}.{cls.name}.{fn.name}")
    return uncalled


def test_every_public_name_has_a_caller_or_is_a_listed_oracle():
    assert _uncalled_public_names() == []


def test_listed_oracles_exist():
    for dotted in _listed_oracles():
        module, name = dotted.split(".")
        assert hasattr(importlib.import_module(f"graphinv.{module}"), name), dotted
