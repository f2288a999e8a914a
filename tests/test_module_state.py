"""Module-level state: every mutable global is a declared constant or a
functools cache; every public function, class, method and property has a
caller or is a listed oracle."""

import ast
import importlib
import pkgutil
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import graphinv
from graphinv import algebra, enumeration, generators, graph, poset
from graphinv.smallgraphs import named_class
from graphinv.util import random_labeled_graph


def _undeclared_state(module) -> list[str]:
    """Module-level dicts, lists and sets named neither UPPER_CASE nor as a dunder."""
    return sorted(
        name
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set))
        and not name.isupper()
        and not (name.startswith("__") and name.endswith("__"))
    )


def _package_modules():
    return [
        importlib.import_module(f"graphinv.{info.name}")
        for info in pkgutil.iter_modules(graphinv.__path__)
        if info.name != "__main__"
    ]


def test_no_undeclared_module_state():
    found = {}
    for module in _package_modules():
        names = _undeclared_state(module)
        if names:
            found[module.__name__] = names
    assert found == {}


def _functools_caches() -> dict[str, object]:
    """Every functools cache wrapper (an object with `cache_info` and
    `cache_clear`) defined at module level in the package, by name; a name
    imported from another module is counted where it is defined."""
    found = [
        (name, value)
        for module in _package_modules()
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and hasattr(value, "cache_clear")
        and getattr(value, "__module__", None) == module.__name__
    ]
    caches = dict(found)
    assert len(caches) == len(found), "two modules define caches of the same name"
    return caches


_CACHES = _functools_caches()


def test_cache_registry_finds_the_known_memos():
    assert {
        "canonicalize_bits", "_canon_from_packed", "_class_counts", "support_automorphisms",
        "_distinct_copies", "_edge_series", "connected_classes_by_degree", "_vertex_weight",
        "_full_poset",
    } <= set(_CACHES)


def _work():
    p4 = poset.build_full_poset(4)
    k2, p3 = named_class("K2"), named_class("P3")
    return (
        [graph.support_automorphisms(m) for m in p4.members],
        graph.subgraph_class_counts(named_class("K4"), 3),
        enumeration.graph_count_series(5),
        enumeration.connected_classes_by_degree(3),
        algebra.general_product(k2, p3),
        generators.is_separator([k2, p3], p4),
        poset._grow_level([k2], 4, 1),  # unmemoized: refills `_canon_from_packed`
    )


@pytest.mark.parametrize("name", sorted(_CACHES))
def test_memos_are_clearable_caches(name):
    cache = _CACHES[name]
    before = _work()
    assert cache.cache_info().currsize > 0
    cache.cache_clear()
    assert cache.cache_info().currsize == 0
    assert _work() == before
    assert cache.cache_info().currsize > 0


def _clear_every_cache():
    for cache in _CACHES.values():
        cache.cache_clear()


def test_results_equal_cold_warm_and_after_clearing():
    rng = random.Random(29)
    hosts = [random_labeled_graph(rng, 7) for _ in range(6)]
    patterns = [m for m in poset.build_full_poset(4).members if m.degree]
    pairs = [(a, b) for a in patterns[:5] for b in patterns[:5]]

    def queries():
        return (
            [graph.count_subgraphs(p, h) for p in patterns for h in hosts],
            [algebra.union_class_distribution(a, b, a.cv + b.cv) for a, b in pairs],
            [graph.connected_component_classes(h) for h in hosts],
        )

    _clear_every_cache()
    cold = queries()
    assert queries() == cold
    _clear_every_cache()
    assert queries() == cold


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


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter name, call-site position or None) for every parameter
    with a default of every function in the tree, nested ones included; a
    method's position does not count `self`, and a keyword-only one has none."""
    def walk(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                first = len(positional) - len(args.defaults)
                for at, arg in enumerate(positional[first:], start=first):
                    yield child, arg.arg, at - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield child, arg.arg, None
            yield from walk(child, isinstance(child, ast.ClassDef))

    yield from walk(tree, False)


def _unpassed_defaulted_parameters() -> list[str]:
    """`module.function(parameter)` for each parameter with a default in the
    package that no call in the package or in perfbench/ passes, by position or
    keyword, to a function of that name; a function's own recursive calls count.
    A function handed to a call, as in perfbench's `log.call(name, fn, *args)`,
    counts as called with the positional arguments after it."""
    package = Path(graphinv.__file__).parent
    sources = sorted(package.glob("*.py")) + sorted((package.parent.parent / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}

    def name_of(node) -> str | None:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(name_of(node.func), []).append(node)
                for at, arg in enumerate(node.args):
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        calls.setdefault(name_of(arg), []).append(ast.Call(arg, node.args[at + 1:], []))

    def passed(call: ast.Call, name: str, at: int | None) -> bool:
        if any(kw.arg in (name, None) for kw in call.keywords):  # None: a **mapping
            return True
        return at is not None and (len(call.args) > at or any(isinstance(a, ast.Starred) for a in call.args))

    return [
        f"{path.stem}.{fn.name}({name})"
        for path in sources if path.parent == package
        for fn, name, at in _defaulted_parameters(trees[path])
        if not any(passed(call, name, at) for call in calls.get(fn.name, []))
    ]


def test_every_defaulted_parameter_has_a_production_caller():
    # a value only tests set is a constant; the one exemption: tests draw sparse
    # random hosts (the support-10 general-product test), production draws none
    assert _unpassed_defaulted_parameters() == ["util.random_labeled_graph(p)"]


def test_listed_oracles_exist():
    for dotted in _listed_oracles():
        module, name = dotted.split(".")
        assert hasattr(importlib.import_module(f"graphinv.{module}"), name), dotted


def _references(name: str) -> set[tuple[str, str]]:
    """(module, top-level statement) for each use of `name` in the package:
    a name, an attribute or an imported alias; its own definition excepted."""
    package = Path(graphinv.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if getattr(stmt, "name", None) == name:
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name
                ):
                    found.add((path.stem, getattr(stmt, "name", type(stmt).__name__)))
    return found


def test_only_invert_builds_the_whole_inverse():
    # every solve goes through `solve_transform`; the whole inverse is for the `invert`
    # command, and for the selftest check that proves it on the printed matrices
    assert _references("inverse_mtransform") == {
        ("cli", "_cmd_matrix"),
        ("selftest", "ImportFrom"),
        ("selftest", "check_mnukhin_laws"),
    }


def test_only_the_field_codec_knows_the_byte_layout():
    # packed rows and columns are encoded by `_pack` and decoded by `_unpack`, nowhere else
    codec = {("mtransform", "_pack"), ("mtransform", "_unpack")}
    assert _references("byteorder") | _references("to_bytes") | _references("from_bytes") <= codec
    assert _references("memoryview") == set()


def test_the_transform_reads_no_private_name_of_the_poset_or_the_graph():
    # the cover counts and the complement map are read from the poset that owns them
    tree = ast.parse((Path(graphinv.__file__).parent / "mtransform.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("poset", "GPoset") in imported
    assert [(m, name) for m, name in imported if m in ("poset", "graph") and name.startswith("_")] == []


def test_products_read_only_the_union_block():
    # the transform route is one certified solve on E(n, |a| + |b|)
    assert ("algebra", "product_mtransform") in _references("solve_transform")
    assert ("algebra", "product_mtransform") not in _references("column")
