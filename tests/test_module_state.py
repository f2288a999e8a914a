"""Module-level state: every mutable global is a declared constant or a functools cache."""

import importlib
import pkgutil

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
