import hashlib
import json
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import graph, poset
from graphinv.enumeration import connected_classes_by_degree, graph_count
from graphinv.errors import PosetError
from graphinv.graph import EMPTY_CLASS, canonicalize_bits
from graphinv.poset import build_full_poset, one_edge_additions, poset_from_sidecar, poset_sidecar
from graphinv.smallgraphs import named_class
from graphinv.util import CACHE_FORMAT


def test_e3_members(e3_poset):
    assert [m.graph6 for m in e3_poset.members] == [
        named_class(n).graph6 for n in ("empty", "K2", "P3", "K3")
    ]
    assert e3_poset.complete


def test_e4_size(e4_poset):
    assert len(e4_poset) == 11
    assert e4_poset.members[0] == EMPTY_CLASS


def test_degree_truncation():
    p = build_full_poset(4, 1)
    assert [m.graph6 for m in p.members] == [EMPTY_CLASS.graph6, named_class("K2").graph6]


def test_counts_match_cycle_index_enumeration():
    # cross-module oracle: per-degree member counts against the counting engine
    for n in range(1, 8):
        p = build_full_poset(n)
        by_deg = Counter(m.degree for m in p.members)
        for d in range(n * (n - 1) // 2 + 1):
            assert by_deg.get(d, 0) == graph_count(n, d), (n, d)


def test_every_subgraph_present(e4_poset):
    for m in e4_poset.members:
        for s in range(m.bits.bit_length()):
            if m.bits >> s & 1:
                assert canonicalize_bits(m.bits & ~(1 << s)) in e4_poset


def _labeled_additions(cls, n):
    """{grown class: weight}, one search for every non-edge of the canonical copy of cls in K_n."""
    return Counter(
        canonicalize_bits(cls.bits | 1 << slot) for slot in range(n * (n - 1) // 2) if not cls.bits >> slot & 1
    )


def test_addition_weights_count_the_non_edges_in_k_n():
    # the cases of twin-swapped non-edges, named by the build below the middle degree
    # and searched above it, give the same weights as one search per non-edge
    for n in range(8):
        p = build_full_poset(n)
        assert sorted(p.additions) == sorted(k.bits for k in p if k.degree < n * (n - 1) // 4)
        for k in p.members:
            grouped = one_edge_additions(k, n, {})
            assert grouped == _labeled_additions(k, n) == p.additions.get(k.bits, grouped), (n, k)
            assert all(grown in p and grown.degree == k.degree + 1 for grown in grouped)


def _grown_by_every_non_edge(levels, ambient, top):
    """levels (one {bits: class} dict per degree) grown to degree top by every labeled
    non-edge in K_ambient(cls); the members in (degree, bits) order."""
    while len(levels) <= top:
        levels.append({g.bits: g for c in levels[-1].values() for g in _labeled_additions(c, ambient(c))})
    return [level[bits] for level in levels for bits in sorted(level)]


def _networkx_reversible_edges(cls):
    """The edges of cls that are not bridges, plus the pendant bridges, by networkx."""
    g = nx.Graph(graph._SLOT_PAIRS[s] for s in range(cls.bits.bit_length()) if cls.bits >> s & 1)
    bridges = list(nx.bridges(g))
    pendant = sum(1 for u, v in bridges if g.degree(u) == 1 or g.degree(v) == 1)
    return g.number_of_edges() - len(bridges) + pendant


def _connected_to_8_edges():
    """The connected members of E(7) and the connected classes with at most 8 edges."""
    levels = connected_classes_by_degree(8)
    classes = {m.bits: m for m in build_full_poset(7).connected_members()}
    classes.update((m.bits, m) for d in levels for m in levels[d])
    return list(classes.values())


def test_reversible_edges_equal_the_networkx_count():
    for cls in _connected_to_8_edges():
        assert poset._reversible_edges(cls.cv, cls.bits) == _networkx_reversible_edges(cls), cls


def test_reversible_edges_ignore_the_labeling():
    rng = random.Random(29)
    for cls in _connected_to_8_edges():
        count = poset._reversible_edges(cls.cv, cls.bits)
        for _ in range(3):
            moved = graph.permute_bits(cls.bits, rng.sample(range(cls.cv), cls.cv))
            assert poset._reversible_edges(cls.cv, moved) == count, (cls, moved)


def _records(members):
    return [(m.bits, m.degree, m.cv, m.aut_support) for m in members]


def test_build_grows_all_of_e8_to_degree_8():
    grown = _grown_by_every_non_edge([{0: EMPTY_CLASS}], lambda c: 8, 8)
    assert _records(build_full_poset(8, 8).members) == _records(grown)


def _keyed_children(cls, n):
    """(key, the child's bits) for each case of `poset._keyed_cases`."""
    return [(key, bits) for key, _cv, bits, _weight in poset._keyed_cases(cls, n)]


def _oracle_key(adj):
    """The fingerprint from the triples of `graph._vertex_invariant`."""
    return sum(poset._vertex_weight(d << 16 | t << 8 | s) for d, t, s in graph._vertex_invariant(adj))


@pytest.mark.parametrize("n, max_degree", [(n, None) for n in range(8)] + [(8, 8)])
def test_incremental_keys_equal_the_fingerprint_from_scratch(n, max_degree):
    # `_vertex_invariant`, which reads every vertex of the child, is the oracle
    for cls in build_full_poset(n, max_degree).members:
        for key, bits in _keyed_children(cls, n):
            adj = graph._adjacency(n, bits)
            assert key == _oracle_key(adj) == poset._fingerprint(adj), (cls, bits)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_incremental_keys_ignore_the_labeling(seed):
    # each child relabeled into K_10 by a seeded injection keeps its key
    rng = random.Random(seed)
    for cls in rng.sample(build_full_poset(7, 10).members, 20):
        for key, bits in _keyed_children(cls, 7):
            moved = graph.permute_bits(bits, rng.sample(range(10), 7))
            assert _oracle_key(graph._adjacency(10, moved)) == key, (cls, bits)


def test_only_the_shared_keys_fail_the_cover_count(monkeypatch):
    # E(8, 8): a key is searched again, case by case, exactly where two classes of
    # one degree share a fingerprint; every other key is named by one search
    searched = Counter()
    search = poset._canon_from_packed

    def counted(cv, bits):
        searched[bits.bit_count(), poset._fingerprint(graph._adjacency(cv, bits))] += 1
        return search(cv, bits)

    poset._full_poset.cache_clear()
    monkeypatch.setattr(poset, "_canon_from_packed", counted)
    p = build_full_poset(8, 8)
    by_key = Counter((m.degree, poset._fingerprint(graph._adjacency(m.cv, m.bits))) for m in p.members)
    shared = {key for key, count in by_key.items() if count > 1}
    assert shared and {key for key, count in searched.items() if count > 1} == shared
    assert set(searched) == set(by_key) - {(0, 0)}


def _connected_grown_by_every_non_edge(top):
    """The connected classes with 1..top edges, each degree grown by every labeled
    non-edge in K_(cv+1) of every class of the degree below."""
    k2 = canonicalize_bits(1)
    return _grown_by_every_non_edge([{}, {k2.bits: k2}], lambda c: c.cv + 1, top)


def test_connected_growth_reaches_every_connected_class_to_8_edges():
    levels = connected_classes_by_degree(8)
    assert _records(m for d in range(1, 9) for m in levels[d]) == _records(_connected_grown_by_every_non_edge(8))
    assert [len(levels[d]) for d in range(1, 9)] == [1, 1, 3, 5, 12, 30, 79, 227]  # OEIS A002905


def test_connected_growth_searches_every_case_where_no_key_closes(monkeypatch):
    # with one key for every child, a degree of two or more classes never closes the
    # cover count, so every case is searched; a lone class is named by one search
    cases = poset._keyed_cases
    searched = []
    search = poset._canon_from_packed

    def counted(cv, bits):
        searched.append(bits)
        return search(cv, bits)

    monkeypatch.setattr(poset, "_keyed_cases", lambda cls, n: [(0, *case[1:]) for case in cases(cls, n)])
    monkeypatch.setattr(poset, "_canon_from_packed", counted)
    levels = connected_classes_by_degree.__wrapped__(7)
    assert _records(m for d in range(1, 8) for m in levels[d]) == _records(_connected_grown_by_every_non_edge(7))
    expected = 0
    for d in range(1, 7):
        grown = sum(1 for cls in levels[d] for case in cases(cls, d + 2) if case[1] < cls.cv + 2)
        expected += 1 + (grown if len(levels[d + 1]) > 1 else 0)
    assert len(searched) == expected


@pytest.mark.parametrize("n", range(9))
def test_connected_classes_equal_the_connected_members_of_e_n(n):
    # the two production routes to connected classes: `enumerate --connected` and
    # `reconstruct` read the connected members of E(n, d); the `F(d) + 1` bound and
    # `inseparable_pair` read the growth
    for d in range(n):
        grouped = {}
        for m in build_full_poset(n, d).connected_members():
            grouped.setdefault(m.degree, []).append(m)
        assert dict(connected_classes_by_degree(d)) == {k: tuple(v) for k, v in grouped.items()}, (n, d)


def test_cold_connected_growth_searches_once_per_key():
    # canonical augmentation made 534 searches cold and 489 after `build_full_poset(7)`;
    # one search per key, with 2 keys that do not close, makes 383 and 184
    memos = graph._canon_from_packed, graph.canonicalize_bits, poset._full_poset, connected_classes_by_degree
    for memo in memos:
        memo.cache_clear()
    connected_classes_by_degree(8)
    assert graph._canon_from_packed.cache_info().misses <= 383
    for memo in memos:
        memo.cache_clear()
    build_full_poset(7)
    before = graph._canon_from_packed.cache_info().misses
    connected_classes_by_degree(8)
    assert graph._canon_from_packed.cache_info().misses - before <= 184


def _grown_through_every_degree(n):
    """E(n) grown one edge at a time through all C(n, 2) degrees, without complements."""
    levels = [{0: EMPTY_CLASS}]
    for _k in range(n * (n - 1) // 2):
        levels.append({g.bits: g for c in levels[-1].values() for g in one_edge_additions(c, n, {})})
    members = [m for level in levels for m in sorted(level.values(), key=lambda c: c.sort_key)]
    return [(m.bits, m.degree, m.cv, m.aut_support) for m in members]


@pytest.mark.parametrize("n", range(8))
def test_complemented_upper_half_equals_growth_through_every_degree(n):
    grown = _grown_through_every_degree(n)
    for d in range(n * (n - 1) // 2 + 1):
        p = build_full_poset(n, d)
        assert [(m.bits, m.degree, m.cv, m.aut_support) for m in p.members] == [r for r in grown if r[1] <= d]
        assert p.max_degree == d and p.index == {m.bits: pos for pos, m in enumerate(p.members)}


@pytest.fixture(scope="module")
def e8_poset():
    return build_full_poset(8)


def test_built_posets_pass_the_sidecar_orbit_count(e8_poset):
    # an independent check that the complements give exactly all of E(n)
    for p in [build_full_poset(n) for n in range(8)] + [e8_poset]:
        again = poset_from_sidecar(poset_sidecar(p), p.ambient_n)
        assert again.members == p.members


def test_cold_build_searches_only_the_lower_half():
    # growing all 21 degrees of E(7) by every labeled addition makes 8,852 searches,
    # the lower half so plus one search per complemented member 4,645, the lower
    # half by canonical additions plus the complements 1,300, and one search per
    # fingerprint, each the one class of its key, 521 + 522 = 1,043
    graph._canon_from_packed.cache_clear()
    graph.canonicalize_bits.cache_clear()
    poset._full_poset.cache_clear()
    build_full_poset(7)
    assert graph._canon_from_packed.cache_info().misses <= 1_043


def test_a_repeated_build_is_one_object():
    # the build memo is keyed by the degree bound, so E(6) and E(6, 15) are one poset
    p = build_full_poset(6)
    assert build_full_poset(6, 15) is p is build_full_poset(6, 99)
    assert build_full_poset(6, 14) is not p


def test_a_loaded_poset_has_no_build_names_and_derives_the_same():
    for n in (4, 6, 7):
        built = build_full_poset(n)
        loaded = poset_from_sidecar(poset_sidecar(built), n)
        assert built.additions and loaded.additions == {}
        assert loaded.cover_counts == built.cover_counts
        assert loaded.complements == built.complements


def test_build_determinism():
    a = build_full_poset(5)
    b = build_full_poset(5)
    assert a.members == b.members
    assert a.degrees() == b.degrees()


def test_ordering_is_degree_major(e5_poset):
    keys = [m.sort_key for m in e5_poset.members]
    assert keys == sorted(keys)
    # lower unitriangularity consequence: no member contains a later one
    from graphinv.graph import count_subgraphs

    for i, gi in enumerate(e5_poset.members):
        for j in range(i + 1, len(e5_poset)):
            assert count_subgraphs(e5_poset.members[j], gi) == 0


def test_connected_members(e3_poset, e4_poset):
    assert [m.graph6 for m in e3_poset.connected_members()] == [
        named_class(n).graph6 for n in ("K2", "P3", "K3")
    ]
    names = {"K2", "P3", "K3", "K1,3", "P4", "paw", "C4", "diamond", "K4"}
    assert {m.graph6 for m in e4_poset.connected_members()} == {
        named_class(n).graph6 for n in names
    }
    only_empty = build_full_poset(1)
    assert only_empty.connected_members() == ()


def test_position_lookup(e4_poset):
    assert e4_poset.position(EMPTY_CLASS) == 0
    with pytest.raises(PosetError):
        build_full_poset(3).position(named_class("K4"))


def test_poset_json_roundtrip(e4_poset):
    # through JSON text, as the CLI's file cache stores it: [bits, aut] per member
    stored = json.loads(json.dumps(poset_sidecar(e4_poset)))
    assert stored == [[m.bits, m.aut_support] for m in e4_poset.members]
    again = poset_from_sidecar(stored, 4)
    assert [(m.bits, m.degree, m.cv, m.aut_support) for m in again.members] == [
        (m.bits, m.degree, m.cv, m.aut_support) for m in e4_poset.members
    ]
    assert (again.ambient_n, again.max_degree, again.complete) == (4, 6, True)


def test_cached_poset_proves_only_a_loaded_sidecar(monkeypatch, tmp_path, e4_poset):
    from graphinv import poset

    proved = []

    def counted(*args):
        proved.append(args)
        return poset_from_sidecar(*args)

    monkeypatch.setattr(poset, "poset_from_sidecar", counted)
    assert poset.cached_poset(None, 4) == e4_poset and proved == []
    assert poset.cached_poset(str(tmp_path), 4) == e4_poset and proved == []  # a miss: served as built
    assert poset.cached_poset(str(tmp_path), 4) == e4_poset and len(proved) == 1  # a hit: the sidecar is proved


def test_canonical_convention_is_pinned_to_the_cache_format():
    # cached poset entries are served without canonicalizing again, so a change
    # to the canonical form, which changes this digest, must also bump the format
    body = json.dumps(poset_sidecar(build_full_poset(5)), sort_keys=True).encode()
    assert (CACHE_FORMAT, hashlib.sha256(body).hexdigest()) == (
        b"graphinv-cache 2", "3667c60b6ca3aac01b9203082ccc4b94d36d2a0f78f115a2df02609849cab722"
    )
