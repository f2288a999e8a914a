import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from graphinv import generators
from graphinv.errors import CapError, PreconditionError
from graphinv.generators import (
    derive_relation_in_basis,
    half_degree_system_check,
    inseparable_pair,
    is_separator,
    minimal_separators,
    reconstruct_components,
    signed_degree_sum,
    verify_relation,
)
from graphinv.graph import (
    EMPTY_CLASS,
    LabeledGraph,
    canonicalize,
    count_subgraphs,
    disjoint_union,
)
from graphinv.mtransform import IntMatrix, build_mtransform
from graphinv.poset import build_full_poset
from graphinv.smallgraphs import class_name, named_class


def test_separator_e3(e3_poset):
    assert is_separator([named_class("K2")], e3_poset).is_separator


def test_separator_witness(e4_poset):
    rep = is_separator([named_class("K2")], e4_poset)
    assert not rep.is_separator
    assert {class_name(c) for c in rep.witness} == {"2K2", "P3"}


def test_corrected_triple_separates(e4_poset):
    triple = [named_class("K2"), named_class("P3"), named_class("K1,3")]
    assert is_separator(triple, e4_poset).is_separator


def test_path_triple_fails_on_twin_pair(e4_poset):
    # the star and the triangle agree on every invariant of degree < 3 and
    # contain no 3-edge path, so this triple cannot tell them apart
    triple = [named_class("K2"), named_class("P3"), named_class("P4")]
    rep = is_separator(triple, e4_poset)
    assert not rep.is_separator
    assert {class_name(c) for c in rep.witness} == {"K3", "K1,3"}


def test_minimal_separators_e3(e3_poset):
    size, seps = minimal_separators(e3_poset)
    assert size == 1
    assert (named_class("K2"),) in seps


def test_minimal_separators_e4(e4_poset):
    size, seps = minimal_separators(e4_poset)
    assert size == 3
    named = {tuple(sorted(class_name(c) for c in s)) for s in seps}
    assert named == {("K2", "K3", "P3"), ("K1,3", "K2", "P3")}


def test_minimal_separators_trivial():
    only_empty = build_full_poset(1)
    size, seps = minimal_separators(only_empty)
    assert size == 0 and seps == ((),)


def test_reconstruct_examples(e4_poset):
    conn = sorted(e4_poset.connected_members(), key=lambda c: c.sort_key)
    assert reconstruct_components(named_class("2K2"), conn) == Counter({named_class("K2"): 2})
    assert reconstruct_components(EMPTY_CLASS, conn) == Counter()
    host = disjoint_union([named_class("paw"), named_class("K2")])
    big = sorted(build_full_poset(6, 5).connected_members(), key=lambda c: c.sort_key)
    assert reconstruct_components(host, big) == Counter(
        {named_class("paw"): 1, named_class("K2"): 1}
    )


def test_reconstruct_requires_sorted_list():
    with pytest.raises(PreconditionError):
        reconstruct_components(named_class("2K2"), [named_class("P3"), named_class("K2")])


def test_reconstruct_incomplete_list_raises():
    # a list that stops at triangles over-subtracts on the diamond and goes negative
    short = [named_class("K2"), named_class("P3"), named_class("K3")]
    with pytest.raises(PreconditionError):
        reconstruct_components(named_class("diamond"), short)


def test_reconstruct_roundtrip_random():
    rng = random.Random(41)
    pool = [c for c in build_full_poset(4, 3).connected_members()]
    conn = sorted(build_full_poset(6, 10).connected_members(), key=lambda c: c.sort_key)
    for _ in range(100):
        pieces = Counter()
        cv = deg = 0
        while True:
            cand = rng.choice(pool)
            if cv + cand.cv > 9 or deg + cand.degree > 10:
                break
            pieces[cand] += 1
            cv += cand.cv
            deg += cand.degree
        if not pieces:
            continue
        host = disjoint_union(pieces)
        usable = [c for c in conn if c.degree <= host.degree and c.cv <= host.cv]
        assert reconstruct_components(host, usable) == pieces


def test_inseparable_pair_d1():
    pair = inseparable_pair(1)
    assert pair.t_class == named_class("2K2")
    assert pair.u_class == named_class("P3")
    assert pair.generator == named_class("P3")
    # coefficient vector from the 2x2 inverse, over (empty, K2)
    assert pair.coefficients == (-1, 2)
    assert pair.degree == 2 and pair.bound == 2


def test_inseparable_pair_d2_default_generator():
    pair = inseparable_pair(2)
    assert pair.generator == named_class("K3")
    assert pair.t_components == Counter({named_class("P3"): 3})
    assert pair.u_components == Counter({named_class("K3"): 1, named_class("K2"): 3})
    assert pair.degree == 6 <= pair.bound == 9
    k2, p3 = named_class("K2"), named_class("P3")
    assert count_subgraphs(k2, pair.t_class) == count_subgraphs(k2, pair.u_class) == 6
    assert count_subgraphs(p3, pair.t_class) == count_subgraphs(p3, pair.u_class) == 3
    assert pair.t_class != pair.u_class


def test_inseparable_pair_d2_override():
    pair = inseparable_pair(2, generator=named_class("P4"))
    assert pair.generator == named_class("P4")
    assert pair.degree <= pair.bound


def test_inseparable_pair_d3_multiset_only():
    pair = inseparable_pair(3)
    assert pair.degree <= pair.bound == 28
    # the supports exceed the canonical cap, so the classes stay symbolic
    assert pair.t_class is None and pair.u_class is None
    assert sum(c.degree * k for c, k in pair.u_components.items()) == pair.degree


def test_inseparable_pair_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        inseparable_pair(0)
    with pytest.raises(PreconditionError):
        inseparable_pair(2, generator=named_class("K2"))  # wrong degree


def test_signed_degree_sum_closed_form():
    assert signed_degree_sum(1) == -1
    for d in range(1, 21):
        assert signed_degree_sum(d) == (-1) ** d * (2**d - 1)
        if d > 1:
            assert signed_degree_sum(d) == -signed_degree_sum(d - 1) + (-1) ** d * 2 ** (d - 1)


def test_half_degree_system():
    for n in (2, 3, 4):
        report = half_degree_system_check(n)
        assert report["ok"], report
        for step in report["steps"]:
            assert step["full_rank"] and step["recovered"]


def test_half_degree_system_through_e7():
    for n, count in ((6, 8), (7, 11)):
        report = half_degree_system_check(n)
        assert report["ok"] and len(report["steps"]) == count
        assert all(step["full_rank"] and step["recovered"] for step in report["steps"])


def test_half_degree_system_refuses_n8_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a poset was built before the refusal")

    monkeypatch.setattr("graphinv.poset.build_full_poset", no_build)
    with pytest.raises(CapError):
        half_degree_system_check(8)


def test_half_degree_system_catches_a_corrupted_entry(monkeypatch, e4_poset):
    # the degree-5 row (diamond) counts one more C4 than it has: step 3 reads it as a
    # recovered value, step 4 in its minor, which keeps rank 1
    diamond, c4 = e4_poset.position(named_class("diamond")), e4_poset.position(named_class("C4"))
    e = build_mtransform(e4_poset)
    rows = [dict(e.row(i)) for i in range(e.rows)]
    rows[diamond][c4] += 1
    monkeypatch.setattr(generators, "cached_transform", lambda cache_dir, n: (e4_poset, IntMatrix(rows, e.cols)))
    report = half_degree_system_check(4)
    bad = [step for step in report["steps"] if not step["recovered"]]
    assert not report["ok"] and [step["degree"] for step in bad] == [3, 4]
    assert all(step["full_rank"] for step in report["steps"])


def test_verify_relation_examples(e3_poset):
    k2, p3, k3 = named_class("K2"), named_class("P3"), named_class("K3")
    half = Fraction(1, 2)
    # the 2-edge-path relation holds
    rel = [(1, {p3: 1}), (-half, {k2: 2}), (half, {k2: 1})]
    assert verify_relation(rel, e3_poset)["holds"]
    # the published triangle relation carries a typo in its linear term;
    # the printed form fails and the corrected form holds
    printed = [(1, {k3: 1}), (-Fraction(1, 6), {k2: 3}), (half, {k2: 2}), (-1, {k2: 1})]
    rep = verify_relation(printed, e3_poset)
    assert not rep["holds"]
    corrected = [(1, {k3: 1}), (-Fraction(1, 6), {k2: 3}), (half, {k2: 2}), (-Fraction(1, 3), {k2: 1})]
    assert verify_relation(corrected, e3_poset)["holds"]


def test_verify_relation_unknown_invariant(e3_poset):
    from graphinv.errors import PosetError

    with pytest.raises(PosetError):
        verify_relation([(1, {named_class("K4"): 1})], e3_poset)


def test_verify_relation_caps_the_power_of_a_monomial(e3_poset):
    k2, p3 = named_class("K2"), named_class("P3")
    cap = generators.RELATION_POWER_CAP
    assert cap >= 9  # the syzygy reaches K2^7, the selftest bases K2^6 P3^2 K1,3
    with pytest.raises(CapError):
        verify_relation([(1, {k2: cap - 1, p3: 2}), (-1, {k2: cap - 1, p3: 2})], e3_poset)
    assert verify_relation([(1, {k2: cap - 1, p3: 1}), (-1, {k2: cap - 1, p3: 1})], e3_poset)["holds"]


def test_derive_relation_matches_direct_solution(e3_poset):
    sol = derive_relation_in_basis(named_class("P3"), [named_class("K2")], e3_poset, (3,))
    # evaluates to (g^2 - g)/2 on every member even if expressed differently
    for host in e3_poset.members:
        g1 = count_subgraphs(named_class("K2"), host)
        value = sum(c * g1**e[0] for e, c in sol.items())
        assert value == count_subgraphs(named_class("P3"), host)


def test_derive_relation_needs_one_bound_per_basis_invariant(e4_poset):
    k2, p3, two_k2 = named_class("K2"), named_class("P3"), named_class("2K2")
    for bounds in ((6,), (6, 2, 1), (6, -1)):
        with pytest.raises(PreconditionError):
            derive_relation_in_basis(two_k2, [k2, p3], e4_poset, bounds)
    half = Fraction(1, 2)
    assert derive_relation_in_basis(two_k2, [k2, p3], e4_poset, (6, 2)) == {(2, 0): half, (1, 0): -half, (0, 1): -1}


def test_separators_e4_against_networkx(e4_poset):
    # independent oracle: subgraph counts as GraphMatcher monomorphisms divided
    # by automorphisms, then a brute-force minimum separator over the connected
    # 4-vertex classes
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_class(g):
        return canonicalize(LabeledGraph.from_edges(g.number_of_nodes(), g.edges()))

    def copies(pattern, host):
        mono = sum(1 for _ in GraphMatcher(host, pattern).subgraph_monomorphisms_iter())
        aut = sum(1 for _ in GraphMatcher(pattern, pattern).isomorphisms_iter())
        assert mono % aut == 0
        return mono // aut

    hosts = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 4]
    pool = [
        g for g in nx.graph_atlas_g()
        if 0 < g.number_of_nodes() <= 4 and g.number_of_edges() and nx.is_connected(g)
    ]
    assert sorted(map(to_class, hosts), key=lambda c: c.sort_key) == list(e4_poset.members)
    assert {to_class(g) for g in pool} == set(e4_poset.connected_members())
    vectors = {}
    for g in pool:
        vectors[g] = [copies(g, h) for h in hosts]
        assert vectors[g] == [count_subgraphs(to_class(g), to_class(h)) for h in hosts]
    for size in range(len(pool) + 1):
        found = [
            s for s in combinations(pool, size)
            if len({tuple(vectors[g][i] for g in s) for i in range(len(hosts))}) == len(hosts)
        ]
        if found:
            break
    named = {tuple(sorted(class_name(to_class(g)) for g in s)) for s in found}
    assert size == 3 and named == {("K2", "K3", "P3"), ("K1,3", "K2", "P3")}
    size_pkg, seps = minimal_separators(e4_poset)
    assert size_pkg == size
    assert {frozenset(s) for s in seps} == {frozenset(map(to_class, s)) for s in found}
