import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.algebra import (
    LinComb,
    _distinct_copies,
    fleischmann_totals,
    general_product,
    is_general_identity,
    product_fleischmann,
    product_kocay,
    product_mtransform,
    express_invariant,
    degree_sum_identity_check,
    union_class_distribution,
    verify_product_identity,
)
from graphinv.errors import PosetError
from graphinv.graph import EMPTY_CLASS, canonicalize, canonicalize_bits, count_subgraphs
from graphinv.mtransform import build_mtransform
from graphinv.poset import GPoset, build_full_poset
from graphinv.smallgraphs import named_class
from graphinv.util import random_labeled_graph


def _named(comb):
    from graphinv.smallgraphs import class_name

    return {class_name(c) or c.graph6: v for c, v in comb.items()}


def test_kocay_table1_cells(e3_poset):
    k2, p3 = named_class("K2"), named_class("P3")
    assert _named(product_kocay(k2, k2, e3_poset)) == {"K2": 1, "P3": 2}
    assert _named(product_kocay(k2, p3, e3_poset)) == {"P3": 2, "K3": 3}


def test_kocay_p3_squared(e4_poset):
    p3 = named_class("P3")
    assert _named(product_kocay(p3, p3, e4_poset)) == {
        "P3": 1, "K1,3": 6, "K3": 6, "P4": 2, "paw": 4, "C4": 4,
    }


def test_kocay_missing_union_class():
    members = (EMPTY_CLASS, named_class("K2"), named_class("2K2"))  # lacks the 2-edge path
    p = GPoset(members, 4, 2, False)
    with pytest.raises(PosetError):
        product_kocay(named_class("K2"), named_class("K2"), p)


def test_kocay_degree_cap_error():
    k2 = named_class("K2")
    p = build_full_poset(4, 2)
    with pytest.raises(PosetError):
        product_kocay(k2, named_class("P3"), p)  # degree-3 unions exceed the cap


def test_fleischmann_classes(e4_poset):
    k2, p3 = named_class("K2"), named_class("P3")
    refined = product_fleischmann(p3, p3, e4_poset, cross_check_n=4)
    star_classes = refined[named_class("K1,3")]
    assert len(star_classes) == 1 and star_classes[0].pair_count == 6
    paw_classes = refined[named_class("paw")]
    assert sorted(cc.pair_count for cc in paw_classes) == [2, 2]
    overlap = product_fleischmann(k2, k2, e4_poset)[k2]
    assert len(overlap) == 1 and overlap[0].pair_count == 1
    assert overlap[0].a_only == 0 and overlap[0].b_only == 0  # full overlap, shared color


def test_fleischmann_monochrome_recovers_class(e4_poset):
    p3 = named_class("P3")
    refined = product_fleischmann(p3, p3, e4_poset)
    for cls, classes in refined.items():
        for cc in classes:
            assert canonicalize_bits(cc.a_only | cc.b_only | cc.shared) == cls


def test_mtransform_route_examples(e3_poset, e4_poset, e4_matrix):
    k2, p3 = named_class("K2"), named_class("P3")
    e3 = build_mtransform(e3_poset)
    comb = product_mtransform(k2, k2, e3_poset, e3)
    assert [comb.coefficient(m) for m in e3_poset.members] == [0, 1, 2, 0]
    comb4 = product_mtransform(p3, p3, e4_poset, e4_matrix)
    assert comb4.coefficient(named_class("C4")) == 4
    assert comb4.coefficient(named_class("paw")) == 4


def test_e_recovery(e3_poset, e4_poset, e4_matrix):
    # the transform is recoverable from the structure constants: c_(ij)^i = e_ij
    e3 = build_mtransform(e3_poset)
    for p, e in ((e3_poset, e3), (e4_poset, e4_matrix)):
        for i, gi in enumerate(p.members):
            for j, gj in enumerate(p.members):
                comb = product_kocay(gi, gj, p)
                assert comb.coefficient(gi) == e.data[i][j]


def test_three_way_agreement_e3(e3_poset):
    e3 = build_mtransform(e3_poset)
    for a, b in combinations_with_replacement(e3_poset.members, 2):
        kocay = product_kocay(a, b, e3_poset)
        assert kocay == fleischmann_totals(product_fleischmann(a, b, e3_poset, cross_check_n=3))
        assert kocay == product_mtransform(a, b, e3_poset, e3)


def test_general_product_examples():
    k2, p3 = named_class("K2"), named_class("P3")
    assert _named(general_product(k2, p3)) == {
        "P3": 2, "P4": 2, "K3": 3, "K1,3": 3, "P3+K2": 1,
    }
    assert _named(general_product(k2, k2)) == {"K2": 1, "P3": 2, "2K2": 2}
    a = named_class("paw")
    assert general_product(EMPTY_CLASS, a).terms == {a: 1}


def test_general_product_is_general(e5_poset):
    rng = random.Random(99)
    k2, p3 = named_class("K2"), named_class("P3")
    comb = general_product(k2, p3)
    hosts = list(e5_poset.members) + [random_labeled_graph(rng, rng.randint(1, 8)) for _ in range(50)]
    assert verify_product_identity(k2, p3, comb, hosts)


def test_general_flag(e4_poset, e5_poset):
    k2, p3 = named_class("K2"), named_class("P3")
    assert not is_general_identity(p3, p3, e4_poset)  # 6 supported vertices > 4
    assert is_general_identity(k2, p3, e5_poset)


def test_union_distribution_consistency(e4_poset):
    # dual route: placement distribution rescaled by stabilizers equals pair counting
    import math

    k2, p3 = named_class("K2"), named_class("P3")
    m = 5
    dist = union_class_distribution(k2, p3, m)
    stab_a = math.factorial(m - 2) * 2
    for cls, places in dist.items():
        stab_u = math.factorial(m - cls.cv) * cls.aut_support
        pairs = product_kocay(k2, p3, build_full_poset(5)).coefficient(cls)
        assert places * stab_u == pairs * stab_a


def test_evaluation_soundness(e3_poset, e5_poset):
    for a, b in combinations_with_replacement(e3_poset.members, 2):
        comb = general_product(a, b)
        for host in e5_poset.members:
            lhs = count_subgraphs(a, host) * count_subgraphs(b, host)
            assert comb.evaluate(host) == lhs


def test_abstract_worked_identity():
    # reported counts for an unavailable 9-edge graph; the 5-term identity with
    # the coefficients from the general product must balance arithmetically
    k2, p3 = named_class("K2"), named_class("P3")
    comb = general_product(k2, p3)
    vals = {
        "P3": 15, "P4": 16, "K1,3": 4, "K3": 3, "P3+K2": 52,
    }
    rhs = sum(v * vals[k] for k, v in _named(comb).items())
    assert 9 * 15 == rhs


def test_express_invariant_examples(e3_poset, e4_poset, e4_matrix):
    e3 = build_mtransform(e3_poset)
    ones = express_invariant([1, 1, 1, 1], e3_poset, e3)
    assert ones.terms == {EMPTY_CLASS: 1}
    squares = express_invariant([0, 1, 4, 9], e3_poset, e3)
    assert [squares.coefficient(m) for m in e3_poset.members] == [0, 1, 2, 0]
    comps = express_invariant([0, 1, 1, 1], e3_poset, e3)
    for pos, host in enumerate(e3_poset.members):
        assert comps.evaluate(host) == [0, 1, 1, 1][pos]
    ones4 = express_invariant([1] * 11, e4_poset, e4_matrix)
    assert ones4.terms == {EMPTY_CLASS: 1}


def test_degree_sum_identity(e4_poset, e4_matrix):
    k2, p3 = named_class("K2"), named_class("P3")
    rep = degree_sum_identity_check(k2, 1, e4_poset, e4_matrix)
    assert rep["holds"]
    assert _named(rep["rhs"]) == {"K2": 1, "2K2": 2, "P3": 2}
    rep3 = degree_sum_identity_check(p3, 1, e4_poset, e4_matrix)
    assert rep3["holds"]
    assert _named(rep3["rhs"]) == {"P3": 2, "P4": 2, "K3": 3, "K1,3": 3}
    for big_d in (1, 2, 3):
        rep0 = degree_sum_identity_check(EMPTY_CLASS, big_d, e4_poset, e4_matrix)
        assert rep0["holds"]
    rep2 = degree_sum_identity_check(p3, 2, e4_poset, e4_matrix)
    assert rep2["holds"]


def test_degree_sum_identity_past_the_ambient_edge_count(e4_poset, e4_matrix):
    # unions of more than C(4, 2) = 6 edges cannot occur in E(4), so every
    # member is checkable; a poset cut below the realizable degree refuses
    for g in e4_poset.members:
        for big_d in (1, 2, 3):
            assert degree_sum_identity_check(g, big_d, e4_poset, e4_matrix)["holds"]
    p = build_full_poset(4, max_degree=4)
    with pytest.raises(PosetError):
        degree_sum_identity_check(named_class("C4"), 1, p, build_mtransform(p))


def test_lincomb_arithmetic():
    k2, p3 = named_class("K2"), named_class("P3")
    a = LinComb.from_terms({k2: 1, p3: Fraction(1, 2)})
    b = LinComb.from_terms({p3: Fraction(-1, 2)})
    assert (a + b).terms == {k2: 1}
    assert LinComb.from_terms({k2: 0}).terms == {}
    obj = a.to_json_obj()
    assert obj[0]["coeff"] == 1 and obj[1]["coeff"] == "1/2"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.randoms(use_true_random=False))
def test_general_product_commutes(na, nb, rnd):
    a = canonicalize(random_labeled_graph(rnd, na))
    b = canonicalize(random_labeled_graph(rnd, nb))
    assert general_product(a, b) == general_product(b, a)


def test_copy_lists_are_shared_tuples():
    p3 = named_class("P3")
    copies = _distinct_copies(p3, 5)
    assert isinstance(copies, tuple) and copies is _distinct_copies(p3, 5)
    assert _distinct_copies.cache_parameters()["maxsize"] is not None
    assert list(copies) == sorted(set(copies)) and len(copies) == 5 * 4 * 3 // 2
    assert all(canonicalize_bits(bits) == p3 for bits in copies)
