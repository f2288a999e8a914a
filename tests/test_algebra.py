import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.algebra import (
    ColoringClass,
    LinComb,
    _distinct_copies,
    covering_pairs,
    fleischmann_totals,
    general_product,
    is_general_identity,
    product_fleischmann,
    product_kocay,
    product_mtransform,
    express_invariant,
    degree_sum_identity_check,
    union_class_distribution,
    union_classes,
    verify_product_identity,
)
from graphinv.errors import PosetError
from graphinv.graph import (
    EMPTY_CLASS,
    canonicalize,
    canonicalize_bits,
    count_subgraphs,
    permute_bits,
    support_automorphisms,
)
from graphinv.mtransform import IntMatrix, build_mtransform
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


def _fleischmann_per_pair(a, b, poset):
    """Reference: every covering pair grouped by the least image of its own
    colour triple under the union's automorphisms, orbits listed by key."""
    result = {}
    for cls in union_classes(a, b, min(a.cv + b.cv, poset.ambient_n)):
        pairs = covering_pairs(a, b, cls)
        if not pairs:
            continue
        orbits = {}
        for c_bits, d_bits in pairs:
            coloring = (c_bits & ~d_bits, d_bits & ~c_bits, c_bits & d_bits)
            key = min(tuple(permute_bits(x, p) for x in coloring) for p in support_automorphisms(cls))
            orbits.setdefault(key, []).append(coloring)
        result[cls] = tuple(ColoringClass(cls, *key, len(orbits[key])) for key in sorted(orbits))
    return result


def test_fleischmann_orbit_walk_matches_per_pair_grouping(e5_poset):
    low = [m for m in e5_poset.members if m.degree <= 2]
    for a in low:
        for b in low:
            got, want = product_fleischmann(a, b, e5_poset), _fleischmann_per_pair(a, b, e5_poset)
            assert got == want and list(got) == list(want)
    p3, k3 = named_class("P3"), named_class("K3")
    for a, b in ((p3, p3), (p3, k3), (named_class("2K2"), p3)):
        assert product_fleischmann(a, b, e5_poset, cross_check_n=5) == _fleischmann_per_pair(a, b, e5_poset)


def test_fleischmann_orbit_walk_matches_per_pair_grouping_on_e6_sample():
    e6 = build_full_poset(6)
    rng = random.Random(606)
    low = [m for m in e6.members if 1 <= m.degree <= 3]
    for _ in range(30):
        a, b = rng.choice(low), rng.choice(low)
        got, want = product_fleischmann(a, b, e6), _fleischmann_per_pair(a, b, e6)
        assert got == want and list(got) == list(want)
        assert fleischmann_totals(got) == product_kocay(a, b, e6)


def test_mtransform_route_examples(e3_poset, e4_poset, e4_matrix):
    k2, p3 = named_class("K2"), named_class("P3")
    e3 = build_mtransform(e3_poset)
    comb = product_mtransform(k2, k2, e3_poset, e3)
    assert [comb.coefficient(m) for m in e3_poset.members] == [0, 1, 2, 0]
    comb4 = product_mtransform(p3, p3, e4_poset, e4_matrix)
    assert comb4.coefficient(named_class("C4")) == 4
    assert comb4.coefficient(named_class("paw")) == 4


def _triple_sum(a, b, poset, matrix):
    """The closed-form route the block solve replaced, kept as its reference:
    c_k = sum_h (-1)^(|g_k|-|g_h|) e_kh e_ha e_hb over every row of the transform."""
    col_a = matrix.column(poset.position(a))
    col_b = matrix.column(poset.position(b))
    pairs = {h: e * col_b[h] for h, e in col_a.items() if h in col_b}
    degs = poset.degrees()
    terms = {}
    for k, member in enumerate(poset.members):
        terms[member] = sum(
            (-1) ** (degs[k] - degs[h]) * e_kh * pairs[h] for h, e_kh in matrix.row(k).items() if h in pairs
        )
    return LinComb.from_terms(terms)


def test_block_solve_equals_the_triple_sum_on_all_e4_pairs(e4_poset, e4_matrix):
    for a, b in combinations_with_replacement(e4_poset.members, 2):
        assert product_mtransform(a, b, e4_poset, e4_matrix) == _triple_sum(a, b, e4_poset, e4_matrix)


@pytest.mark.parametrize("n, seed", [(5, 55), (6, 66)])
def test_block_solve_equals_the_triple_sum_on_seeded_pairs(n, seed):
    p = build_full_poset(n)
    e = build_mtransform(p)
    rng = random.Random(seed)
    for _ in range(25):
        a, b = rng.choice(p.members), rng.choice(p.members)
        assert product_mtransform(a, b, p, e) == _triple_sum(a, b, p, e)


@pytest.mark.parametrize("n, d", [(5, 3), (5, 6), (6, 4), (6, 5)])
def test_block_solve_on_truncated_posets(n, d):
    """On E(n, d) every pair with |a| + |b| <= d gives the triple sum of that
    poset and the product inside the full E(n)."""
    p = build_full_poset(n, d)
    e = build_mtransform(p)
    full = build_full_poset(n)
    for a, b in combinations_with_replacement(p.members, 2):
        if a.degree + b.degree > d:
            with pytest.raises(PosetError):
                product_mtransform(a, b, p, e)
            continue
        comb = product_mtransform(a, b, p, e)
        assert comb == _triple_sum(a, b, p, e)
        assert comb == product_kocay(a, b, full)


def test_block_solve_proves_its_answer_for_the_matrix_given(e5_poset):
    """The solve proves E c = v for the matrix it is handed, not that the matrix
    is a transform (`check_transform_rows` and the other routes guard that).
    A +1 on the K3 entry of the paw row breaks the closed form on the
    degree-4 block that P3 * P3 reads, so that proof fails."""
    e = build_mtransform(e5_poset)
    p3 = named_class("P3")
    paw, k3 = e5_poset.position(named_class("paw")), e5_poset.position(named_class("K3"))
    rows = list(e.nonzeros)
    rows[paw] = {**rows[paw], k3: rows[paw].get(k3, 0) + 1}
    with pytest.raises(AssertionError):
        product_mtransform(p3, p3, e5_poset, IntMatrix(rows, e.cols))


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
