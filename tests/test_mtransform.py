import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv.errors import CapError, PosetError, PreconditionError
from graphinv.graph import complement, count_subgraphs, count_subgraphs_injective
from graphinv.mtransform import (
    IntMatrix,
    _mtransform_by_subsets,
    build_mtransform,
    complement_class,
    complement_invariant_expansion,
    exact_rank,
    find_orderings_matching,
    is_lower_unitriangular,
    minor_by_degree,
    mnukhin_power,
    inverse_mtransform,
    solve_upper_half,
    subset_inclusion_minor,
    subset_minor_blocks,
    unitriangular_inverse,
)
from graphinv.poset import (
    build_full_poset,
    build_span_poset,
    poset_from_sidecar,
    poset_sidecar,
)
from graphinv.smallgraphs import named_class


def test_e3_matrix_frozen(e3_poset):
    assert build_mtransform(e3_poset).to_lists() == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 2, 1, 0],
        [1, 3, 3, 1],
    ]


def test_unitriangular(e3_poset, e4_poset, e5_poset):
    for p in (e3_poset, e4_poset, e5_poset):
        assert is_lower_unitriangular(build_mtransform(p))


def test_cover_recursion_matches_subset_oracle_on_full_posets():
    for p in [build_full_poset(n) for n in range(2, 7)] + [build_full_poset(7, max_degree=7)]:
        assert build_mtransform(p) == _mtransform_by_subsets(p)


# three spans that are not closed under edge deletion, then one that is
SPANS = ((("K3",), 6), (("P4", "K1,3"), 6), (("K3", "C4"), 7), (("K2", "P3"), 4))


def _span(names, max_degree):
    return build_span_poset([named_class(x) for x in names], max_degree)


def test_cover_recursion_matches_subset_oracle_on_spans():
    spans = [_span(*s) for s in SPANS]
    assert [p.complete for p in spans] == [False, False, False, True]
    for p in spans:
        assert build_mtransform(p) == _mtransform_by_subsets(p)


def test_cover_recursion_ignores_a_forged_complete_flag():
    p = _span(("K3",), 6)
    sidecar = poset_sidecar(p)
    sidecar["complete"] = True
    forged = poset_from_sidecar(sidecar)
    assert forged.complete and forged.members == p.members
    assert build_mtransform(forged) == _mtransform_by_subsets(p)


_E5_CONNECTED = sorted(build_full_poset(5).connected_members(), key=lambda c: c.sort_key)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from(_E5_CONNECTED), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=6),
)
def test_cover_recursion_property_on_random_spans(gens, max_degree):
    if named_class("K2") in gens:
        # keep supports at 9 or less: 5K2 has support 10, where canonical forms
        # take the slow permutation loop, and 6K2 exceeds the support cap
        max_degree = min(max_degree, 4)
    p = build_span_poset(gens, max_degree)
    e = build_mtransform(p)
    assert is_lower_unitriangular(e)
    assert e == _mtransform_by_subsets(p)


def test_e7_entries_against_injection_oracle():
    p = build_full_poset(7)
    e = build_mtransform(p)
    rng = random.Random(7)
    members = p.members
    for _ in range(40):
        i, j = rng.randrange(len(p)), rng.randrange(len(p))
        assert e.data[i][j] == count_subgraphs_injective(members[j], members[i])


def test_mnukhin_power_small(e3_poset):
    e = build_mtransform(e3_poset)
    degs = e3_poset.degrees()
    assert mnukhin_power(e, degs, 1) == e
    assert mnukhin_power(e, degs, 2) == e @ e
    assert mnukhin_power(e, degs, 0) == IntMatrix.identity(4)
    inv = mnukhin_power(e, degs, -1)
    assert inv @ e == IntMatrix.identity(4)
    assert e @ inv == IntMatrix.identity(4)


def test_mnukhin_requires_complete():
    p = build_span_poset([named_class("K3")], 3)
    e = build_mtransform(p)
    with pytest.raises(PosetError):
        mnukhin_power(e, p.degrees(), -1, complete=p.complete)


def test_inverse_cross_assertion(e4_poset, e4_matrix):
    inv = inverse_mtransform(e4_matrix, e4_poset.degrees(), complete=True)
    assert inv == unitriangular_inverse(e4_matrix)


def test_sparse_inverse_against_closed_form(e4_poset, e5_poset):
    p6 = build_full_poset(6)
    e6 = build_mtransform(p6)
    assert unitriangular_inverse(e6) == mnukhin_power(e6, p6.degrees(), -1)
    for p in (e4_poset, e5_poset):
        e = build_mtransform(p)
        assert e @ unitriangular_inverse(e) == IntMatrix.identity(len(p))


def test_complement_expansion_examples(e4_poset, e3_poset):
    k2, k3 = named_class("K2"), named_class("K3")
    comb = complement_invariant_expansion(k2, e4_poset, 4)
    assert comb.evaluate(k3) == 3
    comb3 = complement_invariant_expansion(k2, e3_poset, 3)
    assert comb3.evaluate(k3) == 0
    # entry quoted in the worked half-matrix example: count of one edge in the
    # 4-complement of the triangle's complement partner (the star)
    star = named_class("K1,3")
    assert comb.evaluate(star) == 3


def test_complement_expansion_total(e4_poset):
    # L(h) must equal the direct complement count for every member pair
    for g in e4_poset.members:
        comb = complement_invariant_expansion(g, e4_poset, 4)
        for h in e4_poset.members:
            assert comb.evaluate(h) == count_subgraphs(g, complement(h.rep(4), 4))


def test_complement_expansion_missing_class():
    p = build_full_poset(4, 1)
    with pytest.raises(PosetError):
        complement_invariant_expansion(named_class("K3"), p, 4)


def test_complement_pairing(e4_poset):
    assert complement_class(named_class("K3"), 4) == named_class("K1,3")
    assert complement_class(named_class("P4"), 4) == named_class("P4")
    assert complement_class(named_class("C4"), 4) == named_class("2K2")


def test_solve_upper_half_matches_direct(e4_poset, e4_matrix):
    assert solve_upper_half(e4_poset, 4) == e4_matrix
    e3p = build_full_poset(3)
    assert solve_upper_half(e3p, 3) == build_mtransform(e3p)
    e2p = build_full_poset(2)
    assert solve_upper_half(e2p, 2) == build_mtransform(e2p)


def test_solve_upper_half_with_withheld_middle_row(e4_poset, e4_matrix):
    # the worked example: everything of degree <= 3 known except the triangle
    # row, which is then recovered from its complement partner, the star
    got = solve_upper_half(e4_poset, 4, extra_unknown=[named_class("K3")])
    assert got == e4_matrix
    with pytest.raises(PosetError):
        # withholding both partners of a complement pair is unsolvable
        solve_upper_half(e4_poset, 4, extra_unknown=[named_class("K3"), named_class("K1,3")])


def test_solve_upper_half_with_withheld_low_rows(e5_poset):
    # a withheld row below the middle whose complement row contains it:
    # the diagonal term e_ii * e_{comp(i),i} enters the recursion
    e = build_mtransform(e5_poset)
    for d in (1, 2, 4):
        withheld = [m for m in e5_poset.members if m.degree == d]
        assert solve_upper_half(e5_poset, 5, known_degree_cap=10, extra_unknown=withheld) == e


def test_minor_examples(e4_poset, e4_matrix):
    degs = e4_poset.degrees()
    m = minor_by_degree(e4_matrix, degs, 2, 3)
    assert (m.rows, m.cols) == (3, 2)
    assert exact_rank(m) == 2
    sq = minor_by_degree(e4_matrix, degs, 2, 2)
    assert sq == IntMatrix.identity(2)
    assert exact_rank(sq) == 2
    tr = subset_inclusion_minor(4, 1, 2)
    assert (tr.rows, tr.cols) == (6, 4)
    assert exact_rank(tr) == 4


def test_minor_requires_order():
    with pytest.raises(PreconditionError):
        minor_by_degree(IntMatrix.identity(2), (0, 1), 1, 0)


def _rank_oracle(rows):
    # independent route: straightforward Gaussian elimination over Fractions
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def test_exact_rank_against_fraction_oracle():
    rng = random.Random(17)
    for _ in range(100):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 5))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert exact_rank(rows) == _rank_oracle(rows)


def test_block_recursion_bases():
    assert subset_minor_blocks(3, 2, 2) == IntMatrix.identity(3)
    assert subset_minor_blocks(3, 1, 3).to_lists() == [[1, 1, 1]]


def test_subset_minors_refuse_oversized_before_enumerating():
    # C(N, Delta) * C(N, delta) entries: 40 * C(40, 20) and C(20, 3)^2 are over 10^6
    for args in ((40, 1, 20), (20, 3, 3)):
        with pytest.raises(CapError):
            subset_inclusion_minor(*args)
        with pytest.raises(CapError):
            subset_minor_blocks(*args)


def test_ordering_search_identity(e3_poset):
    base = build_mtransform(e3_poset)
    matches = find_orderings_matching(e3_poset, base.to_lists())
    assert matches == [e3_poset.members]


def test_matrix_validation():
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(PreconditionError):
        IntMatrix.identity(2) @ IntMatrix.from_rows([[1, 2, 3]])
