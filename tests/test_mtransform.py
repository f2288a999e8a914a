import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import mtransform
from graphinv.errors import CapError, PosetError, PreconditionError
from graphinv.graph import complement, count_subgraphs, count_subgraphs_injective
from graphinv.mtransform import (
    IntMatrix,
    _exact_field_quotient,
    _high_bits,
    _mtransform_by_subsets,
    build_mtransform,
    cached_mtransform,
    check_transform_rows,
    complement_class,
    complement_invariant_expansion,
    exact_rank,
    find_orderings_matching,
    minor_by_degree,
    mnukhin_power,
    inverse_mtransform,
    solve_upper_half,
    subset_inclusion_minor,
    subset_minor_blocks,
    unitriangular_inverse,
)
from graphinv.poset import (
    GPoset,
    build_full_poset,
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
        e = build_mtransform(p)
        assert e.rows == e.cols
        assert all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(e.data))


def test_cover_recursion_matches_subset_oracle_on_full_posets():
    for p in [build_full_poset(n) for n in range(2, 7)] + [build_full_poset(7, max_degree=7)]:
        assert build_mtransform(p) == _mtransform_by_subsets(p)


def _not_down_closed(names, n, max_degree, complete):
    """A hand-built poset whose members are not closed under edge deletion."""
    members = tuple(sorted((named_class(x) for x in names), key=lambda c: c.sort_key))
    return GPoset(members, n, max_degree, complete, {m.bits: pos for pos, m in enumerate(members)})


def test_cover_recursion_matches_subset_oracle_on_spans():
    # E(2d, d) is the span of the connected classes of degree <= d
    for p in [build_full_poset(2 * d, d) for d in (1, 2, 3)] + [build_full_poset(6, 8)]:
        assert build_mtransform(p) == _mtransform_by_subsets(p)


def test_cover_recursion_ignores_a_forged_complete_flag():
    # deleting an edge of the triangle leaves the 2-edge path, not a member
    p = _not_down_closed(("empty", "K3"), 3, 3, complete=True)
    with pytest.raises(AssertionError):
        poset_from_sidecar(poset_sidecar(p), 3)


def test_cover_recursion_refuses_a_poset_that_is_not_down_closed():
    with pytest.raises(PosetError):
        build_mtransform(_not_down_closed(("empty", "K3"), 3, 3, complete=True))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=15))
def test_cover_recursion_property_on_random_spans(n, max_degree):
    # E(n, d), the span of the connected classes truncated to n vertices and d edges;
    # d <= 8 at n = 6 keeps the subset oracle near 0.06 s
    p = build_full_poset(n, min(max_degree, 8) if n == 6 else max_degree)
    e = build_mtransform(p)
    assert all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(e.data))
    assert e == _mtransform_by_subsets(p)


@pytest.fixture(scope="module")
def e7():
    p = build_full_poset(7)
    return p, build_mtransform(p)


def test_e7_entries_against_injection_oracle(e7):
    p, e = e7
    check_transform_rows(e, p.degrees())  # 32-bit fields: entries up to C(21, 10)
    rng = random.Random(7)
    members = p.members
    for _ in range(40):
        i, j = rng.randrange(len(p)), rng.randrange(len(p))
        assert e.data[i][j] == count_subgraphs_injective(members[j], members[i])


def test_exact_field_quotient_needs_every_field_to_divide():
    high = _high_bits(8, 7, 2)  # quotient fields must stay under 2^7
    assert _exact_field_quotient(4 + (6 << 8), 2, high) == 2 + (3 << 8)
    # fields [2, 1] over 2: the whole divides, to fields [1 + 2^7, 0], because
    # the odd high field carries into the high bit of the low one
    with pytest.raises(AssertionError):
        _exact_field_quotient(2 + (1 << 8), 2, high)
    with pytest.raises(AssertionError):
        _exact_field_quotient(3, 2, high)


def test_cached_mtransform_without_a_cache_dir_still_checks_rows(monkeypatch, e4_poset, e4_matrix):
    assert cached_mtransform(e4_poset, None) == e4_matrix
    forged = IntMatrix([*e4_matrix.nonzeros[:-1], {**e4_matrix.row(10), 0: 2}], e4_matrix.cols)
    monkeypatch.setattr(mtransform, "build_mtransform", lambda p: forged)
    with pytest.raises(AssertionError):
        cached_mtransform(e4_poset, None)


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
    p = _not_down_closed(("empty", "K3"), 3, 3, complete=False)
    e = _mtransform_by_subsets(p)
    with pytest.raises(PosetError):
        mnukhin_power(e, p.degrees(), -1, complete=p.complete)


def test_inverse_cross_assertion(e4_poset, e4_matrix):
    inv = inverse_mtransform(e4_matrix, e4_poset.degrees(), complete=True)
    assert inv == unitriangular_inverse(e4_matrix)


def test_complete_inverse_is_checked_without_elimination(monkeypatch, e4_poset, e4_matrix):
    degs = e4_poset.degrees()
    inv = unitriangular_inverse(e4_matrix)

    def no_elimination(matrix):
        raise AssertionError("elimination ran on a complete poset")

    monkeypatch.setattr(mtransform, "unitriangular_inverse", no_elimination)
    assert inverse_mtransform(e4_matrix, degs, complete=True) == inv

    def one_entry_wrong(matrix, degrees, k, complete=True):
        closed = mnukhin_power(matrix, degrees, k, complete)
        rows = list(closed.nonzeros)
        rows[-1] = {**rows[-1], 3: rows[-1].get(3, 0) + 1}
        return IntMatrix(rows, closed.cols)

    monkeypatch.setattr(mtransform, "mnukhin_power", one_entry_wrong)
    with pytest.raises(AssertionError):
        inverse_mtransform(e4_matrix, degs, complete=True)

    # row 1 of E C is 3 + 253 = 2^8 = the unit row in 8-bit fields: too narrow a field would accept it
    monkeypatch.setattr(mtransform, "mnukhin_power", lambda *args, **kw: IntMatrix([{0: 1}, {0: 253}], 2))
    with pytest.raises(AssertionError):
        inverse_mtransform(IntMatrix.from_rows([[1, 0], [3, 1]]), (0, 1), complete=True)


def test_inverse_check_derives_its_field_width(e7):
    # product entries up to 2^80: no fixed field width would hold them
    m = IntMatrix.from_rows([[1, 0], [2**40, 1]])
    assert inverse_mtransform(m, (0, 1), complete=True) == unitriangular_inverse(m)
    # up to 2^21 * C(21, 10) on E(7), over 2^39
    p, e = e7
    assert inverse_mtransform(e, p.degrees(), complete=True) == mnukhin_power(e, p.degrees(), -1)
    p = build_full_poset(7, 10)
    e = build_mtransform(p)
    assert inverse_mtransform(e, p.degrees(), complete=True) == unitriangular_inverse(e)


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
        assert exact_rank(IntMatrix.from_rows(rows)) == _rank_oracle(rows)
    for _ in range(100):  # mostly zeros, as in the transform minors
        width = rng.randint(1, 8)
        rows = [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(width)] for _ in range(rng.randint(1, 8))]
        assert exact_rank(IntMatrix.from_rows(rows)) == _rank_oracle(rows)


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


def _stores_no_zero(m: IntMatrix) -> bool:
    return all(0 not in m.row(i).values() for i in range(m.rows))


def test_the_compute_path_never_densifies(monkeypatch, tmp_path):
    from graphinv.algebra import (
        LinComb, degree_sum_identity_check, express_invariant, product_kocay, product_mtransform,
    )
    from graphinv.cli import _transform_for
    from graphinv.generators import half_degree_system_check, inseparable_pair

    p4, p6 = build_full_poset(4), build_full_poset(6)

    def dense_view(self):
        raise AssertionError("a computation read the dense view")

    monkeypatch.setattr(IntMatrix, "data", property(dense_view))
    e6 = build_mtransform(p6)
    degs = p6.degrees()
    inv = inverse_mtransform(e6, degs, complete=True)
    assert e6 @ inv == IntMatrix.identity(len(p6))
    k2, p3 = named_class("K2"), named_class("P3")
    assert product_mtransform(k2, p3, p6, e6) == product_kocay(k2, p3, p6)
    assert express_invariant([m.degree for m in p6.members], p6, e6) == LinComb.from_terms({k2: 1})
    minors = [minor_by_degree(e6, degs, delta, big) for delta in range(16) for big in range(delta, 16)]
    assert all(exact_rank(m) == min(m.rows, m.cols) for m in minors)
    e4 = build_mtransform(p4)
    assert all(degree_sum_identity_check(g, 2, p4, e4)["holds"] for g in p4.members)
    inseparable_pair(3)
    assert half_degree_system_check(4)["ok"]
    for _pass in ("built", "loaded"):
        assert _transform_for(6, None, str(tmp_path))[1] == e6
    for m in (e6, inv, e4, *minors, mnukhin_power(e6, degs, 0), e6 @ inv):
        assert _stores_no_zero(m)


def test_a_minor_without_rows_has_no_columns(e4_poset, e4_matrix):
    m = minor_by_degree(e4_matrix, e4_poset.degrees(), 3, 11)
    assert (m.rows, m.cols, m.data, exact_rank(m)) == (0, 0, (), 0)
    assert m == IntMatrix.from_rows([])
