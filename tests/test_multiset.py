import random
from itertools import product

import pytest

from graphinv.errors import CapError, PreconditionError
from graphinv.mtransform import IntMatrix, build_mtransform, mnukhin_power, unitriangular_inverse
from graphinv.multiset import (
    _order_key,
    binomial_transform_coeffs,
    build_general_mtransform,
    build_multiset_poset,
    express_orbit_sum,
    hasse_derivative_value,
    literal_binomial_product_coeffs,
    multiset_invariant,
    orbit,
    orbit_sum_value,
    verify_orbit_sum_expression,
)
from graphinv.perm import Permutation, close_generators, pair_group, symmetric_group, trivial_group
from graphinv.poset import build_full_poset

S2 = symmetric_group(2)


def _position(p, m) -> int:
    """Index in p of the orbit representative of the monomial m."""
    return {member: pos for pos, member in enumerate(p.members)}[min(orbit(m, p.group), key=_order_key)]


def test_worked_invariant_values():
    assert multiset_invariant((1, 2), (1, 2), S2) == 1
    assert multiset_invariant((1, 2), (2, 2), S2) == 4


def test_orbit_sum_values():
    assert orbit_sum_value((1, 0), (3, 5), S2) == 8
    assert orbit_sum_value((2, 1), (2, 2), S2) == 16
    assert orbit_sum_value((0, 0), (7, 9), S2) == 1


def test_multilinear_coincidence_random():
    rng = random.Random(2024)
    groups = [trivial_group(3), symmetric_group(3), S2]
    for _ in range(200):
        g = rng.choice(groups)
        m = tuple(rng.randint(0, 1) for _ in range(g.n))
        w = tuple(rng.randint(0, 3) for _ in range(g.n))
        assert multiset_invariant(m, w, g) == orbit_sum_value(m, w, g)


def test_binomial_transform_examples():
    assert binomial_transform_coeffs(2, 4) == [0, 1, 2, 0, 0]
    assert binomial_transform_coeffs(1, 3) == [0, 1, 0, 0]
    assert binomial_transform_coeffs(0, 3) == [1, 0, 0, 0]


def test_binomial_transform_identity():
    import math

    for a in range(5):
        coeffs = binomial_transform_coeffs(a, 8)
        for b in range(9):
            assert sum(c * math.comb(b, k) for k, c in enumerate(coeffs)) == b**a


def test_trivial_group_matrix_is_printed_7x7():
    p = build_multiset_poset(trivial_group(3), 1, include_empty=False)
    assert p.members == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
    assert build_general_mtransform(p).to_lists() == [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0],
        [1, 0, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 1, 1, 1],
    ]


def test_two_symbol_matrix_is_printed_5x5():
    g = close_generators(3, [Permutation((1, 0, 2))])
    p = build_multiset_poset(g, 1, include_empty=False)
    assert build_general_mtransform(p).to_lists() == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [2, 0, 1, 0, 0],
        [1, 1, 0, 1, 0],
        [2, 1, 1, 2, 1],
    ]


def test_pair_group_reproduces_graph_transform():
    for n in (3, 4):
        mp = build_multiset_poset(pair_group(n), 1)
        gm = build_general_mtransform(mp)
        assert gm == build_mtransform(build_full_poset(n))


def test_general_mtransform_unitriangular():
    for group in (trivial_group(3), S2, symmetric_group(3)):
        e = build_general_mtransform(build_multiset_poset(group, 2))
        assert e.rows == e.cols
        assert all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(e.data))


def test_mnukhin_on_multilinear_posets():
    p = build_multiset_poset(trivial_group(3), 1, include_empty=False)
    e = build_general_mtransform(p)
    degs = p.degrees()
    for k in (0, 1, 2, 3):
        assert mnukhin_power(e, degs, k) == e.power(k)
    assert mnukhin_power(e, degs, -1) @ e == IntMatrix.identity(7)


def test_closed_form_inverse_on_orbit_transforms():
    # E is the tensor Pascal matrix on orbit sums, so E^-1 = (-1)^(|w| - |m|) E off the multilinear case too
    for positions in (2, 3, 4):
        cycle = Permutation(tuple((i + 1) % positions for i in range(positions)))
        groups = (trivial_group(positions), symmetric_group(positions), close_generators(positions, [cycle]))
        for group, cap, include_empty in product(groups, (2, 3), (True, False)):
            p = build_multiset_poset(group, cap, include_empty)
            e = build_general_mtransform(p)
            assert mnukhin_power(e, p.degrees(), -1) == unitriangular_inverse(e), (positions, cap, include_empty)


def test_express_orbit_sum_multilinear_is_indicator():
    p = build_multiset_poset(symmetric_group(3), 1)
    a = (1, 1, 0)
    coeffs = express_orbit_sum(a, p)
    hits = {m: c for m, c in zip(p.members, coeffs) if c}
    assert hits == {min(orbit(a, p.group), key=lambda t: (sum(t), tuple(reversed(t)))): 1}


def test_express_orbit_sum_square():
    p = build_multiset_poset(trivial_group(2), 2)
    coeffs = express_orbit_sum((2, 0), p)
    hits = {m: c for m, c in zip(p.members, coeffs) if c}
    assert hits == {(1, 0): 1, (2, 0): 2}
    assert verify_orbit_sum_expression((2, 0), p, coeffs)


def test_express_orbit_sum_symmetric_square_grid():
    p = build_multiset_poset(S2, 2)
    coeffs = express_orbit_sum((2, 2), p)
    assert verify_orbit_sum_expression((2, 2), p, coeffs)


def test_express_orbit_sum_cap_error():
    p = build_multiset_poset(S2, 1)
    with pytest.raises(CapError):
        express_orbit_sum((2, 0), p)


def test_literal_coordinatewise_coefficients_overcount_symmetric_patterns():
    # termwise binomial-transform products are exact over the trivial group but
    # over-count orbit classes with symmetric exponent patterns under S2
    a = (2, 2)
    p = build_multiset_poset(S2, 2)
    literal = [0] * len(p.members)
    for k_vec in product(range(3), repeat=2):
        c = literal_binomial_product_coeffs(a, k_vec)
        if c:
            literal[_position(p, k_vec)] += c
    assert not verify_orbit_sum_expression(a, p, literal)
    # while the trivial-group reading matches the solve exactly
    pt = build_multiset_poset(trivial_group(2), 2)
    literal_t = [0] * len(pt.members)
    for k_vec in product(range(3), repeat=2):
        c = literal_binomial_product_coeffs(a, k_vec)
        if c:
            literal_t[_position(pt, k_vec)] += c
    assert literal_t == express_orbit_sum(a, pt)
    assert verify_orbit_sum_expression(a, pt, literal_t)


def test_hasse_derivative_oracle_random():
    rng = random.Random(77)
    groups = [trivial_group(3), symmetric_group(3), S2]
    for _ in range(200):
        g = rng.choice(groups)
        m = tuple(rng.randint(0, 3) for _ in range(g.n))
        w = tuple(rng.randint(0, 3) for _ in range(g.n))
        assert hasse_derivative_value(m, w, g) == multiset_invariant(m, w, g)


def test_dimension_mismatch():
    with pytest.raises(PreconditionError):
        multiset_invariant((1, 0, 0), (1, 1), S2)
    with pytest.raises(PreconditionError):
        orbit_sum_value((1,), (1, 1), S2)
