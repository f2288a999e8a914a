"""Exponent-vector monomials under a permutation group: combinatorial invariants,
orbit sums, binomial transforms, general transform matrices.

The invariant I(m)(w) is the Hasse-derivative operator of the orbit sum of m
evaluated at the all-ones point, which closes to
    sum over distinct orbit elements m' of prod_i C(w_i, m'_i).
For 0/1 exponents this is exactly subgraph counting, and a tiny polynomial
calculus implements the derivative route independently as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _product

from .errors import CapError, PreconditionError
from .mtransform import IntMatrix, inverse_mtransform
from .perm import PermGroup

MEMBER_CAP = 100_000


def degree(m) -> int:
    return sum(m)


def orbit(m, group: PermGroup) -> list[tuple[int, ...]]:
    """Distinct images of an exponent vector under the group, sorted."""
    m = tuple(m)
    if len(m) != group.n:
        raise PreconditionError(f"monomial length {len(m)} != group degree {group.n}")
    seen = set()
    for p in group.elements:
        img = [0] * group.n
        for pos in range(group.n):
            img[p.images[pos]] = m[pos]
        seen.add(tuple(img))
    return sorted(seen)


def multiset_invariant(m, w, group: PermGroup) -> int:
    """I(m)(w) = sum over the orbit of m of prod_i C(w_i, m'_i)."""
    m, w = tuple(m), tuple(w)
    if len(m) != len(w):
        raise PreconditionError("monomial lengths differ")
    if any(x < 0 for x in m) or any(x < 0 for x in w):
        raise PreconditionError("exponents must be nonnegative")
    total = 0
    for mm in orbit(m, group):
        term = 1
        for wi, mi in zip(w, mm):
            term *= math.comb(wi, mi)
            if not term:
                break
        total += term
    return total


def orbit_sum_value(a, b, group: PermGroup) -> int:
    """The orbit sum of the monomial a evaluated at the point b (0^0 = 1)."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise PreconditionError("monomial lengths differ")
    total = 0
    for aa in orbit(a, group):
        term = 1
        for bi, ai in zip(b, aa):
            term *= bi**ai
        total += term
    return total


def binomial_transform_coeffs(a: int, k_max: int) -> list[int]:
    """c_k = sum_j (-1)^(k-j) C(k,j) j^a, so that sum_k c_k C(b,k) = b^a."""
    if a < 0 or k_max < 0:
        raise PreconditionError("need a >= 0 and k_max >= 0")
    out = []
    for k in range(k_max + 1):
        acc = 0
        for j in range(k + 1):
            term = math.comb(k, j) * j**a
            acc += term if (k - j) % 2 == 0 else -term
        out.append(acc)
    return out


# ── posets of orbit classes ──────────────────────────────────────────────

def _order_key(m) -> tuple:
    """Degree-major, then the reversed exponent tuple ascending (colex)."""
    return (degree(m), tuple(reversed(m)))


@dataclass(frozen=True)
class MultisetPoset:
    """Orbit representatives of {0..cap}^N under a group, in transform order."""

    group: PermGroup
    cap: int
    members: tuple

    def degrees(self) -> tuple[int, ...]:
        return tuple(degree(m) for m in self.members)


def build_multiset_poset(group: PermGroup, cap: int, include_empty: bool = True) -> MultisetPoset:
    if cap < 0:
        raise PreconditionError("cap must be nonnegative")
    n = group.n
    if (cap + 1) ** n > 10 * MEMBER_CAP:
        raise CapError("exponent grid too large")
    reps = set()
    for vec in _product(range(cap + 1), repeat=n):
        if not include_empty and degree(vec) == 0:
            continue
        reps.add(min(orbit(vec, group), key=_order_key))
    members = tuple(sorted(reps, key=_order_key))
    if len(members) > MEMBER_CAP:
        raise CapError(f"poset exceeds member cap of {MEMBER_CAP}")
    return MultisetPoset(group, cap, members)


def build_general_mtransform(p: MultisetPoset) -> IntMatrix:
    """Entry (i, j) = I(m_j)(m_i); lower unitriangular in poset order."""
    return IntMatrix.from_rows(
        [
            [multiset_invariant(mj, mi, p.group) for mj in p.members]
            for mi in p.members
        ]
    )


def express_orbit_sum(a, p: MultisetPoset) -> list:
    """Coefficients c with sum_k c_k I(m_k) identical to the orbit sum of a
    on the whole grid {0..cap}^N; found as c = E^-1 values, E^-1 the
    closed-form inverse, which holds on every orbit transform."""
    a = tuple(a)
    if max(a, default=0) > p.cap:
        raise CapError(f"exponent {max(a)} exceeds poset cap {p.cap}")
    if len(a) != p.group.n:
        raise PreconditionError("monomial length != number of positions")
    inv = inverse_mtransform(build_general_mtransform(p), p.degrees())
    values = [orbit_sum_value(a, m, p.group) for m in p.members]
    return [sum(x * values[j] for j, x in inv.row(i).items()) for i in range(inv.rows)]


def verify_orbit_sum_expression(a, p: MultisetPoset, coeffs) -> bool:
    """Exhaustively compare the expression with the orbit sum on the full grid."""
    for w in _product(range(p.cap + 1), repeat=p.group.n):
        want = orbit_sum_value(a, w, p.group)
        got = sum(
            c * multiset_invariant(m, w, p.group) for c, m in zip(coeffs, p.members) if c
        )
        if got != want:
            return False
    return True


def literal_binomial_product_coeffs(a, k_vec) -> int:
    """Coefficient prod_h c^(a_h)_(k_h) of the coordinate-wise binomial-transform
    product; correct termwise over the trivial group, over-counts classes with
    symmetric exponent patterns under larger groups (kept for the record)."""
    coeff = 1
    for ah, kh in zip(a, k_vec):
        coeff *= binomial_transform_coeffs(ah, kh)[kh]
        if not coeff:
            return 0
    return coeff


# ── independent oracle: Hasse derivatives in a tiny polynomial calculus ───

def _hasse_derivative(poly: dict, pos: int, k: int) -> dict:
    """k-th Hasse derivative in coordinate pos of a {exponents: coeff} polynomial."""
    out: dict = {}
    for exps, coeff in poly.items():
        if exps[pos] < k:
            continue
        new = list(exps)
        new[pos] = exps[pos] - k
        new_t = tuple(new)
        out[new_t] = out.get(new_t, 0) + coeff * math.comb(exps[pos], k)
    return out


def hasse_derivative_value(m, w, group: PermGroup) -> int:
    """I(m)(w) via the differential-operator route: apply, per orbit element,
    the product of per-coordinate Hasse derivatives to the monomial w, then
    evaluate at the all-ones point."""
    m, w = tuple(m), tuple(w)
    total = 0
    for mm in orbit(m, group):
        poly = {w: 1}
        for pos, k in enumerate(mm):
            if k:
                poly = _hasse_derivative(poly, pos, k)
            if not poly:
                break
        total += sum(poly.values())  # evaluation at x = 1
    return total
