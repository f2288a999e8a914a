"""Separator analysis, component reconstruction, inseparable pairs, relation checks.

A set of invariants separates a poset when the value vectors of the members
are pairwise distinct; for simple graphs this is also the complete test for
generation, so the search below reports separators and nothing weaker.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    connected_component_classes,
    count_subgraphs,
    disjoint_union,
    is_connected_class,
    MAX_SUPPORT,
)
from .mtransform import build_mtransform, exact_rank, inverse_mtransform
from .poset import GPoset, build_full_poset, build_span_poset

SEARCH_POOL_CAP = 20


@dataclass(frozen=True)
class SeparatorReport:
    is_separator: bool
    witness: tuple[IsoClass, IsoClass] | None

    def __post_init__(self) -> None:
        assert (self.witness is None) == self.is_separator


def invariant_vectors(invariants, poset: GPoset) -> list[tuple[int, ...]]:
    return [tuple(count_subgraphs(inv, m) for inv in invariants) for m in poset.members]


def is_separator(invariants, poset: GPoset) -> SeparatorReport:
    """Separator iff every member's value vector is distinct; first collision wins."""
    seen: dict[tuple[int, ...], IsoClass] = {}
    for member, vec in zip(poset.members, invariant_vectors(invariants, poset)):
        if vec in seen:
            return SeparatorReport(False, (seen[vec], member))
        seen[vec] = member
    return SeparatorReport(True, None)


def minimal_separators(poset: GPoset, pool=None, max_size: int | None = None):
    """Exhaustive search by increasing cardinality over the candidate pool
    (connected members by default); returns (size, all separator subsets of
    that size), or (None, ()) if nothing up to max_size separates."""
    candidates = tuple(pool) if pool is not None else poset.connected_members()
    if len(candidates) > SEARCH_POOL_CAP:
        raise CapError(f"candidate pool {len(candidates)} exceeds cap {SEARCH_POOL_CAP}")
    top = len(candidates) if max_size is None else min(max_size, len(candidates))
    for size in range(top + 1):
        found = [
            subset
            for subset in combinations(candidates, size)
            if is_separator(subset, poset).is_separator
        ]
        if found:
            return size, tuple(found)
    return None, ()


def reconstruct_components(host: IsoClass, connected_list) -> Counter:
    """Multiplicities of each connected class in host, recovered from invariant
    values alone: n_m = I(G_m)(host) - sum_{k>m} n_k I(G_m)(G_k), highest degree first."""
    glist = list(connected_list)
    for g in glist:
        if not is_connected_class(g):
            raise PreconditionError(f"{g.graph6!r} in the connected list is not connected")
    if any(glist[i].degree > glist[i + 1].degree for i in range(len(glist) - 1)):
        raise PreconditionError("connected list must be sorted by ascending degree")
    counts = [0] * len(glist)
    for m in range(len(glist) - 1, -1, -1):
        val = count_subgraphs(glist[m], host)
        for k in range(m + 1, len(glist)):
            if counts[k]:
                val -= counts[k] * count_subgraphs(glist[m], glist[k])
        if val < 0:
            raise PreconditionError(
                f"negative multiplicity for {glist[m].graph6!r}: connected list incomplete"
            )
        counts[m] = val
    return Counter({g: c for g, c in zip(glist, counts) if c})


# ── inseparable pairs ────────────────────────────────────────────────────

@dataclass(frozen=True)
class InseparablePair:
    """Two non-isomorphic graphs agreeing on every connected invariant of degree <= d.

    Components are kept as multisets of connected classes; the canonical
    classes T and U are materialized only when the support fits the
    canonical-form cap.
    """

    d: int
    generator: IsoClass
    poset: GPoset
    coefficients: tuple[int, ...]
    t_components: Counter
    u_components: Counter
    t_class: IsoClass | None
    u_class: IsoClass | None

    @property
    def degree(self) -> int:
        return sum(g.degree * k for g, k in self.t_components.items())

    @property
    def bound(self) -> int:
        return (self.d + 1) * (2**self.d - 1)


def _flatten_components(pieces: Counter) -> Counter:
    flat: Counter = Counter()
    for cls, mult in pieces.items():
        for comp, k in connected_component_classes(cls).items():
            flat[comp] += k * mult
    return flat


def _count_in_multiset(pattern: IsoClass, pieces: Counter) -> int:
    """Count of a connected pattern in a disjoint union given as a multiset."""
    return sum(mult * count_subgraphs(pattern, cls) for cls, mult in pieces.items())


def inseparable_pair(d: int, generator: IsoClass | None = None) -> InseparablePair:
    """Construct (T, U) from the signed solution of the triangular system of the
    span of all connected classes of degree <= d against a connected class of
    degree d+1."""
    if d < 1:
        raise PreconditionError("need d >= 1")
    if d > 4:
        raise CapError("inseparable-pair construction supported for d <= 4")
    gens = [
        c
        for c in build_full_poset(d + 1, d).connected_members()
    ]
    span = build_span_poset(gens, d)
    if generator is None:
        pool = build_full_poset(min(d + 2, 8), d + 1).connected_members()
        generator = min(
            (c for c in pool if c.degree == d + 1), key=lambda c: c.sort_key
        )
    else:
        if generator.degree != d + 1 or not is_connected_class(generator):
            raise PreconditionError("generator override must be connected of degree d+1")
    e = build_mtransform(span)
    inv = inverse_mtransform(e, span.degrees(), complete=span.complete)
    values = [count_subgraphs(g, generator) for g in span.members]
    coeffs = [
        sum(values[i] * inv.data[i][j] for i in range(len(span)))
        for j in range(len(span))
    ]
    t_parts: Counter = Counter()
    u_parts: Counter = Counter({generator: 1})
    for cls, c in zip(span.members, coeffs):
        if cls == EMPTY_CLASS or c == 0:
            continue
        if c > 0:
            t_parts[cls] += c
        else:
            u_parts[cls] += -c
    pair = _finalize_pair(d, generator, span, tuple(coeffs), t_parts, u_parts)
    return pair


def _finalize_pair(
    d: int, generator: IsoClass, span: GPoset, coeffs, t_parts: Counter, u_parts: Counter
) -> InseparablePair:
    t_flat = _flatten_components(t_parts)
    u_flat = _flatten_components(u_parts)
    deg_t = sum(g.degree * k for g, k in t_flat.items())
    deg_u = sum(g.degree * k for g, k in u_flat.items())
    bound = (d + 1) * (2**d - 1)
    if deg_t != deg_u:
        raise AssertionError(f"degree mismatch: |T| = {deg_t}, |U| = {deg_u}")
    if deg_t > bound:
        raise AssertionError(f"degree {deg_t} exceeds the bound {bound}")
    if t_flat == u_flat:
        raise AssertionError("T and U are isomorphic")
    for c in span.connected_members():
        if _count_in_multiset(c, t_parts) != _count_in_multiset(c, u_parts):
            raise AssertionError(f"T and U disagree on the connected invariant {c.graph6!r}")
    cv_t = sum(g.cv * k for g, k in t_flat.items())
    cv_u = sum(g.cv * k for g, k in u_flat.items())
    t_cls = disjoint_union(t_flat) if cv_t <= MAX_SUPPORT else None
    u_cls = disjoint_union(u_flat) if cv_u <= MAX_SUPPORT else None
    if t_cls is not None and u_cls is not None and t_cls == u_cls:
        raise AssertionError("materialized T and U are equal")
    return InseparablePair(
        d, generator, span, tuple(coeffs), t_flat, u_flat, t_cls, u_cls
    )


def signed_degree_sum(d: int) -> int:
    """S(d) = sum_{D=1..d} (-1)^D C(d, D-1) 2^(D-1); closed form (-1)^d (2^d - 1)."""
    acc = 0
    for big in range(1, d + 1):
        term = math.comb(d, big - 1) * 2 ** (big - 1)
        acc += term if big % 2 == 0 else -term
    return acc


# ── half-degree recovery system ──────────────────────────────────────────

def half_degree_system_check(n: int) -> dict:
    """Past half degree, degree-(d+1) invariant values are solvable from degree-d
    values through the edge-multiplication identity; checks exact solvability
    (full column rank) and the recovered values, member by member."""
    if n > 5:
        raise CapError("half-degree system check capped at n <= 5")
    poset = build_full_poset(n)
    e = build_mtransform(poset)
    degs = poset.degrees()
    nslots = n * (n - 1) // 2
    half = nslots // 2
    steps = []
    ok = True
    for d in range(half, nslots):
        eq_idx = [i for i, dd in enumerate(degs) if dd == d]
        unk_idx = [k for k, dd in enumerate(degs) if dd == d + 1]
        if not unk_idx:
            continue
        m_rows = [[e.data[k][i] for k in unk_idx] for i in eq_idx]
        rank = exact_rank(m_rows)
        full = rank == len(unk_idx)
        # with full column rank the solution is unique, so it must be the row itself
        recovered_ok = full and all(
            _solve(m_rows, [(host.degree - d) * e.data[pos][i] for i in eq_idx])
            == [e.data[pos][k] for k in unk_idx]
            for pos, host in enumerate(poset.members)
        )
        steps.append({"degree": d, "unknowns": len(unk_idx), "rank": rank, "full_rank": full,
                      "recovered": recovered_ok})
        ok = ok and full and recovered_ok
    return {"n": n, "ok": ok, "steps": steps}


# ── polynomial relations between invariants ──────────────────────────────

def evaluate_relation_at(terms, value_of) -> Fraction:
    """terms: iterable of (coeff, {IsoClass: power}); value_of maps class -> int."""
    total = Fraction(0)
    for coeff, mono in terms:
        prod = Fraction(coeff)
        for cls, power in mono.items():
            prod *= Fraction(value_of(cls)) ** power
        total += prod
    return total


def verify_relation(terms, poset: GPoset) -> dict:
    """Evaluate a polynomial-in-invariants identity (terms sum to zero) at every
    poset member; reports the first violating host."""
    for _coeff, mono in terms:
        for cls in mono:
            if cls not in poset:
                raise PosetError(f"unknown invariant {cls.graph6!r}")
    for host in poset.members:
        val = evaluate_relation_at(terms, lambda cls: count_subgraphs(cls, host))
        if val != 0:
            return {"holds": False, "first_violation": host, "value": val}
    return {"holds": True, "first_violation": None, "value": 0}


def derive_relation_in_basis(target: IsoClass, basis, poset: GPoset, max_powers) -> dict | None:
    """Express the target invariant as a polynomial in the basis invariants,
    exactly on every poset member.  max_powers bounds the exponent of each
    basis invariant; returns {monomial-exponents: coefficient} or None."""
    from itertools import product as _prod

    monos = [
        exps
        for exps in _prod(*[range(p + 1) for p in max_powers])
    ]
    rows = []
    rhs = []
    for host in poset.members:
        base_vals = [count_subgraphs(b, host) for b in basis]
        rows.append(
            [math.prod(v**e for v, e in zip(base_vals, exps)) for exps in monos]
        )
        rhs.append(count_subgraphs(target, host))
    sol = _solve(rows, rhs)
    if sol is None:
        return None
    return {exps: c for exps, c in zip(monos, sol) if c}


def _solve(m_rows, rhs):
    """An exact solution of a linear system by Gauss-Jordan elimination over the
    rationals (free unknowns set to zero), or None when it is inconsistent."""
    nr = len(m_rows)
    nc = len(m_rows[0]) if nr else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(m_rows, rhs)]
    rank = 0
    pivots = []
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for r in range(nr):
            if r != rank and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, nr):
        if a[r][nc]:
            return None
    sol = [Fraction(0)] * nc
    for r, col in enumerate(pivots):
        sol[col] = a[r][nc]
    return sol
