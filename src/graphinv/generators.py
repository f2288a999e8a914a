"""Separator analysis, component reconstruction, inseparable pairs, relation checks.

A set of invariants separates a poset when the value vectors of the members
are pairwise distinct; for simple graphs this is also exactly the test for
generation, so the search below reports separators and nothing weaker.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

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
from .mtransform import IntMatrix, build_mtransform, cached_transform, exact_rank, exact_solve, inverse_mtransform, minor_by_degree, transform_columns
from .poset import GPoset, build_full_poset

SEARCH_POOL_CAP = 20
RECONSTRUCT_SUBSET_CAP = 100_000  # host edge subsets counted: K6 has 2^15 - 1, K7 2^21 - 1
RELATION_POWER_CAP = 256  # total power of one monomial; the paper's relations reach K2^7


@dataclass(frozen=True)
class SeparatorReport:
    """The first two members with equal value vectors, or None for a separator."""

    witness: tuple[IsoClass, IsoClass] | None

    @property
    def is_separator(self) -> bool:
        return self.witness is None


def is_separator(invariants, poset: GPoset) -> SeparatorReport:
    """Separator iff every member's value vector, read from the transform
    columns, is distinct; the first collision in member order wins."""
    seen: dict[tuple[int, ...], IsoClass] = {}
    for member, vec in zip(poset.members, transform_columns(poset, invariants)):
        if vec in seen:
            return SeparatorReport((seen[vec], member))
        seen[vec] = member
    return SeparatorReport(None)


def check_search_pool(n: int) -> None:
    """Refuse the default-pool separator search on E(n) without building E(n).

    The pool, the connected members of E(n), contains that of every E(m) with
    m <= n, so the first E(m) whose pool exceeds the cap settles the refusal:
    E(5), with 30 connected members, under the cap of 20.  E(n) itself is left
    to `minimal_separators`, whose caller builds it anyway.
    """
    for m in range(n):
        pool = len(build_full_poset(m).connected_members())
        if pool > SEARCH_POOL_CAP:
            raise CapError(f"candidate pool of E({n}) exceeds cap {SEARCH_POOL_CAP}: E({m}) alone has {pool}")


def minimal_separators(poset: GPoset, max_size: int | None = None):
    """Exhaustive search by increasing cardinality over the candidate pool, the
    connected members; returns (size, all separator subsets of that size), or
    (None, ()) if nothing up to max_size separates.  The pool's transform
    columns are read once and every subset is tested on them."""
    if max_size is not None and max_size < 0:
        raise PreconditionError("max_size must be nonnegative")
    candidates = poset.connected_members()
    if len(candidates) > SEARCH_POOL_CAP:
        raise CapError(f"candidate pool {len(candidates)} exceeds cap {SEARCH_POOL_CAP}")
    top = len(candidates) if max_size is None else min(max_size, len(candidates))
    values = transform_columns(poset, candidates)
    for size in range(top + 1):
        found = [
            subset
            for subset, cols in zip(combinations(candidates, size), combinations(range(len(candidates)), size))
            if len({tuple(vec[c] for c in cols) for vec in values}) == len(values)
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

def inseparable_degree_bound(d: int) -> int:
    """(d + 1)(2^d - 1): the degree of an inseparable pair for degree d is at most this."""
    return (d + 1) * (2**d - 1)


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
        return inseparable_degree_bound(self.d)


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
    """Construct (T, U) from the signed solution of the triangular system of
    E(2d, d) against a connected class of degree d+1, by default the least in
    (degree, bits).  Every graph with at most d edges has at most 2d vertices,
    so E(2d, d) holds every disjoint union of connected classes with total
    degree <= d."""
    if d < 1:
        raise PreconditionError("need d >= 1")
    poset = build_full_poset(2 * d, d)
    if generator is None:
        from .enumeration import connected_classes_by_degree

        generator = connected_classes_by_degree(d + 1)[d + 1][0]
    else:
        if generator.degree != d + 1 or not is_connected_class(generator):
            raise PreconditionError("generator override must be connected of degree d+1")
    e = build_mtransform(poset)
    inv = inverse_mtransform(e, poset.degrees())
    coeffs = [0] * len(poset)
    for i, g in enumerate(poset.members):
        value = count_subgraphs(g, generator)
        for j, x in inv.row(i).items():
            coeffs[j] += value * x
    t_parts: Counter = Counter()
    u_parts: Counter = Counter({generator: 1})
    for cls, c in zip(poset.members, coeffs):
        if cls == EMPTY_CLASS or c == 0:
            continue
        if c > 0:
            t_parts[cls] += c
        else:
            u_parts[cls] += -c
    return _finalize_pair(d, generator, poset, tuple(coeffs), t_parts, u_parts)


def _finalize_pair(
    d: int, generator: IsoClass, poset: GPoset, coeffs, t_parts: Counter, u_parts: Counter
) -> InseparablePair:
    t_flat = _flatten_components(t_parts)
    u_flat = _flatten_components(u_parts)
    deg_t = sum(g.degree * k for g, k in t_flat.items())
    deg_u = sum(g.degree * k for g, k in u_flat.items())
    bound = inseparable_degree_bound(d)
    if deg_t != deg_u:
        raise AssertionError(f"degree mismatch: |T| = {deg_t}, |U| = {deg_u}")
    if deg_t > bound:
        raise AssertionError(f"degree {deg_t} exceeds the bound {bound}")
    if t_flat == u_flat:
        raise AssertionError("T and U are isomorphic")
    for c in poset.connected_members():
        if _count_in_multiset(c, t_parts) != _count_in_multiset(c, u_parts):
            raise AssertionError(f"T and U disagree on the connected invariant {c.graph6!r}")
    cv_t = sum(g.cv * k for g, k in t_flat.items())
    cv_u = sum(g.cv * k for g, k in u_flat.items())
    t_cls = disjoint_union(t_flat) if cv_t <= MAX_SUPPORT else None
    u_cls = disjoint_union(u_flat) if cv_u <= MAX_SUPPORT else None
    if t_cls is not None and u_cls is not None and t_cls == u_cls:
        raise AssertionError("materialized T and U are equal")
    return InseparablePair(
        d, generator, poset, tuple(coeffs), t_flat, u_flat, t_cls, u_cls
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
    values through the edge-multiplication identity: for each member g the
    system sum_k e_ki x_k = (|g| - d) e_gi, k of degree d+1, i of degree d.
    `exact_rank` proves full column rank, so the solution is unique and g's
    values are recovered iff they solve it, checked with no solve as the block
    identity sum_k e_gk e_ki = (|g| - d) e_gi over the members of degree > d.
    E(n) and its transform come from `cached_transform`: n >= 8 is refused."""
    poset, e = cached_transform(None, n)
    degs = poset.degrees()
    nslots = n * (n - 1) // 2
    steps = []
    ok = True
    for d in range(nslots // 2, nslots):
        minor = minor_by_degree(e, degs, d, d + 1)  # row k, column i: the system transposed
        if not minor.rows:
            continue
        rank = exact_rank(minor)
        full = rank == minor.rows
        recovered_ok = full and all(
            (minor_by_degree(e, degs, d + 1, big) @ minor).nonzeros
            == tuple({i: (big - d) * x for i, x in row.items()} for row in minor_by_degree(e, degs, d, big).nonzeros)
            for big in range(d + 1, nslots + 1)
        )
        steps.append({"degree": d, "unknowns": minor.rows, "rank": rank, "full_rank": full,
                      "recovered": recovered_ok})
        ok = ok and full and recovered_ok
    return {"n": n, "ok": ok, "steps": steps}


# ── polynomial relations between invariants ──────────────────────────────

def verify_relation(terms, poset: GPoset) -> dict:
    """Evaluate a polynomial-in-invariants identity (terms sum to zero) at every
    poset member, on its classes' transform columns; reports the first violating
    host.  A monomial of total power over RELATION_POWER_CAP is refused first."""
    for _coeff, mono in terms:
        if sum(mono.values()) > RELATION_POWER_CAP:
            raise CapError(f"monomial of total power {sum(mono.values())}, over the cap of {RELATION_POWER_CAP}")
        for cls in mono:
            if cls not in poset:
                raise PosetError(f"unknown invariant {cls.graph6!r}")
    classes = list(dict.fromkeys(cls for _coeff, mono in terms for cls in mono))
    for host, vals in zip(poset.members, transform_columns(poset, classes)):
        value = dict(zip(classes, vals))
        val = sum(Fraction(coeff) * math.prod(value[cls] ** power for cls, power in mono.items()) for coeff, mono in terms)
        if val != 0:
            return {"holds": False, "first_violation": host, "value": val}
    return {"holds": True, "first_violation": None, "value": 0}


def derive_relation_in_basis(target: IsoClass, basis, poset: GPoset, max_powers) -> dict | None:
    """Express the target invariant as a polynomial in the basis invariants,
    exactly on every poset member.  max_powers bounds the exponent of each
    basis invariant; returns {monomial-exponents: coefficient} or None."""
    basis = list(basis)
    if len(max_powers) != len(basis) or any(p < 0 for p in max_powers):
        raise PreconditionError("need one nonnegative exponent bound per basis invariant")
    monos = list(product(*[range(p + 1) for p in max_powers]))
    vals = transform_columns(poset, [*basis, target])
    rows = [[math.prod(v**e for v, e in zip(vs, exps)) for exps in monos] for *vs, _ in vals]
    rhs = [vs[-1] for vs in vals]
    sol = exact_solve(IntMatrix.from_rows(rows), rhs)
    if sol is None:
        return None
    return {exps: c for exps, c in zip(monos, sol) if c}
