"""Cycle-index enumeration of unlabeled graphs by edges, connected counts,
the Ulam difference table, and the Ulam-condition check with minor ranks.

Everything runs over exact integers; 12-vertex counts overflow 64-bit
intermediates, so plain Python integers are mandatory here.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import CapError, PreconditionError
from .graph import IsoClass, canonicalize_bits
from .mtransform import IntMatrix, build_mtransform, exact_rank, minor_by_degree
from .perm import CycleType, symmetric_group, induced_pair_permutation
from .poset import build_full_poset, canonical_additions

CYCLE_INDEX_VERTEX_CAP = 16
GRAPH_COUNT_VERTEX_CAP = 12
CONNECTED_DEGREE_CAP = 8


@dataclass(frozen=True)
class CyclePolynomial:
    """A rational combination of monomials in the cycle variables s_1..s_K,
    keyed by sparse ((k, exponent), ...) tuples."""

    terms: tuple

    def substitute_edge_series(self, trunc: int) -> list[int]:
        """Replace s_k by 1 + x^k and return coefficients of x^0..x^trunc."""
        total = [Fraction(0)] * (trunc + 1)
        for mono, coeff in self.terms:
            poly = [1] + [0] * trunc
            for k, e in mono:
                poly = _mul_binom_power(poly, k, e, trunc)
            for d, c in enumerate(poly):
                if c:
                    total[d] += coeff * c
        out = []
        for c in total:
            if c.denominator != 1:
                raise AssertionError("edge series has a non-integer coefficient")
            out.append(int(c))
        return out


def _mul_binom_power(poly: list[int], k: int, e: int, trunc: int) -> list[int]:
    """Multiply by (1 + x^k)^e, truncating beyond degree trunc."""
    out = [0] * (trunc + 1)
    top = min(e, trunc // k) if k else 0
    for i in range(top + 1):
        b = math.comb(e, i)
        shift = k * i
        for d in range(trunc + 1 - shift):
            if poly[d]:
                out[d + shift] += b * poly[d]
    return out


def _partitions(n: int):
    """Partitions of n as count vectors c[k-1] = number of parts of size k."""

    def rec(remaining: int, max_part: int, counts: list[int]):
        if remaining == 0:
            yield tuple(counts)
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            yield from rec(remaining - part, part, counts)
            counts[part - 1] -= 1

    yield from rec(n, n, [0] * n)


def _induced_pair_cycles(counts) -> Counter:
    """Cycle structure on unordered pairs induced by a vertex cycle type."""
    induced: Counter = Counter()
    n = len(counts)
    for k in range(1, n + 1):
        ck = counts[k - 1]
        if not ck:
            continue
        # pairs inside a single k-cycle
        if k % 2 == 1:
            if k > 1:
                induced[k] += ck * (k - 1) // 2
        else:
            induced[k] += ck * (k // 2 - 1)
            induced[k // 2] += ck
        # pairs across two distinct k-cycles
        if ck >= 2:
            induced[k] += math.comb(ck, 2) * k
        # pairs across cycles of different lengths
        for l in range(k + 1, n + 1):
            cl = counts[l - 1]
            if cl:
                induced[math.lcm(k, l)] += ck * cl * math.gcd(k, l)
    return induced


def pair_group_cycle_index(n: int) -> CyclePolynomial:
    """Cycle index of S_n acting on the C(n,2) unordered vertex pairs."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n > CYCLE_INDEX_VERTEX_CAP:
        raise CapError(f"cycle index capped at n <= {CYCLE_INDEX_VERTEX_CAP}")
    order = math.factorial(n)
    merged: dict = {}
    for counts in _partitions(n):
        size = CycleType(tuple(counts)).class_size()
        induced = _induced_pair_cycles(counts)
        mono = tuple(sorted((k, e) for k, e in induced.items() if e))
        merged[mono] = merged.get(mono, Fraction(0)) + Fraction(size, order)
    ordered = tuple(sorted(merged.items(), key=lambda kv: kv[0]))
    return CyclePolynomial(ordered)


def pair_cycle_index_bruteforce(n: int) -> CyclePolynomial:
    """Oracle: average the pair-slot cycle monomials over all of S_n (n <= 6)."""
    if n > 6:
        raise CapError("brute-force cycle index capped at n <= 6")
    merged: dict = {}
    group = symmetric_group(n)
    for p in group:
        q = induced_pair_permutation(p)
        mono = tuple(sorted((k, e) for k, e in enumerate(q.cycle_type().counts, start=1) if e))
        merged[mono] = merged.get(mono, Fraction(0)) + Fraction(1, group.order)
    return CyclePolynomial(tuple(sorted(merged.items(), key=lambda kv: kv[0])))


# ── counts and tables ────────────────────────────────────────────────────

def graph_count_series(n: int, trunc: int | None = None) -> list[int]:
    """h_n(0..trunc): unlabeled graphs on n vertices by edge count."""
    series = _edge_series(n)
    return list(series if trunc is None else series[: max(trunc + 1, 0)])


@functools.cache
def _edge_series(n: int) -> tuple[int, ...]:
    """h_n(0..C(n, 2)), one series per n."""
    if n > GRAPH_COUNT_VERTEX_CAP:
        raise CapError(f"graph counts capped at n <= {GRAPH_COUNT_VERTEX_CAP}")
    return tuple(pair_group_cycle_index(n).substitute_edge_series(n * (n - 1) // 2))


def graph_count(n: int, d: int) -> int:
    """h_n(d): number of unlabeled simple graphs with n vertices and d edges."""
    series = _edge_series(n)
    return series[d] if 0 <= d < len(series) else 0


def ulam_difference_entry(n: int, d: int) -> int:
    return -graph_count(n, d) + graph_count(n - 1, d) + graph_count(n, d - 1)


def ulam_difference_table(max_n: int = 12, max_d: int = 12) -> dict:
    """Entries -h_n(d) + h_{n-1}(d) + h_n(d-1) at the cells `ulam_cell_keys` names."""
    from .util import ulam_cell_keys  # importing the layer loads no file-cache code

    return {(d, n): ulam_difference_entry(n, d) for d, n in ulam_cell_keys(max_n, max_d)}


def ulam_condition_check(n: int, d: int, rank_support: int | None = None) -> dict:
    """Counting condition h_{n+1}(d) - h_{n+1}(d-1) <= h_n(d), plus the exact rank
    of the minor pairing degree-d classes on exactly v supported vertices against
    degree-(d-1) classes on at most v (v = rank_support, default n+1, capped at 5):
    the rows on exactly v vertices of the E(v) transform's degree minor."""
    from .util import in_half_range

    if d < 0:
        raise PreconditionError("d must be nonnegative")
    if n + 1 > GRAPH_COUNT_VERTEX_CAP:
        raise CapError(f"counting check capped at n <= {GRAPH_COUNT_VERTEX_CAP - 1}")
    if rank_support is not None and rank_support < 0:
        raise PreconditionError("rank_support must be nonnegative")
    lhs = graph_count(n + 1, d) - graph_count(n + 1, d - 1)
    rhs = graph_count(n, d)
    report = {
        "n": n,
        "d": d,
        "lhs": lhs,
        "rhs": rhs,
        "inequality_holds": lhs <= rhs,
        "in_half_range": in_half_range(n + 1, d),
        "table_entry": ulam_difference_entry(n + 1, d),
        "minor": None,
    }
    v = n + 1 if rank_support is None else rank_support
    if v <= 5:
        poset = build_full_poset(v)
        degs = poset.degrees()
        minor = minor_by_degree(build_mtransform(poset), degs, d - 1, d)
        row_members = [m for m in poset.members if m.degree == d]  # the minor's rows, in order
        rows = [minor.row(r) for r, m in enumerate(row_members) if m.cv == v]
        rank = exact_rank(IntMatrix(rows, minor.cols))
        report["minor"] = {
            "v": v,
            "rows": len(rows),
            "cols": degs.count(d - 1),  # a minor without rows has no columns
            "rank": rank,
            "full_row_rank": rank == len(rows),
        }
    return report


# ── connected counts ─────────────────────────────────────────────────────

@functools.cache
def connected_classes_by_degree(max_degree: int) -> Mapping[int, tuple[IsoClass, ...]]:
    """Connected classes grouped by edge count (a read-only mapping of tuples),
    grown one edge at a time: the `poset.canonical_additions` of a class on cv
    vertices placed in K_(cv+1), which join two support vertices or a support
    vertex to one fresh vertex (adding an edge to a connected graph never
    disconnects it), keeping a child only when its new edge has the largest
    key among the edges whose deletion leaves it connected or that are
    pendant.  Every connected class has such an edge, so each is reached."""
    if max_degree > CONNECTED_DEGREE_CAP:
        raise CapError(f"connected enumeration capped at degree {CONNECTED_DEGREE_CAP}")
    levels: dict[int, tuple[IsoClass, ...]] = {}
    if max_degree >= 1:
        current = {1: canonicalize_bits(1)}  # by canonical bits
        levels[1] = tuple(current.values())
        for d in range(2, max_degree + 1):
            current = {g.bits: g for cls in current.values() for g in canonical_additions(cls, cls.cv + 1)}
            levels[d] = tuple(current[bits] for bits in sorted(current))
    return MappingProxyType(levels)


def connected_counts(max_degree: int) -> tuple[list[int], list[int]]:
    """f(d) = connected classes with d edges; F = cumulative sums (index 0 unused)."""
    levels = connected_classes_by_degree(max_degree)
    f = [0] * (max_degree + 1)
    for d, classes in levels.items():
        f[d] = len(classes)
    big_f = [0] * (max_degree + 1)
    for d in range(1, max_degree + 1):
        big_f[d] = big_f[d - 1] + f[d]
    return f, big_f


def generator_lower_bound_report(d: int) -> dict:
    """A poset holding all graphs of degree (d+1)(2^d - 1) needs at least
    F(d) + 1 generators (selftest check 11)."""
    from .generators import inseparable_degree_bound

    f, big_f = connected_counts(d)
    return {"d": d, "F": big_f[d], "lower_bound": big_f[d] + 1, "poset_degree": inseparable_degree_bound(d)}
