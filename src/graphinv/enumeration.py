"""Cycle-index enumeration of unlabeled graphs by edges, connected counts,
the Ulam difference table, and the Ulam-condition check with minor ranks.

Everything runs over exact integers; 12-vertex counts overflow 64-bit
intermediates, so plain Python integers are mandatory here.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapError
from .graph import (
    IsoClass,
    canonicalize_bits,
    count_subgraphs,
)
from .mtransform import exact_rank
from .perm import CycleType, pair_slot, symmetric_group, induced_pair_permutation
from .poset import build_full_poset

CYCLE_INDEX_VERTEX_CAP = 16
GRAPH_COUNT_VERTEX_CAP = 12
CONNECTED_DEGREE_CAP = 8


@dataclass(frozen=True)
class CyclePolynomial:
    """A rational combination of monomials in the cycle variables s_1..s_K,
    keyed by sparse ((k, exponent), ...) tuples."""

    n: int
    terms: tuple

    def coefficient_sum(self) -> Fraction:
        return sum((c for _m, c in self.terms), Fraction(0))

    def substitute_value(self, value_of) -> Fraction:
        """Replace each s_k by a number."""
        total = Fraction(0)
        for mono, coeff in self.terms:
            prod = Fraction(coeff)
            for k, e in mono:
                prod *= Fraction(value_of(k)) ** e
            total += prod
        return total

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
    if n < 0 or n > CYCLE_INDEX_VERTEX_CAP:
        raise CapError(f"cycle index capped at n <= {CYCLE_INDEX_VERTEX_CAP}")
    order = math.factorial(n)
    terms = []
    for counts in _partitions(n):
        size = CycleType(tuple(counts)).class_size()
        induced = _induced_pair_cycles(counts)
        mono = tuple(sorted((k, e) for k, e in induced.items() if e))
        terms.append((mono, Fraction(size, order)))
    merged: dict = {}
    for mono, coeff in terms:
        merged[mono] = merged.get(mono, Fraction(0)) + coeff
    ordered = tuple(sorted(merged.items(), key=lambda kv: kv[0]))
    return CyclePolynomial(n, ordered)


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
    return CyclePolynomial(n, tuple(sorted(merged.items(), key=lambda kv: kv[0])))


# ── counts and tables ────────────────────────────────────────────────────

def graph_count_series(n: int, trunc: int | None = None) -> list[int]:
    """h_n(0..trunc): unlabeled graphs on n vertices by edge count."""
    if n > GRAPH_COUNT_VERTEX_CAP:
        raise CapError(f"graph counts capped at n <= {GRAPH_COUNT_VERTEX_CAP}")
    nslots = n * (n - 1) // 2
    return _edge_series(n, nslots if trunc is None else min(trunc, nslots))


@functools.cache
def _edge_series(n: int, trunc: int) -> list[int]:
    return pair_group_cycle_index(n).substitute_edge_series(trunc)


def graph_count(n: int, d: int) -> int:
    """h_n(d): number of unlabeled simple graphs with n vertices and d edges."""
    if d < 0 or d > n * (n - 1) // 2:
        return 0
    return graph_count_series(n, d)[d]


def ulam_difference_entry(n: int, d: int) -> int:
    return -graph_count(n, d) + graph_count(n - 1, d) + graph_count(n, d - 1)


def ulam_difference_table(max_n: int = 12, max_d: int = 12) -> dict:
    """Entries -h_n(d) + h_{n-1}(d) + h_n(d-1) for 4 <= n, 2 <= d, printed only
    where d <= floor(C(n,2)/2)."""
    out = {}
    for d in range(2, max_d + 1):
        for n in range(4, max_n + 1):
            if d <= n * (n - 1) // 2 // 2:
                out[(d, n)] = ulam_difference_entry(n, d)
    return out


def ulam_table_csv(max_n: int = 12, max_d: int = 12) -> str:
    table = ulam_difference_table(max_n, max_d)
    lines = ["d," + ",".join(str(n) for n in range(4, max_n + 1))]
    for d in range(2, max_d + 1):
        cells = [str(d)]
        for n in range(4, max_n + 1):
            cells.append(str(table[(d, n)]) if (d, n) in table else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ulam_condition_check(n: int, d: int, rank_support: int | None = None) -> dict:
    """Counting condition h_{n+1}(d) - h_{n+1}(d-1) <= h_n(d), plus the exact rank
    of the minor pairing degree-d classes on exactly v supported vertices against
    degree-(d-1) classes on at most v (v = rank_support, default n+1, capped at 5)."""
    if n + 1 > GRAPH_COUNT_VERTEX_CAP:
        raise CapError(f"counting check capped at n <= {GRAPH_COUNT_VERTEX_CAP - 1}")
    lhs = graph_count(n + 1, d) - graph_count(n + 1, d - 1)
    rhs = graph_count(n, d)
    in_range = d <= (n + 1) * n // 2 // 2
    report = {
        "n": n,
        "d": d,
        "lhs": lhs,
        "rhs": rhs,
        "inequality_holds": lhs <= rhs,
        "in_half_range": in_range,
        "table_entry": ulam_difference_entry(n + 1, d),
        "minor": None,
    }
    v = n + 1 if rank_support is None else rank_support
    if v <= 5:
        poset = build_full_poset(v)
        rows = [m for m in poset.members if m.degree == d and m.cv == v]
        cols = [m for m in poset.members if m.degree == d - 1 and m.cv <= v]
        matrix = [[count_subgraphs(c, r) for c in cols] for r in rows]
        rank = exact_rank(matrix) if rows and cols else 0
        report["minor"] = {
            "v": v,
            "rows": len(rows),
            "cols": len(cols),
            "rank": rank,
            "full_row_rank": rank == len(rows),
        }
    return report


# ── connected counts ─────────────────────────────────────────────────────

@functools.cache
def connected_classes_by_degree(max_degree: int) -> dict[int, list[IsoClass]]:
    """Connected classes grouped by edge count, grown one edge at a time
    (adding an edge to a connected graph never disconnects it)."""
    if max_degree > CONNECTED_DEGREE_CAP:
        raise CapError(f"connected enumeration capped at degree {CONNECTED_DEGREE_CAP}")
    levels: dict[int, list[IsoClass]] = {}
    if max_degree >= 1:
        k2 = canonicalize_bits(1)
        levels[1] = [k2]
        current = {k2}
        for _d in range(1, max_degree):
            nxt = set()
            for cls in current:
                cv = cls.cv
                for j in range(1, cv + 1):
                    for i in range(j):
                        slot = pair_slot(i, j)
                        if j < cv and cls.bits >> slot & 1:
                            continue
                        nxt.add(canonicalize_bits(cls.bits | 1 << slot))
            current = nxt
            levels[_d + 1] = sorted(nxt, key=lambda c: c.sort_key)
    return levels


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
    """Informational: a poset holding all graphs of degree (d+1)(2^d - 1) needs
    at least F(d) + 1 generators."""
    f, big_f = connected_counts(d)
    return {"d": d, "F": big_f[d], "lower_bound": big_f[d] + 1,
            "poset_degree": (d + 1) * (2**d - 1)}
