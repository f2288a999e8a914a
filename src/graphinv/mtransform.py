"""Exact integer transform matrices over posets: closed-form powers and inverse,
complement identities, half-matrix reconstruction, minors, exact rank.

All arithmetic is exact.  Rationals appear only inside complement-expansion
coefficients and must clear to integers on evaluation; rank uses fraction-free
elimination so no floating point ever enters.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations as _combinations, permutations as _permutations, product as _product

from .algebra import LinComb
from .errors import CapError, PosetError, PreconditionError
from .graph import (
    IsoClass,
    canonicalize,
    canonicalize_bits,
    complement,
    stab_order,
    subgraph_class_counts,
)
from .poset import GPoset

SUBSET_MINOR_CAP = 10**6  # C(N, Delta) * C(N, delta) entries of a subset minor


@dataclass(frozen=True)
class IntMatrix:
    """Dense exact-integer matrix."""

    data: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.data and len({len(r) for r in self.data}) != 1:
            raise PreconditionError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_sparse(cls, rows, ncols: int) -> IntMatrix:
        """Dense matrix from one {column: value} dict per row."""
        dense = []
        for row in rows:
            line = [0] * ncols
            for j, x in row.items():
                line[j] = x
            dense.append(tuple(line))
        return cls(tuple(dense))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise PreconditionError("matrix dimensions do not match")
        ot = list(zip(*other.data))
        return IntMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        )

    def power(self, k: int) -> IntMatrix:
        if k < 0:
            raise PreconditionError("power() takes k >= 0; use an inverse routine")
        out = IntMatrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]


def is_lower_unitriangular(m: IntMatrix) -> bool:
    if m.rows != m.cols:
        return False
    for i, row in enumerate(m.data):
        if row[i] != 1:
            return False
        if any(row[j] for j in range(i + 1, m.cols)):
            return False
    return True


def _one_edge_covers(members) -> list[tuple[IsoClass, Counter]]:
    """Closure of the members under one-edge deletion, in (degree, bits) order.

    Each class comes with the multiset, keyed by canonical bits, of the classes
    its one-edge deletions land in.
    """
    covers: list[tuple[IsoClass, Counter]] = []
    seen = {m.bits for m in members}
    stack = list(members)
    while stack:
        g = stack.pop()
        down: Counter = Counter()
        rest = g.bits
        while rest:
            low = rest & -rest
            rest ^= low
            k = canonicalize_bits(g.bits ^ low)
            down[k.bits] += 1
            if k.bits not in seen:
                seen.add(k.bits)
                stack.append(k)
        covers.append((g, down))
    return sorted(covers, key=lambda gd: gd[0].sort_key)


def build_mtransform(poset: GPoset) -> IntMatrix:
    """Matrix with entry (i, j) = number of copies of member j inside member i.

    Rows come from the one-edge cover recursion, a double count of the chains
    J < K < g with J a copy of member j and K = g minus one edge:
        (|g| - |g_j|) * e_gj = sum_k c_gk * e_kj,
    where c_gk counts the one-edge deletions of g that land in class k.  The
    recursion runs over the closure of the members under one-edge deletion, so
    it needs no completeness flag; classes outside the poset only serve as
    helper rows.  `_mtransform_by_subsets` is the subset-counting oracle.
    """
    members = poset.members
    degs = poset.degrees()
    rows: dict[int, dict[int, int]] = {}
    for g, down in _one_edge_covers(members):
        acc: dict[int, int] = {}
        for k_bits, c in down.items():
            for j, e in rows[k_bits].items():
                acc[j] = acc.get(j, 0) + c * e
        row = {}
        for j, total in acc.items():
            q, r = divmod(total, g.degree - degs[j])
            if r:
                raise AssertionError(f"cover recursion: inexact division in row {g.graph6!r}")
            row[j] = q
        if g.bits in poset.index:
            row[poset.index[g.bits]] = 1
        rows[g.bits] = row
    return IntMatrix.from_sparse([rows[m.bits] for m in members], len(members))


def _subset_count_row(host: IsoClass, members) -> list[int]:
    """Row of host counted directly, by classifying every edge subset of host."""
    counts = {d: subgraph_class_counts(host, d) for d in range(host.degree + 1)}
    return [counts[m.degree].get(m, 0) if m.degree <= host.degree else 0 for m in members]


def _mtransform_by_subsets(poset: GPoset) -> IntMatrix:
    """Oracle for build_mtransform: every row counted directly from its 2^|g_i| edge subsets."""
    return IntMatrix.from_rows([_subset_count_row(m, poset.members) for m in poset.members])


def mnukhin_power(matrix: IntMatrix, degrees, k: int, complete: bool = True) -> IntMatrix:
    """Closed-form k-th power: entry (i, j) becomes k^(deg_i - deg_j) * e_ij.

    Valid for complete multilinear posets; k = -1 gives the two-sided inverse.
    """
    if not complete:
        raise PosetError("closed-form power law requires a subgraph-closed poset")
    if matrix.rows != matrix.cols or matrix.rows != len(degrees):
        raise PreconditionError("matrix/degree dimensions do not match")
    return IntMatrix(tuple(
        tuple(e * k ** (d_i - d_j) if e else 0 for e, d_j in zip(row, degrees))
        for row, d_i in zip(matrix.data, degrees)
    ))


def unitriangular_inverse(matrix: IntMatrix) -> IntMatrix:
    """Exact inverse of a lower unitriangular integer matrix by forward substitution.

    Row by row over the nonzeros: inv_i = e_i - sum_{j<i, a_ij != 0} a_ij * inv_j.
    """
    n = matrix.rows
    if n != matrix.cols:
        raise PreconditionError("inverse requires a square matrix")
    inv_rows: list[dict[int, int]] = []
    for i, row in enumerate(matrix.data):
        acc = {i: 1}
        for j in range(i):
            a = row[j]
            if a:
                for k, v in inv_rows[j].items():
                    acc[k] = acc.get(k, 0) - a * v
        inv_rows.append({k: v for k, v in acc.items() if v})
    return IntMatrix.from_sparse(inv_rows, n)


def inverse_mtransform(matrix: IntMatrix, degrees=None, complete: bool = False) -> IntMatrix:
    """Inverse via the closed form when legal, elimination otherwise; cross-asserted."""
    elim = unitriangular_inverse(matrix)
    if complete and degrees is not None:
        closed = mnukhin_power(matrix, degrees, -1, complete=True)
        if closed != elim:
            raise AssertionError("closed-form inverse disagrees with elimination")
        return closed
    return elim


# ── complement identities and half-matrix reconstruction ─────────────────

def complement_invariant_expansion(g: IsoClass, poset: GPoset, ambient_n: int) -> LinComb:
    """Linear combination L with L(h) = count of g inside K_n minus h, for every
    h on ambient_n vertices.  Coefficients are exact rationals
    (-1)^|a| * count(a, g) * |Stab(a)| / |Stab(g)| over subclasses a of g."""
    if g.cv > ambient_n:
        raise PreconditionError(f"{g.graph6!r} does not fit in K_{ambient_n}")
    rep = g.rep()
    stab_g = stab_order(g, ambient_n)
    terms = {}
    for d in range(g.degree + 1):
        sign = 1 if d % 2 == 0 else -1
        for sub, cnt in subgraph_class_counts(rep, d).items():
            if sub not in poset:
                raise PosetError(f"poset lacks subgraph class {sub.graph6!r}")
            terms[sub] = Fraction(sign * cnt * stab_order(sub, ambient_n), stab_g)
    return LinComb.from_terms(terms)


def complement_class(cls: IsoClass, n: int) -> IsoClass:
    return canonicalize(complement(cls.rep(n), n))


def complement_pairing(poset: GPoset, n: int) -> list[int]:
    """Position of the complement class of each member; raises if any is missing."""
    return [poset.position(complement_class(m, n)) for m in poset.members]


def solve_upper_half(
    poset: GPoset,
    ambient_n: int,
    known_degree_cap: int | None = None,
    extra_unknown=(),
) -> IntMatrix:
    """Rebuild the full transform of E(n) from rows of degree <= floor(C(n,2)/2).

    Rows up to the cap are counted directly; every higher row is recovered from
    the complement recursion
        e_ij = sum_{k<=j} (-1)^|g_k| e_jk (|Stab k| / |Stab j|) e_{comp(i),k}.
    Middle-degree rows may be withheld via extra_unknown and are then solved
    from their complement partners the same way.
    """
    n = ambient_n
    nslots = n * (n - 1) // 2
    cap = nslots // 2 if known_degree_cap is None else known_degree_cap
    comp = complement_pairing(poset, n)
    members = poset.members
    size = len(members)
    stab = [stab_order(m, n) for m in members]
    degs = poset.degrees()
    withheld = {poset.position(c) for c in extra_unknown}
    rows: list[list[int] | None] = [None] * size
    for i, m in enumerate(members):
        if degs[i] <= cap and i not in withheld:
            rows[i] = _subset_count_row(m, members)
    for i in range(size):
        if rows[i] is not None:
            continue
        ci = comp[i]
        if rows[ci] is None:
            raise PosetError(
                f"cannot solve row {i}: complement row of degree {degs[ci]} unknown"
            )
        terms = [
            (k, (stab[k] if degs[k] % 2 == 0 else -stab[k]) * e_ck)
            for k, e_ck in enumerate(rows[ci])
            if e_ck
        ]
        row: list[int] = []
        for j in range(i + 1):
            row_j = rows[j] if j < i else row + [1]  # j == i: the prefix just solved, e_ii = 1
            acc = 0
            for k, w in terms:
                if k > j:
                    break
                acc += row_j[k] * w
            q, r = divmod(acc, stab[j])
            if r:
                raise PosetError(f"inconsistent partial data at entry ({i},{j})")
            row.append(q)
        if row[i] != 1:
            raise PosetError(f"inconsistent partial data: diagonal at row {i} is {row[i]}")
        rows[i] = row + [0] * (size - i - 1)
    return IntMatrix.from_rows(rows)


# ── minors, rank, block recursion, ordering search ───────────────────────

def minor_by_degree(matrix: IntMatrix, degrees, delta: int, big_delta: int) -> IntMatrix:
    """Rows of degree big_delta against columns of degree delta."""
    if delta > big_delta:
        raise PreconditionError("minor requires delta <= Delta")
    row_idx = [i for i, d in enumerate(degrees) if d == big_delta]
    col_idx = [j for j, d in enumerate(degrees) if d == delta]
    return IntMatrix.from_rows(
        [[matrix.data[i][j] for j in col_idx] for i in row_idx]
    )


def exact_rank(matrix: IntMatrix | list) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in (matrix.data if isinstance(matrix, IntMatrix) else matrix)]
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                a[r][c] = (a[r][c] * a[rank][col] - a[r][col] * a[rank][c]) // prev
            a[r][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def _check_subset_minor_size(n_vars: int, delta: int, big_delta: int) -> None:
    entries = math.comb(n_vars, big_delta) * math.comb(n_vars, delta)
    if entries > SUBSET_MINOR_CAP:
        raise CapError(f"subset minor has {entries} entries, over the cap of {SUBSET_MINOR_CAP}")


def _colex_subsets(n_vars: int, size: int) -> list[tuple[int, ...]]:
    """All size-subsets of [0..n_vars) in colex order."""
    return sorted(_combinations(range(n_vars), size), key=lambda t: tuple(reversed(t)))


def subset_inclusion_minor(n_vars: int, delta: int, big_delta: int) -> IntMatrix:
    """Trivial-group minor: containment indicators of colex-ordered subsets."""
    if not 0 <= delta <= big_delta <= n_vars:
        raise PreconditionError("need 0 <= delta <= Delta <= n_vars")
    _check_subset_minor_size(n_vars, delta, big_delta)
    rows = _colex_subsets(n_vars, big_delta)
    cols = _colex_subsets(n_vars, delta)
    return IntMatrix.from_rows(
        [[1 if set(c) <= set(r) else 0 for c in cols] for r in rows]
    )


def subset_minor_blocks(n_vars: int, delta: int, big_delta: int) -> IntMatrix:
    """The same minor assembled from the (n_vars - 1) blocks:
    [[E_d^D(n-1), 0], [E_d^(D-1)(n-1), E_(d-1)^(D-1)(n-1)]]."""
    if n_vars < 1 or not 1 <= delta <= big_delta <= n_vars:
        raise PreconditionError("block recursion needs 1 <= delta <= Delta <= n_vars")
    _check_subset_minor_size(n_vars, delta, big_delta)
    if delta == big_delta:
        return IntMatrix.identity(math.comb(n_vars, delta))
    if big_delta == n_vars:
        return IntMatrix.from_rows([[1] * math.comb(n_vars, delta)])
    tl = subset_inclusion_minor(n_vars - 1, delta, big_delta)
    bl = subset_inclusion_minor(n_vars - 1, delta, big_delta - 1)
    br = subset_inclusion_minor(n_vars - 1, delta - 1, big_delta - 1)
    rows = []
    for r in tl.data:
        rows.append(list(r) + [0] * br.cols)
    for r1, r2 in zip(bl.data, br.data):
        rows.append(list(r1) + list(r2))
    return IntMatrix.from_rows(rows)


def find_orderings_matching(poset: GPoset, target_rows) -> list[tuple[IsoClass, ...]]:
    """All reorderings of the poset (permuting only within degree classes) whose
    transform matrix equals the target, entry for entry."""
    base = build_mtransform(poset)
    size = len(poset)
    if len(target_rows) != size or any(len(r) != size for r in target_rows):
        raise PreconditionError("target matrix has the wrong shape")
    blocks = [idx for _deg, idx in sorted(poset.by_degree().items())]
    matches = []
    for arrangement in _product(*[list(_permutations(b)) for b in blocks]):
        order: list[int] = [i for block in arrangement for i in block]
        ok = all(
            base.data[order[i]][order[j]] == target_rows[i][j]
            for i in range(size)
            for j in range(size)
        )
        if ok:
            matches.append(tuple(poset.members[i] for i in order))
    return matches
