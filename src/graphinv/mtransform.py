"""Exact integer transform matrices over posets: closed-form powers and inverse,
complement identities, half-matrix reconstruction, minors, exact rank.

All arithmetic is exact.  Rationals appear only inside complement-expansion
coefficients and must clear to integers on evaluation; rank uses fraction-free
elimination so no floating point ever enters.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations as _combinations, permutations as _permutations, product as _product
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .algebra import LinComb

SUBSET_MINOR_CAP = 10**6  # C(N, Delta) * C(N, delta) entries of a subset minor
TRANSFORM_MEMBER_CAP = 2_000  # members of a built transform: |E(7)| = 1,044, |E(8)| = 12,346


@dataclass(frozen=True)
class IntMatrix:
    """Exact-integer matrix stored as sparse rows: one {column: value} map per
    row, zeros never stored, and the column count.  As in the dense view, a
    matrix without rows has no columns.  `data` is the dense view, for output
    and inspection only; no computation reads it."""

    nonzeros: tuple[dict[int, int], ...]
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonzeros", tuple(self.nonzeros))
        if not self.nonzeros:
            object.__setattr__(self, "cols", 0)

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        """From dense rows of equal length."""
        rows = [list(row) for row in rows]
        if rows and len({len(r) for r in rows}) != 1:
            raise PreconditionError("ragged matrix rows")
        return cls(({j: int(x) for j, x in enumerate(r) if x} for r in rows), len(rows[0]) if rows else 0)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(({i: 1} for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.nonzeros)

    def row(self, i: int) -> dict[int, int]:
        """The nonzero entries of row i as {column: value}; not to be mutated."""
        return self.nonzeros[i]

    def column(self, j: int) -> dict[int, int]:
        """The nonzero entries of column j as {row: value}."""
        return {i: row[j] for i, row in enumerate(self.nonzeros) if j in row}

    def entry(self, i: int, j: int) -> int:
        return self.nonzeros[i].get(j, 0)

    @functools.cached_property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The dense tuple-of-tuples view, built on first read."""
        return tuple(tuple(row.get(j, 0) for j in range(self.cols)) for row in self.nonzeros)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise PreconditionError("matrix dimensions do not match")
        out = []
        for row in self.nonzeros:
            acc: dict[int, int] = {}
            for k, a in row.items():
                for j, b in other.nonzeros[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return IntMatrix(out, other.cols)

    def power(self, k: int) -> IntMatrix:
        if k < 0:
            raise PreconditionError("power() takes k >= 0; use an inverse routine")
        out = IntMatrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]


def build_mtransform(poset: GPoset) -> IntMatrix:
    """The transform: entry (i, j) = number of copies of member j inside member i.

    Rows come from the one-edge cover recursion, a double count of the chains
    J < K < g with J a copy of member j and K = g minus one edge:
        (|g| - |g_j|) * e_gj = sum_k c_gk * e_kj,
    where c_gk counts the one-edge deletions of g that land in member k.  The
    poset is an E(n, d), closed under edge deletion, so each k is an earlier
    member whose row is already built; a deletion that lands outside the poset
    raises PosetError.  `_mtransform_by_subsets` is the subset-counting oracle.

    The arithmetic runs on packed rows: row g is one int with a field of
    `width` bits per column, so the sum over k is a few big-integer
    multiply-adds, and each degree block of columns (contiguous, as members
    sort by degree) is divided by |g| - delta in one divmod.  Every entry is
    at most C(D, D // 2) < 2^bits, D the top degree, and g has |g| <= D
    deletions, so a summed field stays under D * 2^bits <= 2^width and no
    carry crosses fields.  `_exact_field_quotient` proves each field divided
    exactly.  The rows are decoded into sparse dict rows once, at the end.
    """
    members = poset.members
    if len(members) > TRANSFORM_MEMBER_CAP:
        raise CapError(f"transform of {len(members)} members, over the cap of {TRANSFORM_MEMBER_CAP}")
    top = max((g.degree for g in members), default=0)
    bits = math.comb(top, top // 2).bit_length()
    # top <= C(8, 2) = 28 under the poset vertex cap, so bits + 5 <= 31 fits 32-bit fields
    width = next(w for w in _FIELD_CODES if w >= bits + top.bit_length())
    high = _high_bits(width, bits, len(members))
    blocks = [(d, idx[0], (1 << (width * len(idx))) - 1) for d, idx in sorted(poset.by_degree().items())]
    rows: dict[int, int] = {}  # packed rows by canonical bits
    for pos, g in enumerate(members):
        down: Counter = Counter()
        rest = g.bits
        while rest:
            low = rest & -rest
            rest ^= low
            down[canonicalize_bits(g.bits ^ low).bits] += 1
        acc = 0
        for k_bits, c in down.items():
            down_row = rows.get(k_bits)
            if down_row is None:
                raise PosetError(f"a one-edge deletion of {g.graph6!r} is not a member of the poset")
            acc += c * down_row
        row = 1 << (width * pos)
        for d, start, mask in blocks:
            if d >= g.degree:
                break
            shift = width * start
            row |= _exact_field_quotient((acc >> shift) & mask, g.degree - d, high) << shift
        rows[g.bits] = row
    return IntMatrix(_unpack_rows([rows[g.bits] for g in members], width), len(members))


_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # field width in bits -> memoryview format


def _high_bits(width: int, bits: int, count: int) -> int:
    """Bits `bits` .. `width - 1` of each of `count` fields of `width` bits."""
    field = (1 << width) - 1
    return (field ^ ((1 << bits) - 1)) * (((1 << (width * count)) - 1) // field)


def _exact_field_quotient(block: int, divisor: int, high: int) -> int:
    """block // divisor, every field of block divided exactly; AssertionError otherwise.

    A zero remainder alone proves nothing per field: a carry can move a
    remainder into the next field down.  But if every quotient field q is
    below 2^bits (no bit of `high` set) and divisor * 2^bits <= 2^width, then
    q * divisor fits its field, the product has no carries, and so each field
    of block is divisor times the field of the quotient.
    """
    q, r = divmod(block, divisor)
    if r or q & high:
        raise AssertionError("cover recursion: inexact division in a degree block")
    return q


def _unpack_rows(rows: list[int], width: int) -> list[dict[int, int]]:
    """Lower-triangular packed rows as sparse {column: value} rows."""
    out = []
    for i, row in enumerate(rows):
        # in native byte order each field reads as one item; big-endian bytes put field 0 last
        fields = memoryview(row.to_bytes(width // 8 * (i + 1), sys.byteorder)).cast(_FIELD_CODES[width])
        out.append({j: x for j, x in enumerate(fields if sys.byteorder == "little" else fields[::-1]) if x})
    return out


def check_transform_rows(matrix: IntMatrix, degrees) -> None:
    """Whole-matrix check of a transform in O(nnz); raises AssertionError.

    One row per member, a unit diagonal, positive entries only below it and
    only in columns of lower degree, and in each row i, for every d <= deg g_i,
    the degree-d entries sum to C(deg g_i, d): the d-edge subsets of g_i,
    each a copy of exactly one member.
    """
    if matrix.rows != len(degrees):
        raise AssertionError(f"transform has {matrix.rows} rows for {len(degrees)} members")
    for i in range(matrix.rows):
        top = degrees[i]
        sums = [0] * (top + 1)
        for j, e in matrix.row(i).items():
            if j == i:
                if e != 1:
                    raise AssertionError(f"transform diagonal entry {i} is {e}")
            elif not (0 <= j < i and degrees[j] < top and e > 0):
                raise AssertionError(f"transform entry ({i}, {j}) = {e} is out of place")
            sums[degrees[j]] += e
        if sums != [math.comb(top, d) for d in range(top + 1)]:
            raise AssertionError(f"transform row {i}: sums by degree {sums} are not binomial")


def cached_mtransform(poset: GPoset, cache_dir: str | None) -> IntMatrix:
    """The transform of poset, through the file cache when cache_dir is given,
    under `mtransform:n=<n>:d=<max_degree>`: one [[j, e], ...] row of int pairs
    per member.  A loaded entry must pass that shape check; built or loaded,
    the matrix passes `check_transform_rows` before it is served.  Either
    check raises AssertionError."""
    if not cache_dir:
        matrix = build_mtransform(poset)
    else:
        from .util import cache_fetch

        def build():
            e = build_mtransform(poset)
            return [[[j, x] for j, x in sorted(e.row(i).items())] for i in range(e.rows)]

        rows = cache_fetch(cache_dir, f"mtransform:n={poset.ambient_n}:d={poset.max_degree}", build)
        if not (
            type(rows) is list
            and all(type(row) is list for row in rows)
            and all(type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int
                    for row in rows for pair in row)
        ):
            raise AssertionError("mtransform entry is not a list of rows of integer [j, e] pairs")
        matrix = IntMatrix((dict(row) for row in rows), len(poset))
    check_transform_rows(matrix, poset.degrees())
    return matrix


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
    return IntMatrix((
        {j: x for j, e in matrix.row(i).items() if (x := e * k ** (d_i - degrees[j]))}
        for i, d_i in enumerate(degrees)
    ), matrix.cols)


def unitriangular_inverse(matrix: IntMatrix) -> IntMatrix:
    """Exact inverse of a lower unitriangular integer matrix by forward substitution.

    Row by row over the nonzeros: inv_i = e_i - sum_{j<i, a_ij != 0} a_ij * inv_j.
    """
    n = matrix.rows
    if n != matrix.cols:
        raise PreconditionError("inverse requires a square matrix")
    inv_rows: list[dict[int, int]] = []
    for i in range(n):
        acc = {i: 1}
        for j, a in matrix.row(i).items():
            if j < i:
                for k, v in inv_rows[j].items():
                    acc[k] = acc.get(k, 0) - a * v
        inv_rows.append({k: v for k, v in acc.items() if v})
    return IntMatrix(inv_rows, n)


def inverse_mtransform(matrix: IntMatrix, degrees=None, complete: bool = False) -> IntMatrix:
    """Inverse of a transform: the closed form `mnukhin_power(-1)` on a
    complete poset, proved by `_check_packed_inverse`; elimination by
    `unitriangular_inverse` otherwise.  Elimination is the tests' oracle for
    the closed form."""
    if not (complete and degrees is not None):
        return unitriangular_inverse(matrix)
    closed = mnukhin_power(matrix, degrees, -1, complete=True)
    _check_packed_inverse(matrix, closed)
    return closed


def _check_packed_inverse(matrix: IntMatrix, inverse: IntMatrix) -> None:
    """Prove matrix @ inverse == I exactly; AssertionError otherwise.

    Row j of the inverse is packed into one signed int C_j with a field of
    `width` bits per column, and row i of the product is sum_j e_ij * C_j,
    which must equal 1 << (width * i).  Every product entry is at most
    (max row sum of |e|) * (max |c|) < 2^(width - 1) in absolute value, and
    an int has one expansion in signed digits of that size, so the equality
    holds field by field: the product row is the unit row i.
    """
    n = matrix.rows
    if (matrix.cols, inverse.rows, inverse.cols) != (n, n, n):
        raise AssertionError("inverse has the wrong shape")
    row_sum = max((sum(map(abs, matrix.row(i).values())) for i in range(n)), default=0)
    top = max((abs(x) for j in range(n) for x in inverse.row(j).values()), default=0)
    width = (row_sum * top).bit_length() + 1
    assert row_sum * top < 1 << (width - 1)
    packed = [sum(x << (width * k) for k, x in inverse.row(j).items()) for j in range(n)]
    for i in range(n):
        if sum(e * packed[j] for j, e in matrix.row(i).items()) != 1 << (width * i):
            raise AssertionError(f"closed-form inverse: row {i} of E C is not a unit row")


# ── complement identities and half-matrix reconstruction ─────────────────

def complement_invariant_expansion(g: IsoClass, poset: GPoset, ambient_n: int) -> LinComb:
    """Linear combination L with L(h) = count of g inside K_n minus h, for every
    h on ambient_n vertices.  Coefficients are exact rationals
    (-1)^|a| * count(a, g) * |Stab(a)| / |Stab(g)| over subclasses a of g."""
    from .algebra import LinComb  # the transform commands never load algebra

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
    col_pos = {j: c for c, j in enumerate(j for j, d in enumerate(degrees) if d == delta)}
    rows = ({col_pos[j]: e for j, e in matrix.row(i).items() if j in col_pos} for i in row_idx)
    return IntMatrix(rows, len(col_pos))


def exact_rank(matrix: IntMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination on the
    sparse rows: a zero stays zero when a row is only rescaled."""
    a = [dict(matrix.row(i)) for i in range(matrix.rows)]
    rank = 0
    prev = 1
    for col in range(matrix.cols):
        pivot = next((r for r in range(rank, len(a)) if col in a[r]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]  # every entry left of col is zero in the rows from here down
        p = top[col]
        for r in range(rank + 1, len(a)):
            row = a[r]
            f = row.pop(col, 0)
            new = {c: v * p for c, v in row.items()}
            if f:
                for c, v in top.items():
                    if c != col:
                        new[c] = new.get(c, 0) - f * v
            a[r] = {c: v // prev for c, v in new.items() if v}
        prev = p
        rank += 1
        if rank == len(a):
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
    rows = [tl.row(r) for r in range(tl.rows)]
    rows += [{**bl.row(r), **{j + bl.cols: x for j, x in br.row(r).items()}} for r in range(bl.rows)]
    return IntMatrix(rows, bl.cols + br.cols)


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
