"""Exact integer transform matrices over posets: closed-form powers and inverse,
complement identities, half-matrix reconstruction, minors, exact rank and solve.

All arithmetic is exact.  Rationals appear only inside complement-expansion
coefficients, which must clear to integers on evaluation, and in the values a
solve returns.  A square transform system is solved in integers by the closed
form and certified by one exact multiply; rank and the non-square solve share
one fraction-free elimination, so no floating point ever enters.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations as _combinations, compress as _compress, count as _count, groupby as _groupby
from itertools import permutations as _permutations, product as _product
from typing import TYPE_CHECKING

from .errors import CapError, PosetError, PreconditionError
from .graph import IsoClass, stab_order, subgraph_class_counts
from .poset import FULL_POSET_VERTEX_CAP, GPoset, cached_poset

if TYPE_CHECKING:
    from .algebra import LinComb

SUBSET_MINOR_CAP = 10**6  # C(N, Delta) * C(N, delta) entries of a subset minor
TRANSFORM_MEMBER_CAP = 2_000  # members of a built transform: |E(7)| = 1,044, |E(8)| = 12,346


class IntMatrix:
    """Exact-integer matrix.  Sparse: one {column: value} map per row (`nonzeros`,
    zeros never stored) and the column count, 0 without rows.  Packed, as every
    transform and inverse is served (`from_packed`): square, row i one int whose
    fields 0 .. i of typecode `code` hold e_i0 .. e_ii, read as (-1)^(d_i - d_j)
    e_ij when `degrees` are given, S E S held as E's rows; its fields are decoded
    by one `_unpack` on first read, its sparse rows from them on theirs.  `data`
    is the dense view, for output and inspection.  Equality compares entries."""

    def __init__(self, nonzeros, cols: int) -> None:
        self.nonzeros = tuple(nonzeros)  # shadows the decode below
        self.rows = len(self.nonzeros)
        self.cols = cols if self.rows else 0
        self.packed = None

    @classmethod
    def from_packed(cls, ints, code: str, degrees=None) -> IntMatrix:
        m = cls.__new__(cls)
        m.packed, m.code, m.degrees = tuple(ints), code, degrees
        m.rows = m.cols = len(m.packed)
        return m

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

    def __repr__(self) -> str:
        return f"IntMatrix({list(self.nonzeros)!r}, {self.cols})"

    @functools.cached_property
    def lower(self) -> list:
        """Each row i of a packed matrix in columns 0 .. i, signed by its rule, not
        to be mutated; a row wider than its fields, or negative, raises OverflowError."""
        fields = _unpack(self.packed, self.code, range(1, self.rows + 1))
        rows = [fields[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(self.rows)]
        if self.degrees is None:
            return rows
        signs = [[(-1) ** (d_i + d) for d in self.degrees] for d_i in (0, 1)]  # signs[d_i % 2][j]
        return [list(map(operator.mul, row, signs[d % 2])) for row, d in zip(rows, self.degrees)]

    @functools.cached_property
    def nonzeros(self) -> tuple[dict[int, int], ...]:
        """The sparse rows of a packed matrix, decoded on first read."""
        return tuple(dict(zip(_compress(_count(), row), _compress(row, row))) for row in self.lower)

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
        if self.packed is None:
            return tuple(tuple(row.get(j, 0) for j in range(self.cols)) for row in self.nonzeros)
        zeros = (0,) * self.cols
        return tuple((*row, *zeros[i + 1 :]) for i, row in enumerate(self.lower))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols and self.nonzeros == other.nonzeros

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
    """The transform, entry (i, j) = copies of member j in member i: the packed
    rows of `_packed_columns` on every column; `_mtransform_by_subsets` is its oracle."""
    _refuse_transform(poset.ambient_n, poset.__len__)
    return IntMatrix.from_packed(*_packed_columns(poset, range(len(poset))))


def _refuse_transform(n: int, count) -> None:
    """CapError before any work: for a poset on more than FULL_POSET_VERTEX_CAP
    vertices, then for a transform of more than TRANSFORM_MEMBER_CAP members,
    count() counting them."""
    if n > FULL_POSET_VERTEX_CAP:
        raise CapError(f"full poset build capped at n <= {FULL_POSET_VERTEX_CAP}")
    size = count()
    if size > TRANSFORM_MEMBER_CAP:
        raise CapError(f"transform of {size} members, over the cap of {TRANSFORM_MEMBER_CAP}")


def transform_columns(poset: GPoset, invariants) -> list[tuple[int, ...]]:
    """The values of the invariants on every member, one tuple per member:
    entry t for member g is e_gj, j = invariants[t], by `_packed_columns` on
    these columns alone, so no member cap applies.  A class that is not a
    member reads as the zero column: the poset is an E(n, d), so it has more
    than n vertices or d edges and is a copy inside no member."""
    at = [poset.index.get(inv.bits) for inv in invariants]
    positions = sorted(set(at) - {None})
    rows, code = _packed_columns(poset, positions)
    k = len(positions)
    fields = _unpack(rows, code, [k] * len(rows))  # column t is every k-th field from t
    field = {pos: t for t, pos in enumerate(positions)}
    cols = [fields[field[pos]::k] if pos in field else [0] * len(rows) for pos in at]
    return list(zip(*cols)) if cols else [()] * len(rows)


def _packed_columns(poset: GPoset, positions, size: int | None = None) -> tuple[list[int], str]:
    """(rows, code): the transform's rows of the first `size` members (all of
    them by default) in member order on the columns at the ascending member
    positions `positions`, field t of row g holding e_gj, j = positions[t], in
    fields of the `_FIELD_CODES` typecode `code`.

    Rows come from the one-edge cover recursion, a double count of the chains
    J < K < g with J a copy of member j and K = g minus one edge:
        (|g| - |g_j|) * e_gj = sum_k c_gk * e_kj,
    where c_gk counts the one-edge deletions of g that land in member k, the
    poset's `cover_counts`; the rows run no search.  The poset is an E(n, d),
    closed under edge deletion, so each k is an earlier member whose row is
    already built; the columns j it reads are only its own.

    The sum over k is a few big-integer multiply-adds, and each degree block
    of fields (contiguous, as members sort by degree) is divided by
    |g| - delta in one divmod.  Every entry is at most C(D, D // 2) < 2^bits,
    D the top degree, and g has |g| <= D deletions, so a summed field stays
    under D * 2^bits <= 2^width and no carry crosses fields.
    `_exact_field_quotient` proves each field divided exactly.
    """
    members = poset.members[:size]
    top = members[-1].degree if members else 0
    bits = math.comb(top, top // 2).bit_length()
    # top <= C(8, 2) = 28 under the poset vertex cap, so bits + 5 <= 31 fits 32-bit fields
    width = next(w for w in _FIELD_CODES if w >= bits + top.bit_length())
    field = {pos: t for t, pos in enumerate(positions)}
    degrees = [members[pos].degree for pos in positions]
    blocks = [(d, width * a, (1 << (width * (b - a))) - 1) for d, (a, b) in enumerate(_degree_spans(degrees)) if a < b]
    high = _high_bits(width, bits, len(degrees))
    lowest = degrees[0] if degrees else top  # a row of degree <= lowest is at most its diagonal
    rows: list[int] = []
    for pos, (g, down) in enumerate(zip(members, poset.cover_counts)):
        t = field.get(pos)
        row = 0 if t is None else 1 << (width * t)
        acc = 0
        if g.degree > lowest:
            for k, c in down.items():
                acc += c * rows[k]
        for d, shift, mask in blocks if acc else ():  # a zero sum leaves the diagonal alone
            if d >= g.degree:
                break
            row |= _exact_field_quotient((acc >> shift) & mask, g.degree - d, high) << shift
        rows.append(row)
    return rows, _FIELD_CODES[width]


_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # field width in bits -> unsigned array typecode


def _unpack(ints, code: str, counts) -> array:
    """Fields 0 .. counts[r] - 1 of each ints[r], concatenated in one array of typecode
    `code`; field t is bits [w t, w (t + 1)), w the item size, read in two's complement
    for a signed code.  A negative int, or one wider than its fields, raises OverflowError."""
    fields = array(code)
    fields.frombytes(b"".join(x.to_bytes(fields.itemsize * c, "little") for x, c in zip(ints, counts)))
    if sys.byteorder == "big":  # items are read in native byte order
        fields.byteswap()
    return fields


def _pack(fields: array) -> int:
    """The int sum_t fields[t] 2^(w t), each field's bits as stored; the inverse of `_unpack`."""
    if sys.byteorder == "big":
        fields = array(fields.typecode, fields)  # a copy: the caller's array stays as it is
        fields.byteswap()
    return int.from_bytes(fields, "little")


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


def check_transform_rows(matrix: IntMatrix, degrees) -> list[array]:
    """Fields 0 .. i of each row i of the packed transform `matrix` (its `lower`,
    decoded once), each passed by `_row_fault`, for nondecreasing degrees.  A row
    count other than the degrees', or a row wider than its fields, raises AssertionError."""
    if matrix.rows != len(degrees):
        raise AssertionError(f"transform has {matrix.rows} rows for {len(degrees)} members")
    try:
        rows = matrix.lower
    except OverflowError:
        raise AssertionError("a transform row does not fit its fields") from None
    spans = _degree_spans(degrees)
    for i, fields in enumerate(rows):
        if fault := _row_fault(i, fields, degrees, spans):
            raise AssertionError(fault)
    return rows


def _row_fault(i: int, fields: array, degrees, spans) -> str | None:
    """What breaks the transform row rule in fields 0 .. i of row i, or None.  The
    rule: a unit diagonal, and for every d <= deg g_i the degree-d fields summing
    (a slice sum, so exact) to C(deg g_i, d), the d-edge subsets of g_i.  Fields
    are unsigned, so at d = deg g_i no field but the diagonal may be set."""
    top = degrees[i]
    if fields[i] != 1:
        return f"transform diagonal entry {i} is {fields[i]}"
    sums = [sum(fields[start:end]) for start, end in spans[: top + 1]]
    if sums != [math.comb(top, d) for d in range(top + 1)]:
        return f"transform row {i}: sums by degree {sums} are not binomial"
    return None


def _degree_spans(degrees) -> list[tuple[int, int]]:
    """(first position, one past the last) of each degree 0 .. max of nondecreasing
    `degrees`; a degree absent from them spans nothing, where it would go."""
    return [(bisect_left(degrees, d), bisect_right(degrees, d)) for d in range(degrees[-1] + 1 if degrees else 0)]


def cached_transform(cache_dir: str | None, n: int, max_degree: int | None = None) -> tuple[GPoset, IntMatrix]:
    """E(n, max_degree) and its transform, refused by `_refuse_transform`: from
    n = 8 on before anything is built, with E(n, d) counted by
    `enumeration.graph_count_series`, and below on the poset, as |E(7)| =
    1,044 is under the cap and n <= 7 loads no enumeration.  The poset comes
    from `cached_poset`, through the file cache when cache_dir is given; the
    transform is always built from it, as no cache entry holds one.  On a
    loaded poset the build runs no canonical search up to E(7): its cover
    counts name every child and complement by fingerprint.  The matrix served
    is the one `check_transform_rows` decoded and passed, or raised AssertionError."""
    if n >= 8:
        from .enumeration import graph_count_series

        _refuse_transform(n, lambda: sum(graph_count_series(n, max_degree)))
    poset = cached_poset(cache_dir, n, max_degree)
    _refuse_transform(n, poset.__len__)
    matrix = IntMatrix.from_packed(*_packed_columns(poset, range(len(poset))))
    check_transform_rows(matrix, poset.degrees())
    return poset, matrix


def _mtransform_by_subsets(poset: GPoset) -> IntMatrix:
    """Oracle for build_mtransform, every row counted directly, by classifying
    each of the 2^|g_i| edge subsets of g_i."""
    members = poset.members
    counts = [[subgraph_class_counts(host, d) for d in range(host.degree + 1)] for host in members]
    return IntMatrix.from_rows([[c[m.degree].get(m, 0) if m.degree < len(c) else 0 for m in members] for c in counts])


def mnukhin_power(matrix: IntMatrix, degrees, k: int) -> IntMatrix:
    """Closed-form k-th power: entry (i, j) becomes k^(deg_i - deg_j) * e_ij,
    the power read from a table of the degree gaps of each row degree (an
    entry above its row's degree raises IndexError; a transform has none).

    Valid for the transform of every graph poset E(n, d) and of every multiset
    orbit poset (`multiset.build_general_mtransform`): E is the tensor Pascal
    matrix prod_i C(w_i, m_i) acting on orbit sums, it commutes with the
    group, and its k-th power is k^(|w| - |m|) times itself.  k = -1 gives
    the two-sided inverse.
    """
    if matrix.rows != matrix.cols or matrix.rows != len(degrees):
        raise PreconditionError("matrix/degree dimensions do not match")
    powers = {d: [k ** (d - d_j) for d_j in range(d + 1)] for d in set(degrees)}  # by row degree, then column degree
    return IntMatrix((
        {j: x for j, e in matrix.row(i).items() if (x := e * power[degrees[j]])}
        for i, power in enumerate(map(powers.__getitem__, degrees))
    ), matrix.cols)


def unitriangular_inverse(matrix: IntMatrix) -> IntMatrix:
    """Exact inverse of a lower unitriangular integer matrix by forward substitution.

    Row by row over the nonzeros: inv_i = e_i - sum_{j<i, a_ij != 0} a_ij * inv_j.
    The tests' oracle for the closed-form inverse; no production route calls it.
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


def solve_transform(matrix: IntMatrix, degrees, values) -> list:
    """The one solution c of matrix @ c = values, for a square transform system.

    The matrix must be unitriangular: a unit diagonal and every off-diagonal
    entry on one side of it, below for a transform E, above for its
    transpose; otherwise, or for a wrong value count, PreconditionError.  The
    values are scaled to integers by the lcm of their denominators, and the
    closed form of `mnukhin_power(-1)`, which holds with the same signs for
    the transpose, gives the answer in one signed pass over the rows:
        c_i = sum_j (-1)^(d_i - d_j) m_ij v_j.
    A second pass proves matrix @ c == values exactly, so the answer does not
    rest on the closed form: a unitriangular matrix has exactly one solution.
    A failed proof raises AssertionError.  The solution is ints when every
    value is an int, else Fractions; `unitriangular_inverse` is its oracle.
    """
    n = matrix.rows
    if matrix.cols != n or len(degrees) != n:
        raise PreconditionError("matrix/degree dimensions do not match")
    if len(values) != n:
        raise PreconditionError(f"expected {n} values, got {len(values)}")
    if any(matrix.row(i).get(i) != 1 for i in range(n)):
        raise PreconditionError("matrix diagonal is not all ones")
    if len({j > i for i in range(n) for j in matrix.row(i) if j != i}) > 1:
        raise PreconditionError("matrix has entries on both sides of its diagonal")
    integral = all(type(v) is int for v in values)  # a bool goes through Fraction
    fracs = values if integral else [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fracs))
    scaled = [f.numerator * (scale // f.denominator) for f in fracs]
    signed = [-v if d % 2 else v for v, d in zip(scaled, degrees)]
    sol = []
    for i, d_i in enumerate(degrees):
        c = sum(e * signed[j] for j, e in matrix.row(i).items())
        sol.append(-c if d_i % 2 else c)
    for i in range(n):
        if sum(e * sol[j] for j, e in matrix.row(i).items()) != scaled[i]:
            raise AssertionError(f"closed-form solve: row {i} of E c is not the value")
    return sol if integral else [Fraction(c, scale) for c in sol]


def inverse_mtransform(matrix: IntMatrix, degrees, complete: bool = True) -> IntMatrix:
    """Inverse of a transform: S E S, held as E's packed rows with the sign rule
    (-1)^(d_i - d_j) e_ij that `mnukhin_power(-1)` also gives, served once an
    exact proof on those rows shows that it is the inverse.  Only `invert`
    needs it; a solve goes through `solve_transform`.  The elimination
    `unitriangular_inverse` is the tests' oracle for it.

    The theorem is the one behind the Pascal matrix, the exponential of its
    subdiagonal.  Let N be E's one-degree block, n_ik = e_ik where
    d_k = d_i - 1 and 0 elsewhere, and S = diag((-1)^d).  If E has an
    identity block on each degree and satisfies the recursion
        (d_i - d_j) e_ij = sum_k n_ik e_kj  for every i, j,
    then E = exp(N): since [D, N] = N, exp(N) satisfies the same recursion
    and has the same identity blocks, and the recursion fixes every other
    entry by induction on d_i - d_j.  S N S = -N, so E^-1 = exp(-N) = S E S,
    whose entry (i, j) is (-1)^(d_i - d_j) e_ij.  Two exact checks prove
    it, each failure an AssertionError, and the matrix served is S E S by
    construction:
      (a) e_ii = 1, and every other nonzero e_ij is positive with d_j < d_i;
      (b) the recursion on E's rows packed unsigned in fields of `width`
          bits, one row at a time: the left side is one mask per degree
          below d_i (d_i - d_j counts them), the right side one
          multiply-add per nonzero of N.
    The width rule, read from the fields: every field on either side of (b)
    is nonnegative and at most max(d_max - d_min, max_i sum_k n_ik) * max e
    < 2^width, so equal packed rows have equal fields: no carry lets a wrong
    row pass; narrower rows are packed again, by shifts past 64 bits.  Sparse
    or signed rows, a negative entry refused, are packed at the width the
    rule gives, and their inverse is served as `mnukhin_power(-1)` gives it.

    `complete=False` raises PosetError.  A poset that is not closed under
    edge deletion, its flag forged, is refused by (b) wherever its E is not
    exp(N): with the empty graph a member, a member of degree d with a
    one-edge deletion outside the poset reads d in its empty-graph field on
    the left and less on the right.  Where E = exp(N) holds all the same,
    S E S is its inverse.  Degrees that are not nondecreasing raise
    PreconditionError: each degree must be one run of fields.
    """
    if not complete:
        raise PosetError("closed-form inverse requires a subgraph-closed poset")
    n = matrix.rows
    if matrix.cols != n or len(degrees) != n:
        raise PreconditionError("matrix/degree dimensions do not match")
    if any(a > b for a, b in zip(degrees, degrees[1:])):
        raise PreconditionError("degrees are not nondecreasing")
    if not n:
        return IntMatrix.identity(0)
    if sparse := matrix.packed is None or matrix.degrees is not None:  # read as dense rows, packed below
        if any(max(row, default=0) > i or min((*row, *row.values()), default=0) < 0 for i, row in enumerate(matrix.nonzeros)):
            raise AssertionError("a transform row has an entry past the diagonal, in a negative column or outside its field")
        lower, packed, width = [[row.get(j, 0) for j in range(i + 1)] for i, row in enumerate(matrix.nonzeros)], None, 0
    else:
        try:
            lower = matrix.lower
        except OverflowError:
            raise AssertionError("a transform row has an entry past the diagonal or outside its field") from None
        packed, width = matrix.packed, array(matrix.code).itemsize * 8
    spans = _degree_spans(degrees)
    ends = [(spans[max(d - 1, 0)][0], spans[d][0]) for d in degrees]  # row i of N: fields ends[i][0] .. ends[i][1] - 1
    most = max(1, degrees[-1] - degrees[0], *(sum(row[a:b]) for row, (a, b) in zip(lower, ends)))
    top = max(_unpack([functools.reduce(operator.or_, packed)], matrix.code, [n])) if packed else max(map(max, lower))
    bits = (most * top).bit_length()  # packed, field j of the rows' OR bounds column j: max e <= top < 2 max e
    if bits > width:  # (b) needs wider fields than the rows came in, if they came packed
        width = next((w for w in _FIELD_CODES if w >= bits), bits)
        code = _FIELD_CODES.get(width)
        packed = [_pack(array(code, row)) if code else sum(x << (width * j) for j, x in enumerate(row)) for row in lower]
    prefixes = [(1 << (width * end)) - 1 for _, end in spans]  # prefixes[u]: the fields of degree <= u
    for i, (p, d, (below, start)) in enumerate(zip(packed, degrees, ends)):
        if p >> (width * start) != 1 << (width * (i - start)):  # (a): of its own degree, only the unit diagonal
            fault = f"diagonal entry {lower[i][i]}" if lower[i][i] != 1 else "an entry of its own degree off the diagonal"
            raise AssertionError(f"transform row {i}: {fault}")
        n_i = lower[i][below:start]  # one multiply-add per nonzero of N
        if sum(map(p.__and__, prefixes[:d])) != sum(map(operator.mul, _compress(n_i, n_i), _compress(packed[below:start], n_i))):
            raise AssertionError(f"E is not exp(N): row {i} fails (d_i - d_j) e_ij = sum_k n_ik e_kj")
    return mnukhin_power(matrix, degrees, -1) if sparse else IntMatrix.from_packed(matrix.packed, matrix.code, tuple(degrees))


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


def complement_pairing(poset: GPoset) -> list[int]:
    """Position of the complement class in K_n of each member, from the
    poset's `complements`; raises PosetError if any is missing."""
    comp = poset.complements
    if len(comp) != len(poset):
        raise PosetError("a complement in K_n is not a member of the poset")
    return [comp[pos] for pos in range(len(poset))]


def solve_upper_half(poset: GPoset, ambient_n: int, extra_unknown=()) -> IntMatrix:
    """Rebuild the full transform of E(n) from rows of degree <= half = floor(C(n,2)/2).

    The known rows are the packed rows of `_packed_columns` on the prefix of
    the poset of degree <= half, E(n, half); every higher row is recovered
    from the complement recursion
        e_ij = sum_{k<=j} (-1)^|g_k| e_jk (|Stab k| / |Stab j|) e_{comp(i),k}.
    Middle-degree rows may be withheld via extra_unknown and are then solved
    from their complement partners the same way (selftest check 12 recovers
    the triangle row of E(4) from the star's).  A row whose partner is
    unknown too cannot be solved and raises PosetError.

    Members sort by degree, so the unknown rows of one degree D are solved
    together once every row of lower degree is known.  Each row is written
    once into a table of `width`-bit fields, e_ij at item i * |E(n)| + j; a
    column k is its strided slice over the rows before the block, packed by
    `_pack`, and an unknown row i is one signed multiply-add per nonzero of
    the known row comp(i), with every field offset by 2^(width - 1):
        acc = sum_k (-1)^|g_k| |Stab k| e_(comp i),k col_k,
    decoded by `_unpack`.  The decode is exact: every row, known (by
    `check_transform_rows`) or solved, passes `_row_fault` before any row is
    solved from it, else PosetError, so the entries read are at most
    C(top, top // 2) and row comp(i) sums to 2^|g_comp(i)| <= 2^top, hence
        |acc_j| <= max |Stab| * C(top, top // 2) * 2^top < 2^(width - 1).
    Each nonzero field must divide exactly by |Stab j| to a positive
    quotient, and the diagonal, summed from the row's own terms, must be 1;
    otherwise PosetError.  The cells of degree D off the diagonal are not
    computed: a member holds no copy of another member with as many edges.
    """
    n = ambient_n
    if n != poset.ambient_n:
        raise PreconditionError(f"ambient_n {n} is not the poset's ambient {poset.ambient_n}")
    degs = poset.degrees()
    half = n * (n - 1) // 2 // 2
    count = sum(d <= half for d in degs)  # the members of E(n, half), refused before anything is built
    _refuse_transform(n, lambda: count)
    comp = complement_pairing(poset)
    size = len(poset)
    stab = [stab_order(m, n) for m in poset.members]
    withheld = {poset.position(c) for c in extra_unknown}
    try:
        known_fields = check_transform_rows(IntMatrix.from_packed(*_packed_columns(poset, range(count), count)), degs[:count])
    except AssertionError as fault:
        raise PosetError(f"inconsistent partial data: {fault}") from None
    unknown = [i for i in range(size) if i >= count or i in withheld]
    for i in unknown:
        if comp[i] >= count or comp[i] in withheld:
            raise PosetError(f"cannot solve row {i}: complement row of degree {degs[comp[i]]} unknown")
    top = degs[-1]
    bits = (max(stab) * math.comb(top, top // 2) << top).bit_length() + 1  # the bound, and a sign bit
    # n <= 7 needs 64 bits; the known rows of E(8, 14) are over TRANSFORM_MEMBER_CAP
    width = next(w for w in _FIELD_CODES if w >= bits)
    code = _FIELD_CODES[width]
    table = array(code, [0]) * (size * size)
    for i, fields in enumerate(known_fields):
        if i not in withheld:
            table[i * size : i * size + i + 1] = array(code, fields)
    weight = [-s if d % 2 else s for s, d in zip(stab, degs)]  # (-1)^|g_k| |Stab k|
    spans = _degree_spans(degs)
    for d, block in _groupby(unknown, degs.__getitem__):
        start = spans[d][0]  # every row before the block has lower degree, and is in the table
        terms = {i: [(k, e) for k, e in enumerate(known_fields[comp[i]][:start]) if e] for i in block}  # partners are known
        need = {k for row_terms in terms.values() for k, _ in row_terms}
        signed = {k: weight[k] * _pack(table[k : start * size : size]) for k in need}  # weight_k col_k
        offset = (1 << (width - 1)) * ((1 << (width * start)) - 1) // ((1 << width) - 1)  # 2^(width - 1) in every field
        for i, row_terms in terms.items():
            acc = offset
            for k, e in row_terms:
                acc += e * signed[k]
            # each field is acc_j + 2^(width - 1) in [0, 2^width); flipping its top bit leaves acc_j in
            # two's complement, read by the signed code
            at = i * size
            for j, x in [(j, x) for j, x in enumerate(_unpack([acc ^ offset], code.lower(), [start])) if x]:
                q, r = divmod(x, stab[j])
                if r:
                    raise PosetError(f"inconsistent partial data at entry ({i},{j}): {x} is not a multiple of {stab[j]}")
                if q < 0:
                    raise PosetError(f"inconsistent partial data at entry ({i},{j}): negative, {q}")
                table[at + j] = q
            diagonal = sum(weight[k] * e * table[at + k] for k, e in row_terms)
            if diagonal != stab[i]:
                raise PosetError(f"inconsistent partial data: diagonal at row {i} is {Fraction(diagonal, stab[i])}")
            table[at + i] = 1
            if fault := _row_fault(i, table[at : at + i + 1], degs, spans):
                raise PosetError(f"inconsistent partial data: {fault}")
    return IntMatrix.from_packed((_pack(table[i * size : i * size + i + 1]) for i in range(size)), code)


# ── minors, rank and solve, block recursion, ordering search ─────────────

def minor_by_degree(matrix: IntMatrix, degrees, delta: int, big_delta: int) -> IntMatrix:
    """Rows of degree big_delta against columns of degree delta."""
    if delta > big_delta:
        raise PreconditionError("minor requires delta <= Delta")
    row_idx = [i for i, d in enumerate(degrees) if d == big_delta]
    col_pos = {j: c for c, j in enumerate(j for j, d in enumerate(degrees) if d == delta)}
    rows = ({col_pos[j]: e for j, e in matrix.row(i).items() if j in col_pos} for i in row_idx)
    return IntMatrix(rows, len(col_pos))


def exact_rank(matrix: IntMatrix) -> int:
    """Rank over the rationals, by `_eliminate` on a copy of the sparse rows."""
    return len(_eliminate([dict(matrix.row(i)) for i in range(matrix.rows)], matrix.cols))


def exact_solve(matrix: IntMatrix, rhs) -> list[Fraction] | None:
    """A solution x of matrix @ x = rhs, or None when the system is inconsistent.

    `_eliminate` runs on the augmented rows, pivoting on the real columns
    only, so a zero row left with a right-hand side is inconsistent.  The free
    unknowns are 0, as in Gauss-Jordan elimination; back substitution makes
    only the solution values Fractions."""
    if len(rhs) != matrix.rows:
        raise PreconditionError(f"{len(rhs)} right-hand sides for {matrix.rows} rows")
    n = matrix.cols
    a = [{**matrix.row(i), n: b} if b else dict(matrix.row(i)) for i, b in enumerate(rhs)]
    pivots = _eliminate(a, n)
    if any(a[len(pivots):]):
        return None
    sol = [Fraction(0)] * n
    for row, col in reversed(list(zip(a, pivots))):
        sol[col] = Fraction(row.get(n, 0) - sum(v * sol[c] for c, v in row.items() if col < c < n)) / row[col]
    return sol


def _eliminate(a: list[dict[int, int]], cols: int) -> list[int]:
    """Fraction-free (Bareiss) elimination of sparse rows in place, pivoting on
    columns 0 .. cols - 1; returns the pivot columns, the leftmost independent
    ones.  Row r < len(pivots) then starts at pivots[r], and the rows below
    are zero on those columns.  Entries are minors of the input, so each division
    by the previous pivot is exact, and a zero stays zero when only rescaled."""
    pivots: list[int] = []
    prev = 1
    for col in range(cols):
        rank = len(pivots)
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
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return pivots


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
            base.entry(order[i], order[j]) == target_rows[i][j]
            for i in range(size)
            for j in range(size)
        )
        if ok:
            matches.append(tuple(poset.members[i] for i in order))
    return matches
