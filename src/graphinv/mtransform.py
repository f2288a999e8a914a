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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations as _combinations, permutations as _permutations, product as _product
from typing import TYPE_CHECKING

from .errors import CapError, PosetError, PreconditionError
from .graph import IsoClass, _adjacency, canonicalize_bits, stab_order, subgraph_class_counts
from .poset import GPoset, _fingerprint, build_full_poset, cached_poset, one_edge_additions

if TYPE_CHECKING:
    from .algebra import LinComb

SUBSET_MINOR_CAP = 10**6  # C(N, Delta) * C(N, delta) entries of a subset minor
TRANSFORM_MEMBER_CAP = 2_000  # members of a built transform: |E(7)| = 1,044, |E(8)| = 12,346
COVER_COUNTS_MEMO_SIZE = 8  # posets whose cover counts `_poset_covers` keeps, the posets with them


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
    """The transform, entry (i, j) = copies of member j in member i: `_packed_columns`
    on every column, decoded once; `_mtransform_by_subsets` is its oracle."""
    members = poset.members
    if len(members) > TRANSFORM_MEMBER_CAP:
        raise CapError(f"transform of {len(members)} members, over the cap of {TRANSFORM_MEMBER_CAP}")
    rows, width = _packed_columns(poset, range(len(members)))
    return IntMatrix(_unpack_rows(rows, width), len(members))


def transform_columns(poset: GPoset, invariants) -> list[tuple[int, ...]]:
    """The values of the invariants on every member, one tuple per member:
    entry t for member g is e_gj, j = invariants[t], by `_packed_columns` on
    these columns alone, so no member cap applies.  A class that is not a
    member reads as the zero column: the poset is an E(n, d), so it has more
    than n vertices or d edges and is a copy inside no member."""
    at = [poset.index.get(inv.bits) for inv in invariants]
    positions = sorted(set(at) - {None})
    rows, width = _packed_columns(poset, positions)
    field = {pos: width * t for t, pos in enumerate(positions)}
    mask = (1 << width) - 1
    cols = [[row >> field[pos] & mask for row in rows] if pos in field else [0] * len(rows) for pos in at]
    return list(zip(*cols)) if cols else [()] * len(rows)


def _packed_columns(poset: GPoset, positions) -> tuple[list[int], int]:
    """(rows, width): the transform's rows in member order on the columns at the
    ascending member positions `positions`, field t of row g holding e_gj, j = positions[t].

    Rows come from the one-edge cover recursion, a double count of the chains
    J < K < g with J a copy of member j and K = g minus one edge:
        (|g| - |g_j|) * e_gj = sum_k c_gk * e_kj,
    where c_gk counts the one-edge deletions of g that land in member k, taken
    from `_poset_covers`, which names the grown class of each addition by its
    vertex-invariant fingerprint and searches only where two members share
    one; the rows run no search.  The poset is an E(n, d), closed under edge
    deletion, so each k is an earlier member whose row is already built; the
    columns j it reads are only its own.

    The sum over k is a few big-integer multiply-adds, and each degree block
    of fields (contiguous, as members sort by degree) is divided by
    |g| - delta in one divmod.  Every entry is at most C(D, D // 2) < 2^bits,
    D the top degree, and g has |g| <= D deletions, so a summed field stays
    under D * 2^bits <= 2^width and no carry crosses fields.
    `_exact_field_quotient` proves each field divided exactly.
    """
    members = poset.members
    top = members[-1].degree if members else 0
    bits = math.comb(top, top // 2).bit_length()
    # top <= C(8, 2) = 28 under the poset vertex cap, so bits + 5 <= 31 fits 32-bit fields
    width = next(w for w in _FIELD_CODES if w >= bits + top.bit_length())
    field = {pos: t for t, pos in enumerate(positions)}
    degrees = [members[pos].degree for pos in positions]
    starts = [t for t, d in enumerate(degrees) if not t or d != degrees[t - 1]]
    blocks = [(degrees[a], width * a, (1 << (width * (b - a))) - 1) for a, b in zip(starts, starts[1:] + [len(degrees)])]
    high = _high_bits(width, bits, len(degrees))
    lowest = degrees[0] if degrees else top  # a row of degree <= lowest is at most its diagonal
    rows: list[int] = []
    for pos, (g, down) in enumerate(zip(members, _poset_covers(poset))):
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
    return rows, width


@functools.lru_cache(maxsize=COVER_COUNTS_MEMO_SIZE)
def _poset_covers(poset: GPoset) -> tuple[dict[int, int], ...]:
    """`_cover_counts`, memoized by poset; the dicts are shared, not to be mutated."""
    return tuple(_cover_counts(poset))


def _cover_counts(poset: GPoset) -> list[dict[int, int]]:
    """c_gk by position: for each member g, {k: the one-edge deletions of g that land in k}.

    Members of degree at most half = C(n, 2) // 2 take them from the other
    side of each cover: `one_edge_additions` of k gives a_kg, the non-edges
    of one labeled copy of k in K_n whose addition makes g.  Counting the
    (labeled copy of g, edge) pairs both ways gives c_gk * orb(g) = a_kg *
    orb(k), where orb(x) = n! / ((n - cv)! aut) counts the labeled copies of x
    in K_n; a quotient that is not exact raises AssertionError.

    A member g above half takes them from its complement: deleting an edge of
    g adds it to the complement, so c_gk = a_(comp g)(comp k) exactly.  The
    complement map is built from the members at or below half by
    `_complement_positions`, each complement named by fingerprint as below.
    A complement outside the poset, or a map that is not a bijection, raises
    PosetError.

    So the additions of the members up to the middle degree are read once,
    from `poset.one_edge_additions`, and the upper half reuses them.  On a
    built poset the build has named every one of them below the middle
    degree, so they cost no fingerprint and no search.  The middle degree,
    and every degree of a loaded poset, is named there through the poset's
    `fingerprints`, which are empty unless the orbit count proves the poset
    all of E(n, top): then every child is a member, and only a child whose
    fingerprint another member shares is searched (none up to E(7)).  A
    hand-built poset that fails the proof has every case searched, so the
    errors below stay as they are.

    The c_gk of g must sum to |g|: a deletion that lands outside the poset
    leaves the sum short and raises PosetError, as does a member that does
    not fit in K_n.
    """
    members = poset.members
    n = poset.ambient_n
    if any(g.cv > n for g in members):
        raise PosetError(f"a member of the poset does not fit in K_{n}")
    nslots = n * (n - 1) // 2
    half = nslots // 2
    top = max((g.degree for g in members), default=0)

    def known() -> dict:  # read only for a class the build did not name
        return poset.fingerprints

    ups: list[dict[int, int]] = [{} for _ in members]  # ups[g][k] = a_kg
    for pos, k in enumerate(members):
        if k.degree >= min(top, half):
            break
        for grown, weight in one_edge_additions(k, n, known).items():
            at = poset.index.get(grown.bits)  # None: the addition leaves the poset
            if at is not None:
                ups[at][pos] = ups[at].get(pos, 0) + weight
    comp = _complement_positions(poset, nslots - top, half) if top > half else {}
    orbits = [math.perm(n, g.cv) // g.aut_support for g in members]
    covers = []
    for pos, (g, up, orbit) in enumerate(zip(members, ups, orbits)):
        down: dict[int, int] = {}
        if g.degree > half:
            for grown, weight in one_edge_additions(members[_lookup(comp, pos)], n, known).items():
                k = _lookup(comp, poset.index.get(grown.bits))
                down[k] = down.get(k, 0) + weight
        for k, a in up.items():
            c, rest = divmod(a * orbits[k], orbit)
            if rest:
                raise AssertionError(f"cover counts of {g.graph6!r}: inexact orbit quotient")
            down[k] = c
        if sum(down.values()) != g.degree:
            raise PosetError(f"a one-edge deletion of {g.graph6!r} is not a member of the poset")
        covers.append(down)
    return covers


def _complement_positions(poset: GPoset, low: int, high: int) -> dict[int, int]:
    """The complement in K_n of each member of degree low..high, and back, by position.

    A complement is named by its fingerprint in the poset's `fingerprints`,
    as in `one_edge_additions`: one that is missing or shared there is
    searched by `canonicalize_bits`."""
    n = poset.ambient_n
    nslots = n * (n - 1) // 2
    full = (1 << nslots) - 1
    known = poset.fingerprints
    comp: dict[int, int] = {}
    for pos, x in enumerate(poset.members):
        if x.degree > high:
            break
        if x.degree >= low:
            y = known.get((nslots - x.degree, _fingerprint(_adjacency(n, full ^ x.bits))))
            at = poset.index.get((y or canonicalize_bits(full ^ x.bits)).bits)
            if at is None:
                raise PosetError(f"the complement of {x.graph6!r} is not a member of the poset")
            if comp.setdefault(pos, at) != at or comp.setdefault(at, pos) != pos:
                raise PosetError("complementation is not a bijection of the poset's members")
    return comp


def _lookup(comp: dict[int, int], pos: int | None) -> int:
    """comp[pos], raising PosetError for a position outside the complement map."""
    at = comp.get(pos)
    if at is None:
        raise PosetError("a complement in K_n is not a member of the poset")
    return at


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


def cached_transform(cache_dir: str | None, n: int, max_degree: int | None = None) -> tuple[GPoset, IntMatrix]:
    """E(n, max_degree) and its transform.  An E(n, d) over TRANSFORM_MEMBER_CAP
    members, counted by `enumeration.graph_count_series`, is refused before
    anything is built.  The poset comes from `cached_poset`, through the file
    cache when cache_dir is given; the transform is always built from it, as
    no cache entry holds one.  On a loaded poset the build runs no canonical
    search up to E(7): `_cover_counts` names every child and complement by its
    fingerprint.  Every matrix served passes `check_transform_rows`, which
    raises AssertionError."""
    if n >= 8:  # |E(7)| = 1,044 is under the cap, so n <= 7 loads no enumeration
        from .enumeration import graph_count_series

        size = sum(graph_count_series(n, max_degree))
        if size > TRANSFORM_MEMBER_CAP:
            raise CapError(f"transform of {size} members, over the cap of {TRANSFORM_MEMBER_CAP}")
    poset = cached_poset(cache_dir, n, max_degree)
    matrix = build_mtransform(poset)
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
    """Inverse of a transform: the closed form `mnukhin_power(-1)`, proved by
    `_check_packed_inverse`; `complete=False` raises PosetError.  Only the
    `invert` command needs the whole inverse; a solve goes through
    `solve_transform`.  The elimination `unitriangular_inverse` is the tests'
    oracle for it."""
    if not complete:
        raise PosetError("closed-form inverse requires a subgraph-closed poset")
    closed = mnukhin_power(matrix, degrees, -1)
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


def complement_pairing(poset: GPoset) -> list[int]:
    """Position of the complement class in K_n of each member, taken from the
    members at or below the middle degree and named by fingerprint as in
    `_cover_counts`; raises PosetError if any is missing."""
    n = poset.ambient_n
    comp = _complement_positions(poset, 0, n * (n - 1) // 2 // 2)
    return [_lookup(comp, pos) for pos in range(len(poset))]


def solve_upper_half(poset: GPoset, ambient_n: int, extra_unknown=()) -> IntMatrix:
    """Rebuild the full transform of E(n) from rows of degree <= half = floor(C(n,2)/2).

    The known rows are those of `build_mtransform` on E(n, half), whose
    members are a prefix of E(n); every higher row is recovered from the
    complement recursion
        e_ij = sum_{k<=j} (-1)^|g_k| e_jk (|Stab k| / |Stab j|) e_{comp(i),k}.
    Middle-degree rows may be withheld via extra_unknown and are then solved
    from their complement partners the same way (selftest check 12 recovers
    the triangle row of E(4) from the star's).
    """
    n = ambient_n
    if n != poset.ambient_n:
        raise PreconditionError(f"ambient_n {n} is not the poset's ambient {poset.ambient_n}")
    comp = complement_pairing(poset)
    size = len(poset)
    stab = [stab_order(m, n) for m in poset.members]
    degs = poset.degrees()
    withheld = {poset.position(c) for c in extra_unknown}
    known = build_mtransform(build_full_poset(n, n * (n - 1) // 2 // 2))
    rows: list[dict[int, int] | None] = [
        known.row(i) if i < known.rows and i not in withheld else None for i in range(size)
    ]
    for i in range(size):
        if rows[i] is not None:
            continue
        ci = comp[i]
        if rows[ci] is None:
            raise PosetError(
                f"cannot solve row {i}: complement row of degree {degs[ci]} unknown"
            )
        terms = [(k, (stab[k] if degs[k] % 2 == 0 else -stab[k]) * e_ck) for k, e_ck in rows[ci].items()]
        row: dict[int, int] = {}
        for j in range(i + 1):
            row_j = rows[j] if j < i else row  # j == i: the prefix just solved; row comp(i) has no column i
            acc = 0
            for k, w in terms:  # in column order; row j has no entry past column j
                if k > j:
                    break
                acc += w * row_j.get(k, 0)
            q, r = divmod(acc, stab[j])
            if r:
                raise PosetError(f"inconsistent partial data at entry ({i},{j})")
            if q:
                row[j] = q
        if row.get(i) != 1:
            raise PosetError(f"inconsistent partial data: diagonal at row {i} is {row.get(i, 0)}")
        rows[i] = row
    return IntMatrix(rows, size)


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
            base.data[order[i]][order[j]] == target_rows[i][j]
            for i in range(size)
            for j in range(size)
        )
        if ok:
            matches.append(tuple(poset.members[i] for i in order))
    return matches
