"""Products of basic invariants and expression of invariants in the basic basis.

Three product routes are provided and must agree:

  * pair counting inside each candidate union class (the primary engine),
  * its refinement into orbits of 3-colored overlays, whose per-class counts
    match the stabilizer-quotient coefficients,
  * one certified solve on the leading block E(n, |a| + |b|) of a transform.

A product computed inside a fixed poset E(n) is an identity of functions on
n-vertex graphs; computed with ambient cv(A)+cv(B) it is an identity on all
simple graphs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    LabeledGraph,
    canonicalize_bits,
    count_subgraphs,
    pattern_copies,
    permute_bits,
    stab_order,
    support_automorphisms,
    tally_classes,
)
from .perm import pair_slot
from .poset import GPoset

GENERAL_PRODUCT_SUPPORT_CAP = 10
# copy lists kept by `_distinct_copies`; bounded because one list at m = 10
# can hold about a million bitsets
COPY_LISTS_MEMO_SIZE = 1 << 6


def _as_coeff(x):
    if type(x) is int:  # a bool still goes through Fraction
        return x
    frac = Fraction(x)
    return int(frac) if frac.denominator == 1 else frac


@dataclass
class LinComb:
    """A finite map from graph classes to exact coefficients (no stored zeros)."""

    terms: dict

    @classmethod
    def from_terms(cls, terms: dict) -> LinComb:
        """From {class: coefficient}, each coefficient normalized by `_as_coeff` and zeros dropped."""
        return cls({key: c for key, coeff in terms.items() if (c := _as_coeff(coeff))})

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key)

    def coefficient(self, cls: IsoClass):
        return self.terms.get(cls, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __add__(self, other: LinComb) -> LinComb:
        merged = Counter()
        for key, c in self.terms.items():
            merged[key] += c
        for key, c in other.terms.items():
            merged[key] += c
        return LinComb.from_terms(merged)

    def evaluate(self, host: LabeledGraph | IsoClass):
        """Sum of coeff * count(class, host); returns an int whenever exact."""
        total = Fraction(0)
        for cls, coeff in self.terms.items():
            total += Fraction(coeff) * count_subgraphs(cls, host)
        return _as_coeff(total)

    def to_json_obj(self) -> list:
        out = []
        for cls, coeff in self.items():
            c = coeff if isinstance(coeff, int) else f"{coeff.numerator}/{coeff.denominator}"
            out.append({"coeff": c, "graph6": cls.graph6})
        return out


@dataclass(frozen=True)
class ColoringClass:
    """An orbit of 3-colored overlays of a union class: 1 = first factor only,
    2 = second factor only, 3 = shared; pair_count is the orbit size."""

    underlying: IsoClass
    a_only: int
    b_only: int
    shared: int
    pair_count: int


# ── placement enumeration (shared by the general product and cap checks) ──

@functools.lru_cache(maxsize=COPY_LISTS_MEMO_SIZE)
def _distinct_copies(cls: IsoClass, m: int) -> tuple[int, ...]:
    """All distinct edge bitsets isomorphic to cls inside K_m, sorted; a
    shared cached value, hence a tuple."""
    if cls.degree == 0:
        return (0,)
    verts = range(m)
    rep_edges = cls.rep().edge_list()
    seen: set[int] = set()
    for images in permutations(verts, cls.cv):
        bits = 0
        for i, j in rep_edges:
            bits |= 1 << pair_slot(images[i], images[j])
        seen.add(bits)
    return tuple(sorted(seen))


def union_class_distribution(a: IsoClass, b: IsoClass, m: int) -> Counter:
    """Counter over union classes of (fixed copy of a) with every distinct copy of b in K_m."""
    if m < max(a.cv, b.cv):
        raise PreconditionError("ambient too small for the factors")
    a_bits = a.bits  # canonical rep already packed onto the lowest vertices
    return tally_classes(canonicalize_bits(a_bits | d_bits) for d_bits in _distinct_copies(b, m))


def union_classes(a: IsoClass, b: IsoClass, m: int) -> list[IsoClass]:
    return sorted(union_class_distribution(a, b, m), key=lambda c: c.sort_key)


# ── the three product routes ─────────────────────────────────────────────

def _realizable_degree(total: int, poset: GPoset) -> int:
    """Largest union degree, up to total, that the poset's ambient can realize."""
    return min(total, poset.ambient_n * (poset.ambient_n - 1) // 2)


def _check_poset_for_product(a: IsoClass, b: IsoClass, poset: GPoset) -> list[IsoClass]:
    if _realizable_degree(a.degree + b.degree, poset) > poset.max_degree:
        raise PosetError(
            f"product degree {a.degree + b.degree} exceeds poset degree cap {poset.max_degree}"
        )
    required = union_classes(a, b, min(a.cv + b.cv, poset.ambient_n))
    missing = [c for c in required if c not in poset]
    if missing:
        raise PosetError(
            "poset is missing union classes: " + ", ".join(c.graph6 for c in missing)
        )
    return required


def covering_pairs(a: IsoClass, b: IsoClass, target: IsoClass) -> list[tuple[int, int]]:
    """Ordered pairs (C, D) of copies of a and b inside the canonical representative
    of target whose union covers every edge of that representative."""
    rep = target.rep()
    copies_a = pattern_copies(a, rep)
    copies_b = copies_a if b == a else pattern_copies(b, rep)
    full = target.bits
    return [(c, d) for c in copies_a for d in copies_b if c | d == full]


def product_kocay(a: IsoClass, b: IsoClass, poset: GPoset) -> LinComb:
    """Structure constants by counting covering pairs of copies inside each union class."""
    candidates = _check_poset_for_product(a, b, poset)
    terms = {}
    for cls in candidates:
        npairs = len(covering_pairs(a, b, cls))
        if npairs:
            terms[cls] = npairs
    return LinComb.from_terms(terms)


def product_fleischmann(
    a: IsoClass, b: IsoClass, poset: GPoset, cross_check_n: int | None = None
) -> dict:
    """Covering pairs refined into coloring orbits, grouped by underlying class.

    One walk per orbit: a covering pair (C, D) that no orbit holds yet is
    relabeled by every support automorphism of the union; its colour classes
    (C only, D only, shared) follow from each image (C', D') as C' & ~D',
    D' & ~C' and C' & D'.  Every image must be a covering pair not yet
    assigned.  The orbit's key is the least colour triple over its images and
    its pair_count the number of distinct images.  Orbits are listed by key.

    With cross_check_n set (<= 7), every orbit size is verified against the
    stabilizer quotient |Stab(union)| / |Stab(C) ∩ Stab(D)| by explicit
    enumeration over all of S_n.
    """
    if cross_check_n is not None and cross_check_n > 7:
        raise CapError("stabilizer cross-check is capped at n <= 7")
    candidates = _check_poset_for_product(a, b, poset)
    result: dict = {}
    for cls in candidates:
        pairs = covering_pairs(a, b, cls)
        if not pairs:
            continue
        auts = support_automorphisms(cls)
        pool = set(pairs)
        classes = []
        for c_bits, d_bits in pairs:
            if (c_bits, d_bits) not in pool:
                continue
            images = {(permute_bits(c_bits, p), permute_bits(d_bits, p)) for p in auts}
            if not images <= pool:
                raise AssertionError(
                    f"an automorphism image of a covering pair in {cls.graph6!r} "
                    "is not an unassigned covering pair"
                )
            pool -= images
            key = min((c & ~d, d & ~c, c & d) for c, d in images)
            cc = ColoringClass(cls, key[0], key[1], key[2], len(images))
            if cross_check_n is not None:
                _cross_check_coloring(cc, cross_check_n)
            classes.append(cc)
        classes.sort(key=lambda cc: (cc.a_only, cc.b_only, cc.shared))
        assert sum(c.pair_count for c in classes) == len(pairs)
        result[cls] = tuple(classes)
    return result


def _cross_check_coloring(cc: ColoringClass, n: int) -> None:
    """Orbit size must equal |Stab(union)| / #{s in S_n : s fixes both factors setwise}."""
    union_bits = cc.a_only | cc.b_only | cc.shared
    c_bits = cc.a_only | cc.shared
    d_bits = cc.b_only | cc.shared
    if cc.underlying.cv > n:
        raise PreconditionError("cross-check ambient smaller than the union support")
    numerator = 0
    denominator = 0
    for images in permutations(range(n)):
        if permute_bits(union_bits, images) == union_bits:
            numerator += 1
            if permute_bits(c_bits, images) == c_bits and permute_bits(d_bits, images) == d_bits:
                denominator += 1
    if numerator % denominator or numerator // denominator != cc.pair_count:
        raise AssertionError(
            f"coloring orbit size {cc.pair_count} != stabilizer quotient "
            f"{numerator}/{denominator} on {cc.underlying.graph6!r}"
        )


def fleischmann_totals(refind: dict) -> LinComb:
    return LinComb.from_terms(
        {cls: sum(cc.pair_count for cc in classes) for cls, classes in refind.items()}
    )


def product_mtransform(a: IsoClass, b: IsoClass, poset: GPoset, matrix) -> LinComb:
    """Structure constants as one certified solve on the leading block of the
    transform: every union of a and b has at most top = |a| + |b| edges
    (capped at C(n, 2)), so the members of degree <= top, a prefix of the
    degree-sorted poset, carry the whole product.  Its values there are
    e_ka * e_kb, and `solve_transform` proves E c = v on that block."""
    from .mtransform import IntMatrix, solve_transform

    top = _realizable_degree(a.degree + b.degree, poset)
    if top > poset.max_degree:
        raise PosetError(
            f"product degree {a.degree + b.degree} exceeds poset degree cap {poset.max_degree}"
        )
    i, j = poset.position(a), poset.position(b)
    degrees = poset.degrees()
    m = bisect_right(degrees, top)
    rows = matrix.nonzeros[:m]
    values = [row.get(i, 0) * row.get(j, 0) for row in rows]
    return LinComb.from_terms(dict(zip(poset.members, solve_transform(IntMatrix(rows, m), degrees[:m], values))))


def is_general_identity(a: IsoClass, b: IsoClass, poset: GPoset) -> bool:
    """True when the poset-ambient product is already valid on all simple graphs."""
    return a.cv + b.cv <= poset.ambient_n


def general_product(a: IsoClass, b: IsoClass) -> LinComb:
    """Product valid on ALL simple graphs, computed with ambient cv(a)+cv(b).

    The coefficient of a union class U is the number of b-placements producing
    U against a fixed copy of a, rescaled by |Stab(U)| / |Stab(a)|.
    """
    m = a.cv + b.cv
    if m > GENERAL_PRODUCT_SUPPORT_CAP:
        raise CapError(
            f"combined support {m} exceeds general-product cap {GENERAL_PRODUCT_SUPPORT_CAP}"
        )
    if m == 0:
        return LinComb.from_terms({EMPTY_CLASS: 1})
    dist = union_class_distribution(a, b, m)
    stab_a = stab_order(a, m)
    terms = {}
    for cls, placements in dist.items():
        coeff = Fraction(placements * stab_order(cls, m), stab_a)
        if coeff.denominator != 1:
            raise AssertionError(f"non-integer product coefficient for {cls.graph6!r}")
        terms[cls] = int(coeff)
    return LinComb.from_terms(terms)


def verify_product_identity(a: IsoClass, b: IsoClass, comb: LinComb, hosts) -> bool:
    """Check count(a,h)*count(b,h) == comb(h) on every host."""
    for host in hosts:
        lhs = count_subgraphs(a, host) * count_subgraphs(b, host)
        if lhs != comb.evaluate(host):
            return False
    return True


# ── expression in the basic basis and degree identities ──────────────────

def express_invariant(values, poset: GPoset, matrix) -> LinComb:
    """The combination of basic invariants with the given values on the
    members: the one solution c of E c = values (unique by
    unitriangularity), by `solve_transform`, which certifies it exactly; a
    wrong value count raises PreconditionError there."""
    from .mtransform import solve_transform  # general-product never loads the transform layer

    return LinComb.from_terms(dict(zip(poset.members, solve_transform(matrix, poset.degrees(), values))))


def degree_sum_identity_check(g_i: IsoClass, big_d: int, poset: GPoset, matrix) -> dict:
    """Check, on every poset member, the binomial-weighted expansion of
    I(g_i) * sum of all degree-D invariants; D = 1 is the edge-multiplication
    special case.  Unions past the ambient's C(n, 2) edges cannot occur, so
    every member of a full E(n) can be checked."""
    if _realizable_degree(big_d + g_i.degree, poset) > poset.max_degree:
        raise PosetError(
            f"poset degree cap {poset.max_degree} below D+|g_i| = {big_d + g_i.degree}"
        )
    degs = poset.degrees()
    col_i = matrix.column(poset.position(g_i))
    di = g_i.degree
    rhs_terms: Counter = Counter()
    for d in range(max(big_d, di), big_d + di + 1):
        weight = math.comb(di, di + big_d - d)
        if not weight:
            continue
        for k, e_ki in col_i.items():
            if degs[k] == d:
                rhs_terms[poset.members[k]] += weight * e_ki
    rhs = LinComb.from_terms(rhs_terms)
    first_violation = None
    for pos, host in enumerate(poset.members):
        lhs = col_i.get(pos, 0) * sum(e for k, e in matrix.row(pos).items() if degs[k] == big_d)
        if lhs != rhs.evaluate(host):
            first_violation = host
            break
    return {"holds": first_violation is None, "first_violation": first_violation, "rhs": rhs}
