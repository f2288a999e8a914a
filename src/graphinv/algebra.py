"""Products of basic invariants and expression of invariants in the basic basis.

Three product routes are provided and must agree:

  * pair counting inside each candidate union class (the primary engine),
  * its refinement into orbits of 3-colored overlays, whose per-class counts
    match the stabilizer-quotient coefficients,
  * the triple sum over a poset transform matrix.

A product computed inside a fixed poset E(n) is an identity of functions on
n-vertex graphs; computed with ambient cv(A)+cv(B) it is an identity on all
simple graphs.
"""

from __future__ import annotations

import functools
import math
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
        orbits: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
        for c_bits, d_bits in pairs:
            coloring = (c_bits & ~d_bits, d_bits & ~c_bits, c_bits & d_bits)
            images = [
                (permute_bits(coloring[0], p), permute_bits(coloring[1], p), permute_bits(coloring[2], p))
                for p in auts
            ]
            orbits.setdefault(min(images), []).append(coloring)
        classes = []
        for key in sorted(orbits):
            members = orbits[key]
            cc = ColoringClass(cls, key[0], key[1], key[2], len(members))
            if cross_check_n is not None:
                _cross_check_coloring(cc, cross_check_n)
            classes.append(cc)
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
    """Structure constants from the transform matrix:
    c_k = sum_h (-1)^(|g_k|-|g_h|) e_kh e_hi e_hj."""
    if _realizable_degree(a.degree + b.degree, poset) > poset.max_degree:
        raise PosetError(
            f"product degree {a.degree + b.degree} exceeds poset degree cap {poset.max_degree}"
        )
    col_i = matrix.column(poset.position(a))
    col_j = matrix.column(poset.position(b))
    pairs = {h: e_hi * col_j[h] for h, e_hi in col_i.items() if h in col_j}
    degs = poset.degrees()
    terms = {}
    for k, member in enumerate(poset.members):
        acc = 0
        for h, e_kh in matrix.row(k).items():
            if h in pairs:
                prod = e_kh * pairs[h]
                acc += prod if (degs[k] - degs[h]) % 2 == 0 else -prod
        if acc:
            terms[member] = acc
    return LinComb.from_terms(terms)


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
    """Solve E c = values as c = E^-1 values (unique by unitriangularity),
    E^-1 the closed-form inverse `inverse_mtransform` proves."""
    from .mtransform import inverse_mtransform  # general-product never loads the transform layer

    n = len(poset)
    if len(values) != n:
        raise PreconditionError(f"expected {n} values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    inv = inverse_mtransform(matrix, poset.degrees())
    return LinComb.from_terms({
        m: sum((x * vals[j] for j, x in inv.row(i).items()), Fraction(0))
        for i, m in enumerate(poset.members)
    })


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
