"""Degree-sorted posets of graph classes: the full E(n, d), every class on at
most n vertices with at most d edges, which is closed under edge deletion.

Members are ordered by (degree, canonical bitset); the tie-break inside a
degree class is a documented convention, so two independent builds always
produce identical sequences and every transform built on top is reproducible.

Complementation in K_n maps degree k to C(n, 2) - k, so only the lower half
of the degrees is grown edge by edge; each member above the middle degree is
the complement of one below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    _canon_from_packed,
    _support_mask,
    canonicalize_bits,
    is_connected_class,
)

FULL_POSET_VERTEX_CAP = 8  # |E(8)| = 12,346 members


@dataclass(frozen=True)
class GPoset:
    """The members of E(ambient_n, max_degree) in (degree, bits) order, indexed
    by canonical bits.  `complete` (closed under edge deletion) is True on
    every poset the package builds or loads, and no package code reads it."""

    members: tuple[IsoClass, ...]
    ambient_n: int
    max_degree: int
    complete: bool
    index: dict = field(init=False, repr=False, compare=False)  # canonical bits -> position

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {m.bits: pos for pos, m in enumerate(self.members)})

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, cls: IsoClass) -> bool:
        return cls.bits in self.index

    def position(self, cls: IsoClass) -> int:
        pos = self.index.get(cls.bits)
        if pos is None:
            raise PosetError(f"{cls.graph6!r} is not a member of this poset")
        return pos

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.members)

    def by_degree(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for pos, m in enumerate(self.members):
            out.setdefault(m.degree, []).append(pos)
        return out

    def connected_members(self) -> tuple[IsoClass, ...]:
        return tuple(m for m in self.members if is_connected_class(m))


def build_full_poset(n: int, max_degree: int | None = None) -> GPoset:
    """All classes with cv <= n and degree <= max_degree.

    Degrees up to half = C(n, 2) // 2 are grown by `one_edge_additions`, one
    canonical search per addition.  Each degree k above half is taken whole
    from degree C(n, 2) - k <= half: complementation in K_n is a bijection of
    the classes, so the complements of its members are exactly the members of
    degree k, one search each.  A complement may leave vertices isolated, so it
    goes through `canonicalize_bits`, which repacks the support.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n > FULL_POSET_VERTEX_CAP:
        raise CapError(f"full poset build capped at n <= {FULL_POSET_VERTEX_CAP}")
    if max_degree is not None and max_degree < 0:
        raise PreconditionError("max_degree must be nonnegative")
    max_degree = _degree_bound(n, max_degree)
    nslots = n * (n - 1) // 2
    levels = [{0: EMPTY_CLASS}]  # levels[k]: the members of degree k, by canonical bits
    for _k in range(min(max_degree, nslots // 2)):
        levels.append(
            {grown.bits: grown for cls in levels[-1].values() for grown, _w in one_edge_additions(cls, n)}
        )
    full = (1 << nslots) - 1
    for k in range(len(levels), max_degree + 1):
        levels.append({c.bits: c for c in (canonicalize_bits(full ^ bits) for bits in levels[nslots - k])})
    return GPoset(tuple(level[bits] for level in levels for bits in sorted(level)), n, max_degree, True)


def one_edge_additions(cls: IsoClass, n: int):
    """Each way to add one edge to cls placed in K_n, up to relabeling: yields
    (grown class, weight), the weight being how many of the C(n, 2) - |cls|
    non-edges of one labeled copy the case stands for.

    The new edge lies inside the support [0..cv) (weight 1), joins vertex i of
    the support to the fresh vertex cv (weight n - cv), or is the fresh pair
    (cv, cv + 1) (weight C(n - cv, 2)).  Cases of weight 0 are not yielded, so
    every grown class fits in K_n.  A grown support is already
    [0..max(cv, j + 1)), so the memoized search runs without repacking.
    """
    cv, bits = cls.cv, cls.bits
    fresh = n - cv
    slot = 0  # colex: the pairs (i, j), i < j, of [0..cv) come first
    for j in range(1, cv):
        for _i in range(j):
            if not bits >> slot & 1:
                yield _canon_from_packed(cv, bits | 1 << slot), 1
            slot += 1
    if fresh >= 1:
        for i in range(cv):  # slot is now pair_slot(0, cv)
            yield _canon_from_packed(cv + 1, bits | 1 << (slot + i)), fresh
    if fresh >= 2:
        yield _canon_from_packed(cv + 2, bits | 1 << (slot + 2 * cv)), fresh * (fresh - 1) // 2


def _degree_bound(n: int, max_degree: int | None) -> int:
    """The degree bound of E(n, max_degree): max_degree, capped at C(n, 2)."""
    cap = n * (n - 1) // 2
    return cap if max_degree is None else min(max_degree, cap)


# ── the poset file: the JSON sidecar the CLI caches ─────────────────────

def cached_poset(cache_dir: str | None, n: int, max_degree: int | None = None) -> GPoset:
    """E(n, max_degree) through the file cache, under `poset:n=<n>:d=<bound>`:
    a build is served as built and stored as its `poset_sidecar`, and only a
    loaded sidecar is proved by `poset_from_sidecar`."""
    from .util import cache_fetch

    key = f"poset:n={n}:d={_degree_bound(n, max_degree)}"
    return cache_fetch(
        cache_dir, key, lambda: build_full_poset(n, max_degree), poset_sidecar,
        lambda obj: poset_from_sidecar(obj, n, max_degree),
    )


def poset_sidecar(p: GPoset) -> list[list[int]]:
    """[[bits, aut], ...] in member order: n and d are in the cache key, and
    each member's degree and cv follow from its bits."""
    return [[m.bits, m.aut_support] for m in p.members]


def poset_from_sidecar(obj, n: int, max_degree: int | None = None) -> GPoset:
    """E(n, max_degree) as stored: each member is built from its record, not canonicalized.

    Members are trusted to be canonical under `util.CACHE_FORMAT`.  The value
    must be a list of [bits, aut] int pairs.  Each member's bits must lie in
    K_n with support exactly [0..cv), its degree (popcount) within the bound
    and aut >= 1, and the members must strictly increase in (degree, bits).
    The member set is then proved to be all of E(n, d) by counting labeled
    copies in K_n: for every k <= d the members of degree k have orbits
    n! / ((n - cv)! aut), each an exact quotient, that sum to C(C(n, 2), k),
    the number of k-edge subsets.  A sidecar failing any of this raises
    AssertionError and is never served.
    """
    bound = _degree_bound(n, max_degree)
    if not (
        0 <= n <= FULL_POSET_VERTEX_CAP
        and bound >= 0
        and type(obj) is list
        and all(type(rec) is list and len(rec) == 2 and type(rec[0]) is type(rec[1]) is int for rec in obj)
    ):
        raise AssertionError(f"poset sidecar for E({n}, {bound}) is not a list of integer [bits, aut] pairs")
    orbits = [0] * (bound + 1)
    members: list[IsoClass] = []
    for bits, aut in obj:
        if not 0 <= bits < 1 << (n * (n - 1) // 2):
            raise AssertionError(f"poset sidecar: bits {bits} do not fit in K_{n}")
        support = _support_mask(bits)
        cls = IsoClass(bits, bits.bit_count(), support.bit_count(), aut)
        if not (
            support == (1 << cls.cv) - 1
            and aut >= 1
            and cls.degree <= bound
            and (not members or members[-1].sort_key < cls.sort_key)
        ):
            raise AssertionError(f"poset sidecar: bad member record {[bits, aut]}")
        orbit, rest = divmod(math.perm(n, cls.cv), aut)
        if rest:
            raise AssertionError(f"poset sidecar: aut of {[bits, aut]} does not divide its labelings")
        orbits[cls.degree] += orbit
        members.append(cls)
    if orbits != [math.comb(n * (n - 1) // 2, k) for k in range(bound + 1)]:
        raise AssertionError(f"poset sidecar: the members are not all of E({n}, {bound})")
    return GPoset(tuple(members), n, bound, True)
