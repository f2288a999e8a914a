"""Degree-sorted posets of graph classes: the full E(n, d), every class on at
most n vertices with at most d edges, which is closed under edge deletion.

Members are ordered by (degree, canonical bitset); the tie-break inside a
degree class is a documented convention, so two independent builds always
produce identical sequences and every transform built on top is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    canonicalize_bits,
    is_connected_class,
    parse_graph6,
)
from .perm import pair_slot

FULL_POSET_VERTEX_CAP = 8
MEMBER_CAP = 500_000


@dataclass(frozen=True)
class GPoset:
    """The members of E(ambient_n, max_degree) in (degree, bits) order, indexed
    by canonical bits.  `complete` (closed under edge deletion) is True on
    every poset the package builds or loads."""

    members: tuple[IsoClass, ...]
    ambient_n: int
    max_degree: int
    complete: bool
    index: dict = field(repr=False, compare=False)

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
    """All classes with cv <= n and degree <= max_degree, by incremental edge extension."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n > FULL_POSET_VERTEX_CAP:
        raise CapError(f"full poset build capped at n <= {FULL_POSET_VERTEX_CAP}")
    if max_degree is not None and max_degree < 0:
        raise PreconditionError("max_degree must be nonnegative")
    max_degree = _degree_bound(n, max_degree)
    classes = {EMPTY_CLASS}
    current = {EMPTY_CLASS}
    for _d in range(max_degree):
        nxt = set()
        for cls in current:
            cv = cls.cv
            hi = min(cv + 2, n)
            for i, j in combinations(range(hi), 2):
                # a new edge may touch existing support, one fresh vertex (cv),
                # or be the fresh pair (cv, cv+1); anything else duplicates a case
                if j > cv and not (i == cv and j == cv + 1):
                    continue
                slot = pair_slot(i, j)
                if cls.bits >> slot & 1:
                    continue
                grown = canonicalize_bits(cls.bits | 1 << slot)
                if grown.cv <= n:
                    nxt.add(grown)
        classes |= nxt
        if len(classes) > MEMBER_CAP:
            raise CapError(f"poset exceeds member cap of {MEMBER_CAP}")
        current = nxt
        if not current:
            break
    members = tuple(sorted(classes, key=lambda c: c.sort_key))
    index = {m.bits: pos for pos, m in enumerate(members)}
    return GPoset(members, n, max_degree, True, index)


def _degree_bound(n: int, max_degree: int | None) -> int:
    """The degree bound of E(n, max_degree): max_degree, capped at C(n, 2)."""
    cap = n * (n - 1) // 2
    return cap if max_degree is None else min(max_degree, cap)


# ── the poset file: a JSON sidecar dict (the CLI caches these) ──────────

def poset_sidecar(p: GPoset) -> dict:
    return {
        "ambient_n": p.ambient_n,
        "max_degree": p.max_degree,
        "members": [
            {"graph6": m.graph6, "degree": m.degree, "cv": m.cv, "aut": m.aut_support}
            for m in p.members
        ],
    }


def poset_from_sidecar(obj: dict, n: int, max_degree: int | None = None) -> GPoset:
    """E(n, max_degree) as stored: each member is built from its record, not canonicalized.

    Members are trusted to be canonical under `util.CACHE_FORMAT`.  The stored
    n and degree bound must be the ints the caller names.  Each record is
    checked against its graph6 (vertex count = cv = support size, popcount =
    degree, integer aut >= 1), and the members must strictly increase in
    (degree, bits) within those bounds.  The member set is then proved to be
    all of E(n, d) by counting labeled copies in K_n: for every k <= d the
    members of degree k have orbits n! / ((n - cv)! aut), each an exact
    quotient, that sum to C(C(n, 2), k), the number of k-edge subsets.  A
    sidecar failing any of this raises AssertionError and is never served.
    """
    bound = _degree_bound(n, max_degree)
    ambient_n, stored_bound = obj["ambient_n"], obj["max_degree"]
    if not (type(ambient_n) is int and ambient_n == n and type(stored_bound) is int and stored_bound == bound):
        raise AssertionError(f"poset sidecar: stored n={ambient_n!r}, d={stored_bound!r} is not E({n}, {bound})")
    orbits = [0] * (bound + 1)
    members: list[IsoClass] = []
    for rec in obj["members"]:
        g = parse_graph6(rec["graph6"])
        cls = IsoClass(g.bits, rec["degree"], rec["cv"], rec["aut"])
        if not (
            type(cls.degree) is type(cls.cv) is type(cls.aut_support) is int
            and g.n == cls.cv == g.cv
            and g.degree == cls.degree
            and cls.aut_support >= 1
            and (not members or members[-1].sort_key < cls.sort_key)
            and cls.degree <= bound
            and cls.cv <= n
        ):
            raise AssertionError(f"poset sidecar: bad member record {rec!r}")
        orbit, rest = divmod(math.perm(n, cls.cv), cls.aut_support)
        if rest:
            raise AssertionError(f"poset sidecar: aut of {rec!r} does not divide its labelings")
        orbits[cls.degree] += orbit
        members.append(cls)
    if orbits != [math.comb(n * (n - 1) // 2, k) for k in range(bound + 1)]:
        raise AssertionError(f"poset sidecar: the members are not all of E({n}, {bound})")
    index = {m.bits: pos for pos, m in enumerate(members)}
    return GPoset(tuple(members), n, bound, True, index)
