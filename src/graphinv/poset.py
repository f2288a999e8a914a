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

import functools
import math
from dataclasses import dataclass, field

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    _adjacency,
    _canon_from_packed,
    _flood,
    _support_mask,
    _vertex_invariant,
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

    Degrees up to half = C(n, 2) // 2 are grown by `canonical_additions`, one
    canonical search per kept child, not per labeled addition; duplicates
    merge by canonical bits.  Each degree k above half is taken whole
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
            {grown.bits: grown for cls in levels[-1].values() for grown in canonical_additions(cls, n, False)}
        )
    full = (1 << nslots) - 1
    for k in range(len(levels), max_degree + 1):
        levels.append({c.bits: c for c in (canonicalize_bits(full ^ bits) for bits in levels[nslots - k])})
    return GPoset(tuple(level[bits] for level in levels for bits in sorted(level)), n, max_degree, True)


def one_edge_additions(cls: IsoClass, n: int, fingerprints: dict):
    """Each way to add one edge to cls placed in K_n, up to relabeling: yields
    (grown class, weight), the weight being how many of the C(n, 2) - |cls|
    non-edges of one labeled copy the case stands for.

    The cases are those of `_addition_cases`: the non-edges of the support
    grouped by swapping twins, the support to the fresh vertex cv, and the
    fresh pair (cv, cv + 1).  `fingerprints` is a `fingerprint_index`, or {}
    to search every case: a case's child is the member it gives for the
    child's `_vertex_invariant`, with no search, and a fingerprint that is
    missing or shared (None) costs one canonical search.  A grown class may
    be yielded by several cases; its weights add up.  A grown support is
    already [0..max(cv, j + 1)), so the memoized search runs without
    repacking.
    """
    cv, bits = cls.cv, cls.bits
    adj = _adjacency(cv, bits)
    child = adj + [0, 0]  # room for the fresh vertex and the fresh pair
    for i, j, weight in _addition_cases(adj, n):
        child[i] |= 1 << j
        child[j] |= 1 << i
        grown = fingerprints.get(_vertex_invariant(child))
        child[i] ^= 1 << j
        child[j] ^= 1 << i
        if grown is None:
            grown = _canon_from_packed(max(cv, j + 1), bits | 1 << (j * (j - 1) // 2 + i))
        yield grown, weight


def fingerprint_index(members, n: int) -> dict:
    """{`_vertex_invariant`: member} over members, None where two members share
    a fingerprint, for `one_edge_additions`.  A unique fingerprint names a
    child only if the child is known to be a member, so the index is empty
    unless `is_all_of_e` proves the members to be all of E(n, top), top their
    largest degree: then every child of degree <= top is a member, and a child
    of a higher degree has a degree sum no member has."""
    top = max((m.degree for m in members), default=0)
    if not is_all_of_e(members, n, top):
        return {}
    index: dict = {}
    for m in members:
        key = _vertex_invariant(_adjacency(m.cv, m.bits))
        index[key] = None if key in index else m
    return index


def is_all_of_e(members, n: int, bound: int) -> bool:
    """Whether members, classes taken to be canonical and to carry their true
    aut, are all of E(n, bound), proved by counting labeled copies in K_n:
    they must strictly increase in (degree, bits) with degrees <= bound,
    and for every k <= bound the members of degree k must have orbits
    n! / ((n - cv)! aut), each an exact quotient, that sum to C(C(n, 2), k),
    the number of k-edge subsets.  Distinct classes have disjoint orbits, so
    a missing class leaves its degree short."""
    orbits = [0] * (bound + 1)
    last = (-1, 0)
    for m in members:
        if m.degree > bound or m.cv > n or last >= m.sort_key:
            return False
        orbit, rest = divmod(math.perm(n, m.cv), m.aut_support)
        if rest:
            return False
        orbits[m.degree] += orbit
        last = m.sort_key
    return orbits == [math.comb(n * (n - 1) // 2, k) for k in range(bound + 1)]


@functools.cache
def canonical_additions(cls: IsoClass, n: int, connected: bool) -> tuple[IsoClass, ...]:
    """The children of cls in K_n whose new edge is a canonical deletion: of
    the cases of `_addition_cases`, only those whose new edge has the largest
    key among the child's edges are searched (McKay's canonical augmentation,
    J. Algorithms 26, 1998).  The key (deg u + deg v, |N(u) & N(v)|,
    deg u * deg v) is read off the child's neighbour masks and is invariant
    under relabeling.  With `connected`, the maximum runs only over the edges
    whose deletion leaves the child connected or that are pendant.  A class
    may appear more than once; callers merge by canonical bits.

    Soundness: every class C of degree |cls| + 1 in K_n has an edge e* of
    largest key (with `connected`, among the eligible edges; C - e* is then
    connected).  C - e* is a parent class, and its canonical copy has a
    non-edge that maps to e*: inside the support, to the fresh vertex, or the
    fresh pair.  Swapping twins is an automorphism of the parent, so the
    case standing for that non-edge gives a child isomorphic to C whose new
    edge has the key of e*, the largest, and the child is kept.  So growing
    every class of one degree yields every class of the next.

    Memoized per (class, n, connected), so a warm rebuild does not weigh the
    keys again.
    """
    cv, bits = cls.cv, cls.bits
    adj = _adjacency(cv, bits)
    child = adj + [0, 0]  # room for the fresh vertex and the fresh pair
    kept = []
    for i, j, _weight in _addition_cases(adj, n):
        child[i] |= 1 << j
        child[j] |= 1 << i
        if _has_max_key(child, i, j, connected):
            kept.append(_canon_from_packed(max(cv, j + 1), bits | 1 << (j * (j - 1) // 2 + i)))
        child[i] ^= 1 << j
        child[j] ^= 1 << i
    return tuple(kept)


def _addition_cases(adj: list[int], n: int):
    """(i, j, weight), i < j, for each way to add the edge (i, j) to the graph
    with neighbour masks adj on its support [0..cv), placed in K_n.

    Twins, vertices with the same neighbourhood apart from each other, form
    classes that are all adjacent or all not, and swapping two twins is an
    automorphism; so the non-edges between two twin classes are one case
    (weight the product of their sizes), as are the non-edges inside one
    class (weight C(size, 2)), each led by the least vertices.  A support
    vertex of each class joins the fresh vertex cv (weight size * (n - cv)),
    and the fresh pair is (cv, cv + 1) (weight C(n - cv, 2)).  Cases of
    weight 0 are not yielded, so every grown class fits in K_n, and the
    weights sum to the C(n, 2) - |edges| non-edges.
    """
    cv = len(adj)
    fresh = n - cv
    twins: list[int] = []  # twin classes as vertex masks, in order of their least vertex
    for v, a in enumerate(adj):
        for t, mask in enumerate(twins):
            r = (mask & -mask).bit_length() - 1
            if not (a ^ adj[r]) & ~(1 << v | 1 << r):
                twins[t] |= 1 << v
                break
        else:
            twins.append(1 << v)
    for q, mask in enumerate(twins):
        j = (mask & -mask).bit_length() - 1
        size = mask.bit_count()
        for other in twins[:q]:
            i = (other & -other).bit_length() - 1
            if not adj[j] >> i & 1:
                yield i, j, other.bit_count() * size
        rest = mask ^ 1 << j
        if rest:
            k = (rest & -rest).bit_length() - 1
            if not adj[j] >> k & 1:
                yield j, k, size * (size - 1) // 2
        if fresh >= 1:
            yield j, cv, size * fresh
    if fresh >= 2:
        yield cv, cv + 1, fresh * (fresh - 1) // 2


def _has_max_key(adj: list[int], u: int, v: int, connected: bool) -> bool:
    """Whether no edge of the graph with neighbour masks adj has a larger key
    than the edge (u, v); with `connected`, no edge whose deletion leaves the
    graph connected or that is pendant (see `canonical_additions`)."""
    deg = [a.bit_count() for a in adj]
    du, dv = deg[u], deg[v]
    mine = (du + dv, (adj[u] & adj[v]).bit_count(), du * dv)
    for a, nbrs in enumerate(adj):
        da = deg[a]
        above = nbrs >> (a + 1)
        b = a
        while above:
            skip = (above & -above).bit_length()
            above >>= skip
            b += skip
            db = deg[b]
            if da + db < mine[0] or (da + db, (nbrs & adj[b]).bit_count(), da * db) <= mine:
                continue
            if not connected or da == 1 or db == 1:
                return False
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            bridge = not _flood(adj, 1 << a) >> b & 1
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            if not bridge:
                return False
    return True


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
    aut must divide the labelings n! / (n - cv)!.  The member set is then
    proved to be all of E(n, d) by `is_all_of_e`, the count of labeled
    copies in K_n.  A sidecar failing any of this raises AssertionError and
    is never served.
    """
    bound = _degree_bound(n, max_degree)
    if not (
        0 <= n <= FULL_POSET_VERTEX_CAP
        and bound >= 0
        and type(obj) is list
        and all(type(rec) is list and len(rec) == 2 and type(rec[0]) is type(rec[1]) is int for rec in obj)
    ):
        raise AssertionError(f"poset sidecar for E({n}, {bound}) is not a list of integer [bits, aut] pairs")
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
        if math.perm(n, cls.cv) % aut:
            raise AssertionError(f"poset sidecar: aut of {[bits, aut]} does not divide its labelings")
        members.append(cls)
    if not is_all_of_e(members, n, bound):
        raise AssertionError(f"poset sidecar: the members are not all of E({n}, {bound})")
    return GPoset(tuple(members), n, bound, True)
