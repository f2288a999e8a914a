"""Degree-sorted posets of graph classes: the full E(n, d), every class on at
most n vertices with at most d edges, which is closed under edge deletion.

Members are ordered by (degree, canonical bitset); the tie-break inside a
degree class is a documented convention, so two independent builds always
produce identical sequences and every transform built on top is reproducible.

Complementation in K_n maps degree k to C(n, 2) - k, so only the lower half
of the degrees is grown edge by edge; each member above the middle degree is
the complement of one below it.  The same growth, `_grow_level`, grows the
connected classes for `enumeration.connected_classes_by_degree`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    _SLOT_PAIRS,
    _adjacency,
    _canon_from_packed,
    _flood,
    _support_mask,
    canonicalize_bits,
    is_connected_class,
)

FULL_POSET_VERTEX_CAP = 8  # |E(8)| = 12,346 members
FINGERPRINT_PRIME = (1 << 61) - 1  # the modulus of `_vertex_weight`
FINGERPRINT_MEMO_SIZE = 8  # posets whose index `fingerprint_index` keeps


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

    @functools.cached_property
    def fingerprints(self) -> dict:
        """`fingerprint_index(self)`, kept on the poset after the first read."""
        return fingerprint_index(self)


def build_full_poset(n: int, max_degree: int | None = None) -> GPoset:
    """All classes with cv <= n and degree <= max_degree.

    Degrees up to half = C(n, 2) // 2 are grown by `_grow_level`, one
    canonical search per fingerprint of the next degree, each checked by the
    cover double count (1,043 searches for E(7), 521 of them in the growth);
    it names every one-edge addition of each class it grows, so a degree
    whose classes are all named already is read back with no search.  Each
    degree k above half is taken whole from degree C(n, 2) - k <= half:
    complementation in K_n is a bijection of the classes, so the complements
    of its members are exactly the members of degree k, one search each.  A
    complement may leave vertices isolated, so it goes through
    `canonicalize_bits`, which repacks the support.
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
    for k in range(min(max_degree, nslots // 2)):
        named = [_named_additions(cls, n) for cls in levels[-1].values()]
        if all(named):
            levels.append({grown.bits: grown for additions in named for grown in additions})
        else:
            levels.append(_grow_level(levels[-1].values(), n, k))
    full = (1 << nslots) - 1
    for k in range(len(levels), max_degree + 1):
        levels.append({c.bits: c for c in (canonicalize_bits(full ^ bits) for bits in levels[nslots - k])})
    return GPoset(tuple(level[bits] for level in levels for bits in sorted(level)), n, max_degree, True)


def _grow_level(parents, n: int, degree: int, *, connected: bool = False) -> dict[int, IsoClass]:
    """The classes of degree + 1 in K_n by canonical bits, grown from parents,
    all the classes of `degree`, each once; names every one-edge addition of
    every parent in `_named_additions`.  With connected, parents are all the
    connected classes of `degree` and the children all those of degree + 1:
    the fresh pair (cv, cv + 1), the one case whose child is disconnected, is
    dropped, so the additions are not all named and none is written.

    Each case of `_addition_cases` is keyed by its child's fingerprint
    (`_keyed_cases`), and only the first child under each key is searched.
    The key names that class C alone when the cover double count closes on
    it: the cases under the key, each weighted by its parent's orbit orb(x) =
    n! / ((n - cv)! aut), sum to r(C) * orb(C), r(C) the number of edges of C
    whose deletion lands in the parent level: degree + 1, every edge, for
    E(n), and for connected growth the `_reversible_edges`.  That sum counts
    the pairs (labeled copy in K_n, one such edge) of every class under the
    key, each pair once, since every class of the next degree arises from
    the complete level of parents by every case that makes it.  A second
    class under the key would add its own pairs, at least one per labeled
    copy (the leaf edge of a spanning tree is reversible), so the count is
    exact.  Where it does not close, every child under the key is searched.
    """
    grown = []  # (parent, its `_keyed_cases`)
    groups: dict[int, list] = {}  # key -> [the weighted parent orbits, first child's cv and bits]
    for cls in parents:
        orbit = math.perm(n, cls.cv) // cls.aut_support
        cases = [case for case in _keyed_cases(cls, n) if not connected or case[1] < cls.cv + 2]
        for key, cv, bits, weight in cases:
            group = groups.get(key)
            if group is None:
                groups[key] = [weight * orbit, cv, bits]
            else:
                group[0] += weight * orbit
        grown.append((cls, cases))
    named: dict[int, IsoClass | None] = {}  # key -> the class it names, None where the count does not close
    for key, (total, cv, bits) in groups.items():
        first = _canon_from_packed(cv, bits)
        edges = _reversible_edges(cv, bits) if connected else degree + 1
        named[key] = first if total == edges * (math.perm(n, cv) // first.aut_support) else None
    level: dict[int, IsoClass] = {}
    for cls, cases in grown:
        additions = {} if connected else _named_additions(cls, n)
        additions.clear()
        for key, cv, bits, weight in cases:
            child = named[key] or _canon_from_packed(cv, bits)
            additions[child] = additions.get(child, 0) + weight
            level[child.bits] = child
    return level


def _reversible_edges(cv: int, bits: int) -> int:
    """The edges of the connected graph with edge bits on [0..cv) whose
    deletion leaves a connected graph once an isolated vertex is dropped:
    the pendant edges and the edges on a cycle, every edge but the
    non-pendant bridges.  The count reads no vertex labels."""
    adj = _adjacency(cv, bits)
    count = 0
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = _SLOT_PAIRS[low.bit_length() - 1]
        if adj[u].bit_count() == 1 or adj[v].bit_count() == 1:
            count += 1
            continue
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        count += _flood(adj, 1 << u) >> v & 1
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return count


@functools.cache
def _named_additions(cls: IsoClass, n: int) -> dict[IsoClass, int]:
    """The shared {grown class: weight} of the one-edge additions of cls in
    K_n, empty until named: `_grow_level` names every class it grows into
    E(n) (not the connected growth) and `one_edge_additions` any other class
    it is asked for.  A class of degree below C(n, 2) has an addition, so a
    named entry is never empty."""
    return {}


def one_edge_additions(cls: IsoClass, n: int, fingerprints) -> dict[IsoClass, int]:
    """Each way to add one edge to cls placed in K_n, up to relabeling:
    {grown class: weight}, the weight being how many of the C(n, 2) - |cls|
    non-edges of one labeled copy make that class.  Shared through
    `_named_additions`, not to be mutated.

    A class the build grew is named already and is returned as it is.  For
    any other class (a middle degree, which the build takes as complements,
    or a loaded poset), each case of `_addition_cases` (the non-edges of the
    support grouped by swapping twins, the support to the fresh vertex cv,
    and the fresh pair (cv, cv + 1)) gives the member that `fingerprints()`,
    which returns a `fingerprint_index` and is called only here, holds for
    the child's degree and `_keyed_cases` key, with no search: up to E(7)
    every key is unique.  A key that is missing or shared costs one canonical
    search; `dict` as fingerprints searches every case.
    """
    named = _named_additions(cls, n)
    if named:
        return named
    known = fingerprints()
    degree = cls.degree + 1
    for key, cv, bits, weight in _keyed_cases(cls, n):
        grown = known.get((degree, key)) or _canon_from_packed(cv, bits)
        named[grown] = named.get(grown, 0) + weight
    return named


@functools.lru_cache(maxsize=FINGERPRINT_MEMO_SIZE)
def fingerprint_index(p: GPoset) -> dict:
    """{(degree, `_fingerprint`): member} over p's members in K_n, None where
    two members share both, for `one_edge_additions`; memoized by poset, so
    equal posets share one, and not to be mutated.  A unique entry names a
    child only if the child is known to be a member, so the index is empty
    unless `is_all_of_e` proves the members to be all of E(n, top), top their
    largest degree: then every child of degree <= top is a member, and a child
    of a higher degree finds no entry."""
    members, n = p.members, p.ambient_n
    top = max((m.degree for m in members), default=0)
    if not is_all_of_e(members, n, top):
        return {}
    index: dict = {}
    for m in members:
        key = m.degree, _fingerprint(_adjacency(m.cv, m.bits))
        index[key] = None if key in index else m
    return index


def _fingerprint(adj: list[int]) -> int:
    """The sum of `_vertex_weight` over the packed triples of the non-isolated
    vertices, so no relabeling changes it.  Two graphs with different
    triples may share it only if the difference of their triple counts,
    read as a polynomial, vanishes at 3 modulo FINGERPRINT_PRIME; a shared
    fingerprint costs searches, never a wrong class."""
    packed = _packed_triples(adj)
    return sum(map(_vertex_weight, packed)) - packed.count(0)  # an isolated vertex weighs 3^0 = 1


def _packed_triples(adj: list[int]) -> list[int]:
    """d << 16 | t << 8 | s for each vertex of the graph with neighbour masks
    adj: its degree d, twice the triangles at it t and its neighbours'
    degree sum s, the triples of `graph._vertex_invariant` (the test oracle),
    in vertex order; 0 for an isolated vertex."""
    deg = [a.bit_count() for a in adj]
    packed = []
    for a, d in zip(adj, deg):
        t = s = 0
        rest = a
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            t += (adj[u] & a).bit_count()
            s += deg[u]
            rest ^= low
        packed.append(d << 16 | t << 8 | s)
    return packed


@functools.cache
def _vertex_weight(packed: int) -> int:
    """3^packed mod FINGERPRINT_PRIME for a packed triple d << 16 | t << 8 | s
    (one to one for n <= 16, where t and s stay below 256)."""
    return pow(3, packed, FINGERPRINT_PRIME)


def _keyed_cases(cls: IsoClass, n: int) -> list[tuple[int, int, int, int]]:
    """(key, cv, bits, weight) for each case (i, j, weight) of
    `_addition_cases`: key the `_fingerprint` of the child, derived from the
    parent's triples, and cv and bits its packed support size and edges.  A
    grown support is already [0..max(cv, j + 1)), so the memoized search
    runs on them without repacking.

    Adding the edge ij raises the degree of i and j, adds two triangles to
    i, j and each common neighbour, and raises the neighbour-degree sum of i
    and j by the other's new degree and of every other vertex by the number
    of i and j among its neighbours.  So a neighbour of one endpoint moves
    to (d, t, s + 1) and a common neighbour to (d, t + 2, s + 2); their
    weight changes are summed per vertex once, and each case reads the
    endpoints' neighbourhoods and its common neighbours alone.
    """
    cv, bits = cls.cv, cls.bits
    adj = _adjacency(cv, bits)
    deg = [a.bit_count() for a in adj]
    packed = _packed_triples(adj)
    own = [_vertex_weight(p) for p in packed]  # every support vertex has an edge
    one = [_vertex_weight(p + 1) - w for p, w in zip(packed, own)]  # next to one endpoint
    both = [_vertex_weight(p + 514) - w - 2 * o for p, w, o in zip(packed, own, one)]  # to both, beyond 2 * one
    near = []  # near[v]: the change of v's neighbours when v gains a new neighbour
    for a in adj:
        s = 0
        while a:
            low = a & -a
            s += one[low.bit_length() - 1]
            a ^= low
        near.append(s)
    total = sum(own)
    fresh = [0, 0]  # the fresh vertices cv and cv + 1: isolated, weight 0
    adj2, deg, packed, own, near = adj + fresh, deg + fresh, packed + fresh, own + fresh, near + fresh
    out = []
    for i, j, w in _addition_cases(adj, n):
        common = adj2[i] & adj2[j]
        shift = (1 << 16) + (common.bit_count() << 9) + 1  # one more edge, two triangles per common neighbour
        key = (
            total + near[i] + near[j] - own[i] - own[j]
            + _vertex_weight(packed[i] + shift + deg[j]) + _vertex_weight(packed[j] + shift + deg[i])
        )
        while common:
            low = common & -common
            key += both[low.bit_length() - 1]
            common ^= low
        out.append((key, max(cv, j + 1), bits | 1 << (j * (j - 1) // 2 + i), w))
    return out


def is_all_of_e(members, n: int, bound: int) -> bool:
    """Whether members are all of E(n, bound), by counting labeled copies in
    K_n: they must strictly increase in (degree, bits) with degrees <= bound,
    and for every k <= bound the members of degree k must have orbits
    n! / ((n - cv)! aut), each an exact quotient, that sum to C(C(n, 2), k),
    the number of k-edge subsets.  Distinct classes have disjoint orbits, so
    a missing class leaves its degree short.

    The count is a proof only for members whose bits are canonical and whose
    aut is true, which it takes on trust: a class replaced by a relabeled
    copy of another class with the same degree, support and aut passes."""
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

    The value must be a list of [bits, aut] int pairs.  Each member's bits
    must lie in K_n with support exactly [0..cv), its degree (popcount)
    within the bound and aut >= 1, and the members must strictly increase in
    (degree, bits).  aut must divide the labelings n! / (n - cv)!, and the
    orbits must pass `is_all_of_e`, the count of labeled copies in K_n.  A
    sidecar failing any of this raises AssertionError and is never served.

    What is not proved is trusted under `util.CACHE_FORMAT`: that each
    member's bits are its class's canonical form and its aut is true.  Only
    then does the count make the members all of E(n, d); a class replaced by
    a relabeled copy of another with the same degree, support and aut loads.
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
