"""Labeled simple graphs as edge bitsets: canonical forms, subgraph counting, graph6 I/O.

A graph on [0..n) is a bitset over the C(n,2) pair slots in colex order (the
same bit order graph6 uses).  Canonical forms take the minimum bitset over all
relabelings of the support, with isolated vertices dropped, found by an exact
pruned search that also counts the support automorphisms; the plain sweep
over all support permutations is kept as its oracle.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, permutations
from types import MappingProxyType

from .errors import CapError, FormatError, PreconditionError
from .perm import pair_from_slot, pair_slot

MAX_VERTICES = 16
MAX_SUPPORT = 10  # canonical forms refuse larger supports
COUNT_ENUMERATION_CAP = 10**6  # host edge subsets or oracle injections of one `count`; K12 has 720,720 4-edge subsets


def _bits_to_slots(bits: int) -> list[int]:
    slots = []
    s = 0
    while bits:
        if bits & 1:
            slots.append(s)
        bits >>= 1
        s += 1
    return slots


@dataclass(frozen=True, slots=True)
class LabeledGraph:
    """A simple graph on the explicit vertex set [0..n), edges as a slot bitset."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.n <= MAX_VERTICES):
            raise CapError(f"vertex count {self.n} outside [0..{MAX_VERTICES}]")
        if self.bits < 0 or self.bits >> (self.n * (self.n - 1) // 2):
            raise PreconditionError(f"edge bits 0x{self.bits:x} do not fit in K_{self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> LabeledGraph:
        if not (0 <= n <= MAX_VERTICES):
            raise CapError(f"vertex count {n} outside [0..{MAX_VERTICES}]")
        bits = 0
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise PreconditionError(f"edge ({i},{j}) outside [0..{n})")
            slot = pair_slot(i, j)
            if bits >> slot & 1:
                raise PreconditionError(f"duplicate edge ({i},{j})")
            bits |= 1 << slot
        return cls(n, bits)

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(pair_from_slot(s) for s in _bits_to_slots(self.bits))

    def __iter__(self):
        return iter(self.edge_list())

    @property
    def degree(self) -> int:
        """Number of edges."""
        return self.bits.bit_count()

    @property
    def cv(self) -> int:
        """Number of vertices meeting at least one edge."""
        return _support_mask(self.bits).bit_count()


@dataclass(frozen=True)
class IsoClass:
    """Canonical representative of an isomorphism class, with cached metadata.

    Two classes are equal iff their canonical bitsets are equal; degree, cv and
    the support automorphism count ride along for free.
    """

    bits: int
    degree: int = field(compare=False)
    cv: int = field(compare=False)
    aut_support: int = field(compare=False)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.degree, self.bits)

    def rep(self, n: int | None = None) -> LabeledGraph:
        """The canonical labeled representative, on cv vertices unless n is given."""
        amb = self.cv if n is None else n
        if amb < self.cv:
            raise PreconditionError(f"ambient n={amb} smaller than support {self.cv}")
        return LabeledGraph(amb, self.bits)

    @property
    def graph6(self) -> str:
        return emit_graph6(self.rep())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IsoClass({self.graph6!r}, degree={self.degree}, cv={self.cv}, aut={self.aut_support})"


EMPTY_CLASS = IsoClass(0, 0, 0, 1)

# ── canonical-form machinery ─────────────────────────────────────────────
#
# The memos are functools caches on the functions that compute their values:
# `canonicalize_bits` (the front memo, keyed by the raw bitset, so a repeated
# labeled edge set costs one lookup and no repacking), `_canon_from_packed`
# (keyed by the packed support, behind it), `support_automorphisms` (by class)
# and `_class_counts` (by host bits and degree).  The front memo and
# `_class_counts` are bounded LRU caches, because their keys are labeled edge
# sets, which seldom repeat across hosts; the other two are keyed by classes
# or packed supports and stay unbounded.  Read them with `cache_info()`, clear
# them with `cache_clear()`.

CANON_MEMO_SIZE = 1 << 16  # raw bitsets kept by `canonicalize_bits`; about 150 B each, 10 MB at the bound
CLASS_COUNTS_MEMO_SIZE = 1 << 12  # subset histograms kept by `_class_counts`

_SLOT_PAIRS = tuple(pair_from_slot(s) for s in range(MAX_VERTICES * (MAX_VERTICES - 1) // 2))


def _support_mask(bits: int) -> int:
    """Bitmask of the vertices meeting at least one edge."""
    verts = 0
    while bits:
        low = bits & -bits
        i, j = _SLOT_PAIRS[low.bit_length() - 1]
        verts |= 1 << i | 1 << j
        bits ^= low
    return verts


def _pack_support(bits: int) -> tuple[int, int]:
    """Relabel the support onto [0..cv) preserving order; returns (cv, packed bits)."""
    verts = _support_mask(bits)
    cv = verts.bit_count()
    if verts == (1 << cv) - 1:
        return cv, bits
    packed = 0
    while bits:
        low = bits & -bits
        i, j = _SLOT_PAIRS[low.bit_length() - 1]
        ri = (verts & ((1 << i) - 1)).bit_count()
        rj = (verts & ((1 << j) - 1)).bit_count()
        packed |= 1 << (rj * (rj - 1) // 2 + ri)
        bits ^= low
    return cv, packed


def _adjacency(cv: int, bits: int) -> list[int]:
    """Neighbour bitmask of each vertex of [0..cv)."""
    adj = [0] * cv
    while bits:
        low = bits & -bits
        i, j = _SLOT_PAIRS[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        bits ^= low
    return adj


def _vertex_invariant(adj: list[int]) -> tuple[tuple[int, int, int], ...]:
    """A fingerprint that no relabeling changes: the sorted (degree, twice the
    triangles at v, sum of the neighbours' degrees) of each non-isolated vertex
    v of the graph with neighbour masks adj.  Isomorphic graphs share it.  The
    test oracle for the triples `poset._packed_triples` reads and for the
    fingerprints `poset._keyed_cases` derives case by case."""
    deg = [a.bit_count() for a in adj]
    out = []
    for a in adj:
        if not a:
            continue
        tri = nsum = 0
        rest = a
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            tri += (adj[u] & a).bit_count()
            nsum += deg[u]
            rest ^= low
        out.append((a.bit_count(), tri, nsum))
    out.sort()
    return tuple(out)


def _canon_pure(cv: int, bits: int) -> tuple[int, int]:
    """Plain-loop minimum-bitset sweep over all relabelings; the oracle for _min_labelings."""
    pairs = [pair_from_slot(s) for s in _bits_to_slots(bits)]
    best = None
    count = 0
    for images in permutations(range(cv)):
        val = 0
        for i, j in pairs:
            a, b = images[i], images[j]
            val |= 1 << (b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
        if best is None or val < best:
            best, count = val, 1
        elif val == best:
            count += 1
    return (0, 1) if best is None else (best, count)


def _min_labelings(adj: list[int], leaves: list | None = None) -> tuple[int, int]:
    """Exact pruned search for the minimum colex bitset over all relabelings.

    Returns (minimum, number of relabelings reaching it).  In colex order the
    slots (i, p), i < p, of the top position p outrank everything below it, so
    positions are filled from p = cv-1 down.  The unplaced vertices form an
    ordered partition into cells, lowest positions first.  The vertex for p
    comes from the top cell; its block of slots is least when its neighbours
    sit at the bottom of each cell, so only candidates with the least block
    are expanded, each cell is then split into (neighbours, non-neighbours),
    and a branch whose blocks exceed the best found so far is cut.  A
    discrete partition fixes the rest of the labeling.

    Two candidates with the same neighbourhood apart from each other are
    twins: being in one cell, they also agree on every placed vertex, so
    swapping them is an automorphism fixing the placed vertices, and only one
    of a twin class is expanded, weighted by the class size.  The
    minimal relabelings form one coset of the automorphism group, so their
    weighted count is |Aut|.  With `leaves` given, twins are not merged and
    every minimal relabeling is appended as a vertex -> position tuple.
    """
    cv = len(adj)
    state = [-1, 0]  # best bitset so far (-1: none yet), weighted count reaching it

    def expand(cells: list[int], p: int, val: int, placed: list[int], weight: int) -> None:
        shift = p * (p - 1) >> 1
        least = -1
        cands: list[int] = []
        m = cells[-1]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            a = adj[v]
            block = 0
            lo = 0
            for c in cells:
                k = (a & c).bit_count()
                if k:
                    block |= ((1 << k) - 1) << lo
                lo += c.bit_count()
            if least < 0 or block < least:
                least = block
                cands = [v]
            elif block == least:
                cands.append(v)
        val |= least << shift
        best = state[0]
        if best >= 0 and val >> shift > best >> shift:
            return
        sizes = [1] * len(cands)
        if leaves is None and len(cands) > 1:
            reps: list[int] = []
            sizes = []
            for v in cands:
                a = adj[v]
                for t, r in enumerate(reps):
                    if not (a ^ adj[r]) & ~(1 << v | 1 << r):
                        sizes[t] += 1
                        break
                else:
                    reps.append(v)
                    sizes.append(1)
            cands = reps
        for v, size in zip(cands, sizes):
            a = adj[v]
            keep = ~(1 << v)
            split = []
            for c in cells:
                c &= keep
                x = c & a
                if x:
                    split.append(x)
                y = c ^ x
                if y:
                    split.append(y)
            if len(split) == p:
                leaf(split, p, val, placed + [v], weight * size)
            else:
                expand(split, p - 1, val, placed + [v], weight * size)

    def leaf(cells: list[int], p: int, val: int, placed: list[int], weight: int) -> None:
        verts = [c.bit_length() - 1 for c in cells]
        for q in range(1, p):
            a = adj[verts[q]]
            block = 0
            for r in range(q):
                if a >> verts[r] & 1:
                    block |= 1 << r
            val |= block << (q * (q - 1) >> 1)
        best = state[0]
        if best < 0 or val < best:
            state[0], state[1] = val, weight
            if leaves is not None:
                leaves.clear()
        elif val == best:
            state[1] += weight
        else:
            return
        if leaves is not None:
            images = [0] * cv
            for k, v in enumerate(placed):
                images[v] = cv - 1 - k
            for q, v in enumerate(verts):
                images[v] = q
            leaves.append(tuple(images))

    expand([(1 << cv) - 1], cv - 1, 0, [], 1)
    return state[0], state[1]


# Cached poset sidecars store canonical bits and are loaded without this
# search (`poset.poset_from_sidecar`), so any change to the canonical
# convention must bump `util.CACHE_FORMAT`, which retires every trusted entry.
@functools.cache
def _canon_from_packed(cv: int, bits: int) -> IsoClass:
    best, count = _min_labelings(_adjacency(cv, bits))
    return IsoClass(best, bits.bit_count(), cv, count)


@functools.lru_cache(maxsize=CANON_MEMO_SIZE)
def canonicalize_bits(bits: int) -> IsoClass:
    """Canonical class of an edge bitset (ambient vertex count is irrelevant)."""
    if bits == 0:
        return EMPTY_CLASS
    cv, packed = _pack_support(bits)
    if cv > MAX_SUPPORT:
        raise CapError(f"support size {cv} exceeds canonical-form cap of {MAX_SUPPORT}")
    return _canon_from_packed(cv, packed)


def canonicalize(g: LabeledGraph) -> IsoClass:
    """Canonical class of a labeled graph; idempotent; isolated vertices dropped."""
    return canonicalize_bits(g.bits)


@functools.cache
def support_automorphisms(cls: IsoClass) -> tuple[tuple[int, ...], ...]:
    """All support permutations fixing the canonical edge set (image tuples, sorted)."""
    if cls.cv == 0:
        result: tuple[tuple[int, ...], ...] = ((),)
    else:
        leaves: list[tuple[int, ...]] = []
        best, _ = _min_labelings(_adjacency(cls.cv, cls.bits), leaves)
        assert best == cls.bits
        result = tuple(sorted(leaves))
    assert len(result) == cls.aut_support
    return result


def stab_order(cls: IsoClass, n: int) -> int:
    """|Stab(g)| in S_n for the class placed in K_n: (n - cv)! times |Aut| of the support."""
    return math.factorial(n - cls.cv) * cls.aut_support


def permute_bits(bits: int, images) -> int:
    """Relabel an edge bitset by a vertex image sequence; an edge whose two
    ends share an image raises PreconditionError."""
    out = 0
    while bits:
        low = bits & -bits
        i, j = _SLOT_PAIRS[low.bit_length() - 1]
        a, b = images[i], images[j]
        if a < b:
            out |= 1 << (b * (b - 1) // 2 + a)
        elif b < a:
            out |= 1 << (a * (a - 1) // 2 + b)
        else:
            raise PreconditionError(f"vertices {i} and {j} share the image {a}")
        bits ^= low
    return out


# ── subgraph counting ────────────────────────────────────────────────────

def subgraph_class_counts(host: LabeledGraph | IsoClass, degree: int) -> Mapping[IsoClass, int]:
    """Histogram of the isomorphism classes of all degree-edge subsets of host,
    as a read-only view of the memoized Counter.

    Subsets whose support exceeds MAX_SUPPORT have no canonical form and are
    left out: no class with a canonical form can be a copy of one.
    """
    return _class_counts(host.bits, degree)


@functools.lru_cache(maxsize=CLASS_COUNTS_MEMO_SIZE)
def _class_counts(bits: int, degree: int) -> Mapping[IsoClass, int]:
    if degree == 0:
        return MappingProxyType(Counter({EMPTY_CLASS: 1}))

    def classes():
        for combo in combinations([1 << s for s in _bits_to_slots(bits)], degree):
            try:
                yield canonicalize_bits(sum(combo))
            except CapError:
                continue

    return MappingProxyType(tally_classes(classes()))


def tally_classes(classes) -> Counter:
    """Counter of an iterable of classes, tallied by canonical bits, whose hash
    runs in C where the dataclass hash runs in Python; one IsoClass key per class."""
    tally: dict[int, int] = {}
    first: dict[int, IsoClass] = {}
    for cls in classes:
        key = cls.bits
        if key in tally:
            tally[key] += 1
        else:
            tally[key] = 1
            first[key] = cls
    return Counter({first[key]: k for key, k in tally.items()})


def count_subgraphs(pattern: IsoClass, host: LabeledGraph | IsoClass) -> int:
    """Number of edge subsets of host whose class is pattern (never raises)."""
    if pattern.degree == 0:
        return 1
    host_degree = host.bits.bit_count()
    if pattern.degree > host_degree:
        return 0
    return subgraph_class_counts(host, pattern.degree).get(pattern, 0)


def count_subgraphs_injective(pattern: IsoClass, host: LabeledGraph | IsoClass) -> int:
    """Independent oracle: edge-preserving injections of the support, divided by aut order."""
    if pattern.degree == 0:
        return 1
    host_bits = host.bits
    host_support = sorted({v for s in _bits_to_slots(host_bits) for v in pair_from_slot(s)})
    if pattern.cv > len(host_support):
        return 0
    pat_edges = [pair_from_slot(s) for s in _bits_to_slots(pattern.bits)]
    total = 0
    for images in permutations(host_support, pattern.cv):
        ok = True
        for a, b in pat_edges:
            if not host_bits >> pair_slot(images[a], images[b]) & 1:
                ok = False
                break
        if ok:
            total += 1
    if total % pattern.aut_support:
        raise AssertionError("injection count not divisible by automorphism order")
    return total // pattern.aut_support


def pattern_copies(pattern: IsoClass, host: LabeledGraph | IsoClass) -> list[int]:
    """Edge bitsets of all copies of pattern inside host (host labeling)."""
    if pattern.degree == 0:
        return [0]
    slots = _bits_to_slots(host.bits)
    if pattern.degree > len(slots):
        return []
    out = []
    for combo in combinations(slots, pattern.degree):
        sub = 0
        for s in combo:
            sub |= 1 << s
        if canonicalize_bits(sub) == pattern:
            out.append(sub)
    return out


# ── complement / union / components ──────────────────────────────────────

def complement(g: LabeledGraph, n: int) -> LabeledGraph:
    """Edge set of K_n minus g; an involution on graphs with support inside [0..n)."""
    nslots = n * (n - 1) // 2
    if g.bits >> nslots:
        raise PreconditionError(f"graph does not fit inside K_{n}")
    full = (1 << nslots) - 1
    return LabeledGraph(n, full ^ g.bits)


def disjoint_union(parts) -> IsoClass:
    """Canonical class of the vertex-disjoint union of classes (Counter or iterable)."""
    if isinstance(parts, (Counter, dict)):
        seq: list[IsoClass] = []
        for cls, mult in parts.items():
            seq.extend([cls] * mult)
    else:
        seq = list(parts)
    total_cv = sum(c.cv for c in seq)
    if total_cv > MAX_SUPPORT:
        raise CapError(
            f"disjoint union support {total_cv} exceeds canonical-form cap of {MAX_SUPPORT}"
        )
    bits = 0
    offset = 0
    for cls in seq:
        for i, j in cls.rep().edge_list():
            bits |= 1 << pair_slot(i + offset, j + offset)
        offset += cls.cv
    return canonicalize_bits(bits)


def _flood(adj: list[int], seed: int) -> int:
    """The vertex mask reached from the vertex mask seed along the neighbour masks adj."""
    seen = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen


def connected_component_classes(g: LabeledGraph | IsoClass) -> Counter:
    """Multiset of canonical classes of the edge-connected components, each
    flooded from its lowest vertex; in colex order the edges (i, v), i < v,
    are the slots v(v-1)/2 + i, so a component's edges are one shifted
    neighbour mask per vertex."""
    rest = _support_mask(g.bits)
    adj = _adjacency(rest.bit_length(), g.bits)
    comps: Counter = Counter()
    while rest:
        verts = _flood(adj, rest & -rest)
        rest &= ~verts
        comp_bits = 0
        while verts:
            v = verts.bit_length() - 1
            comp_bits |= (adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
            verts ^= 1 << v
        comps[canonicalize_bits(comp_bits)] += 1
    return comps


def is_connected_class(cls: IsoClass) -> bool:
    """True when the class has at least one edge and a single edge-connected
    component: a flood fill from vertex 0 reaches the whole support [0..cv)."""
    return cls.degree > 0 and _flood(_adjacency(cls.cv, cls.bits), 1) == (1 << cls.cv) - 1


# ── graph6 and edge-list text formats ────────────────────────────────────

def emit_graph6(g: LabeledGraph) -> str:
    """Standard graph6 encoding (column-wise upper triangle, offset 63)."""
    nslots = g.n * (g.n - 1) // 2
    chars = [chr(63 + g.n)]
    for group_start in range(0, nslots, 6):
        val = 0
        for t in range(6):
            s = group_start + t
            if s < nslots and g.bits >> s & 1:
                val |= 1 << (5 - t)
        chars.append(chr(63 + val))
    return "".join(chars)


def parse_graph6(text: str) -> LabeledGraph:
    """Parse a graph6 string (optionally prefixed with the '>>graph6<<' header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise FormatError("empty graph6 string")
    n = ord(s[0]) - 63
    if n < 0 or n > MAX_VERTICES:
        raise CapError(f"graph6 vertex count {n} outside [0..{MAX_VERTICES}]")
    nslots = n * (n - 1) // 2
    ngroups = (nslots + 5) // 6
    body = s[1:]
    if len(body) != ngroups:
        raise FormatError(f"graph6 body length {len(body)} != expected {ngroups}")
    bits = 0
    for gidx, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise FormatError(f"graph6 byte {ch!r} out of range")
        for t in range(6):
            s_idx = 6 * gidx + t
            if val >> (5 - t) & 1:
                if s_idx >= nslots:
                    raise FormatError("graph6 padding bits must be zero")
                bits |= 1 << s_idx
    return LabeledGraph(n, bits)


def emit_edge_list(g: LabeledGraph) -> str:
    return ",".join(f"{i}-{j}" for i, j in g.edge_list())


def parse_edge_list(text: str) -> LabeledGraph:
    """Parse "i-j,i-j,..." on 1 + its largest vertex (0 vertices when empty)."""
    s = text.strip()
    edges = []
    if s:
        for tok in s.split(","):
            parts = tok.strip().split("-")
            if len(parts) != 2:
                raise FormatError(f"bad edge token {tok!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"bad edge token {tok!r}") from exc
            edges.append((i, j))
    return LabeledGraph.from_edges(1 + max((max(e) for e in edges), default=-1), edges)


def parse_graph(text: str) -> LabeledGraph:
    """Accept either graph6, whose header holds n, or the i-j,... edge-list format."""
    s = text.strip()
    if "-" in s or s == "":
        return parse_edge_list(s)
    return parse_graph6(s)
