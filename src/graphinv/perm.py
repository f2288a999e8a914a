"""Permutations of [0..n), the induced action on vertex pairs, and stabilizers.

Groups are stored as explicit, lexicographically sorted element lists; every
group needed downstream has order at most 10! and most have order at most 8!,
so closure by breadth-first multiplication is entirely adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _permutations

from .errors import CapError, FormatError, PreconditionError

GROUP_SIZE_CAP = 10**6
SUPPORT_CAP = 10  # stabilizer brute force refuses larger supports


def pair_slot(i: int, j: int) -> int:
    """Colex index of the unordered pair {i,j}: (0,1)->0, (0,2)->1, (1,2)->2, (0,3)->3, ..."""
    if i == j:
        raise PreconditionError(f"loop edge ({i},{i}) is not allowed in a simple graph")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def pair_from_slot(s: int) -> tuple[int, int]:
    """Inverse of pair_slot."""
    j = (math.isqrt(8 * s + 1) + 1) // 2
    return s - j * (j - 1) // 2, j


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection of [0..n), stored as the tuple of images (position i maps to images[i])."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise PreconditionError(f"not a permutation of [0..{len(self.images)}): {self.images!r}")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: Permutation) -> Permutation:
        """self AFTER other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise PreconditionError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    __mul__ = compose

    def cycle_type(self) -> CycleType:
        seen = [False] * self.n
        counts = [0] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = self.images[v]
                length += 1
            counts[length - 1] += 1
        return CycleType(tuple(counts))

    @classmethod
    def from_line(cls, text: str) -> Permutation:
        try:
            images = tuple(int(tok) for tok in text.split())
        except ValueError as exc:
            raise FormatError(f"bad permutation line: {text!r}") from exc
        return cls(images)


@dataclass(frozen=True, slots=True)
class CycleType:
    """counts[k-1] = number of k-cycles; sum of k*counts[k-1] is the degree."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(k * c for k, c in enumerate(self.counts, start=1))

    def class_size(self) -> int:
        """Number of permutations in S_n with this cycle type."""
        n = self.n
        denom = 1
        for k, c in enumerate(self.counts, start=1):
            denom *= k**c * math.factorial(c)
        return math.factorial(n) // denom


@dataclass(frozen=True)
class PermGroup:
    """An explicit permutation group on [0..n): the closure of its generators."""

    n: int
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in set(self.elements)


def close_generators(n: int, gens) -> PermGroup:
    """BFS closure of a generator list; elements sorted lexicographically by images.
    A closure past GROUP_SIZE_CAP elements raises CapError."""
    for g in gens:
        if g.n != n:
            raise PreconditionError(f"generator degree {g.n} does not match n={n}")
    ident = Permutation.identity(n)
    seen = {ident.images: ident}
    frontier = [ident]
    gen_list = list(gens)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_list:
                q = g * p
                if q.images not in seen:
                    if len(seen) >= GROUP_SIZE_CAP:
                        raise CapError(f"group closure exceeds cap of {GROUP_SIZE_CAP} elements")
                    seen[q.images] = q
                    nxt.append(q)
        frontier = nxt
    ordered = tuple(seen[key] for key in sorted(seen))
    return PermGroup(n, ordered)


def symmetric_group(n: int) -> PermGroup:
    """All of S_n as an explicit group (n <= 8)."""
    if n > 8:
        raise CapError(f"explicit S_{n} has {math.factorial(n)} elements; cap is S_8")
    elements = tuple(Permutation(images) for images in _permutations(range(n)))
    return PermGroup(n, elements)


def trivial_group(n: int) -> PermGroup:
    return PermGroup(n, (Permutation.identity(n),))


def pair_action(p: Permutation, pair: tuple[int, int]) -> tuple[int, int]:
    """Image of an unordered vertex pair, returned sorted."""
    i, j = pair
    if i == j:
        raise PreconditionError(f"loop edge ({i},{i}) is not allowed in a simple graph")
    if not (0 <= i < p.n and 0 <= j < p.n):
        raise PreconditionError(f"pair {pair!r} outside [0..{p.n})")
    a, b = p.images[i], p.images[j]
    return (a, b) if a < b else (b, a)


def induced_pair_permutation(p: Permutation) -> Permutation:
    """The permutation of the C(n,2) pair slots induced by a vertex permutation."""
    n = p.n
    images = [0] * (n * (n - 1) // 2)
    for j in range(1, n):
        for i in range(j):
            images[pair_slot(i, j)] = pair_slot(*pair_action(p, (i, j)))
    return Permutation(tuple(images))


def pair_group(n: int) -> PermGroup:
    """The action of S_n on unordered vertex pairs, as an explicit group on C(n,2) slots.

    Duplicate induced permutations (n = 2) are collapsed.
    """
    if n < 2:
        raise PreconditionError("pair group needs n >= 2")
    induced = {induced_pair_permutation(p).images for p in symmetric_group(n)}
    ordered = tuple(Permutation(images) for images in sorted(induced))
    return PermGroup(n * (n - 1) // 2, ordered)


def stabilizer_order(g, n: int) -> int:
    """|Stab(g)| within S_n for an edge set g (any iterable of vertex pairs).

    Factors as (n - cv)! times the number of edge-preserving permutations of the
    support, the latter found by brute force over support permutations.
    """
    edges = [tuple(sorted(e)) for e in g]
    if len(set(edges)) != len(edges):
        raise PreconditionError("duplicate edges in stabilizer input")
    support = sorted({v for e in edges for v in e})
    if support and (support[0] < 0 or support[-1] >= n):
        raise PreconditionError(f"graph uses vertices outside [0..{n})")
    cv = len(support)
    if cv > SUPPORT_CAP:
        raise CapError(f"support size {cv} exceeds brute-force cap of {SUPPORT_CAP}")
    rank = {v: k for k, v in enumerate(support)}
    ranked = [(rank[a], rank[b]) if rank[a] < rank[b] else (rank[b], rank[a]) for a, b in edges]
    edge_set = set(ranked)
    aut = 0
    for images in _permutations(range(cv)):
        ok = True
        for a, b in ranked:
            x, y = images[a], images[b]
            if ((x, y) if x < y else (y, x)) not in edge_set:
                ok = False
                break
        if ok:
            aut += 1
    return math.factorial(n - cv) * aut
