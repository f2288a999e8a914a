"""Degree-sorted posets of graph classes: full E(n, d) and spans of connected generators.

Members are ordered by (degree, canonical bitset); the tie-break inside a
degree class is a documented convention, so two independent builds always
produce identical sequences and every transform built on top is reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .errors import CapError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    canonicalize,
    canonicalize_bits,
    disjoint_union,
    is_connected_class,
    parse_graph6,
)
from .perm import pair_slot

FULL_POSET_VERTEX_CAP = 8
MEMBER_CAP = 500_000


@dataclass(frozen=True)
class GPoset:
    """A deterministically ordered sequence of graph classes, indexed by canonical bits."""

    members: tuple[IsoClass, ...]
    ambient_n: int | None
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


def _make_poset(classes, ambient_n, max_degree, complete) -> GPoset:
    members = tuple(sorted(set(classes), key=lambda c: c.sort_key))
    index = {m.bits: pos for pos, m in enumerate(members)}
    return GPoset(members, ambient_n, max_degree, complete, index)


def is_subgraph_closed(classes) -> bool:
    """True when every one-edge-deleted subclass of every member is a member."""
    have = {c.bits for c in classes}
    for cls in classes:
        bits = cls.bits
        s = 0
        b = bits
        while b:
            if b & 1:
                sub = canonicalize_bits(bits & ~(1 << s))
                if sub.bits not in have:
                    return False
            b >>= 1
            s += 1
    return True


def build_full_poset(n: int, max_degree: int | None = None) -> GPoset:
    """All classes with cv <= n and degree <= max_degree, by incremental edge extension."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n > FULL_POSET_VERTEX_CAP:
        raise CapError(f"full poset build capped at n <= {FULL_POSET_VERTEX_CAP}")
    if max_degree is not None and max_degree < 0:
        raise PreconditionError("max_degree must be nonnegative")
    cap = n * (n - 1) // 2
    max_degree = cap if max_degree is None else min(max_degree, cap)
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
    return _make_poset(classes, n, max_degree, complete=True)


def build_span_poset(generators, max_degree: int) -> GPoset:
    """All disjoint unions of generator multiples with total degree <= max_degree.

    Generators must be connected.  The result is closed under sub-multisets by
    construction; the subgraph-completeness flag is set only after an explicit
    one-edge-deletion verification.
    """
    gens = sorted(set(generators), key=lambda c: c.sort_key)
    for g in gens:
        if not is_connected_class(g):
            raise PreconditionError(f"span generator {g.graph6!r} is not connected")
    if max_degree < 0:
        raise PreconditionError("max_degree must be nonnegative")
    classes: set[IsoClass] = set()

    def extend(idx: int, pieces: Counter, degree: int) -> None:
        classes.add(disjoint_union(pieces) if pieces else EMPTY_CLASS)
        for k in range(idx, len(gens)):
            g = gens[k]
            if degree + g.degree <= max_degree:
                pieces[g] += 1
                extend(k, pieces, degree + g.degree)
                pieces[g] -= 1
                if pieces[g] == 0:
                    del pieces[g]

    extend(0, Counter(), 0)
    complete = is_subgraph_closed(classes)
    return _make_poset(classes, None, max_degree, complete)


# ── poset files: one graph6 per line, plus a JSON sidecar ────────────────

def poset_to_lines(p: GPoset) -> str:
    return "\n".join(m.graph6 for m in p.members) + "\n"


def poset_sidecar(p: GPoset) -> dict:
    return {
        "ambient_n": p.ambient_n,
        "max_degree": p.max_degree,
        "complete": p.complete,
        "members": [
            {"graph6": m.graph6, "degree": m.degree, "cv": m.cv, "aut": m.aut_support}
            for m in p.members
        ],
    }


def poset_from_sidecar(obj: dict) -> GPoset:
    classes = [canonicalize(parse_graph6(rec["graph6"])) for rec in obj["members"]]
    return _make_poset(classes, obj.get("ambient_n"), obj["max_degree"], obj["complete"])


def poset_to_json(p: GPoset) -> str:
    return json.dumps(poset_sidecar(p), sort_keys=True)


def poset_from_json(text: str) -> GPoset:
    return poset_from_sidecar(json.loads(text))
