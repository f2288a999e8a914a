import math
import random
from itertools import combinations

import pytest

from graphinv import perm
from graphinv.errors import CapError, PreconditionError
from graphinv.graph import LabeledGraph, complement
from graphinv.perm import (
    CycleType,
    Permutation,
    close_generators,
    pair_action,
    pair_from_slot,
    pair_group,
    pair_slot,
    stabilizer_order,
    symmetric_group,
)


def from_cycles(n: int, *cycles: tuple[int, ...]) -> Permutation:
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for i, img in enumerate(p.images):
        inv[img] = i
    return Permutation(tuple(inv))


def to_line(p: Permutation) -> str:
    """One-line serialization: "p(0) p(1) ... p(n-1)", as `Permutation.from_line` reads it."""
    return " ".join(str(i) for i in p.images)


def test_pair_slot_roundtrip():
    for s in range(120):
        assert pair_slot(*pair_from_slot(s)) == s


def test_pair_slot_colex_order():
    pairs = [pair_from_slot(s) for s in range(10)]
    assert pairs == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]


def test_permutation_validation():
    with pytest.raises(PreconditionError):
        Permutation((0, 0, 2))
    with pytest.raises(PreconditionError):
        Permutation((1, 2, 3))


def test_identity_and_compose():
    p = Permutation((1, 2, 0))
    ident = Permutation.identity(3)
    assert p * ident == p
    assert ident * p == p
    assert p * inverse(p) == ident


def test_compose_associative_random():
    rng = random.Random(1)
    for _ in range(50):
        imgs = [list(range(5)) for _ in range(3)]
        for im in imgs:
            rng.shuffle(im)
        p, q, r = (Permutation(tuple(im)) for im in imgs)
        assert (p * q) * r == p * (q * r)


def test_pair_action_examples():
    ident = Permutation.identity(3)
    assert pair_action(ident, (1, 2)) == (1, 2)
    swap = from_cycles(4, (1, 2))
    assert pair_action(swap, (1, 3)) == (2, 3)
    # 4-cycle 0->1->2->3->0 applied to {0,3}: images 1 and 0
    four = from_cycles(4, (0, 1, 2, 3))
    assert pair_action(four, (0, 3)) == (0, 1)


def test_pair_action_rejects_loops():
    with pytest.raises(PreconditionError):
        pair_action(Permutation.identity(3), (1, 1))


def test_pair_action_is_an_action():
    rng = random.Random(7)
    for _ in range(100):
        imgs = [list(range(6)) for _ in range(2)]
        for im in imgs:
            rng.shuffle(im)
        p, q = (Permutation(tuple(im)) for im in imgs)
        pair = tuple(sorted(rng.sample(range(6), 2)))
        assert pair_action(p * q, pair) == pair_action(p, pair_action(q, pair))


def test_close_generators_examples():
    assert close_generators(2, [Permutation((1, 0))]).order == 2
    four_cycle = from_cycles(4, (0, 1, 2, 3))
    swap = from_cycles(4, (0, 1))
    assert close_generators(4, [four_cycle, swap]).order == 24
    assert close_generators(3, []).order == 1


def test_close_generators_ordering_deterministic():
    g1 = close_generators(4, [from_cycles(4, (0, 1, 2, 3)), from_cycles(4, (0, 1))])
    g2 = close_generators(4, [from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))])
    assert g1.elements == g2.elements
    images = [p.images for p in g1.elements]
    assert images == sorted(images)


def test_close_generators_cap(monkeypatch):
    monkeypatch.setattr(perm, "GROUP_SIZE_CAP", 1000)
    with pytest.raises(CapError):
        close_generators(10, [from_cycles(10, (0, 1)), from_cycles(10, tuple(range(10)))])


def test_group_closure_properties():
    g = close_generators(4, [from_cycles(4, (0, 1, 2)), from_cycles(4, (2, 3))])
    elems = set(g.elements)
    assert Permutation.identity(4) in elems
    for p in g.elements:
        assert inverse(p) in elems
    assert math.factorial(4) % g.order == 0


def test_stabilizer_order_known_values():
    # single edge, 2-edge path, 3-edge star inside S_4
    assert stabilizer_order([(0, 1)], 4) == 4
    assert stabilizer_order([(0, 1), (0, 2)], 4) == 2
    assert stabilizer_order([(0, 1), (0, 2), (0, 3)], 4) == 6


def test_stabilizer_order_divides_group_order():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(20):
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            assert math.factorial(n) % stabilizer_order(edges, n) == 0


def test_stabilizer_of_complement_exhaustive():
    for n in (2, 3, 4, 5):
        nslots = n * (n - 1) // 2
        for bits in range(1 << nslots):
            g = LabeledGraph(n, bits)
            h = complement(g, n)
            assert stabilizer_order(g, n) == stabilizer_order(h, n)


def test_stabilizer_support_cap():
    edges = [(i, i + 1) for i in range(11)]
    with pytest.raises(CapError):
        stabilizer_order(edges, 12)


def test_cycle_type():
    p = from_cycles(6, (0, 1, 2), (3, 4))
    ct = p.cycle_type()
    assert ct == CycleType((1, 1, 1, 0, 0, 0))
    assert ct.n == 6
    assert ct.class_size() == 120  # 6!/(1*2*3)


def test_permutation_line_roundtrip():
    p = Permutation((2, 0, 1, 3))
    assert Permutation.from_line(to_line(p)) == p
    assert to_line(p) == "2 0 1 3"


def test_pair_group_orders():
    assert pair_group(2).order == 1
    assert pair_group(3).order == 6
    assert pair_group(4).order == 24


def test_symmetric_group_cap():
    with pytest.raises(CapError):
        symmetric_group(9)
