import contextlib
import math
import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import graph
from graphinv.errors import CapError, FormatError, PreconditionError
from graphinv.graph import (
    EMPTY_CLASS,
    LabeledGraph,
    _canon_pure,
    _pack_support,
    canonicalize,
    canonicalize_bits,
    complement,
    connected_component_classes,
    count_subgraphs,
    count_subgraphs_injective,
    disjoint_union,
    emit_edge_list,
    emit_graph6,
    is_connected_class,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    permute_bits,
    stab_order,
    subgraph_class_counts,
    support_automorphisms,
)
from graphinv.enumeration import connected_classes_by_degree
from graphinv.perm import pair_from_slot, pair_slot, stabilizer_order
from graphinv.poset import build_full_poset
from graphinv.smallgraphs import named_class
from graphinv.util import random_labeled_graph


def test_relabeling_gives_same_class():
    a = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
    b = LabeledGraph.from_edges(10, [(3, 5), (5, 9)])
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_triangle():
    tri = canonicalize(LabeledGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    assert tri.cv == 3 and tri.degree == 3 and tri.aut_support == 6
    assert canonicalize(tri.rep()) == tri  # idempotent


def test_canonicalize_four_cycle():
    c4 = canonicalize(LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert c4.cv == 4 and c4.degree == 4
    # brute force over the 4! support permutations fixing the edge set
    rep = c4.rep()
    fixes = 0
    for images in permutations(range(4)):
        if permute_bits(rep.bits, images) == rep.bits:
            fixes += 1
    assert fixes == 8
    assert c4.aut_support == 8


def test_canonicalize_matches_pure_route():
    rng = random.Random(11)
    for _ in range(60):
        g = random_labeled_graph(rng, rng.randint(2, 7))
        cv, packed = _pack_support(g.bits)
        if cv == 0:
            continue
        best, count = _canon_pure(cv, packed)
        cls = canonicalize(g)
        assert (cls.bits, cls.aut_support) == (best, count)


def test_front_memo_matches_pure_route_on_relabelings():
    rng = random.Random(47)
    for _ in range(80):
        n = rng.randint(2, 9)
        g = random_labeled_graph(rng, n, rng.choice((0.2, 0.4)))
        if not 0 < g.cv <= 7:
            continue
        cv, packed = _pack_support(g.bits)
        expected = _canon_pure(cv, packed)
        for _ in range(4):
            images = list(range(n))
            rng.shuffle(images)
            bits = permute_bits(g.bits, images)
            canonicalize_bits(bits)  # the second call is answered by the memo
            cls = canonicalize_bits(bits)
            assert (cls.bits, cls.aut_support) == expected


def test_labeled_memos_are_bounded():
    for memo in (canonicalize_bits, graph._class_counts):
        assert memo.cache_parameters()["maxsize"] is not None


def test_canonicalize_constant_on_orbits():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 7)
        g = random_labeled_graph(rng, n)
        cls = canonicalize(g)
        for _ in range(100):
            images = list(range(n))
            rng.shuffle(images)
            assert canonicalize(LabeledGraph(g.n, permute_bits(g.bits, images))) == cls


def test_canonical_support_cap():
    path11 = LabeledGraph.from_edges(12, [(i, i + 1) for i in range(11)])
    with pytest.raises(CapError):
        canonicalize(path11)


def test_count_subgraphs_known_values():
    k2, p3 = named_class("K2"), named_class("P3")
    triangle = named_class("K3")
    assert count_subgraphs(k2, triangle) == 3
    assert count_subgraphs(p3, triangle) == 3
    assert count_subgraphs(triangle, triangle) == 1
    assert count_subgraphs(EMPTY_CLASS, triangle) == 1
    assert count_subgraphs(p3, named_class("K4")) == 12


def test_count_subgraphs_relabeling_invariance(e4_poset):
    rng = random.Random(5)
    for host in e4_poset.members:
        rep = host.rep(4)
        for _ in range(10):
            images = list(range(4))
            rng.shuffle(images)
            moved = LabeledGraph(4, permute_bits(rep.bits, images))
            for pattern in e4_poset.members:
                assert count_subgraphs(pattern, rep) == count_subgraphs(pattern, moved)


def test_injection_oracle_on_all_e5_pairs(e5_poset):
    for host in e5_poset.members:
        for pattern in e5_poset.members:
            assert count_subgraphs(pattern, host) == count_subgraphs_injective(pattern, host)


def test_histogram_totals(e4_poset):
    k4 = named_class("K4")
    hist = subgraph_class_counts(k4, 3)
    assert sum(hist.values()) == 20  # C(6,3) edge subsets
    assert hist[named_class("K3")] == 4


def test_histogram_memo_survives_a_caller_mutating_it():
    k2, k4 = named_class("K2"), named_class("K4")
    with contextlib.suppress(TypeError):
        subgraph_class_counts(k4, 1)[k2] = 0
    assert subgraph_class_counts(k4, 1)[k2] == 6
    assert count_subgraphs(k2, k4) == 6


def test_count_leaves_out_subsets_over_the_support_cap():
    # six disjoint edges and a K4: the 6-edge subsets of the matching have support 12
    host = parse_edge_list("0-1,2-3,4-5,6-7,8-9,10-11,12-13,12-14,12-15,13-14,13-15,14-15")
    k4 = named_class("K4")
    assert count_subgraphs(k4, host) == count_subgraphs_injective(k4, host) == 1
    within_cap = sum(1 for combo in combinations(host.edge_list(), 6) if len({v for e in combo for v in e}) <= 10)
    assert sum(subgraph_class_counts(host, 6).values()) == within_cap < math.comb(12, 6)


def test_complement_examples():
    tri = named_class("K3").rep(4)
    assert canonicalize(complement(tri, 4)) == named_class("K1,3")
    assert canonicalize(complement(LabeledGraph(3), 3)) == named_class("K3")
    c4 = named_class("C4").rep(4)
    assert canonicalize(complement(c4, 4)) == named_class("2K2")
    # involution
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
    assert complement(complement(g, 5), 5) == g


def test_disjoint_union_examples():
    k2 = named_class("K2")
    assert disjoint_union([k2, k2]) == named_class("2K2")
    assert disjoint_union([]) == EMPTY_CLASS
    u = disjoint_union(Counter({named_class("K3"): 1, k2: 3}))
    assert u.degree == 6 and u.cv == 9
    # commutative and associative up to class equality
    p3 = named_class("P3")
    assert disjoint_union([k2, p3]) == disjoint_union([p3, k2])


def test_disjoint_union_cap():
    k2 = named_class("K2")
    with pytest.raises(CapError):
        disjoint_union([k2] * 6)


def test_connected_components():
    assert connected_component_classes(named_class("2K2")) == Counter({named_class("K2"): 2})
    host = disjoint_union([named_class("paw"), named_class("K2")])
    assert connected_component_classes(host) == Counter(
        {named_class("paw"): 1, named_class("K2"): 1}
    )
    assert connected_component_classes(EMPTY_CLASS) == Counter()
    # union of the parts gives back the class
    assert disjoint_union(connected_component_classes(host)) == host


@pytest.mark.parametrize("seed", range(8))
def test_connected_components_against_networkx(seed):
    """Seeded graphs on up to 16 vertices, each a union of random pieces of at
    most 8 shuffled labels, so that every component fits a canonical form."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(0, 16)
        labels = rng.sample(range(n), n)
        edges = []
        while labels:
            size = rng.randint(1, 8)
            piece, labels = labels[:size], labels[size:]
            sub = random_labeled_graph(rng, len(piece), rng.choice((0.2, 0.4, 0.7)))
            edges += [(piece[i], piece[j]) for i, j in sub.edge_list()]
        g = LabeledGraph.from_edges(n, edges)
        h = nx.Graph(edges)
        want = Counter(canonicalize(LabeledGraph.from_edges(n, h.subgraph(c).edges())) for c in nx.connected_components(h))
        assert connected_component_classes(g) == want
        if g.cv <= 10:
            assert connected_component_classes(canonicalize(g)) == want


def test_is_connected_class():
    assert is_connected_class(named_class("K3"))
    assert not is_connected_class(named_class("2K2"))
    assert not is_connected_class(EMPTY_CLASS)


def test_graph6_known_values():
    k2 = LabeledGraph.from_edges(2, [(0, 1)])
    assert emit_graph6(k2) == "A_"
    assert parse_graph6("A_") == k2
    assert emit_graph6(LabeledGraph(0)) == "?"
    assert parse_graph6("?") == LabeledGraph(0)
    assert parse_graph6(">>graph6<<A_") == k2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=14), st.randoms(use_true_random=False))
def test_graph6_roundtrip(n, rnd):
    bits = rnd.getrandbits(n * (n - 1) // 2) if n > 1 else 0
    g = LabeledGraph(n, bits)
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=16), st.randoms(use_true_random=False))
def test_parse_graph_roundtrips_graph6_and_edge_lists(n, rnd):
    g = LabeledGraph(n, rnd.getrandbits(n * (n - 1) // 2) if n > 1 else 0)
    assert parse_graph(emit_graph6(g)) == g
    # An edge list spans the vertices up to its largest endpoint.
    top = max((j for _, j in g.edge_list()), default=-1)
    assert parse_graph(emit_edge_list(g)) == LabeledGraph(top + 1, g.bits)


def test_graph6_malformed():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("C")  # truncated body
    with pytest.raises(FormatError):
        parse_graph6("A_~")  # trailing junk
    with pytest.raises(CapError):
        parse_graph6(chr(63 + 40) + "?" * 130)  # n too large


def test_edge_list_roundtrip():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 4)])
    assert parse_edge_list(emit_edge_list(g)) == g
    assert parse_edge_list("") == LabeledGraph(0)
    with pytest.raises(FormatError):
        parse_edge_list("0-1,2")


def test_from_edges_validation():
    with pytest.raises(PreconditionError):
        LabeledGraph.from_edges(3, [(0, 3)])
    with pytest.raises(PreconditionError):
        LabeledGraph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionError):
        LabeledGraph.from_edges(3, [(1, 1)])
    # the vertex cap is checked before the edge bitset is built
    with pytest.raises(CapError):
        LabeledGraph.from_edges(100_000_000, [(0, 99_999_999)])


# ── the pruned canonical search against its oracles ─────────────────────


@pytest.fixture(scope="module")
def e6_poset():
    return build_full_poset(6)


@pytest.fixture(scope="module")
def e7_poset():
    return build_full_poset(7)


def _relabeled(rng, cls, n):
    images = list(range(n))
    rng.shuffle(images)
    return permute_bits(cls.bits, images)


def _pure_class(bits):
    cv, packed = _pack_support(bits)
    return _canon_pure(cv, packed)


def test_search_matches_pure_sweep_on_e6(e6_poset):
    rng = random.Random(61)
    assert len(e6_poset) == 156
    for cls in e6_poset.members[1:]:
        bits = _relabeled(rng, cls, 6)
        assert _pure_class(bits) == (cls.bits, cls.aut_support)
        found = canonicalize(LabeledGraph(6, bits))
        assert (found.bits, found.aut_support) == (cls.bits, cls.aut_support)


def test_search_matches_pure_sweep_on_e7_sample(e7_poset):
    rng = random.Random(71)
    for cls in rng.sample(e7_poset.members[1:], 50):
        bits = _relabeled(rng, cls, 7)
        found = canonicalize(LabeledGraph(7, bits))
        assert (found.bits, found.aut_support) == _pure_class(bits)


def test_search_matches_pure_sweep_at_support_9():
    rng = random.Random(91)
    for _ in range(3):
        # a random spanning tree on 9 vertices plus one extra edge
        edges = {(rng.randrange(v), v) for v in range(1, 9)}
        while len(edges) < 9:
            i, j = sorted(rng.sample(range(9), 2))
            edges.add((i, j))
        g = LabeledGraph.from_edges(9, edges)
        cls = canonicalize(g)
        assert cls.cv == 9
        assert (cls.bits, cls.aut_support) == _pure_class(g.bits)


def _fingerprint(bits, n):
    return graph._vertex_invariant(graph._adjacency(n, bits))


def test_vertex_invariant_reads_no_vertex_labels(e7_poset):
    # relabel into K_9, so isolated vertices land among the support too
    rng = random.Random(25)
    for cls in e7_poset.members:
        fingerprint = _fingerprint(cls.bits, cls.cv)
        for _ in range(3):
            assert _fingerprint(_relabeled(rng, cls, 9), 9) == fingerprint, cls


def test_vertex_invariant_counts_degrees_triangles_and_neighbour_degrees():
    triangle = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])  # vertex 3 is isolated
    assert _fingerprint(triangle.bits, 4) == ((2, 2, 4),) * 3
    path = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _fingerprint(path.bits, 4) == ((1, 0, 2), (1, 0, 2), (2, 0, 3), (2, 0, 3))


def test_vertex_invariant_separates_every_member_of_e6_and_e7(e6_poset, e7_poset):
    for p in (e6_poset, e7_poset):
        assert len({_fingerprint(m.bits, m.cv) for m in p.members}) == len(p)


def test_orbit_stabilizer_over_e7(e7_poset):
    # the labeled graphs on 7 vertices with d edges, counted by class orbits
    labeled = Counter()
    for cls in e7_poset.members:
        orbit, rem = divmod(math.factorial(7), stab_order(cls, 7))
        assert rem == 0
        labeled[cls.degree] += orbit
    assert labeled == Counter({d: math.comb(21, d) for d in range(22)})


def _edges10(*groups):
    return LabeledGraph.from_edges(10, [e for group in groups for e in group])


SYMMETRIC_SUPPORT_10 = {
    "Petersen": (_edges10(
        [(i, (i + 1) % 5) for i in range(5)],
        [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        [(i, i + 5) for i in range(5)],
    ), 120),
    "5K2": (_edges10([(2 * i, 2 * i + 1) for i in range(5)]), 3840),
    "C10": (_edges10([(i, (i + 1) % 10) for i in range(10)]), 20),
    "2C5": (_edges10([(i, (i + 1) % 5) for i in range(5)], [(5 + i, 5 + (i + 1) % 5) for i in range(5)]), 200),
    "K1,9": (_edges10([(0, i) for i in range(1, 10)]), 362880),
    "K5,5": (_edges10([(i, j) for i in range(5) for j in range(5, 10)]), 28800),
    "2K5": (_edges10(
        [(i, j) for i in range(5) for j in range(i + 1, 5)],
        [(i, j) for i in range(5, 10) for j in range(i + 1, 10)],
    ), 28800),
    "K3,3+2K2": (_edges10([(i, j) for i in range(3) for j in range(3, 6)], [(6, 7), (8, 9)]), 576),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SUPPORT_10))
def test_symmetric_support_10_graphs(name):
    g, aut = SYMMETRIC_SUPPORT_10[name]
    cls = canonicalize(g)
    assert cls.cv == 10 and cls.aut_support == aut
    rng = random.Random(name)
    for _ in range(3):
        images = list(range(10))
        rng.shuffle(images)
        assert canonicalize(LabeledGraph(g.n, permute_bits(g.bits, images))) == cls
    assert canonicalize(cls.rep()) == cls


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 45) - 1), st.permutations(range(10)))
def test_canonical_form_properties_at_support_9_and_10(bits, images):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    g = LabeledGraph(10, bits)
    cls = canonicalize(g)
    if cls.cv < 9:
        return
    assert canonicalize(LabeledGraph(g.n, permute_bits(g.bits, images))) == cls
    assert canonicalize(cls.rep()) == cls
    h = nx.Graph(cls.rep().edge_list())
    cap = 5000  # automorphisms listed one by one; larger groups only need to exceed it
    count = 0
    for _ in GraphMatcher(h, h).isomorphisms_iter():
        count += 1
        if count > cap:
            break
    if cls.aut_support <= cap:
        assert count == cls.aut_support
    else:
        assert count > cap


def test_support_automorphisms_match_brute_force_on_e6(e6_poset):
    for cls in e6_poset.members:
        brute = tuple(
            images
            for images in permutations(range(cls.cv))
            if permute_bits(cls.bits, images) == cls.bits
        )
        assert support_automorphisms(cls) == brute


def test_stab_order_matches_brute_force_stabilizer(e5_poset):
    for n in (5, 6):
        for cls in e5_poset.members:
            assert stab_order(cls, n) == stabilizer_order(cls.rep().edge_list(), n)


def test_general_product_at_support_10_on_random_hosts():
    from graphinv.algebra import general_product

    a, b = named_class("K1,4"), named_class("P5")
    comb = general_product(a, b)
    assert max(cls.cv for cls in comb.terms) == 10
    rng = random.Random(1045)
    for n, p in ((10, 0.3), (10, 0.35), (9, 0.4)):
        host = random_labeled_graph(rng, n, p)
        lhs = count_subgraphs_injective(a, host) * count_subgraphs_injective(b, host)
        assert comb.evaluate(host) == lhs


# ── relabeling and connectivity against their slot-level references ─────


def _permute_bits_reference(bits, images):
    out = 0
    for s in range(bits.bit_length()):
        if bits >> s & 1:
            i, j = pair_from_slot(s)
            out |= 1 << pair_slot(images[i], images[j])
    return out


def test_permute_bits_matches_pair_slot_reference():
    rng = random.Random(1616)
    nslots = 16 * 15 // 2
    for density in (0.05, 0.3, 0.7, 1.0):
        for _ in range(60):
            bits = sum(1 << s for s in range(nslots) if rng.random() < density)
            images = list(range(16))
            rng.shuffle(images)
            assert permute_bits(bits, images) == _permute_bits_reference(bits, images)
    # an injection of a smaller support into [0..16), as a tuple
    bits = named_class("P5").bits
    images = tuple(rng.sample(range(16), 5))
    assert permute_bits(bits, images) == _permute_bits_reference(bits, images)
    assert permute_bits(0, images) == 0


def test_permute_bits_refuses_a_shared_image():
    bits = 1 << pair_slot(3, 7) | 1 << pair_slot(0, 1)
    images = list(range(16))
    images[7] = 3
    with pytest.raises(PreconditionError):
        permute_bits(bits, images)


def _connected_by_components(cls):
    comps = connected_component_classes(cls)
    return sum(comps.values()) == 1 and all(c.degree for c in comps)


def test_is_connected_class_matches_components_on_e7(e7_poset):
    for cls in e7_poset.members:
        assert is_connected_class(cls) == _connected_by_components(cls)
    # connected graphs on exactly 2..7 vertices (OEIS A001349): 1 + 2 + 6 + 21 + 112 + 853
    assert sum(is_connected_class(cls) for cls in e7_poset.members) == 995
    assert not is_connected_class(EMPTY_CLASS)


def test_is_connected_class_on_connected_classes_to_support_9():
    levels = connected_classes_by_degree(8)
    assert max(cls.cv for level in levels.values() for cls in level) == 9
    for level in levels.values():
        for cls in level:
            assert is_connected_class(cls) and _connected_by_components(cls)
            # the same class with an isolated edge added has two components
            if cls.cv <= 8:
                two = canonicalize_bits(cls.bits | 1 << pair_slot(cls.cv, cls.cv + 1))
                assert not is_connected_class(two) and not _connected_by_components(two)
