import random
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphinv import graph, mtransform, poset
from graphinv.errors import CapError, PosetError, PreconditionError
from graphinv.graph import canonicalize_bits, complement, count_subgraphs, count_subgraphs_injective
from graphinv.mtransform import (
    IntMatrix,
    _cover_counts,
    _exact_field_quotient,
    _high_bits,
    _mtransform_by_subsets,
    _pack,
    _unpack,
    build_mtransform,
    cached_transform,
    check_transform_rows,
    complement_pairing,
    complement_invariant_expansion,
    exact_rank,
    exact_solve,
    find_orderings_matching,
    minor_by_degree,
    mnukhin_power,
    inverse_mtransform,
    solve_upper_half,
    subset_inclusion_minor,
    subset_minor_blocks,
    transform_columns,
    unitriangular_inverse,
)
from graphinv.poset import GPoset, build_full_poset, poset_from_sidecar, poset_sidecar
from graphinv.smallgraphs import named_class


def test_e3_matrix_frozen(e3_poset):
    assert build_mtransform(e3_poset).to_lists() == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 2, 1, 0],
        [1, 3, 3, 1],
    ]


def test_unitriangular(e3_poset, e4_poset, e5_poset):
    for p in (e3_poset, e4_poset, e5_poset):
        e = build_mtransform(p)
        assert e.rows == e.cols
        assert all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(e.data))


def test_cover_recursion_matches_subset_oracle_on_full_posets(e7):
    for p in [build_full_poset(n) for n in range(2, 7)] + [build_full_poset(7, max_degree=7)]:
        e = build_mtransform(p)
        assert e == _mtransform_by_subsets(p)
        assert transform_columns(p, p.members) == [tuple(row) for row in e.data]
    p, e = e7  # every column at once, one decode of 1,044 fields per row
    assert transform_columns(p, p.members) == [tuple(row) for row in e.data]


CODEC_TYPECODES = [c for unsigned in mtransform._FIELD_CODES.values() for c in (unsigned, unsigned.lower())]


@pytest.mark.parametrize("code", CODEC_TYPECODES)
def test_field_codec_round_trips(code):
    w = array(code).itemsize * 8
    # 0, the field maximum and the signed minimum, which an unsigned code reads as 2^(w - 1)
    extremes = [0, (1 << w - 1) - 1, -(1 << w - 1)] if code.islower() else [0, (1 << w) - 1, 1 << w - 1]
    for x in extremes:
        fields = array(code, [x])
        assert _pack(fields) == x % (1 << w)
        assert _unpack([_pack(fields)], code, [1]) == fields
    fields = array(code, extremes + extremes[::-1])
    assert _pack(fields) == sum(x % (1 << w) << w * t for t, x in enumerate(fields))  # field t is bits [w t, w (t + 1))
    assert _unpack([_pack(fields)], code, [len(fields)]) == fields
    assert _unpack([_pack(fields[:2]), _pack(fields[2:])], code, [2, len(fields) - 2]) == fields


def test_field_codec_pads_with_zeros_and_takes_empty_input():
    assert _unpack([5, 1 << 16, 0], "H", [3, 2, 1]) == array("H", [5, 0, 0, 0, 1, 0])
    assert _unpack([], "Q", []) == _unpack([0], "Q", [0]) == array("Q")
    assert _pack(array("B")) == 0
    for x in (1 << 16, -1):  # wider than its fields, or negative
        with pytest.raises(OverflowError):
            _unpack([x], "H", [1])


def test_transform_columns_answer_over_the_member_cap():
    p = build_full_poset(8, 11)  # 2,481 members
    assert len(p) > mtransform.TRANSFORM_MEMBER_CAP
    with pytest.raises(CapError):
        build_mtransform(p)
    invariants = [named_class(name) for name in ("K2", "P3", "K3")]
    values = transform_columns(p, invariants)
    assert [v[0] for v in values] == [m.degree for m in p.members]  # the K2 column counts edges
    for i in random.Random(811).sample(range(len(p)), 12):
        assert values[i] == tuple(count_subgraphs_injective(c, p.members[i]) for c in invariants)


def test_transform_columns_read_a_class_outside_the_poset_as_zeros(e3_poset):
    k2, k4, p4 = named_class("K2"), named_class("K4"), named_class("P4")
    assert [v[1] for v in transform_columns(e3_poset, [k2, k4])] == [0] * len(e3_poset)  # K4 has 4 vertices
    p = build_full_poset(4, 2)
    assert [v[0] for v in transform_columns(p, [p4, k2])] == [0] * len(p)  # P4 has 3 edges
    assert transform_columns(p, [k2, k2]) == [(v, v) for v in (m.degree for m in p.members)]
    assert transform_columns(p, []) == [()] * len(p)


def _not_down_closed(names, n, max_degree, complete):
    """A hand-built poset whose members are not closed under edge deletion."""
    members = tuple(sorted((named_class(x) for x in names), key=lambda c: c.sort_key))
    return GPoset(members, n, max_degree, complete)


def test_cover_recursion_matches_subset_oracle_on_spans():
    # E(2d, d) is the span of the connected classes of degree <= d
    for p in [build_full_poset(2 * d, d) for d in (1, 2, 3)] + [build_full_poset(6, 8)]:
        assert build_mtransform(p) == _mtransform_by_subsets(p)


def test_cover_recursion_ignores_a_forged_complete_flag():
    # deleting an edge of the triangle leaves the 2-edge path, not a member
    p = _not_down_closed(("empty", "K3"), 3, 3, complete=True)
    with pytest.raises(AssertionError):
        poset_from_sidecar(poset_sidecar(p), 3)


def test_cover_recursion_refuses_a_poset_that_is_not_down_closed():
    with pytest.raises(PosetError):
        build_mtransform(_not_down_closed(("empty", "K3"), 3, 3, complete=True))


def test_cover_recursion_refuses_a_member_that_does_not_fit_in_k_n():
    # P3 has 3 vertices, so it has no labeled copy in K_2
    with pytest.raises(PosetError):
        build_mtransform(_not_down_closed(("empty", "K2", "P3"), 2, 2, complete=True))


def _deleted_covers(poset):
    """c_gk counted directly: canonicalize every one-edge deletion of g."""
    covers = []
    for g in poset.members:
        down = Counter()
        rest = g.bits
        while rest:
            low = rest & -rest
            rest ^= low
            down[poset.position(canonicalize_bits(g.bits ^ low))] += 1
        covers.append(dict(down))
    return covers


@pytest.mark.parametrize("n, max_degree", [(5, None), (6, None), (7, None), (8, 6)])
def test_cover_counts_from_additions_equal_counted_deletions(n, max_degree):
    p = build_full_poset(n, max_degree)
    assert _cover_counts(p) == _deleted_covers(p)


def _clear_search_memos():
    memos = (graph._canon_from_packed, graph.canonicalize_bits, poset._named_additions, poset.fingerprint_index)
    for memo in memos + (mtransform._poset_covers,):
        memo.cache_clear()


def test_build_and_transform_search_counts_on_e7_d10():
    # one search per labeled addition made 4,123 for the build and canonical
    # additions 778; one search per fingerprint makes 521, one per class, and the
    # build names every addition, where the cover counts searching each
    # twin-grouped addition case made 2,765 in all
    _clear_search_memos()
    p = build_full_poset(7, 10)
    built = graph._canon_from_packed.cache_info().misses
    assert built <= 521
    build_mtransform(p)
    assert graph._canon_from_packed.cache_info().misses == built


def test_transform_of_a_loaded_e7_searches_nothing(e7):
    # the cover counts and the complement map name every child and complement
    # by its fingerprint; a canonical search per complement made 522
    loaded = poset_from_sidecar(poset_sidecar(e7[0]), 7)
    _clear_search_memos()
    assert build_mtransform(loaded) == e7[1]
    assert graph._canon_from_packed.cache_info().misses == 0


def test_full_transform_searches_the_crossing_layer_once():
    # the upper half's covers come from its complements' additions, which the
    # build named below the middle degree and the fingerprints name at it, so the
    # transform searches nothing the build did not: 1,043 searches, 1,300 with
    # canonical additions, 4,269 with one search per addition case and 5,969
    # with one per labeled addition
    _clear_search_memos()
    build_mtransform(build_full_poset(7))
    assert graph._canon_from_packed.cache_info().misses <= 1_043


@pytest.fixture(scope="module")
def e8_d7():
    return build_full_poset(8, 7)


def _shared_fingerprints(p):
    """The groups of members of p that share a `_vertex_invariant`."""
    groups: dict = {}
    for m in p.members:
        groups.setdefault(graph._vertex_invariant(graph._adjacency(m.cv, m.bits)), []).append(m)
    return [group for group in groups.values() if len(group) > 1]


@pytest.fixture
def patched_fingerprints():
    """Clears `poset.fingerprint_index` before and after a test whose patches
    change what an index holds, so no other test reads such an index."""
    memo = poset.fingerprint_index  # the memo itself, should a test patch the name
    memo.cache_clear()
    yield
    memo.cache_clear()


def _count_children_and_searches(monkeypatch):
    """Lists that grow by the bits of each case's child that `poset._keyed_cases`
    yields and of each canonical search the poset module makes."""
    children, searches = [], []
    keyed, search = poset._keyed_cases, poset._canon_from_packed

    def cases(cls, n):
        out = keyed(cls, n)
        children.extend(bits for _key, _cv, bits, _weight in out)
        return out

    monkeypatch.setattr(poset, "_keyed_cases", cases)
    monkeypatch.setattr(poset, "_canon_from_packed", lambda cv, bits: searches.append(bits) or search(cv, bits))
    return children, searches


def test_cover_counts_search_only_the_cases_whose_fingerprint_is_shared(monkeypatch, e8_d7):
    # E(8, 7) is the least E(n, d) where two members share a fingerprint; with the
    # build's names cleared, the cover counts name every case through the index
    (pair,) = _shared_fingerprints(e8_d7)
    assert len(pair) == 2
    poset._named_additions.cache_clear()
    children, searches = _count_children_and_searches(monkeypatch)
    assert _cover_counts(e8_d7) == _deleted_covers(e8_d7)
    assert 0 < len(searches) == sum(canonicalize_bits(bits) in pair for bits in children) < len(children)


def test_cover_counts_search_every_case_when_no_fingerprint_is_unique(monkeypatch, patched_fingerprints):
    # with the build's names cleared, the cover counts name every case through the index
    p = build_full_poset(6)  # the upper half reads its complements' additions
    poset._named_additions.cache_clear()
    children, searches = _count_children_and_searches(monkeypatch)
    covers = _cover_counts(p)
    assert children and not searches  # every member of E(6) has a fingerprint of its own
    children.clear()
    poset._named_additions.cache_clear()
    poset.fingerprint_index.cache_clear()  # the index of E(6) read above
    for module in (poset, mtransform):
        monkeypatch.setattr(module, "_fingerprint", lambda adj: 0)
    same = GPoset(p.members, 6, p.max_degree, True)  # its fingerprints are read under the patch
    assert _cover_counts(same) == covers == _deleted_covers(p)
    assert len(searches) == len(children) > 0


def test_cover_counts_of_a_built_poset_read_the_build_names(monkeypatch):
    # the build names every addition below the middle degree, 7 in E(6); the cover
    # counts name the middle degree's once, by fingerprint, and then read them too
    poset._named_additions.cache_clear()
    p = build_full_poset(6)
    middle = [bits for m in p if m.degree == 7 for _key, _cv, bits, _weight in poset._keyed_cases(m, 6)]
    children, searches = _count_children_and_searches(monkeypatch)
    covers = _cover_counts(p)
    assert sorted(children) == sorted(middle) and searches == []
    children.clear()
    assert build_full_poset(6) == p and _cover_counts(p) == covers == _deleted_covers(p)
    assert children == [] == searches


@pytest.mark.parametrize("n, max_degree", [(6, None), (7, 10)])
def test_a_constant_key_searches_every_case_and_changes_nothing(monkeypatch, patched_fingerprints, n, max_degree):
    p = build_full_poset(n, max_degree)
    covers = _cover_counts(p)
    _clear_search_memos()
    keyed = poset._keyed_cases
    monkeypatch.setattr(poset, "_keyed_cases", lambda cls, n: [(0, *case) for _key, *case in keyed(cls, n)])
    for module in (poset, mtransform):  # no member or complement is named by fingerprint
        monkeypatch.setattr(module, "_fingerprint", lambda adj: 0)
    children, searches = _count_children_and_searches(monkeypatch)
    again = build_full_poset(n, max_degree)
    assert again.members == p.members and [m.aut_support for m in again] == [m.aut_support for m in p]
    # each grown level searches its first case twice, as the one search of the
    # key and again when the count fails, but the first level, whose one case
    # makes K2 and closes the count
    levels = min(p.max_degree, n * (n - 1) // 4)
    assert set(children) == set(searches) and len(searches) == len(children) + levels - 1
    assert _cover_counts(again) == covers == _deleted_covers(p)


def test_orbit_proof_refuses_a_poset_missing_one_of_a_fingerprint_pair(e8_d7):
    # without G@UaC?, G_KqC? alone has their fingerprint; trusting it would count
    # the children of degree-6 members that are G@UaC? as G_KqC?
    (gone, kept), = _shared_fingerprints(e8_d7)
    dropped = GPoset(tuple(m for m in e8_d7.members if m != gone), 8, 7, True)
    assert poset.is_all_of_e(e8_d7.members, 8, 7)
    assert not poset.is_all_of_e(dropped.members, 8, 7)
    assert dropped.fingerprints == {}
    poset._named_additions.cache_clear()
    assert _cover_counts(dropped)[dropped.position(kept)] == _cover_counts(e8_d7)[e8_d7.position(kept)]


def _missing(p, name):
    """p without the member `name`, still claiming p's degree bound."""
    members = tuple(m for m in p.members if m != named_class(name))
    return GPoset(members, p.ambient_n, p.max_degree, True)


def test_cover_counts_refuse_a_missing_complement(e4_poset):
    # C4 is the complement of 2K2 in K_4, which stays; C4's own covers are then
    # missing too, but the complement map refuses first
    with pytest.raises(PosetError, match="complement of"):
        _cover_counts(_missing(e4_poset, "C4"))


def test_cover_counts_refuse_a_complement_map_that_is_not_a_bijection(monkeypatch, patched_fingerprints):
    monkeypatch.setattr(poset, "fingerprint_index", lambda p: {})  # every complement is searched
    monkeypatch.setattr(mtransform, "canonicalize_bits", lambda bits: named_class("K3"))
    with pytest.raises(PosetError, match="bijection"):
        _cover_counts(build_full_poset(3))  # a new poset, whose fingerprints are read under the patch


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=15))
def test_cover_recursion_property_on_random_spans(n, max_degree):
    # E(n, d), the span of the connected classes truncated to n vertices and d edges;
    # d <= 8 at n = 6 keeps the subset oracle near 0.06 s
    p = build_full_poset(n, min(max_degree, 8) if n == 6 else max_degree)
    e = build_mtransform(p)
    assert all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(e.data))
    assert e == _mtransform_by_subsets(p)


@pytest.fixture(scope="module")
def e7():
    p = build_full_poset(7)
    return p, build_mtransform(p)


def test_e7_entries_against_injection_oracle(e7):
    p, e = e7
    check_transform_rows(e, p.degrees())  # 32-bit fields: entries up to C(21, 10)
    rng = random.Random(7)
    members = p.members
    for _ in range(40):
        i, j = rng.randrange(len(p)), rng.randrange(len(p))
        assert e.data[i][j] == count_subgraphs_injective(members[j], members[i])


def test_exact_field_quotient_needs_every_field_to_divide():
    high = _high_bits(8, 7, 2)  # quotient fields must stay under 2^7
    assert _exact_field_quotient(4 + (6 << 8), 2, high) == 2 + (3 << 8)
    # fields [2, 1] over 2: the whole divides, to fields [1 + 2^7, 0], because
    # the odd high field carries into the high bit of the low one
    with pytest.raises(AssertionError):
        _exact_field_quotient(2 + (1 << 8), 2, high)
    with pytest.raises(AssertionError):
        _exact_field_quotient(3, 2, high)


def test_cached_transform_without_a_cache_dir_still_checks_rows(monkeypatch, e4_poset, e4_matrix):
    assert cached_transform(None, 4) == (e4_poset, e4_matrix)
    forged = IntMatrix([*e4_matrix.nonzeros[:-1], {**e4_matrix.row(10), 0: 2}], e4_matrix.cols)
    monkeypatch.setattr(mtransform, "build_mtransform", lambda p: forged)
    with pytest.raises(AssertionError):
        cached_transform(None, 4)


def test_cached_transform_serves_the_matrix_it_built_and_checks_it(monkeypatch, tmp_path, e4_matrix):
    monkeypatch.setattr(mtransform, "build_mtransform", lambda p: e4_matrix)
    for _pass in ("built poset", "loaded poset"):  # the transform is built either way
        assert cached_transform(str(tmp_path), 4)[1] is e4_matrix
    forged = IntMatrix([*e4_matrix.nonzeros[:-1], {**e4_matrix.row(10), 0: 2}], e4_matrix.cols)
    monkeypatch.setattr(mtransform, "build_mtransform", lambda p: forged)
    with pytest.raises(AssertionError):
        cached_transform(str(tmp_path / "fresh"), 4)


def test_cached_transform_refuses_e8_before_the_poset_build(monkeypatch):
    from graphinv.generators import half_degree_system_check

    def no_build(*args):
        raise AssertionError("a poset was built before the refusal")

    monkeypatch.setattr("graphinv.poset.build_full_poset", no_build)
    with pytest.raises(CapError, match="transform of 12346 members"):
        cached_transform(None, 8)
    with pytest.raises(CapError, match="transform of 12346 members"):
        half_degree_system_check(8)


def test_mnukhin_power_small(e3_poset):
    e = build_mtransform(e3_poset)
    degs = e3_poset.degrees()
    assert mnukhin_power(e, degs, 1) == e
    assert mnukhin_power(e, degs, 2) == e @ e
    assert mnukhin_power(e, degs, 0) == IntMatrix.identity(4)
    inv = mnukhin_power(e, degs, -1)
    assert inv @ e == IntMatrix.identity(4)
    assert e @ inv == IntMatrix.identity(4)


def test_mnukhin_requires_complete():
    p = _not_down_closed(("empty", "K3"), 3, 3, complete=False)
    e = _mtransform_by_subsets(p)
    with pytest.raises(PosetError):
        inverse_mtransform(e, p.degrees(), p.complete)


def test_the_packed_proof_not_the_flag_guards_the_inverse():
    # posets that are not closed under edge deletion, with the flag forged: on
    # {empty, K3} the closed form (-1)^3 * 1 is the true inverse entry, but E is
    # not exp(N): K3 has no member one edge below it, so its row reads 3 * 1 != 0
    p = _not_down_closed(("empty", "K3"), 3, 3, complete=True)
    e = _mtransform_by_subsets(p)
    assert mnukhin_power(e, p.degrees(), -1) == unitriangular_inverse(e)
    with pytest.raises(AssertionError, match=r"E is not exp\(N\): row 1 fails"):
        inverse_mtransform(e, p.degrees())
    # on {empty, P3} the closed form (-1)^2 * 1 is not the true -1, and is refused the same way
    p = _not_down_closed(("empty", "P3"), 3, 2, complete=True)
    e = _mtransform_by_subsets(p)
    assert mnukhin_power(e, p.degrees(), -1) != unitriangular_inverse(e)
    with pytest.raises(AssertionError, match=r"E is not exp\(N\): row 1 fails"):
        inverse_mtransform(e, p.degrees())


def test_inverse_cross_assertion(e4_poset, e4_matrix):
    inv = inverse_mtransform(e4_matrix, e4_poset.degrees(), complete=True)
    assert inv == unitriangular_inverse(e4_matrix)


def test_complete_inverse_is_checked_without_elimination(monkeypatch, e4_poset, e4_matrix):
    # S E S is built from E's rows by the sign rule: neither elimination nor the closed form runs
    inv = unitriangular_inverse(e4_matrix)

    def not_run(*args):
        raise AssertionError("elimination or the closed form ran")

    monkeypatch.setattr(mtransform, "unitriangular_inverse", not_run)
    monkeypatch.setattr(mtransform, "mnukhin_power", not_run)
    assert inverse_mtransform(e4_matrix, e4_poset.degrees(), complete=True) == inv


def _one_entry_corruptions(e, degrees, count, seed):
    """`count` seeded copies of E, each with one entry raised by 1, 2 or 5 in a
    column of lower degree than its row."""
    rng = random.Random(seed)
    rows = [i for i in range(e.rows) if degrees[i] > degrees[0]]
    for _ in range(count):
        i = rng.choice(rows)
        j = rng.choice([j for j in range(i) if degrees[j] < degrees[i]])
        bumped = list(e.nonzeros)
        bumped[i] = {**bumped[i], j: bumped[i].get(j, 0) + rng.choice((1, 2, 5))}
        yield IntMatrix(bumped, e.cols)


def test_inverse_refuses_every_one_entry_corruption(e5_poset):
    for p, seed in ((e5_poset, 5), (build_full_poset(7, 10), 7)):
        e, degrees = build_mtransform(p), p.degrees()
        refused = 0
        for bad in _one_entry_corruptions(e, degrees, 200, seed):
            with pytest.raises(AssertionError):
                inverse_mtransform(bad, degrees)
            refused += 1
        assert refused == 200


def test_inverse_refuses_a_recursion_that_holds_only_in_too_narrow_fields():
    # row 3: 3 * 87 = 261 = 5 + 2^8 carries one into field 1, where 2 * 2 = 4 = 5 - 1
    e = IntMatrix.from_rows([[1, 0, 0, 0], [2, 1, 0, 0], [5, 5, 1, 0], [87, 2, 1, 1]])
    degrees = (0, 1, 2, 3)
    packed = [sum(x << (8 * j) for j, x in enumerate(row)) for row in e.data]
    for i, row in enumerate(e.data):
        left = sum((degrees[i] - degrees[j]) * x << (8 * j) for j, x in enumerate(row))
        assert left == sum(x * packed[k] for k, x in enumerate(row) if degrees[k] == degrees[i] - 1)
    assert mnukhin_power(e, degrees, -1) != unitriangular_inverse(e)
    with pytest.raises(AssertionError, match=r"E is not exp\(N\): row 3 fails"):
        inverse_mtransform(e, degrees)


def test_inverse_refuses_a_malformed_transform_before_the_closed_form(monkeypatch):
    def no_closed_form(*args):
        raise AssertionError("the closed form ran")

    monkeypatch.setattr(mtransform, "mnukhin_power", no_closed_form)
    for rows, degrees, message in (
        ([[1, 5], [0, 1]], (0, 1), "past the diagonal"),  # mnukhin_power would raise IndexError
        ([[1, 0], [4, 1]], (1, 1), "of its own degree off the diagonal"),
        ([[1, 0], [-3, 1]], (0, 1), "outside its field"),
        ([[1, 0], [3, 2]], (0, 1), "diagonal entry 2"),
        ([[1, 0, 0], [2**70, 1, 0], [-1, 2, 1]], (0, 1, 2), "outside its field"),  # fields past 64 bits
        ([[1, 0, 0], [2**70, 1, 0], [0, 2**70, 1]], (0, 1, 2), r"E is not exp\(N\): row 2"),
    ):
        with pytest.raises(AssertionError, match=message):
            inverse_mtransform(IntMatrix.from_rows(rows), degrees)
    with pytest.raises(AssertionError, match="negative column"):
        inverse_mtransform(IntMatrix([{0: 1}, {-1: 3, 1: 1}], 2), (0, 1))
    with pytest.raises(PreconditionError, match="not nondecreasing"):
        inverse_mtransform(IntMatrix.identity(2), (1, 0))
    with pytest.raises(PreconditionError):
        inverse_mtransform(IntMatrix.identity(2), (0, 1, 2))


def test_inverse_proof_accepts_the_multiset_orbit_transforms():
    from graphinv import multiset
    from graphinv.perm import Permutation, close_generators, symmetric_group, trivial_group
    from graphinv.selftest import PRINTED_TRIVIAL_7X7, PRINTED_TWO_SYMBOL_5X5

    posets = [
        multiset.build_multiset_poset(trivial_group(3), 1, include_empty=False),
        multiset.build_multiset_poset(close_generators(3, [Permutation((1, 0, 2))]), 1, include_empty=False),
        multiset.build_multiset_poset(symmetric_group(3), 2),
        multiset.build_multiset_poset(trivial_group(3), 2),
    ]
    matrices = [multiset.build_general_mtransform(p) for p in posets]
    assert [matrices[0].to_lists(), matrices[1].to_lists()] == [PRINTED_TRIVIAL_7X7, PRINTED_TWO_SYMBOL_5X5]
    for p, e in zip(posets, matrices):
        assert inverse_mtransform(e, p.degrees()) == mnukhin_power(e, p.degrees(), -1) == unitriangular_inverse(e)


def test_solves_use_the_closed_form_not_elimination(monkeypatch, e5_poset):
    from graphinv import generators, multiset
    from graphinv.algebra import LinComb, express_invariant
    from graphinv.perm import symmetric_group

    e5 = build_mtransform(e5_poset)
    values = [Fraction(m.degree**2 - m.cv, m.aut_support) for m in e5_poset.members]
    inv = unitriangular_inverse(e5)
    want = LinComb.from_terms({
        m: sum(x * values[j] for j, x in inv.row(i).items()) for i, m in enumerate(e5_poset.members)
    })
    p = multiset.build_multiset_poset(symmetric_group(3), 2)
    a = (2, 1, 0)
    orbit_values = [multiset.orbit_sum_value(a, m, p.group) for m in p.members]
    inv = unitriangular_inverse(multiset.build_general_mtransform(p))
    want_orbit = [sum(x * orbit_values[j] for j, x in inv.row(i).items()) for i in range(inv.rows)]
    want_pairs = [_scatter_coefficients(d) for d in (1, 2, 3, 4)]

    def no_elimination(matrix):
        raise AssertionError("elimination ran in a production solve")

    def no_inverse(*args, **kw):
        raise AssertionError("a production solve built an inverse")

    monkeypatch.setattr(mtransform, "unitriangular_inverse", no_elimination)
    monkeypatch.setattr(multiset, "unitriangular_inverse", no_elimination, raising=False)
    monkeypatch.setattr(mtransform, "mnukhin_power", no_inverse)
    for module in (mtransform, generators, multiset):
        monkeypatch.setattr(module, "inverse_mtransform", no_inverse, raising=False)
    assert express_invariant(values, e5_poset, e5) == want
    assert multiset.express_orbit_sum(a, p) == want_orbit
    assert multiset.verify_orbit_sum_expression(a, p, want_orbit)
    assert [generators.inseparable_pair(d).coefficients for d in (1, 2, 3, 4)] == want_pairs


def _scatter_coefficients(d):
    """The coefficients of `inseparable_pair(d)` as the inverse-and-scatter loop
    found them: c_j = sum_i v_i inv_ij over E(2d, d), v_i the copies of member
    i in the least connected class of degree d + 1, inv by elimination."""
    from graphinv.enumeration import connected_classes_by_degree

    p = build_full_poset(2 * d, d)
    generator = connected_classes_by_degree(d + 1)[d + 1][0]
    inv = unitriangular_inverse(build_mtransform(p))
    coeffs = [0] * len(p)
    for i, g in enumerate(p.members):
        value = count_subgraphs(g, generator)
        for j, x in inv.row(i).items():
            coeffs[j] += value * x
    return tuple(coeffs)


def _oracle_solve(matrix, values):
    """unitriangular_inverse(E) v, in Fractions."""
    inv = unitriangular_inverse(matrix)
    return [sum((x * Fraction(values[j]) for j, x in inv.row(i).items()), Fraction(0)) for i in range(inv.rows)]


def test_solve_transform_matches_the_elimination_oracle(e3_poset, e4_poset, e5_poset):
    from graphinv import multiset
    from graphinv.perm import symmetric_group, trivial_group

    rng = random.Random(22)
    systems = [(build_mtransform(p), p.degrees()) for p in (e3_poset, e4_poset, e5_poset, build_full_poset(6))]
    for group, cap in ((trivial_group(3), 1), (trivial_group(2), 3), (symmetric_group(3), 2), (symmetric_group(4), 2)):
        mp = multiset.build_multiset_poset(group, cap)
        systems.append((multiset.build_general_mtransform(mp), mp.degrees()))
    for e, degrees in systems:
        values = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(e.rows)]
        sol = mtransform.solve_transform(e, degrees, values)
        assert sol == _oracle_solve(e, values)
        assert all(type(c) is Fraction for c in sol)
        ints = [rng.randint(-40, 40) for _ in range(e.rows)]
        sol = mtransform.solve_transform(e, degrees, ints)
        assert sol == _oracle_solve(e, ints)
        assert all(type(c) is int for c in sol)  # `inseparable` prints them through json.dumps


def test_solve_transform_on_the_transpose_gives_the_inseparable_coefficients():
    from graphinv.enumeration import connected_classes_by_degree
    from graphinv.generators import inseparable_pair

    for d in (1, 2, 3, 4):
        p = build_full_poset(2 * d, d)
        e = build_mtransform(p)
        generator = connected_classes_by_degree(d + 1)[d + 1][0]
        values = [count_subgraphs(g, generator) for g in p.members]
        transposed = IntMatrix([e.column(j) for j in range(e.cols)], e.rows)
        sol = mtransform.solve_transform(transposed, p.degrees(), values)
        assert all(type(c) is int for c in sol)
        assert tuple(sol) == _scatter_coefficients(d) == inseparable_pair(d).coefficients


def test_solve_transform_refuses_what_it_cannot_certify():
    # lower unitriangular, but not a transform: the closed form gives (1, -1, 1), E c = (1, 0, 1)
    m = IntMatrix.from_rows([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    with pytest.raises(AssertionError, match="row 2 of E c is not the value"):
        mtransform.solve_transform(m, (0, 1, 2), [1, 0, 0])
    with pytest.raises(PreconditionError, match="expected 3 values, got 2"):
        mtransform.solve_transform(m, (0, 1, 2), [1, 0])
    for rows in ([[1, 2], [3, 1]], [[1, 0], [1, 2]], [[0, 0], [1, 1]]):
        with pytest.raises(PreconditionError):
            mtransform.solve_transform(IntMatrix.from_rows(rows), (0, 1), [1, 1])
    with pytest.raises(PreconditionError):
        mtransform.solve_transform(IntMatrix.from_rows([[1, 0, 0], [1, 1, 0]]), (0, 1), [1, 1])
    # {empty, P3}, not closed under edge deletion: the closed-form entry +1 is not the true -1
    p = _not_down_closed(("empty", "P3"), 3, 2, complete=True)
    e = _mtransform_by_subsets(p)
    with pytest.raises(AssertionError):
        mtransform.solve_transform(e, p.degrees(), [1, 5])
    assert mtransform.solve_transform(e, p.degrees(), [0, 5]) == [0, 5] == _oracle_solve(e, [0, 5])


def test_inverse_check_derives_its_field_width(e7):
    # N's row sum 2^40 times the top entry 2^40: fields of 81 bits, past every machine type
    m = IntMatrix.from_rows([[1, 0], [2**40, 1]])
    assert inverse_mtransform(m, (0, 1), complete=True) == unitriangular_inverse(m)
    # 21 * 5040 on E(7), over 16 bits; 10 * 120 on E(7, 10), under them
    p, e = e7
    assert inverse_mtransform(e, p.degrees(), complete=True) == mnukhin_power(e, p.degrees(), -1)
    p = build_full_poset(7, 10)
    e = build_mtransform(p)
    assert inverse_mtransform(e, p.degrees(), complete=True) == unitriangular_inverse(e)


def test_sparse_inverse_against_closed_form(e4_poset, e5_poset):
    for p in [*map(build_full_poset, range(7)), build_full_poset(7, 10)]:
        e, degrees = build_mtransform(p), p.degrees()
        assert inverse_mtransform(e, degrees) == mnukhin_power(e, degrees, -1) == unitriangular_inverse(e)
    for p in (e4_poset, e5_poset):
        e = build_mtransform(p)
        assert e @ unitriangular_inverse(e) == IntMatrix.identity(len(p))


def test_complement_expansion_examples(e4_poset, e3_poset):
    k2, k3 = named_class("K2"), named_class("K3")
    comb = complement_invariant_expansion(k2, e4_poset, 4)
    assert comb.evaluate(k3) == 3
    comb3 = complement_invariant_expansion(k2, e3_poset, 3)
    assert comb3.evaluate(k3) == 0
    # entry quoted in the worked half-matrix example: count of one edge in the
    # 4-complement of the triangle's complement partner (the star)
    star = named_class("K1,3")
    assert comb.evaluate(star) == 3


def test_complement_expansion_total(e4_poset):
    # L(h) must equal the direct complement count for every member pair
    for g in e4_poset.members:
        comb = complement_invariant_expansion(g, e4_poset, 4)
        for h in e4_poset.members:
            assert comb.evaluate(h) == count_subgraphs(g, complement(h.rep(4), 4))


def test_complement_expansion_missing_class():
    p = build_full_poset(4, 1)
    with pytest.raises(PosetError):
        complement_invariant_expansion(named_class("K3"), p, 4)


def test_complement_pairing(e4_poset, e7):
    comp = complement_pairing(e4_poset)
    for a, b in (("K3", "K1,3"), ("P4", "P4"), ("C4", "2K2"), ("empty", "K4")):
        assert comp[e4_poset.position(named_class(a))] == e4_poset.position(named_class(b))
    assert [comp[c] for c in comp] == list(range(len(e4_poset)))
    for p in [*map(build_full_poset, range(7)), e7[0]]:  # the search is the oracle for the fingerprints
        full = (1 << p.ambient_n * (p.ambient_n - 1) // 2) - 1
        assert [p.members[c] for c in complement_pairing(p)] == [canonicalize_bits(full ^ m.bits) for m in p.members]
    with pytest.raises(PosetError):
        complement_pairing(build_full_poset(4, 5))


def test_solve_upper_half_matches_direct(monkeypatch, e4_poset, e4_matrix, e7):
    monkeypatch.setattr(mtransform, "subgraph_class_counts", None)  # the known rows are the cover recursion's
    assert solve_upper_half(e4_poset, 4) == e4_matrix
    for n in (0, 1, 2, 3, 5, 6):
        p = build_full_poset(n)
        assert solve_upper_half(p, n) == build_mtransform(p)
    assert solve_upper_half(e7[0], 7) == e7[1]


def test_solve_upper_half_refuses_over_the_cap_before_any_work(monkeypatch, e5_poset):
    known = len(build_full_poset(5, 5))  # the rows of degree <= C(5, 2) // 2
    e = build_mtransform(e5_poset)
    monkeypatch.setattr(mtransform, "TRANSFORM_MEMBER_CAP", known)
    assert solve_upper_half(e5_poset, 5) == e

    def no_work(*args):
        raise AssertionError("work began before the cap was checked")

    monkeypatch.setattr(mtransform, "TRANSFORM_MEMBER_CAP", known - 1)
    monkeypatch.setattr(mtransform, "complement_pairing", no_work)
    monkeypatch.setattr(mtransform, "build_full_poset", no_work)
    with pytest.raises(CapError, match=f"transform of {known} members, over the cap of {known - 1}"):
        solve_upper_half(e5_poset, 5)


def test_solve_upper_half_refuses_another_ambient(e4_poset):
    # the rows of E(5, cap) are not a prefix of E(4)
    with pytest.raises(PreconditionError, match="ambient"):
        solve_upper_half(e4_poset, 5)


def test_solve_upper_half_with_withheld_middle_row(e4_poset, e4_matrix):
    # the worked example: everything of degree <= 3 known except the triangle
    # row, which is then recovered from its complement partner, the star
    got = solve_upper_half(e4_poset, 4, extra_unknown=[named_class("K3")])
    assert got == e4_matrix
    with pytest.raises(PosetError):
        # withholding both partners of a complement pair is unsolvable
        solve_upper_half(e4_poset, 4, extra_unknown=[named_class("K3"), named_class("K1,3")])
    # each middle-degree row alone: C(n, 2) is even for n = 4, 5, so its partner
    # is a known row of its own degree; for n = 6 it is odd, the partner of a
    # degree-7 row has degree 8 and is rebuilt itself, so both are unknown
    recovered = 0
    for n in (4, 5, 6):
        p = build_full_poset(n)
        e, comp = build_mtransform(p), complement_pairing(p)
        half = n * (n - 1) // 2 // 2
        for i, m in enumerate(p.members):
            if m.degree != half or comp[i] == i:
                continue
            if p.members[comp[i]].degree == half:
                assert solve_upper_half(p, n, extra_unknown=[m]) == e
                recovered += 1
            else:
                with pytest.raises(PosetError, match="complement row of degree 8 unknown"):
                    solve_upper_half(p, n, extra_unknown=[m])
    assert recovered == 2 + 4  # E(4): K3 and K1,3; E(5): the six of degree 5 but C5 and the bull, self-complementary


def test_solve_upper_half_refuses_every_corrupted_known_row(monkeypatch):
    # one known-row entry raised: the rows served are checked like `check_transform_rows`
    for n, seed in ((5, 5), (6, 6)):
        p = build_full_poset(n)
        known = build_mtransform(build_full_poset(n, n * (n - 1) // 2 // 2))
        refused = 0
        for bad in _one_entry_corruptions(known, p.degrees()[: known.rows], 100, seed):
            monkeypatch.setattr(mtransform, "build_mtransform", lambda poset, bad=bad: bad)
            with pytest.raises(PosetError, match="inconsistent partial data"):
                solve_upper_half(p, n)
            refused += 1
        assert refused == 100


def test_solve_upper_half_refuses_a_negative_entry(monkeypatch, e5_poset):
    # row DK_ of E(5, 5) with its one copy of Bo moved to CK, of the same degree: the
    # row keeps its binomial sums and passes the row check, but the rebuilt row
    # C~ (K4) reads a negative count of DK_
    at = {m.graph6: i for i, m in enumerate(e5_poset.members)}
    known = build_mtransform(build_full_poset(5, 5))
    rows = list(known.nonzeros)
    row = dict(rows[at["DK_"]])
    row[at["CK"]] += row.pop(at["Bo"])
    rows[at["DK_"]] = row
    check_transform_rows(IntMatrix(rows, known.cols), e5_poset.degrees()[: known.rows])
    monkeypatch.setattr(mtransform, "build_mtransform", lambda poset: IntMatrix(rows, known.cols))
    with pytest.raises(PosetError, match=rf"entry \({at['C~']},{at['DK_']}\): negative"):
        solve_upper_half(e5_poset, 5)


def test_minor_examples(e4_poset, e4_matrix):
    degs = e4_poset.degrees()
    m = minor_by_degree(e4_matrix, degs, 2, 3)
    assert (m.rows, m.cols) == (3, 2)
    assert exact_rank(m) == 2
    sq = minor_by_degree(e4_matrix, degs, 2, 2)
    assert sq == IntMatrix.identity(2)
    assert exact_rank(sq) == 2
    tr = subset_inclusion_minor(4, 1, 2)
    assert (tr.rows, tr.cols) == (6, 4)
    assert exact_rank(tr) == 4


def test_minor_requires_order():
    with pytest.raises(PreconditionError):
        minor_by_degree(IntMatrix.identity(2), (0, 1), 1, 0)


def _fraction_gauss_jordan(rows, rhs=None):
    """Independent route: Gauss-Jordan elimination over Fractions.  Returns the
    rank and the solution with free unknowns 0, or None for an inconsistent system."""
    width = len(rows[0]) if rows else 0
    rhs = [0] * len(rows) if rhs is None else rhs
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    rank = len(pivots)
    if any(a[r][width] for r in range(rank, len(a))):
        return rank, None
    sol = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        sol[col] = a[r][width]
    return rank, sol


def test_exact_rank_against_fraction_oracle():
    rng = random.Random(17)
    for _ in range(100):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 5))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert exact_rank(IntMatrix.from_rows(rows)) == _fraction_gauss_jordan(rows)[0]
    for _ in range(100):  # mostly zeros, as in the transform minors
        width = rng.randint(1, 8)
        rows = [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(width)] for _ in range(rng.randint(1, 8))]
        assert exact_rank(IntMatrix.from_rows(rows)) == _fraction_gauss_jordan(rows)[0]


def test_exact_solve_against_fraction_oracle():
    rng = random.Random(29)
    seen = Counter()
    for _ in range(300):
        height, width = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 0, 1, 2, -1, 3)) for _ in range(width)] for _ in range(height)]
        if rng.random() < 0.5:  # consistent: the image of a known vector
            x = [rng.randint(-3, 3) for _ in range(width)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(height)]
        rank, expected = _fraction_gauss_jordan(rows, rhs)
        got = exact_solve(IntMatrix.from_rows(rows), rhs)
        assert got == expected
        if got is not None:
            assert all(sum(a * v for a, v in zip(row, got)) == b for row, b in zip(rows, rhs))
            assert all(type(v) is Fraction for v in got)
        seen["inconsistent" if got is None else "full rank" if rank == width else "rank-deficient"] += 1
    assert min(seen[k] for k in ("full rank", "rank-deficient", "inconsistent")) >= 20, seen


def test_exact_solve_small_cases():
    # free unknowns are 0: x + y = 2 is solved on the leftmost column
    assert exact_solve(IntMatrix.from_rows([[1, 1], [2, 2]]), [2, 4]) == [2, 0]
    assert exact_solve(IntMatrix.from_rows([[0, 1, 1]]), [3]) == [0, 3, 0]
    assert exact_solve(IntMatrix.from_rows([[1, 1], [2, 2]]), [1, 3]) is None
    assert exact_solve(IntMatrix.from_rows([[0, 0]]), [1]) is None
    assert exact_solve(IntMatrix.from_rows([[2, 0], [0, 3]]), [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    assert exact_solve(IntMatrix.from_rows([]), []) == [] == _fraction_gauss_jordan([], [])[1]
    with pytest.raises(PreconditionError):
        exact_solve(IntMatrix.identity(2), [1])


def test_derived_relations_equal_the_fraction_oracle():
    # the seven relations of selftest check 09, on E(4) in the basis K2, P3, K1,3
    from itertools import product

    from graphinv import generators

    p = build_full_poset(4)
    basis = [named_class(x) for x in ("K2", "P3", "K1,3")]
    monos = list(product(range(7), range(3), range(2)))
    vals = [[count_subgraphs(b, host) for b in basis] for host in p.members]
    rows = [[v[0] ** i * v[1] ** j * v[2] ** k for i, j, k in monos] for v in vals]
    for name in ("2K2", "P4", "K3", "C4", "paw", "diamond", "K4"):
        target = named_class(name)
        _rank, sol = _fraction_gauss_jordan(rows, [count_subgraphs(target, host) for host in p.members])
        assert sol is not None
        expected = {exps: c for exps, c in zip(monos, sol) if c}
        assert generators.derive_relation_in_basis(target, basis, p, (6, 2, 1)) == expected


def test_block_recursion_bases():
    assert subset_minor_blocks(3, 2, 2) == IntMatrix.identity(3)
    assert subset_minor_blocks(3, 1, 3).to_lists() == [[1, 1, 1]]


def test_subset_minors_refuse_oversized_before_enumerating():
    # C(N, Delta) * C(N, delta) entries: 40 * C(40, 20) and C(20, 3)^2 are over 10^6
    for args in ((40, 1, 20), (20, 3, 3)):
        with pytest.raises(CapError):
            subset_inclusion_minor(*args)
        with pytest.raises(CapError):
            subset_minor_blocks(*args)


def test_ordering_search_identity(e3_poset):
    base = build_mtransform(e3_poset)
    matches = find_orderings_matching(e3_poset, base.to_lists())
    assert matches == [e3_poset.members]


def test_matrix_validation():
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(PreconditionError):
        IntMatrix.identity(2) @ IntMatrix.from_rows([[1, 2, 3]])


def _stores_no_zero(m: IntMatrix) -> bool:
    return all(0 not in m.row(i).values() for i in range(m.rows))


def test_the_compute_path_never_densifies(monkeypatch, tmp_path):
    from graphinv.algebra import (
        LinComb, degree_sum_identity_check, express_invariant, product_kocay, product_mtransform,
    )
    from graphinv.generators import half_degree_system_check, inseparable_pair

    p4, p6 = build_full_poset(4), build_full_poset(6)

    def dense_view(self):
        raise AssertionError("a computation read the dense view")

    monkeypatch.setattr(IntMatrix, "data", property(dense_view))
    e6 = build_mtransform(p6)
    degs = p6.degrees()
    inv = inverse_mtransform(e6, degs, complete=True)
    assert e6 @ inv == IntMatrix.identity(len(p6))
    k2, p3 = named_class("K2"), named_class("P3")
    assert product_mtransform(k2, p3, p6, e6) == product_kocay(k2, p3, p6)
    assert express_invariant([m.degree for m in p6.members], p6, e6) == LinComb.from_terms({k2: 1})
    minors = [minor_by_degree(e6, degs, delta, big) for delta in range(16) for big in range(delta, 16)]
    assert all(exact_rank(m) == min(m.rows, m.cols) for m in minors)
    e4 = build_mtransform(p4)
    assert all(degree_sum_identity_check(g, 2, p4, e4)["holds"] for g in p4.members)
    inseparable_pair(3)
    assert half_degree_system_check(4)["ok"]
    known = [Fraction(i % 3) for i in range(len(p6))]
    assert exact_solve(e6, [sum(x * known[j] for j, x in e6.row(i).items()) for i in range(e6.rows)]) == known
    for _pass in ("built", "loaded"):
        assert cached_transform(str(tmp_path), 6)[1] == e6
    for m in (e6, inv, e4, *minors, mnukhin_power(e6, degs, 0), e6 @ inv):
        assert _stores_no_zero(m)


def test_a_minor_without_rows_has_no_columns(e4_poset, e4_matrix):
    m = minor_by_degree(e4_matrix, e4_poset.degrees(), 3, 11)
    assert (m.rows, m.cols, m.data, exact_rank(m)) == (0, 0, (), 0)
    assert m == IntMatrix.from_rows([])
