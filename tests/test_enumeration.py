import contextlib
from collections import Counter
from fractions import Fraction

import pytest

from graphinv import enumeration
from graphinv.enumeration import (
    connected_classes_by_degree,
    connected_counts,
    generator_lower_bound_report,
    graph_count,
    graph_count_series,
    pair_cycle_index_bruteforce,
    pair_group_cycle_index,
    ulam_condition_check,
    ulam_difference_table,
)
from graphinv.errors import CapError
from graphinv.graph import count_subgraphs
from graphinv.mtransform import IntMatrix, exact_rank
from graphinv.poset import build_full_poset
from graphinv.util import ulam_table_csv


def test_cycle_index_n3_closed_form():
    z = pair_group_cycle_index(3)
    assert dict(z.terms) == {
        ((1, 3),): Fraction(1, 6),
        ((1, 1), (2, 1)): Fraction(1, 2),
        ((3, 1),): Fraction(1, 3),
    }


def test_cycle_index_n2():
    z = pair_group_cycle_index(2)
    assert dict(z.terms) == {((1, 1),): Fraction(1)}


def test_cycle_index_against_bruteforce():
    for n in (2, 3, 4, 5):
        assert pair_group_cycle_index(n) == pair_cycle_index_bruteforce(n)


def test_cycle_index_coefficients_sum_to_one():
    for n in range(2, 10):
        assert sum(c for _mono, c in pair_group_cycle_index(n).terms) == 1


def test_substitute_two_counts_classes():
    # s_k = 1 + x^k at x = 1: all unlabeled graphs on n vertices (OEIS A000088)
    totals = [sum(graph_count_series(n)) for n in range(2, 9)]
    assert totals == [2, 4, 11, 34, 156, 1044, 12346]


def test_graph_count_examples():
    assert graph_count(4, 3) == 3
    for n in range(2, 13):
        assert graph_count(n, 1) == 1
    assert graph_count(3, 4) == 0  # beyond the slot count


def test_series_memo_survives_a_caller_mutating_it():
    graph_count_series(4)[0] = 99
    assert graph_count_series(4) == [1, 1, 2, 3, 2, 1, 1]
    assert graph_count_series(4, 2) == [1, 1, 2]


def test_one_edge_series_per_n():
    enumeration._edge_series.cache_clear()
    ulam_difference_table(12, 12)
    assert enumeration._edge_series.cache_info().currsize == len(range(3, 13))


def test_count_symmetry_under_complementation():
    for n in range(2, 13):
        series = graph_count_series(n)
        assert series == series[::-1]


def test_ulam_table_quoted_cells():
    table = ulam_difference_table(12, 12)
    assert table[(2, 5)] == 1
    assert table[(8, 7)] == -8
    assert table[(12, 12)] == 1779
    # the published table prints 3 here; both counting routes give 1
    assert table[(7, 6)] == 1


def test_ulam_table_blank_rule():
    table = ulam_difference_table(12, 12)
    assert (4, 4) not in table  # past half of C(4,2)
    assert (7, 6) in table
    assert (11, 7) not in table


def test_ulam_csv_layout():
    csv = ulam_table_csv(ulam_difference_table(6, 4), 6, 4)
    lines = csv.strip().split("\n")
    assert lines[0] == "d,4,5,6"
    assert lines[1] == "2,0,1,1"
    assert lines[3] == "4,,0,2"


def test_ulam_condition_examples():
    assert ulam_condition_check(4, 3)["inequality_holds"]
    assert not ulam_condition_check(6, 8)["inequality_holds"]
    minor = ulam_condition_check(3, 2, rank_support=4)["minor"]
    assert minor == {"v": 4, "rows": 1, "cols": 1, "rank": 1, "full_row_rank": True}


def test_ulam_minor_full_rank_small():
    for v in (3, 4, 5):
        for d in range(2, v * (v - 1) // 2 + 1):
            minor = ulam_condition_check(v - 1, d, rank_support=v)["minor"]
            if minor["rows"]:
                assert minor["full_row_rank"], (v, d)


def _ulam_minor_by_counting(v: int, d: int) -> dict:
    """The Ulam minor with every entry counted by `count_subgraphs`."""
    members = build_full_poset(v).members
    rows = [m for m in members if m.degree == d and m.cv == v]
    cols = [m for m in members if m.degree == d - 1]
    rank = exact_rank(IntMatrix.from_rows([[count_subgraphs(c, r) for c in cols] for r in rows]))
    return {"v": v, "rows": len(rows), "cols": len(cols), "rank": rank, "full_row_rank": rank == len(rows)}


def test_ulam_minor_matches_the_counting_oracle(monkeypatch):
    cells = [(v, d) for v in range(1, 6) for d in range(v * (v - 1) // 2 + 2)]
    want = {cell: _ulam_minor_by_counting(*cell) for cell in cells}
    assert want[3, 4] == {"v": 3, "rows": 0, "cols": 1, "rank": 0, "full_row_rank": True}
    monkeypatch.setattr(enumeration, "count_subgraphs", None, raising=False)  # the minor is the transform's
    for v, d in cells:
        assert ulam_condition_check(v - 1, d)["minor"] == want[v, d], (v, d)


def test_connected_counts():
    f, big_f = connected_counts(6)
    assert f[1:] == [1, 1, 3, 5, 12, 30]
    assert big_f[6] == 52
    report = generator_lower_bound_report(2)
    assert report == {"d": 2, "F": 2, "lower_bound": 3, "poset_degree": 9}


def test_connected_classes_memo_survives_a_caller_mutating_it():
    levels = connected_classes_by_degree(3)
    with contextlib.suppress(AttributeError):
        levels[3].clear()
    with contextlib.suppress(TypeError):
        levels[3] = []
    assert connected_counts(3)[0] == [0, 1, 1, 3]


def test_caps():
    with pytest.raises(CapError):
        graph_count(13, 2)
    with pytest.raises(CapError):
        connected_counts(9)


def test_graph_count_against_networkx_atlas():
    # independent oracle: the atlas lists every graph on up to 7 vertices
    nx = pytest.importorskip("networkx")
    atlas = Counter((g.number_of_nodes(), g.number_of_edges()) for g in nx.graph_atlas_g())
    for n in range(1, 8):
        for d in range(n * (n - 1) // 2 + 1):
            assert graph_count(n, d) == atlas[(n, d)], (n, d)
    # the printed cell (d=7, n=6) reads 3; the atlas gives 1, and 3 only when
    # h_5(6) stands in for h_5(7)
    assert -atlas[(6, 7)] + atlas[(5, 7)] + atlas[(6, 6)] == 1
    assert -atlas[(6, 7)] + atlas[(5, 6)] + atlas[(6, 6)] == 3
