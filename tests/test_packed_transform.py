"""The served transform and its inverse are packed rows, decoded on demand:
equal to sparse rows built independently, decoded once per matrix and only
when read, and still refused by the inverse proof when corrupted."""

import functools
import json
import random
from array import array

import pytest

from graphinv import algebra, cli, mtransform
from graphinv.mtransform import (
    IntMatrix,
    _mtransform_by_subsets,
    _pack,
    _packed_columns,
    _unpack,
    build_mtransform,
    cached_transform,
    inverse_mtransform,
    solve_upper_half,
    unitriangular_inverse,
)
from graphinv.poset import build_full_poset
from graphinv.smallgraphs import named_class

CASES = [(n, None) for n in range(8)] + [(7, 10)]


def _sparse_rows(poset) -> IntMatrix:
    """The transform as sparse rows, each packed row decoded alone and its zeros dropped."""
    rows, code = _packed_columns(poset, range(len(poset)))
    return IntMatrix(
        ({j: x for j, x in enumerate(_unpack([row], code, [i + 1])) if x} for i, row in enumerate(rows)), len(rows)
    )


def _sparse_inverse(e: IntMatrix, degrees) -> IntMatrix:
    """S E S from sparse rows, entry (i, j) times (-1)^(d_i - d_j)."""
    return IntMatrix(({j: x * (-1) ** (d - degrees[j]) for j, x in e.row(i).items()} for i, d in enumerate(degrees)), e.cols)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(n, d, poset, sparse E) and every served matrix of E(n, d), the cached
    ones built into one cache directory and then loaded from its sidecar."""
    cache = str(tmp_path_factory.mktemp("cache"))
    out = []
    for n, d in CASES:
        p = build_full_poset(n, d)
        matrices = {
            "build": build_mtransform(p),
            "cached": cached_transform(None, n, d)[1],
            "cached built": cached_transform(cache, n, d)[1],
            "cached loaded": cached_transform(cache, n, d)[1],
        }
        if d is None:
            matrices["half"] = solve_upper_half(p, n)
        out.append((n, d, p, _sparse_rows(p), matrices))
    return out


def test_served_transforms_equal_sparse_rows_built_independently(served):
    for n, d, p, sparse, matrices in served:
        if n <= 5:
            assert sparse == _mtransform_by_subsets(p), (n, d)
        for label, m in matrices.items():
            assert m.packed is not None, label
            assert m == sparse and sparse == m, (n, d, label)
            assert m.nonzeros == sparse.nonzeros and m.data == sparse.data, (n, d, label)


def test_equality_holds_across_field_codes(served):
    codes = {(n, m.code, matrices["build"].code) for n, d, _, _, matrices in served if (m := matrices.get("half"))}
    # from E(3) on, the rebuild's signed bound needs wider fields than the build's
    assert {n for n, half, built in codes if half != built} == {3, 4, 5, 6, 7}
    for _, d, _, _, matrices in served:
        if d is None:
            assert matrices["half"] == matrices["build"]
    e4 = build_mtransform(build_full_poset(4))
    assert e4 != build_mtransform(build_full_poset(4, 5)) and e4 != IntMatrix.identity(e4.rows)
    assert e4 != e4.data


def test_served_inverses_equal_the_sign_rule_and_elimination(served):
    for n, d, p, sparse, matrices in served:
        inv = inverse_mtransform(matrices["build"], p.degrees(), p.complete)
        assert inv.packed == matrices["build"].packed and inv.degrees == tuple(p.degrees())
        assert inv == _sparse_inverse(sparse, p.degrees()), (n, d)
        if n <= 6 or d is not None:  # elimination takes 2 s at E(7)
            assert inv == unitriangular_inverse(sparse), (n, d)
        assert inverse_mtransform(matrices["half"] if d is None else sparse, p.degrees()) == inv


def test_the_dense_view_of_a_packed_inverse_is_signed():
    p = build_full_poset(3)
    inv = inverse_mtransform(build_mtransform(p), p.degrees())
    assert inv.data == ((1, 0, 0, 0), (-1, 1, 0, 0), (1, -2, 1, 0), (-1, 3, -3, 1))
    assert inv.lower == [[1], [-1, 1], [1, -2, 1], [-1, 3, -3, 1]]


def test_repr_shows_the_entries_however_the_rows_are_held(e4_poset):
    e = build_mtransform(e4_poset)
    assert repr(e) == repr(_sparse_rows(e4_poset)) == f"IntMatrix({list(e.nonzeros)!r}, {e.cols})"
    assert repr(inverse_mtransform(e, e4_poset.degrees())).startswith("IntMatrix([{0: 1}, {0: -1, 1: 1}, ")


def _no_sparse_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("sparse rows decoded")

    monkeypatch.setattr(IntMatrix, "nonzeros", property(refuse))


def test_build_invert_and_write_read_no_sparse_rows(monkeypatch, capsys):
    p = build_full_poset(5)
    labels = [m.graph6 for m in p.members]
    want = unitriangular_inverse(build_mtransform(p)).to_lists()
    _no_sparse_rows(monkeypatch)
    inv = inverse_mtransform(build_mtransform(p), p.degrees())
    text = "".join(cli._matrix_json(inv, labels))
    assert text == json.dumps({"labels": labels, "matrix": want}, sort_keys=True, indent=2) + "\n"
    assert cli.main(["invert", "--n", "5"]) == 0
    assert capsys.readouterr().out == text
    with pytest.raises(AssertionError, match="sparse rows decoded"):
        inv.row(0)


def _count_decodes(monkeypatch) -> list:
    calls = []

    def counted(*args):
        calls.append(args)
        return _unpack(*args)

    monkeypatch.setattr(mtransform, "_unpack", counted)
    return calls


def test_rows_are_decoded_once_and_only_when_read(monkeypatch, e5_poset):
    e = build_mtransform(e5_poset)
    inv = inverse_mtransform(build_mtransform(e5_poset), e5_poset.degrees())  # the proof decodes its input
    calls = _count_decodes(monkeypatch)
    assert inv.rows == inv.cols == e.rows == e.cols == len(e5_poset) and calls == []
    for m in (e, inv):
        first = (m.nonzeros, m.row(3), m.entry(4, 1), m.column(0), m.data, m.lower)
        assert (m.nonzeros, m.row(3), m.entry(4, 1), m.column(0), m.data, m.lower) == first
    assert len(calls) == 2  # one decode of the fields of each matrix


def test_repeated_products_decode_the_transform_once(monkeypatch, e5_poset):
    e = build_mtransform(e5_poset)
    calls = _count_decodes(monkeypatch)
    decode = IntMatrix.__dict__["nonzeros"]
    sparse_decodes = []

    def counted(self):
        sparse_decodes.append(self)
        return decode.func(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(IntMatrix, "nonzeros")
    monkeypatch.setattr(IntMatrix, "nonzeros", prop)
    pairs = [(named_class(a), named_class(b)) for a, b in (("K2", "P3"), ("P3", "P3"), ("K3", "K2"), ("2K2", "K2"))]
    first = [algebra.product_mtransform(a, b, e5_poset, e) for a, b in pairs]
    assert [algebra.product_mtransform(a, b, e5_poset, e) for a, b in pairs] == first
    assert len(calls) == 1 and len(sparse_decodes) == 1 and sparse_decodes[0] is e


def _corrupt_packed(e: IntMatrix, degrees, count, seed):
    """`count` seeded copies of E's packed rows, each with one field raised by 1,
    2 or 5 in a column of lower degree than its row, in E's own field code."""
    rng = random.Random(seed)
    rows = [i for i in range(e.rows) if degrees[i] > degrees[0]]
    for _ in range(count):
        i = rng.choice(rows)
        j = rng.choice([j for j in range(i) if degrees[j] < degrees[i]])
        fields = array(e.code, e.lower[i])
        fields[j] += rng.choice((1, 2, 5))
        yield IntMatrix.from_packed([*e.packed[:i], _pack(fields), *e.packed[i + 1 :]], e.code)


def test_inverse_refuses_every_one_field_corruption_of_packed_rows(e5_poset):
    e, degrees = build_mtransform(e5_poset), e5_poset.degrees()
    refused = 0
    for bad in _corrupt_packed(e, degrees, 100, 30):
        with pytest.raises(AssertionError, match=r"E is not exp\(N\): row \d+ fails"):
            inverse_mtransform(bad, degrees)
        refused += 1
    assert refused == 100


def test_inverse_refuses_packed_rows_that_break_the_field_layout(e4_poset, e4_matrix):
    degrees = e4_poset.degrees()
    packed, code, width = e4_matrix.packed, e4_matrix.code, array(e4_matrix.code).itemsize * 8
    for i, row, message in (
        (3, packed[3] | 1 << (width * 4), "past the diagonal or outside its field"),  # a field past the diagonal
        (3, -packed[3], "past the diagonal or outside its field"),
        (3, packed[3] + (1 << (width * 3)), "diagonal entry 2"),
        (3, packed[3] | 1 << (width * 2), "of its own degree off the diagonal"),  # 2K2 and P3 both have 2 edges
    ):
        with pytest.raises(AssertionError, match=message):
            inverse_mtransform(IntMatrix.from_packed([*packed[:i], row, *packed[i + 1 :]], code), degrees)


def test_a_signed_matrix_goes_through_the_sparse_packing_and_is_refused(e4_poset, e4_matrix):
    inv = inverse_mtransform(e4_matrix, e4_poset.degrees())
    with pytest.raises(AssertionError, match="outside its field"):
        inverse_mtransform(inv, e4_poset.degrees())


def _packed_in(code: str, rows) -> IntMatrix:
    return IntMatrix.from_packed([_pack(array(code, row[: i + 1])) for i, row in enumerate(rows)], code)


def test_the_proof_widens_narrow_fields():
    # exp(N) for n_10 = n_21 = 16, in 8-bit fields: the width rule needs 12 bits
    e = _packed_in("B", [[1, 0, 0], [16, 1, 0], [128, 16, 1]])
    assert inverse_mtransform(e, (0, 1, 2)) == unitriangular_inverse(IntMatrix.from_rows(e.data))
    # row 3 holds in 8-bit fields only through a carry (3 * 87 = 5 + 2^8); 16-bit fields refuse it
    e = _packed_in("B", [[1, 0, 0, 0], [2, 1, 0, 0], [5, 5, 1, 0], [87, 2, 1, 1]])
    with pytest.raises(AssertionError, match=r"E is not exp\(N\): row 3 fails"):
        inverse_mtransform(e, (0, 1, 2, 3))
