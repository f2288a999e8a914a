import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphinv import algebra, enumeration, graph, mtransform, poset
from graphinv.cli import _group_for, _parse_relation, build_parser, main
from graphinv.errors import PreconditionError
from graphinv.graph import parse_edge_list, parse_graph, parse_graph6
from graphinv.perm import Permutation
from graphinv.poset import build_full_poset, poset_sidecar
from graphinv.smallgraphs import named_class
from graphinv.util import CACHE_FORMAT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_edges_in_triangle(capsys):
    code, out, _ = run_cli(capsys, "count", "--pattern", "0-1", "--host", "1-2,1-3,2-3", "--oracle")
    assert code == 0
    assert json.loads(out) == {"count": 3}


def test_count_graph6_input(capsys):
    k2 = named_class("K2").graph6
    k3 = named_class("K3").graph6
    code, out, _ = run_cli(capsys, "count", "--pattern", k2, "--host", k3)
    assert code == 0 and json.loads(out)["count"] == 3


def test_product_all_methods_agree(capsys):
    k2 = named_class("K2").graph6
    p3 = named_class("P3").graph6
    code, out, _ = run_cli(capsys, "product", "--n", "5", "--a", k2, "--b", p3, "--method", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["general"] is True
    coeffs = sorted(t["coeff"] for t in payload["terms"])
    assert coeffs == [1, 2, 2, 3, 3]


def test_general_product_verified(capsys):
    code, out, _ = run_cli(
        capsys, "general-product", "--a", named_class("K2").graph6, "--b",
        named_class("P3").graph6, "--verify",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert len(payload["terms"]) == 5


def test_enumerate_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert json.loads(out1)["count"] == 11
    code, out2, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert out1 == out2


def test_mtransform_csv_and_no_jobs_flag(capsys):
    code, out1, _ = run_cli(capsys, "mtransform", "--n", "4", "--format", "csv")
    _, out2, _ = run_cli(capsys, "mtransform", "--n", "4", "--format", "csv")
    assert code == 0 and out1 == out2
    assert out1.splitlines()[1].startswith("?,1,0")
    with pytest.raises(SystemExit) as exc:
        main(["mtransform", "--n", "4", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_selftest_rejects_cache_dir(tmp_path, capsys):
    target = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--cache-dir", str(target)])
    assert exc.value.code == 2
    assert not target.exists()


def test_invert_csv(capsys):
    code, out, _ = run_cli(capsys, "invert", "--n", "3", "--format", "csv")
    assert code == 0
    rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
    assert [[int(x) for x in r] for r in rows] == [
        [1, 0, 0, 0],
        [-1, 1, 0, 0],
        [1, -2, 1, 0],
        [-1, 3, -3, 1],
    ]


def _reference_matrix_text(command, args, fmt):
    """The matrix commands' stdout as `json.dumps(indent=2)` and a CSV join of the dense rows lay it out."""
    n, d = int(args[1]), int(args[3]) if len(args) > 2 else None
    p, e = mtransform.cached_transform(None, n, d)
    rows = mtransform.unitriangular_inverse(e).data if command == "invert" else e.data
    labels = [m.graph6 for m in p.members]
    if fmt == "json":
        return json.dumps({"labels": labels, "matrix": [list(r) for r in rows]}, sort_keys=True, indent=2) + "\n"
    return "".join([f",{','.join(labels)}\n"] + [f"{label},{','.join(map(str, r))}\n" for label, r in zip(labels, rows)])


@pytest.mark.parametrize(
    "args", [["--n", "0"], ["--n", "1"], ["--n", "4", "--max-degree", "0"], ["--n", "5", "--max-degree", "3"], ["--n", "5"]]
)
@pytest.mark.parametrize("command", ["mtransform", "invert"])
def test_matrix_writer_lays_out_json_and_csv_as_before(capsys, args, command):
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, command, *args, "--format", fmt)
        assert code == 0 and out == _reference_matrix_text(command, args, fmt), (fmt, out[:200])


MATRIX_DIGESTS_N7 = {  # sha256 of the stdout of `<command> --n 7 --format <format>`, as the json.dumps writer printed it
    ("mtransform", "json"): "5ab5c942ecaa0e6926ad7a33d2b5ec95698469cc7cde715007baf8207650fea5",
    ("mtransform", "csv"): "61c2ffaa1f16ef6a4e011fcaf67a358127824ad6fcbb8f2ab72f204658e38faf",
    ("invert", "json"): "3e2731b97cb7e9d41c9b12d82fd9280dec3df71ee73fc2ddc16cfd5f1cb28525",
    ("invert", "csv"): "0beb11d3a326248173aa82b50d26cd3c702b1d2a84dc856145e1ecdaec5cfe2f",
}


@pytest.mark.parametrize("command, fmt", sorted(MATRIX_DIGESTS_N7))
def test_matrix_writer_output_at_n7_is_unchanged(capsys, command, fmt):
    code, out, _ = run_cli(capsys, command, "--n", "7", "--format", fmt)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == MATRIX_DIGESTS_N7[command, fmt]


def test_separators_search(capsys):
    code, out, _ = run_cli(capsys, "separators", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum_size"] == 1
    assert [named_class("K2").graph6] in payload["separators"]


def test_separators_search_refuses_before_building_the_poset(capsys, monkeypatch):
    from graphinv import generators

    real = poset.build_full_poset

    def small_only(n, max_degree=None):
        if n >= 6:
            raise AssertionError(f"E({n}) must not be built")
        return real(n, max_degree)

    monkeypatch.setattr(poset, "build_full_poset", small_only)
    monkeypatch.setattr(generators, "build_full_poset", small_only)
    code, out, err = run_cli(capsys, "separators", "--n", "8")
    assert (code, out) == (2, "") and err.startswith("error: candidate pool of E(8) exceeds cap 20")
    code, out, _ = run_cli(capsys, "separators", "--n", "4")
    assert code == 0 and json.loads(out) == {
        "minimum_size": 3,
        "n": 4,
        "separators": [["A_", "Bo", "Bw"], ["A_", "Bo", "Cs"]],
    }
    code, _, err = run_cli(capsys, "separators", "--n", "5")
    assert code == 2 and err.startswith("error: candidate pool 30 exceeds cap 20")


def test_separators_set_check(capsys):
    k2 = named_class("K2").graph6
    code, out, _ = run_cli(capsys, "separators", "--n", "4", "--set", k2)
    payload = json.loads(out)
    assert code == 0 and payload["is_separator"] is False
    assert set(payload["witness"]) == {named_class("2K2").graph6, named_class("P3").graph6}


def test_separators_refuse_a_negative_max_size(capsys):
    code, out, err = run_cli(capsys, "separators", "--n", "4", "--max-size", "-1")
    assert (code, out) == (2, "") and err == "error: max_size must be nonnegative\n"


def test_separators_check_an_empty_set_as_given(capsys):
    # an empty token is the empty graph, as in "0-1,", which never separates
    code, out, _ = run_cli(capsys, "separators", "--n", "4", "--set", "")
    assert code == 0 and json.loads(out) == {"is_separator": False, "n": 4, "set": ["?"], "witness": ["?", "A_"]}


def test_inseparable_cli(capsys):
    code, out, _ = run_cli(capsys, "inseparable", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["T"] == named_class("2K2").graph6
    assert payload["U"] == named_class("P3").graph6
    assert payload["degree"] == 2 and payload["bound"] == 2


def test_reconstruct_cli(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "reconstruct", "--host", "0-1,2-3")
    payload = json.loads(out)
    assert code == 0
    assert payload["components"] == [{"graph6": named_class("K2").graph6, "count": 2}]
    k6 = ",".join(f"{i}-{j}" for j in range(6) for i in range(j))  # 2^15 - 1 edge subsets
    code, out, _ = run_cli(capsys, "reconstruct", "--host", k6)
    assert code == 0 and json.loads(out)["components"] == [{"graph6": "E~~w", "count": 1}]

    def no_build(*args):
        raise AssertionError("the pool was built before the refusal")

    monkeypatch.setattr(poset, "build_full_poset", no_build)
    k7 = ",".join(f"{i}-{j}" for j in range(7) for i in range(j))
    code, out, err = run_cli(capsys, "reconstruct", "--host", k7)
    assert (code, out) == (2, "") and err.startswith("error: 2097151 edge subsets")
    p9 = ",".join(f"{i}-{i + 1}" for i in range(8))
    code, out, err = run_cli(capsys, "reconstruct", "--host", p9)
    assert (code, out) == (2, "") and err.rstrip().endswith("the pool holds only classes on at most 8 vertices")


def test_complement_solve_cli(capsys):
    k2 = named_class("K2").graph6
    k3 = named_class("K3").graph6
    code, out, _ = run_cli(capsys, "complement-solve", "--n", "4", "--g", k2, "--host", k3)
    payload = json.loads(out)
    assert code == 0
    assert payload["value_at_host"] == 3 and payload["direct"] == 3


def test_rank_minor_cli(capsys):
    code, out, _ = run_cli(capsys, "rank-minor", "--trivial-vars", "4", "--delta", "1", "--Delta", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"rows": 6, "cols": 4, "rank": 4, "full": True}
    code, out, _ = run_cli(capsys, "rank-minor", "--trivial-vars", "0", "--delta", "0", "--Delta", "0")
    assert code == 0 and json.loads(out) == {"rows": 1, "cols": 1, "rank": 1, "full": True}


def test_ulam_table_csv_stable(capsys):
    _, out1, _ = run_cli(capsys, "ulam-table", "--max-n", "8", "--max-d", "8", "--format", "csv")
    _, out2, _ = run_cli(capsys, "ulam-table", "--max-n", "8", "--max-d", "8", "--format", "csv")
    assert out1 == out2
    assert out1.splitlines()[0] == "d,4,5,6,7,8"


def test_ulam_table_cache(tmp_path, capsys, monkeypatch):
    base = ["ulam-table", "--max-n", "6", "--max-d", "6"]
    fresh = {fmt: run_cli(capsys, *base, "--format", fmt)[1] for fmt in ("json", "csv")}
    cached = ["--cache-dir", str(tmp_path)]
    for fmt, out in fresh.items():
        assert run_cli(capsys, *base, "--format", fmt, *cached) == (0, out, "")
    assert len(list(tmp_path.iterdir())) == 1  # one cells entry serves both formats

    def no_table(*args):
        raise AssertionError("a warm run recomputed the table")

    monkeypatch.setattr(enumeration, "ulam_difference_table", no_table)
    for fmt, out in fresh.items():
        assert run_cli(capsys, *base, "--format", fmt, *cached) == (0, out, "")


def test_ulam_check_cli(capsys):
    code, out, _ = run_cli(capsys, "ulam-check", "--n", "4", "--d", "3")
    payload = json.loads(out)
    assert code == 0 and payload["inequality_holds"] is True


def test_ulam_check_refuses_a_negative_n(capsys):
    code, out, err = run_cli(capsys, "ulam-check", "--n", "-1", "--d", "0")
    assert (code, out) == (2, "") and err == "error: n must be nonnegative\n"


def test_ulam_check_refuses_a_negative_d(capsys):
    code, out, err = run_cli(capsys, "ulam-check", "--n", "3", "--d", "-1")
    assert (code, out) == (2, "") and err == "error: d must be nonnegative\n"


def test_ulam_check_refuses_a_negative_rank_support(capsys):
    code, out, err = run_cli(capsys, "ulam-check", "--n", "3", "--d", "2", "--rank-support", "-1")
    assert (code, out) == (2, "") and err == "error: rank_support must be nonnegative\n"


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["count", "oracle"])
def test_count_on_a_host_whose_subsets_exceed_the_support_cap(capsys, oracle):
    host = "0-1,2-3,4-5,6-7,8-9,10-11,12-13,12-14,12-15,13-14,13-15,14-15"
    code, out, err = run_cli(capsys, "count", "--pattern", "0-1,0-2,0-3,1-2,1-3,2-3", "--host", host, *oracle)
    assert (code, err) == (0, "") and json.loads(out) == {"count": 1}


def test_multiset_eval_cli(capsys):
    code, out, _ = run_cli(capsys, "multiset-eval", "--m", "1,2", "--w", "2,2", "--group", "sym")
    assert code == 0 and json.loads(out)["value"] == 4
    code, out, _ = run_cli(
        capsys, "multiset-eval", "--m", "2,1", "--w", "2,2", "--group", "sym", "--op", "orbit-sum"
    )
    assert code == 0 and json.loads(out)["value"] == 16


def test_verify_relation_cli(capsys):
    k2 = named_class("K2").graph6
    p3 = named_class("P3").graph6
    relation = json.dumps(
        {
            "terms": [
                {"coeff": 1, "monomial": {p3: 1}},
                {"coeff": "-1/2", "monomial": {k2: 2}},
                {"coeff": "1/2", "monomial": {k2: 1}},
            ]
        }
    )
    code, out, _ = run_cli(capsys, "verify-relation", "--n", "3", "--relation", relation)
    assert code == 0 and json.loads(out)["holds"] is True


def test_verify_relation_refuses_a_monomial_power_over_the_cap(capsys, monkeypatch):
    from graphinv import generators

    k2 = named_class("K2").graph6
    monkeypatch.setattr(generators, "transform_columns", None)  # no member may be evaluated

    def relation(power):
        return json.dumps({"terms": [{"coeff": 1, "monomial": {k2: power}}, {"coeff": -1, "monomial": {k2: power}}]})

    code, out, err = run_cli(capsys, "verify-relation", "--n", "4", "--relation", relation(4_000_000))
    assert (code, out) == (2, "") and err == (
        f"error: monomial of total power 4000000, over the cap of {generators.RELATION_POWER_CAP}\n"
    )
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "verify-relation", "--n", "4", "--relation", relation(generators.RELATION_POWER_CAP))
    assert code == 0 and json.loads(out)["holds"] is True


def test_separators_and_relations_read_transform_columns_not_subgraph_counts(capsys, monkeypatch):
    import graphinv
    from graphinv import selftest

    k2, p3, k3 = (named_class(name).graph6 for name in ("K2", "P3", "K3"))
    relations = [
        {"terms": [{"coeff": 1, "monomial": {p3: 1}}, {"coeff": "-1/2", "monomial": {k2: 2}},
                   {"coeff": "1/2", "monomial": {k2: 1}}]},
        {"terms": [{"coeff": 1, "monomial": {k3: 1}}, {"coeff": "-1/6", "monomial": {k2: 3}},
                   {"coeff": "1/2", "monomial": {k2: 2}}, {"coeff": -1, "monomial": {k2: 1}}]},
    ]
    commands = [["separators", "--n", "4"], ["separators", "--n", "4", "--set", "A_,Bo,Cs"]]
    commands += [["verify-relation", "--n", "3", "--relation", json.dumps(r)] for r in relations]

    def outputs():
        runs = [run_cli(capsys, *argv) for argv in commands]
        return runs, [(r.ok, r.detail) for r in map(selftest.run_one, ("09", "10"))]

    before = outputs()
    assert all(code == 0 for code, _, _ in before[0]) and all(ok for ok, _ in before[1])
    assert json.loads(before[0][3][1])["holds"] is False  # the printed triangle relation

    def refuse(pattern, host):
        raise AssertionError("count_subgraphs called")

    counted = graph.count_subgraphs
    for module in [getattr(graphinv, name) for name in dir(graphinv)]:
        if getattr(module, "count_subgraphs", None) is counted:
            monkeypatch.setattr(module, "count_subgraphs", refuse)
    assert outputs() == before


def test_precondition_violations_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--pattern", "A_", "--host", "notagraph6~~~")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "enumerate", "--n", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "inseparable", "--d", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "inseparable", "--d", "5")  # E(10, 5) is over the poset vertex cap
    assert code == 2 and err == f"error: full poset build capped at n <= {poset.FULL_POSET_VERTEX_CAP}\n"


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_truncated_cache_entry_is_rebuilt(tmp_path, capsys):
    code, reference, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    args = ["enumerate", "--n", "4", "--cache-dir", str(tmp_path)]
    code, _, _ = run_cli(capsys, *args)
    (entry,) = tmp_path.iterdir()
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and out == reference and err == ""
    assert entry.read_text() == text  # rebuilt in place
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]  # no temporary file left


def _entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")


_E4 = build_full_poset(4)
_E4_SIDECAR = poset_sidecar(_E4)
_E4_MATRIX = mtransform.build_mtransform(_E4)
_E4_ROWS = [sorted(_E4_MATRIX.row(i).items()) for i in range(_E4_MATRIX.rows)]
# E(4) in the entry layout of cache format 1, which stored n, d, and each
# member's graph6, degree, cv and aut
_E4_FORMAT_1 = {
    "ambient_n": 4,
    "max_degree": 6,
    "members": [{"graph6": m.graph6, "degree": m.degree, "cv": m.cv, "aut": m.aut_support} for m in _E4.members],
}

_CORRUPT_ENTRIES = {
    "ulam-cells-shape": (["ulam-table", "--max-n", "6", "--max-d", "4"], "ulam-cells:6:4", {"x": 1}),
    "ulam-cells-value": (["ulam-table", "--max-n", "6", "--max-d", "4", "--format", "csv"], "ulam-cells:6:4", [99]),
    "poset-cut": (["mtransform", "--n", "4", "--format", "csv"], "poset:n=4:d=6", _E4_SIDECAR[:3]),
    "poset-format-1-layout": (["enumerate", "--n", "4"], "poset:n=4:d=6", _E4_FORMAT_1),
    # the transform route of `product` reads the E(4, 3) block, its only entry
    "transform-cut": (
        ["product", "--n", "4", "--a", "0-1", "--b", "0-1,1-2", "--method", "mtransform"],
        "poset:n=4:d=3",
        poset_sidecar(build_full_poset(4, 3))[:3],
    ),
}


@pytest.mark.parametrize("header", ["bare", "old-header", "format-1"])
@pytest.mark.parametrize("case", sorted(_CORRUPT_ENTRIES))
def test_corrupt_cache_entry_is_rebuilt(tmp_path, capsys, case, header):
    argv, key, bad_value = _CORRUPT_ENTRIES[case]
    code, reference, _ = run_cli(capsys, *argv)
    cached = [*argv, "--cache-dir", str(tmp_path)]
    assert code == 0 and run_cli(capsys, *cached) == (0, reference, "")
    names = sorted(p.name for p in tmp_path.iterdir())
    entry = _entry_path(tmp_path, key)
    good = entry.read_bytes()
    # a value that parses, written bare, under the header of the good value,
    # or under a header of format 1 that matches its bytes
    body = json.dumps(bad_value, sort_keys=True).encode()
    entry.write_bytes({
        "bare": b"",
        "old-header": good.partition(b"\n")[0] + b"\n",
        "format-1": b"graphinv-cache 1 " + hashlib.sha256(body).hexdigest().encode() + b"\n",
    }[header] + body)
    assert run_cli(capsys, *cached) == (0, reference, "")
    assert entry.read_bytes() == good  # rewritten in place
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def _swapped_members(sidecar):
    members = list(sidecar)
    members[2], members[3] = members[3], members[2]
    return members


def _record_changed(sidecar, pos, record):
    members = list(sidecar)
    members[pos] = record
    return members


# the table cells in the entry layout of cache format 1, [d, n, value] triples
_CELLS_FORMAT_1 = [[d, n, v] for (d, n), v in enumeration.ulam_difference_table(6, 4).items()]
_ENUMERATE_3 = (["enumerate", "--n", "3"], "poset:n=3:d=3")
_ENUMERATE_4 = (["enumerate", "--n", "4"], "poset:n=4:d=6")
_K2_BITS, _K2_AUT = _E4_SIDECAR[1]
_FORGED_ENTRIES = {
    "poset-int-list": (*_ENUMERATE_3, [1]),
    "poset-stored-n-d": (*_ENUMERATE_3, {"ambient_n": 3, "max_degree": 3}),
    "poset-members-of-ints": (*_ENUMERATE_3, {"members": [1]}),
    "poset-record-too-long": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 1, [_K2_BITS, _K2_AUT, 1])),
    "poset-record-too-short": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 1, [_K2_BITS])),
    "poset-bits-bool": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 1, [True, _K2_AUT])),
    "poset-aut-float": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 1, [_K2_BITS, float(_K2_AUT)])),
    # the edge {1, 2}: support {1, 2}, not [0..2)
    "poset-support-not-packed": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 1, [0b100, _K2_AUT])),
    "poset-bits-outside-kn": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 10, [1 << 6, 1])),
    "poset-bits-negative": (*_ENUMERATE_4, _record_changed(_E4_SIDECAR, 1, [-1, _K2_AUT])),
    "members-swapped": (*_ENUMERATE_4, _swapped_members(_E4_SIDECAR)),
    "poset-first-three": (*_ENUMERATE_4, _E4_SIDECAR[:3]),
    "poset-e5-as-e6": (["enumerate", "--n", "6"], "poset:n=6:d=15", poset_sidecar(build_full_poset(5))),
    "poset-format-1-layout": (*_ENUMERATE_4, _E4_FORMAT_1),
    "ulam-cells-shape": (["ulam-table", "--max-n", "6", "--max-d", "4"], "ulam-cells:6:4", {"x": 1}),
    "ulam-cells-cut": (["ulam-table", "--max-n", "6", "--max-d", "4", "--format", "csv"], "ulam-cells:6:4", [99]),
    "ulam-cells-triples": (["ulam-table", "--max-n", "6", "--max-d", "4"], "ulam-cells:6:4", _CELLS_FORMAT_1),
    "ulam-cells-bool": (["ulam-table", "--max-n", "6", "--max-d", "4"], "ulam-cells:6:4", [False] * 8),
}


@pytest.mark.parametrize("case", sorted(_FORGED_ENTRIES))
def test_forged_entry_under_a_valid_header_is_never_served(tmp_path, capsys, case):
    argv, key, forged = _FORGED_ENTRIES[case]
    cached = [*argv, "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *cached)[0] == 0
    entry = _entry_path(tmp_path, key)
    assert entry.exists()
    body = json.dumps(forged, sort_keys=True).encode()
    entry.write_bytes(CACHE_FORMAT + b" " + hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
    code, out, err = run_cli(capsys, *cached)
    assert code == 3 and out == ""
    assert err.rstrip().endswith("error: internal check failed")


@pytest.mark.parametrize("n, max_degree", [(2, None), (3, None), (4, None), (5, None), (6, None), (7, 10)])
def test_cached_transform_rows_equal_the_build(tmp_path, n, max_degree):
    expected = mtransform.build_mtransform(build_full_poset(n, max_degree))
    for _pass in ("built poset", "loaded poset"):
        assert mtransform.cached_transform(str(tmp_path), n, max_degree)[1] == expected
    key = f"poset:n={n}:d={n * (n - 1) // 2 if max_degree is None else max_degree}"
    assert [p.name for p in tmp_path.iterdir()] == [_entry_path(tmp_path, key).name]


def _one_entry_changed(rows):
    rows = [list(row) for row in rows]
    j, e = rows[-2][0]
    rows[-2][0] = (j, e + 1)
    return rows


# transform rows in the entry layout of earlier versions, which cached the
# transform under mtransform:n=<n>:d=<bound>: one [[j, e], ...] list per row
_FORGED_TRANSFORMS = {
    "entry-changed": _one_entry_changed(_E4_ROWS),
    "cut": _E4_ROWS[:3],
    "not-rows": {"x": 1},
    "not-pairs": [[[1]]],
    "float-column": [[[0.0, 1]], *_E4_ROWS[1:]],
}


@pytest.mark.parametrize("case", sorted(_FORGED_TRANSFORMS))
def test_transform_commands_cache_only_posets(tmp_path, capsys, case):
    commands = [
        ["mtransform", "--n", "4"],
        ["invert", "--n", "4"],
        ["product", "--n", "4", "--a", "0-1", "--b", "0-1,1-2", "--method", "mtransform"],
        ["rank-minor", "--n", "4", "--delta", "1", "--Delta", "2"],
        ["express", "--n", "4", "--values", ",".join(map(str, range(1, 12)))],
    ]
    cached = ["--cache-dir", str(tmp_path)]
    cold = [run_cli(capsys, *argv, *cached) for argv in commands]
    assert all(code == 0 for code, _, _ in cold)
    # rank-minor reads E(4, 2) and product E(4, 3)
    posets = {_entry_path(tmp_path, f"poset:n=4:d={d}") for d in (2, 3, 6)}
    assert set(tmp_path.iterdir()) == posets
    body = json.dumps(_FORGED_TRANSFORMS[case], sort_keys=True).encode()
    forged = CACHE_FORMAT + b" " + hashlib.sha256(body).hexdigest().encode() + b"\n" + body
    transforms = {_entry_path(tmp_path, f"mtransform:n=4:d={d}") for d in (3, 6)}
    for entry in transforms:
        entry.write_bytes(forged)
    assert [run_cli(capsys, *argv, *cached) for argv in commands] == cold
    assert set(tmp_path.iterdir()) == posets | transforms
    assert all(entry.read_bytes() == forged for entry in transforms)  # never rewritten


def test_warm_commands_canonicalize_nothing(tmp_path, capsys):
    commands = [
        ["enumerate", "--n", "7"],
        ["mtransform", "--n", "6"],
        ["invert", "--n", "6"],
        ["rank-minor", "--n", "6", "--delta", "2", "--Delta", "3"],
        ["express", "--n", "5", "--values", ",".join(map(str, range(34)))],
        ["product", "--n", "6", "--a", "0-1", "--b", "0-1,1-2", "--method", "mtransform"],
    ]
    operands = {"product": 2}  # the one search each parsed operand needs
    cached = ["--cache-dir", str(tmp_path)]
    cold = [run_cli(capsys, *argv, *cached) for argv in commands]
    for argv, reference in zip(commands, cold):
        graph.canonicalize_bits.cache_clear()  # else the front memo answers what the cold run saw
        graph._canon_from_packed.cache_clear()
        poset._full_poset.cache_clear()  # a warm process has built no poset
        assert run_cli(capsys, *argv, *cached) == reference
        assert graph._canon_from_packed.cache_info().misses == operands.get(argv[0], 0), argv


_REPO = Path(__file__).resolve().parents[1]
_CUBE = "0-1,1-2,2-3,0-3,4-5,5-6,6-7,4-7,0-4,1-5,2-6,3-7"
_CORPUS_INPUTS = {"{K2}": "2-5", "{P3}": "4-1,1-3", "{host}": _CUBE}


def test_benchmark_corpus_stdout_is_byte_identical_cold_and_warm(tmp_path, capsys):
    spec = json.loads((_REPO / "perfbench" / "corpus.json").read_text())
    cached = ["--cache-dir", str(tmp_path)]
    for label in ("cold", "warm"):
        for cmd in spec["commands"]:
            argv = [_CORPUS_INPUTS.get(arg, arg) for arg in cmd["args"]] + (cached if cmd["cache"] else [])
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == "", (label, cmd["name"], err)
            assert hashlib.sha256(out.encode()).hexdigest() == cmd["sha256"], (label, cmd["name"])


_GOLDEN_STDOUT = {
    "mtransform-n5-csv": (
        "mtransform --n 5 --format csv", "124282140d3b18f6b5f5b864dc734e4802528aa52ee58b12a74e2d9488f28e91",
    ),
    "invert-n5-csv": ("invert --n 5 --format csv", "fe963e449c3d9ea2668ccd2d0a29e9ac62e780d74f9b828cbf5c7cf5483b819c"),
    "mtransform-n7-d6-csv": (
        "mtransform --n 7 --max-degree 6 --format csv",
        "afb1d38de7776956bb9e3dc8e7ff3fb78332410e5b78292025c187e8e1634411",
    ),
    "express-n4": (
        "express --n 4 --values 1,2,3,4,5,6,7,8,9,10,11",
        "3c59867218208afb6474aa4c2dd4bfcd33da9ed71463b1b8ab47b2871a943230",
    ),
    "product-n5-mtransform": (
        "product --n 5 --a 0-1,1-2 --b 0-1,1-2,2-0 --method mtransform",
        "60514d4df6035115028f53182798fc7d8eddd7ceb65f1d36a3790bd239e36705",
    ),
    "rank-minor-n5": (
        "rank-minor --n 5 --delta 3 --Delta 5", "fe25d5c6ad826c428d628c291f5319541be8ce1757ee0df5c41827ea49f5ccca",
    ),
    "product-n6-kocay": (
        "product --n 6 --a 0-1 --b 0-1,1-2 --method kocay",
        "10dd60f73f7977af9b47f6fd726f0f069557a640855c892aff454255cf02580e",
    ),
    "product-n6-fleischmann": (
        "product --n 6 --a 0-1 --b 0-1,1-2 --method fleischmann",
        "5f46545dd3383b1991ab4cb0e2c661741cf06342419aa6a1fed085a3b510d178",
    ),
    "product-n7": (
        "product --n 7 --a 0-1,1-2 --b 0-1,1-2,2-0",
        "c28ce317122af6a1012ed9e599db7ab983c36c78259cc2b954975c3f2b35b545",
    ),
    "product-n7-table": (
        "product --n 7 --a 0-1,1-2 --b 0-1,1-2 --format table",
        "87245b0602c073e934a611c8ab1d3185ff6787793a2825bad51530cbae0b54d0",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_STDOUT))
def test_transform_stdout_is_byte_identical_cold_and_warm(tmp_path, capsys, case):
    """Transform and product output outside the benchmark corpus, against
    digests recorded before the transform was stored as sparse rows and, for
    the products, while `product` still fetched all of E(n)."""
    command, digest = _GOLDEN_STDOUT[case]
    for _pass in ("cold", "warm"):
        code, out, err = run_cli(capsys, *command.split(), "--cache-dir", str(tmp_path))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, _pass


_INSEPARABLE_STDOUT = {
    "d1": ("inseparable --d 1", "2a0db9142097205dd93d29be16c1b863bc8b08fe71da838aa36f04949f1b0a27"),
    "d2": ("inseparable --d 2", "c0f6e688a889f1d390f9973a98607a6d6ff6613834a77ca3d87e12f1a57a5029"),
    "d3": ("inseparable --d 3", "3f10f1061f29dfdc439104e8ec8b7dde7f4ab57ad5d774d3a6be084f088887b4"),
    "d3-c4": (
        "inseparable --d 3 --generator 0-1,1-2,2-3,3-0",
        "aa347cc702b603fd413681f415463a86e766862cbcc1931fc6c2a58e2bf0a6c5",
    ),
    "d2-table": (
        "inseparable --d 2 --format table", "e1c58d04a1b7841f8dbd5cf9ebe08cb3e8ef9e89f10787e2fa1d32d3a2a90483",
    ),
}


@pytest.mark.parametrize("case", sorted(_INSEPARABLE_STDOUT))
def test_inseparable_stdout_is_byte_identical(capsys, case):
    """Against digests recorded while the pair was solved over the span of the
    connected classes, before it was solved over E(2d, d)."""
    command, digest = _INSEPARABLE_STDOUT[case]
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oversized_transform_refused_before_the_poset_build(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the poset build started")

    monkeypatch.setattr(poset, "build_full_poset", no_build)
    for command in ("mtransform", "invert"):
        code, out, err = run_cli(capsys, command, "--n", "8")
        assert code == 2 and out == "" and err.startswith("error:") and "cap" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "mtransform", "--n", "8", "--max-degree", "4")
    assert code == 0 and len(json.loads(out)["labels"]) == 20


@pytest.mark.parametrize("n", [9, 13])
def test_transform_commands_over_the_poset_cap_name_it(capsys, n):
    # the poset cap is checked first, so n = 13 is not refused by the graph-count cap
    # and n = 9 is not counted against the member cap
    want = f"error: full poset build capped at n <= {poset.FULL_POSET_VERTEX_CAP}\n"
    k2 = "0-1"
    for argv in (
        ["mtransform"], ["invert"], ["rank-minor", "--delta", "1", "--Delta", "2"],
        ["product", "--a", k2, "--b", k2], ["product", "--a", k2, "--b", k2, "--method", "kocay"],
    ):
        assert run_cli(capsys, *argv, "--n", str(n)) == (2, "", want), argv


def test_product_at_n8_reads_only_the_union_degrees(capsys):
    p3 = "0-1,1-2"
    code, out, err = run_cli(capsys, "product", "--n", "8", "--a", p3, "--b", p3, "--method", "all")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["agreement"] is True
    a = graph.canonicalize(parse_graph(p3))
    want = algebra.product_kocay(a, a, build_full_poset(8, 4))
    assert payload["terms"] == want.to_json_obj()


_K4, _C5 = "0-1,0-2,0-3,1-2,1-3,2-3", "0-1,1-2,2-3,3-4,4-0"  # |a| + |b| = 11: E(8, 11) has 2,481 members


def test_product_over_the_member_cap_refused_before_the_poset_build(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the poset build started")

    monkeypatch.setattr(poset, "build_full_poset", no_build)
    code, out, err = run_cli(capsys, "product", "--n", "8", "--a", _K4, "--b", _C5, "--method", "all")
    assert code == 2 and out == "" and err.startswith("error:") and "cap" in err


def test_product_without_the_transform_route_answers_over_the_member_cap(capsys):
    # kocay reads no transform, so only the poset cap bounds it: E(8, 11) is built, not refused
    code, out, err = run_cli(capsys, "product", "--n", "8", "--a", _K4, "--b", _C5, "--method", "kocay")
    assert code == 0 and err == ""
    payload = json.loads(out)
    a, b = graph.canonicalize(parse_graph(_K4)), graph.canonicalize(parse_graph(_C5))
    assert payload["terms"] == algebra.product_kocay(a, b, build_full_poset(8, 11)).to_json_obj()


def test_express_takes_a_leading_negative_value_in_the_equals_form(capsys):
    code, out, err = run_cli(capsys, "express", "--n", "3", "--values=-1,2,3,4")
    assert code == 0 and err == ""
    assert json.loads(out)["terms"] == [
        {"coeff": -1, "graph6": "?"}, {"coeff": 3, "graph6": "A_"},
        {"coeff": -2, "graph6": "Bo"}, {"coeff": 2, "graph6": "Bw"},
    ]
    with pytest.raises(SystemExit) as exc:
        main(["express", "--n", "3", "--values", "-1,2,3,4"])
    assert exc.value.code == 2
    assert "--values: expected one argument" in capsys.readouterr().err


_CSV_COMMANDS = {
    "enumerate": ["--n", "3"], "mtransform": ["--n", "3"], "invert": ["--n", "3"], "ulam-table": [],
}


@pytest.mark.parametrize("command, args", sorted(_CSV_COMMANDS.items()))
def test_csv_format_offered_where_supported(command, args):
    assert build_parser().parse_args([command, *args, "--format", "csv"]).format == "csv"


@pytest.mark.parametrize(
    "command",
    [
        "count", "product", "general-product", "express", "separators", "reconstruct", "inseparable",
        "complement-solve", "rank-minor", "ulam-check", "multiset-eval", "verify-relation", "selftest",
    ],
)
def test_csv_format_refused_elsewhere(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    if command == "selftest":
        refusal = "error: unrecognized arguments: --format csv"
    else:
        refusal = "error: argument --format: invalid choice: 'csv'"
    assert captured.out == "" and refusal in captured.err


def test_count_csv_exits_2_and_table_still_works(capsys):
    argv = ["count", "--pattern", "0-1", "--host", "0-1,1-2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("graphinv count: error:")
    assert run_cli(capsys, *argv, "--format", "table") == (0, "count: 2\n", "")


def test_relation_malformed_json_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-relation", "--n", "3", "--relation", '{"terms": [1,')
    assert code == 2 and out == "" and err.startswith("error:")


def test_relation_without_terms_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-relation", "--n", "3", "--relation", '{"coeff": 1}')
    assert code == 2 and out == "" and err.startswith("error:")


def test_multiset_eval_non_integer_exits_2(capsys):
    code, out, err = run_cli(capsys, "multiset-eval", "--m", "1,x", "--w", "2,2")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run_cli(capsys, "multiset-eval", "--m", "1,2", "--w", "2.5,2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_multiset_eval_bad_group_exits_2(capsys):
    for group in ("gens:0 x", "gens:0 0", "gens:0 1 2"):
        code, out, err = run_cli(capsys, "multiset-eval", "--m", "1,2", "--w", "2,2", "--group", group)
        assert code == 2 and out == "" and err.startswith("error:"), group


def test_oversized_work_refused_before_it_starts(capsys):
    code, out, err = run_cli(capsys, "rank-minor", "--trivial-vars", "40", "--delta", "1", "--Delta", "20")
    assert code == 2 and out == "" and "cap" in err
    code, out, err = run_cli(capsys, "mtransform", "--n", "4", "--max-degree", "-2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_rank_minor_reads_only_the_transform_to_big_delta(capsys):
    # the members of degree <= Delta lead E(n), so every minor of E(n, Delta) is E(n)'s
    for n in range(8):
        p, full = mtransform.cached_transform(None, n)
        for big_delta in range(n * (n - 1) // 2 + 1):
            q, e = mtransform.cached_transform(None, n, big_delta)
            assert e.nonzeros == full.nonzeros[:len(q)], (n, big_delta)
            for delta in range(big_delta + 1):
                m = mtransform.minor_by_degree(e, q.degrees(), delta, big_delta)
                assert m == mtransform.minor_by_degree(full, p.degrees(), delta, big_delta), (n, delta, big_delta)
    code, out, _ = run_cli(capsys, "rank-minor", "--n", "6", "--delta", "2", "--Delta", "3")
    assert code == 0 and json.loads(out) == {"rows": 5, "cols": 2, "rank": 2, "full": True}
    # E(8) is over the transform cap, E(8, 2) is not
    code, out, _ = run_cli(capsys, "rank-minor", "--n", "8", "--delta", "1", "--Delta", "2")
    assert code == 0 and json.loads(out) == {"rows": 2, "cols": 1, "rank": 1, "full": True}


def test_rank_minor_refuses_bad_degrees_before_the_build(capsys, monkeypatch):
    monkeypatch.setattr(mtransform, "cached_transform", None)  # the transform must not be built
    for delta, big_delta in (("-1", "1"), ("3", "2")):
        code, out, err = run_cli(capsys, "rank-minor", "--n", "3", "--delta", delta, "--Delta", big_delta)
        assert code == 2 and out == "" and err.startswith("error:") and "--delta" in err


def _complete_edges(n: int) -> str:
    return ",".join(f"{i}-{j}" for j in range(n) for i in range(j))


_P5 = "0-1,1-2,2-3,3-4"


def test_count_refuses_over_the_cap_before_counting(capsys, monkeypatch):
    assert graph.COUNT_ENUMERATION_CAP == 10**6
    code, out, _ = run_cli(capsys, "count", "--pattern", _P5, "--host", _complete_edges(8), "--oracle")
    assert code == 0 and json.loads(out) == {"count": 3360}
    monkeypatch.setattr(graph, "count_subgraphs", None)  # counting must not start
    monkeypatch.setattr(graph, "count_subgraphs_injective", None)
    # C(120, 4) = 8,214,570 edge subsets of K16
    code, out, err = run_cli(capsys, "count", "--pattern", _P5, "--host", _complete_edges(16))
    assert code == 2 and out == "" and err.startswith("error:") and "cap" in err
    # 56 edge subsets, but P(16, 6) = 5,765,760 injections for the oracle
    matching = ",".join(f"{2 * i}-{2 * i + 1}" for i in range(8))
    code, out, err = run_cli(capsys, "count", "--pattern", "0-1,2-3,4-5", "--host", matching, "--oracle")
    assert code == 2 and out == "" and "injections" in err


@pytest.mark.parametrize(
    "args, what",
    [
        (["--n", "7", "--g", "F~~~w"], "2097152 edge subsets of g"),  # K7
        (["--n", "8", "--g", "G~~~~{"], "268435456 edge subsets of g"),  # K8
        # P8 has 2^7 subsets, but K8 has sum_{d <= 7} C(28, d) = 1,683,218 of at most 7 edges
        (["--n", "8", "--g", "0-1,1-2,2-3,3-4,4-5,5-6,6-7", "--host", _complete_edges(8)],
         "1683218 edge subsets of the host"),
        # C8 has 2^8 subsets and a one-edge host 2, but its complement C(27, 8) = 2,220,075 of 8 edges
        (["--n", "8", "--g", "0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-0", "--host", "0-1"],
         "2220075 edge subsets of the host's complement"),
    ],
)
def test_complement_solve_refuses_over_the_cap_before_any_build(capsys, monkeypatch, args, what):
    def no_work(*args):
        raise AssertionError("the enumeration or the poset build started")

    monkeypatch.setattr(graph, "subgraph_class_counts", no_work)
    monkeypatch.setattr(mtransform, "subgraph_class_counts", no_work)
    monkeypatch.setattr(poset, "build_full_poset", no_work)
    code, out, err = run_cli(capsys, "complement-solve", *args)
    assert (code, out) == (2, "")
    assert err == f"error: {what} to enumerate, over the cap of {graph.COUNT_ENUMERATION_CAP}\n"


def test_complement_solve_under_the_cap_still_answers(capsys):
    # K6: 2^15 = 32,768 edge subsets; its complement in K6 is empty
    code, out, _ = run_cli(capsys, "complement-solve", "--n", "6", "--g", "E~~w", "--host", "E~~w")
    payload = json.loads(out)
    assert code == 0 and payload["value_at_host"] == payload["direct"] == 0


def test_express_bad_fraction_exits_2(capsys):
    code, out, err = run_cli(capsys, "express", "--n", "3", "--values", "1,2,3,x")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run_cli(capsys, "express", "--n", "3", "--values", "1,2,3,1/0")
    assert code == 2 and out == "" and err.startswith("error:")


_PARSERS = (
    parse_graph,
    parse_graph6,
    parse_edge_list,
    Permutation.from_line,
    _parse_relation,
)

_parser_text = st.one_of(
    st.text(),
    st.text(alphabet="0123456789-, "),
    st.text(alphabet="0123456789 ;x").map(lambda t: "gens:" + t),
    st.sampled_from(["trivial", "sym"]),
)


@given(text=_parser_text, positions=st.integers(1, 5))
@example(text="0-99999999", positions=2)
@example(text="gens:0 x", positions=2)
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_precondition_errors(text, positions):
    for parse in _PARSERS + (lambda t: _group_for(t, positions),):
        try:
            parse(text)
        except PreconditionError:
            pass


def test_oracle_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(graph, "count_subgraphs_injective", lambda pattern, host: -1)
    code, out, err = run_cli(capsys, "count", "--pattern", "0-1", "--host", "0-1,1-2", "--oracle")
    assert code == 3 and out == ""
    assert "Traceback" in err and err.rstrip().endswith("error: internal check failed")


def test_transform_member_cap_refuses_before_the_build(capsys, monkeypatch):
    assert 1044 < mtransform.TRANSFORM_MEMBER_CAP < 12346  # admits E(7), refuses E(8)
    monkeypatch.setattr(mtransform, "TRANSFORM_MEMBER_CAP", 10)  # |E(4)| = 11
    monkeypatch.setattr(mtransform, "_packed_columns", None)  # the recursion must not start
    for command in ("mtransform", "invert"):
        code, out, err = run_cli(capsys, command, "--n", "4")
        assert code == 2 and out == "" and err.startswith("error:") and "cap" in err


# ── fresh processes: what `python -m graphinv` loads and how it exits ──────

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT_MODULES = """
import json, runpy, sys
sys.argv = ["graphinv"] + sys.argv[1:]
code = None
try:
    runpy.run_module("graphinv", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("graphinv"))]), file=sys.stderr)
"""


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))


def _modules_loaded(*argv) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("graphinv.") for m in modules}


_LAYERS_BEYOND_THE_TRANSFORM = {"algebra", "generators", "enumeration", "multiset"}


@pytest.mark.parametrize(
    "argv, forbidden",
    [
        (["count", "--pattern", "0-1", "--host", "0-1,1-2"], {"poset"}),
        (["mtransform", "--n", "4"], _LAYERS_BEYOND_THE_TRANSFORM),
        (["invert", "--n", "4"], _LAYERS_BEYOND_THE_TRANSFORM),
        (["rank-minor", "--n", "4", "--delta", "1", "--Delta", "2"], _LAYERS_BEYOND_THE_TRANSFORM),
    ],
    ids=["count", "mtransform", "invert", "rank-minor"],
)
def test_commands_load_only_their_layers(argv, forbidden):
    assert not _modules_loaded(*argv) & forbidden


def test_help_loads_no_layer():
    assert _modules_loaded("--help") <= {"graphinv", "cli", "errors"}


def test_warm_ulam_table_loads_no_enumeration(tmp_path):
    for fmt in ("json", "csv"):
        argv = ["ulam-table", "--max-n", "6", "--max-d", "6", "--format", fmt, "--cache-dir", str(tmp_path / fmt)]
        assert "enumeration" in _modules_loaded(*argv)
        assert "enumeration" not in _modules_loaded(*argv), fmt


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphinv", "mtransform", "--n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert len(proc.stdout.read(100)) == 100  # the output is far larger than a pipe buffer
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and err == ""
