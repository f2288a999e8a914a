import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphinv.cli import _group_for, _parse_relation, main
from graphinv.errors import PreconditionError
from graphinv.graph import parse_edge_list, parse_graph, parse_graph6
from graphinv.perm import Permutation
from graphinv.smallgraphs import named_class


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


def test_separators_search(capsys):
    code, out, _ = run_cli(capsys, "separators", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum_size"] == 1
    assert [named_class("K2").graph6] in payload["separators"]


def test_separators_set_check(capsys):
    k2 = named_class("K2").graph6
    code, out, _ = run_cli(capsys, "separators", "--n", "4", "--set", k2)
    payload = json.loads(out)
    assert code == 0 and payload["is_separator"] is False
    assert set(payload["witness"]) == {named_class("2K2").graph6, named_class("P3").graph6}


def test_inseparable_cli(capsys):
    code, out, _ = run_cli(capsys, "inseparable", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["T"] == named_class("2K2").graph6
    assert payload["U"] == named_class("P3").graph6
    assert payload["degree"] == 2 and payload["bound"] == 2


def test_reconstruct_cli(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--host", "0-1,2-3")
    payload = json.loads(out)
    assert code == 0
    assert payload["components"] == [{"graph6": named_class("K2").graph6, "count": 2}]


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


def test_ulam_table_csv_stable(capsys):
    _, out1, _ = run_cli(capsys, "ulam-table", "--max-n", "8", "--max-d", "8", "--format", "csv")
    _, out2, _ = run_cli(capsys, "ulam-table", "--max-n", "8", "--max-d", "8", "--format", "csv")
    assert out1 == out2
    assert out1.splitlines()[0] == "d,4,5,6,7,8"


def test_ulam_table_cache(tmp_path, capsys):
    args = ["ulam-table", "--max-n", "6", "--max-d", "6", "--format", "csv", "--cache-dir", str(tmp_path)]
    _, fresh, _ = run_cli(capsys, *args)
    assert list(tmp_path.iterdir())
    _, cached, _ = run_cli(capsys, *args)
    assert fresh == cached


def test_ulam_check_cli(capsys):
    code, out, _ = run_cli(capsys, "ulam-check", "--n", "4", "--d", "3")
    payload = json.loads(out)
    assert code == 0 and payload["inequality_holds"] is True


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


def test_precondition_violations_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--pattern", "A_", "--host", "notagraph6~~~")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "enumerate", "--n", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "inseparable", "--d", "0")
    assert code == 2


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
