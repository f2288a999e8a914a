"""Command-line interface: every operation with deterministic, machine-readable output.

JSON is the default interchange format (sorted keys, stable indentation);
matrices and tables can be emitted as CSV; graph6 is used wherever a graph
crosses the boundary.  Precondition violations exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra, enumeration, generators, graph, mtransform, multiset, poset
from .errors import FormatError, PreconditionError
from .perm import Permutation, close_generators, symmetric_group, trivial_group
from .util import cache_fetch


def _coeff_json(c):
    return c if isinstance(c, int) else f"{c.numerator}/{c.denominator}"


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        _emit_table(obj)


def _emit_table(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                print(f"{indent}{key}:")
                _emit_table(val, indent + "  ")
            else:
                print(f"{indent}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                _emit_table(val, indent + "  ")
            else:
                print(f"{indent}{val}")
    else:
        print(f"{indent}{obj}")


def _matrix_csv(m: mtransform.IntMatrix, row_labels, col_labels) -> str:
    lines = ["," + ",".join(col_labels)]
    for label, row in zip(row_labels, m.data):
        lines.append(label + "," + ",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise FormatError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{flag}: bad fraction {text!r}") from exc


def _parse_relation(text: str) -> list[tuple[Fraction, dict]]:
    """--relation JSON as (coefficient, {class: power}) terms."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"--relation: malformed JSON ({exc.msg})") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("terms"), list):
        raise FormatError('--relation: expected an object with a "terms" list')
    terms = []
    for rec in payload["terms"]:
        if not isinstance(rec, dict) or "coeff" not in rec or not isinstance(rec.get("monomial"), dict):
            raise FormatError(f'--relation: each term needs "coeff" and a "monomial" object, got {rec!r}')
        mono = {}
        for g6, power in rec["monomial"].items():
            if type(power) is not int or power < 0:
                raise FormatError(f"--relation: power of {g6!r} must be a nonnegative integer, got {power!r}")
            mono[graph.canonicalize(graph.parse_graph6(g6))] = power
        terms.append((_parse_fraction(str(rec["coeff"]), "--relation coeff"), mono))
    return terms


def _poset_for(n: int, max_degree: int | None, cache_dir: str | None) -> poset.GPoset:
    key = f"poset:n={n}:d={max_degree}"
    obj = cache_fetch(cache_dir, key, lambda: poset.poset_sidecar(poset.build_full_poset(n, max_degree)))
    return poset.poset_from_sidecar(obj)


def _group_for(name: str, n_positions: int):
    if name == "trivial":
        return trivial_group(n_positions)
    if name == "sym":
        return symmetric_group(n_positions)
    if name.startswith("gens:"):
        gens = [Permutation.from_line(chunk) for chunk in name[len("gens:"):].split(";") if chunk.strip()]
        return close_generators(n_positions, gens)
    raise FormatError(f"unknown group {name!r} (use trivial, sym, or gens:...)")


# ── subcommand handlers ──────────────────────────────────────────────────

def _cmd_enumerate(args) -> int:
    p = _poset_for(args.n, args.max_degree, args.cache_dir)
    members = p.connected_members() if args.connected else p.members
    recs = [
        {"graph6": m.graph6, "degree": m.degree, "cv": m.cv, "aut": m.aut_support}
        for m in members
    ]
    if args.format == "csv":
        print("graph6,degree,cv,aut")
        for r in recs:
            print(f"{r['graph6']},{r['degree']},{r['cv']},{r['aut']}")
    else:
        _emit({"n": args.n, "count": len(recs), "members": recs}, args.format)
    return 0


def _cmd_mtransform(args) -> int:
    p = _poset_for(args.n, args.max_degree, args.cache_dir)
    m = mtransform.build_mtransform(p)
    labels = [c.graph6 for c in p.members]
    if args.format == "csv":
        sys.stdout.write(_matrix_csv(m, labels, labels))
    else:
        _emit({"labels": labels, "matrix": m.to_lists()}, args.format)
    return 0


def _cmd_invert(args) -> int:
    p = _poset_for(args.n, args.max_degree, args.cache_dir)
    m = mtransform.build_mtransform(p)
    inv = mtransform.inverse_mtransform(m, p.degrees(), complete=p.complete)
    labels = [c.graph6 for c in p.members]
    if args.format == "csv":
        sys.stdout.write(_matrix_csv(inv, labels, labels))
    else:
        _emit({"labels": labels, "matrix": inv.to_lists()}, args.format)
    return 0


def _cmd_count(args) -> int:
    pattern = graph.canonicalize(graph.parse_graph(args.pattern))
    host = graph.parse_graph(args.host)
    result = graph.count_subgraphs(pattern, host)
    if args.oracle and graph.count_subgraphs_injective(pattern, host) != result:
        raise AssertionError("subset and injection counts disagree")
    _emit({"count": result}, args.format)
    return 0


def _cmd_product(args) -> int:
    p = _poset_for(args.n, None, args.cache_dir)
    a = graph.canonicalize(graph.parse_graph(args.a))
    b = graph.canonicalize(graph.parse_graph(args.b))
    out: dict = {"n": args.n, "a": a.graph6, "b": b.graph6, "method": args.method}
    results = {}
    if args.method in ("kocay", "all"):
        results["kocay"] = algebra.product_kocay(a, b, p)
    if args.method in ("fleischmann", "all"):
        refined = algebra.product_fleischmann(a, b, p)
        results["fleischmann"] = algebra.fleischmann_totals(refined)
        out["colorings"] = [
            {
                "graph6": cls.graph6,
                "classes": [
                    {
                        "a_only": graph.emit_edge_list(graph.LabeledGraph(cls.cv, cc.a_only)),
                        "b_only": graph.emit_edge_list(graph.LabeledGraph(cls.cv, cc.b_only)),
                        "shared": graph.emit_edge_list(graph.LabeledGraph(cls.cv, cc.shared)),
                        "count": cc.pair_count,
                    }
                    for cc in classes
                ],
            }
            for cls, classes in refined.items()
        ]
    if args.method in ("mtransform", "all"):
        e = mtransform.build_mtransform(p)
        results["mtransform"] = algebra.product_mtransform(a, b, p, e)
    combos = list(results.values())
    out["agreement"] = all(c == combos[0] for c in combos[1:]) if len(combos) > 1 else True
    out["terms"] = combos[0].to_json_obj()
    out["general"] = algebra.is_general_identity(a, b, p)
    _emit(out, args.format)
    return 0


def _cmd_general_product(args) -> int:
    a = graph.canonicalize(graph.parse_graph(args.a))
    b = graph.canonicalize(graph.parse_graph(args.b))
    comb = algebra.general_product(a, b)
    out = {"a": a.graph6, "b": b.graph6, "terms": comb.to_json_obj()}
    if args.verify:
        hosts = poset.build_full_poset(5).members
        out["verified"] = algebra.verify_product_identity(a, b, comb, hosts)
    _emit(out, args.format)
    return 0


def _cmd_express(args) -> int:
    p = _poset_for(args.n, None, args.cache_dir)
    values = [_parse_fraction(tok, "--values") for tok in args.values.split(",")]
    e = mtransform.build_mtransform(p)
    comb = algebra.express_invariant(values, p, e)
    _emit({"n": args.n, "terms": comb.to_json_obj()}, args.format)
    return 0


def _cmd_separators(args) -> int:
    p = _poset_for(args.n, None, args.cache_dir)
    if args.set:
        invs = [graph.canonicalize(graph.parse_graph(tok)) for tok in args.set.split(",")]
        rep = generators.is_separator(invs, p)
        out = {
            "n": args.n,
            "set": [c.graph6 for c in invs],
            "is_separator": rep.is_separator,
            "witness": [c.graph6 for c in rep.witness] if rep.witness else None,
        }
    else:
        size, seps = generators.minimal_separators(p, max_size=args.max_size)
        out = {
            "n": args.n,
            "minimum_size": size,
            "separators": [[c.graph6 for c in s] for s in seps],
        }
    _emit(out, args.format)
    return 0


def _cmd_reconstruct(args) -> int:
    host = graph.canonicalize(graph.parse_graph(args.host))
    n = min(max(host.cv, 2), 8)
    pool = poset.build_full_poset(n, host.degree).connected_members()
    conn = sorted((c for c in pool if c.degree <= host.degree), key=lambda c: c.sort_key)
    counts = generators.reconstruct_components(host, conn)
    _emit(
        {
            "host": host.graph6,
            "components": [
                {"graph6": c.graph6, "count": k}
                for c, k in sorted(counts.items(), key=lambda kv: kv[0].sort_key)
            ],
        },
        args.format,
    )
    return 0


def _cmd_inseparable(args) -> int:
    gen = graph.canonicalize(graph.parse_graph(args.generator)) if args.generator else None
    pair = generators.inseparable_pair(args.d, gen)
    out = {
        "d": pair.d,
        "generator": pair.generator.graph6,
        "degree": pair.degree,
        "bound": pair.bound,
        "coefficients": [
            {"graph6": c.graph6, "coeff": v}
            for c, v in zip(pair.poset.members, pair.coefficients)
        ],
        "T": pair.t_class.graph6 if pair.t_class else None,
        "U": pair.u_class.graph6 if pair.u_class else None,
        "T_components": [
            {"graph6": c.graph6, "count": k} for c, k in sorted(pair.t_components.items(), key=lambda kv: kv[0].sort_key)
        ],
        "U_components": [
            {"graph6": c.graph6, "count": k} for c, k in sorted(pair.u_components.items(), key=lambda kv: kv[0].sort_key)
        ],
    }
    _emit(out, args.format)
    return 0


def _cmd_complement_solve(args) -> int:
    p = _poset_for(args.n, None, args.cache_dir)
    g = graph.canonicalize(graph.parse_graph(args.g))
    comb = mtransform.complement_invariant_expansion(g, p, args.n)
    out = {"n": args.n, "g": g.graph6, "terms": comb.to_json_obj()}
    if args.host:
        host = graph.canonicalize(graph.parse_graph(args.host))
        out["value_at_host"] = _coeff_json(comb.evaluate(host))
        out["direct"] = graph.count_subgraphs(g, graph.complement(host.rep(args.n), args.n))
    _emit(out, args.format)
    return 0


def _cmd_rank_minor(args) -> int:
    if args.trivial_vars:
        m = mtransform.subset_inclusion_minor(args.trivial_vars, args.delta, args.big_delta)
    else:
        if args.n is None:
            raise PreconditionError("need --n or --trivial-vars")
        p = _poset_for(args.n, None, args.cache_dir)
        e = mtransform.build_mtransform(p)
        m = mtransform.minor_by_degree(e, p.degrees(), args.delta, args.big_delta)
    _emit(
        {"rows": m.rows, "cols": m.cols, "rank": mtransform.exact_rank(m),
         "full": mtransform.exact_rank(m) == min(m.rows, m.cols)},
        args.format,
    )
    return 0


def _cmd_ulam_table(args) -> int:
    csv = cache_fetch(
        args.cache_dir,
        f"ulam:{args.max_n}:{args.max_d}",
        lambda: enumeration.ulam_table_csv(args.max_n, args.max_d),
    )
    if args.format == "csv":
        sys.stdout.write(csv)
    else:
        table = enumeration.ulam_difference_table(args.max_n, args.max_d)
        _emit({"cells": [{"d": d, "n": n, "value": v} for (d, n), v in sorted(table.items())]}, args.format)
    return 0


def _cmd_ulam_check(args) -> int:
    report = enumeration.ulam_condition_check(args.n, args.d, args.rank_support)
    _emit(report, args.format)
    return 0


def _cmd_multiset_eval(args) -> int:
    m = _parse_ints(args.m, "--m")
    w = _parse_ints(args.w, "--w")
    group = _group_for(args.group, len(m))
    if args.op == "invariant":
        value = multiset.multiset_invariant(m, w, group)
    else:
        value = multiset.orbit_sum_value(m, w, group)
    _emit({"op": args.op, "m": list(m), "w": list(w), "value": value}, args.format)
    return 0


def _cmd_verify_relation(args) -> int:
    p = _poset_for(args.n, None, args.cache_dir)
    report = generators.verify_relation(_parse_relation(args.relation), p)
    _emit(
        {
            "n": args.n,
            "holds": report["holds"],
            "first_violation": report["first_violation"].graph6 if report["first_violation"] else None,
        },
        args.format,
    )
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all()
    ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.ident}  {r.name}  ({r.seconds:.2f}s)")
        if not r.ok:
            print(f"      {r.detail}")
        ok = ok and r.ok
    return 0 if ok else 1


def _add_common(sp, cache: bool = True) -> None:
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    if cache:
        sp.add_argument("--cache-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphinv",
        description="Exact algebra of basic graph invariants: counting, transforms, "
        "products, separators, inseparable pairs, enumeration tables.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="members of a poset of graph classes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--connected", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("mtransform", help="transform matrix of a poset")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_mtransform)

    sp = sub.add_parser("invert", help="exact inverse of the transform matrix")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_invert)

    sp = sub.add_parser("count", help="count copies of a pattern inside a host")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--host", required=True)
    sp.add_argument("--oracle", action="store_true", help="cross-check with the injection route")
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("product", help="product of two invariants inside E(n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--method", choices=("kocay", "fleischmann", "mtransform", "all"), default="all")
    _add_common(sp)
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("general-product", help="product valid on all simple graphs")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--verify", action="store_true")
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_general_product)

    sp = sub.add_parser("express", help="express values over a poset in the invariant basis")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--values", required=True, help="comma-separated, one per member")
    _add_common(sp)
    sp.set_defaults(func=_cmd_express)

    sp = sub.add_parser("separators", help="separator check or minimum separator search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", default=None, help="comma-separated graphs; omit to search")
    sp.add_argument("--max-size", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_separators)

    sp = sub.add_parser("reconstruct", help="component multiplicities from invariant values")
    sp.add_argument("--host", required=True)
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("inseparable", help="construct an inseparable pair for degree d")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--generator", default=None)
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_inseparable)

    sp = sub.add_parser("complement-solve", help="complement expansion of an invariant")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--host", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_complement_solve)

    sp = sub.add_parser("rank-minor", help="exact rank of a degree-pair minor")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--trivial-vars", type=int, default=None)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--Delta", dest="big_delta", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rank_minor)

    sp = sub.add_parser("ulam-table", help="difference table of unlabeled graph counts")
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument("--max-d", type=int, default=12)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ulam_table)

    sp = sub.add_parser("ulam-check", help="reconstruction counting condition and minor rank")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--rank-support", type=int, default=None)
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_ulam_check)

    sp = sub.add_parser("multiset-eval", help="combinatorial invariant or orbit sum value")
    sp.add_argument("--m", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--group", default="sym", help="trivial | sym | gens:0 2 1;...")
    sp.add_argument("--op", choices=("invariant", "orbit-sum"), default="invariant")
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_multiset_eval)

    sp = sub.add_parser("verify-relation", help="check a polynomial identity over a poset")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--relation", required=True, help='JSON {"terms": [{"coeff": c, "monomial": {graph6: power}}]}')
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_relation)

    sp = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(sp, cache=False)
    sp.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
