"""Command-line interface: every operation with deterministic, machine-readable output.

JSON is the default interchange format (sorted keys, stable indentation);
matrices and tables can be emitted as CSV; graph6 is used wherever a graph
crosses the boundary.  Exit status: 0 on success, 1 when the reader closes
stdout early, 2 on a precondition violation or cap, 3 when an internal check
(an oracle) disagrees.

Each handler imports the layers it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import CapError, FormatError, PreconditionError

if TYPE_CHECKING:
    from fractions import Fraction

    from .mtransform import IntMatrix


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


def _matrix_csv(m: IntMatrix, labels) -> list[str]:
    """The CSV text of a packed transform, one line per piece."""
    return ["," + ",".join(labels) + "\n", *(f"{label},{text}\n" for label, text in zip(labels, _row_texts(m, ",")))]


def _matrix_json(m: IntMatrix, labels) -> list[str]:
    """The text of `_emit({"labels": labels, "matrix": m.to_lists()}, "json")` in one
    piece per row: with `indent` set, `json.dumps` runs its pure-Python encoder."""
    rows = [f"[\n      {text}\n    ]" for text in _row_texts(m, ",\n      ")]
    head = f'{{\n  "labels": {"".join(_json_list([json.dumps(x) for x in labels]))},\n  "matrix": '
    return [head, *_json_list(rows), "\n}\n"]


def _json_list(texts: list[str]) -> list[str]:
    """JSON texts as a list one level down, laid out as `json.dumps(indent=2)` lays it out, in pieces."""
    return ["[\n    " + texts[0], *(",\n    " + text for text in texts[1:]), "\n  ]"] if texts else ["[]"]


def _row_texts(m: IntMatrix, sep: str) -> list[str]:
    """Each row of a packed transform, its entries joined by `sep`: the fields of
    columns 0 .. i, then the zeros past the diagonal, cut from one string."""
    tail = (sep + "0") * m.cols
    return [sep.join(map(str, row)) + tail[: (len(sep) + 1) * (m.cols - i - 1)] for i, row in enumerate(m.lower)]


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise FormatError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _parse_fraction(text: str, flag: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{flag}: bad fraction {text!r}") from exc


def _parse_relation(text: str) -> list[tuple[Fraction, dict]]:
    """--relation JSON as (coefficient, {class: power}) terms."""
    from .graph import canonicalize, parse_graph6

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
            mono[canonicalize(parse_graph6(g6))] = power
        terms.append((_parse_fraction(str(rec["coeff"]), "--relation coeff"), mono))
    return terms


def _refuse_enumeration(work: dict[str, int]) -> None:
    """CapError before any work when a {what: size} enumeration is over `graph.COUNT_ENUMERATION_CAP`."""
    from .graph import COUNT_ENUMERATION_CAP

    for what, size in work.items():
        if size > COUNT_ENUMERATION_CAP:
            raise CapError(f"{size} {what} to enumerate, over the cap of {COUNT_ENUMERATION_CAP}")


def _group_for(name: str, n_positions: int):
    from .perm import Permutation, close_generators, symmetric_group, trivial_group

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
    from . import poset

    p = poset.cached_poset(args.cache_dir, args.n, args.max_degree)
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


def _cmd_matrix(args) -> int:
    from . import mtransform

    p, m = mtransform.cached_transform(args.cache_dir, args.n, args.max_degree)
    if args.invert:
        m = mtransform.inverse_mtransform(m, p.degrees())
    labels = [c.graph6 for c in p.members]
    if args.format == "table":
        _emit({"labels": labels, "matrix": m.to_lists()}, args.format)
    else:  # in pieces, so that a reader closing stdout early is seen at the next write
        sys.stdout.writelines((_matrix_csv if args.format == "csv" else _matrix_json)(m, labels))
    return 0


def _cmd_count(args) -> int:
    import math

    from . import graph

    pattern = graph.canonicalize(graph.parse_graph(args.pattern))
    host = graph.parse_graph(args.host)
    # the count classifies the host's |pattern|-edge subsets; the oracle tries every support injection
    work = {"edge subsets of the host": math.comb(host.degree, pattern.degree)}
    if args.oracle:
        work["support injections of the host"] = math.perm(host.cv, pattern.cv)
    _refuse_enumeration(work)
    result = graph.count_subgraphs(pattern, host)
    if args.oracle and graph.count_subgraphs_injective(pattern, host) != result:
        raise AssertionError("subset and injection counts disagree")
    _emit({"count": result}, args.format)
    return 0


def _cmd_product(args) -> int:
    from . import algebra, graph, mtransform, poset

    a = graph.canonicalize(graph.parse_graph(args.a))
    b = graph.canonicalize(graph.parse_graph(args.b))
    if args.method in ("mtransform", "all"):
        p, e = mtransform.cached_transform(args.cache_dir, args.n, a.degree + b.degree)
    else:
        p = poset.cached_poset(args.cache_dir, args.n, a.degree + b.degree)
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
        results["mtransform"] = algebra.product_mtransform(a, b, p, e)
    combos = list(results.values())
    out["agreement"] = all(c == combos[0] for c in combos[1:]) if len(combos) > 1 else True
    out["terms"] = combos[0].to_json_obj()
    out["general"] = algebra.is_general_identity(a, b, p)
    _emit(out, args.format)
    return 0


def _cmd_general_product(args) -> int:
    from . import algebra, graph, poset

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
    from . import algebra, mtransform

    values = [_parse_fraction(tok, "--values") for tok in args.values.split(",")]
    p, e = mtransform.cached_transform(args.cache_dir, args.n)
    comb = algebra.express_invariant(values, p, e)
    _emit({"n": args.n, "terms": comb.to_json_obj()}, args.format)
    return 0


def _cmd_separators(args) -> int:
    from . import generators, graph, poset

    if args.set is None:
        generators.check_search_pool(args.n)
    p = poset.cached_poset(args.cache_dir, args.n)
    if args.set is not None:
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
    import math

    from . import generators, graph, poset

    host = graph.canonicalize(graph.parse_graph(args.host))
    n = min(max(host.cv, 2), poset.FULL_POSET_VERTEX_CAP)
    for comp in graph.connected_component_classes(host):
        if comp.cv > n:
            raise CapError(
                f"component {comp.graph6!r} has {comp.cv} vertices; the pool holds only classes on at most {n} vertices"
            )
    # the counts enumerate the host's k-edge subsets for every degree k of the pool
    subsets = sum(math.comb(host.degree, k) for k in range(1, min(host.degree, n * (n - 1) // 2) + 1))
    cap = generators.RECONSTRUCT_SUBSET_CAP
    if subsets > cap:
        raise CapError(f"{subsets} edge subsets of the host to count, over the cap of {cap}")
    counts = generators.reconstruct_components(host, poset.build_full_poset(n, host.degree).connected_members())
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
    from . import generators, graph

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
    import math

    from . import graph, mtransform, poset

    g = graph.canonicalize(graph.parse_graph(args.g))
    # the expansion classifies every edge subset of g; a host adds its subsets of at
    # most |g| edges for the value, and the |g|-edge subsets of its complement for the count
    work = {"edge subsets of g": 2**g.degree}
    if args.host:
        host = graph.canonicalize(graph.parse_graph(args.host))
        rest = graph.complement(host.rep(args.n), args.n)
        work["edge subsets of the host"] = sum(math.comb(host.degree, d) for d in range(g.degree + 1))
        work["edge subsets of the host's complement"] = math.comb(rest.degree, g.degree)
    _refuse_enumeration(work)
    p = poset.cached_poset(args.cache_dir, args.n)
    comb = mtransform.complement_invariant_expansion(g, p, args.n)
    out = {"n": args.n, "g": g.graph6, "terms": comb.to_json_obj()}
    if args.host:
        out["value_at_host"] = _coeff_json(comb.evaluate(host))
        out["direct"] = graph.count_subgraphs(g, rest)
    _emit(out, args.format)
    return 0


def _cmd_rank_minor(args) -> int:
    from . import mtransform

    if args.trivial_vars is not None:
        m = mtransform.subset_inclusion_minor(args.trivial_vars, args.delta, args.big_delta)
    else:
        if args.n is None:
            raise PreconditionError("need --n or --trivial-vars")
        if not 0 <= args.delta <= args.big_delta:
            raise PreconditionError(f"need 0 <= --delta <= --Delta, got {args.delta} and {args.big_delta}")
        # the members of degree <= Delta are a prefix of E(n), so E(n, Delta) has the same minor
        p, e = mtransform.cached_transform(args.cache_dir, args.n, args.big_delta)
        m = mtransform.minor_by_degree(e, p.degrees(), args.delta, args.big_delta)
    rank = mtransform.exact_rank(m)
    _emit({"rows": m.rows, "cols": m.cols, "rank": rank, "full": rank == min(m.rows, m.cols)}, args.format)
    return 0


def _cmd_ulam_table(args) -> int:
    from .util import cached_ulam_table, ulam_table_csv

    table = cached_ulam_table(args.cache_dir, args.max_n, args.max_d)
    if args.format == "csv":
        sys.stdout.write(ulam_table_csv(table, args.max_n, args.max_d))
    else:
        _emit({"cells": [{"d": d, "n": n, "value": v} for (d, n), v in table.items()]}, args.format)
    return 0


def _cmd_ulam_check(args) -> int:
    from . import enumeration

    report = enumeration.ulam_condition_check(args.n, args.d, args.rank_support)
    _emit(report, args.format)
    return 0


def _cmd_multiset_eval(args) -> int:
    from . import multiset

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
    from . import generators, poset

    p = poset.cached_poset(args.cache_dir, args.n)
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


def _add_common(sp, cache: bool = True, csv: bool = False) -> None:
    sp.add_argument("--format", choices=("json", "csv", "table") if csv else ("json", "table"), default="json")
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
    _add_common(sp, csv=True)
    sp.set_defaults(func=_cmd_enumerate)

    for name, invert, text in (("mtransform", False, "transform matrix of a poset"),
                               ("invert", True, "exact inverse of the transform matrix")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--max-degree", type=int, default=None)
        _add_common(sp, csv=True)
        sp.set_defaults(func=_cmd_matrix, invert=invert)

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
    sp.add_argument(
        "--values", required=True,
        help="comma-separated, one per member; write --values=-1,2,... when the first is negative",
    )
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
    _add_common(sp, csv=True)
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
    sp.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError:
        import traceback

        traceback.print_exc()
        print("error: internal check failed", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that the
        # flush at interpreter exit cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
