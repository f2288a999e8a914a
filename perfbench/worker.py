"""One benchmark process: the library workloads, run in a fresh interpreter.

Started by run.py as `python perfbench/worker.py '<json spec>'`; writes one
JSON result to the spec's `out` path.  Modes:

  import          import the package and exit (set-up time of `classes`/`transform`)
  classes         one sample of the canonicalization-heavy pipeline
  transform       one sample of the transform pipeline
  queries-setup   the `queries` set-up only
  queries         set-up, then a fixed number of blocks of seeded requests

Each sample runs its pipeline twice: a cold pass in the fresh process and a
warm pass that repeats the same calls at once (the package's memo tables are
then full); a warm pass shorter than WARM_MIN_S is repeated and its median
reported.  Only the library calls are timed.  After the timed work the peak
RSS is read, and only then is every result checked against a reference from
an independent route, so neither the checks' time nor their memory counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

SPEC = json.loads(sys.argv[1]) if __name__ == "__main__" else {}

# Connected graphs by edge count, d = 1..8 (OEIS A002905).
CONNECTED_BY_EDGES = [1, 1, 3, 5, 12, 30, 79, 227]

QUERY_BLOCK = 200  # requests per `queries` sample
WARM_MIN_S = 0.5  # a short warm pass is repeated until this much time is spent; median reported

t_import = time.perf_counter()
import numpy as np  # noqa: E402

from graphinv import algebra, enumeration, generators, graph, mtransform, multiset, perm, poset  # noqa: E402

IMPORT_S = time.perf_counter() - t_import

from inputs import relabel  # noqa: E402
from speed import probe, scaled  # noqa: E402

TRACER = None
if SPEC.get("trace"):
    from tracer import Tracer

    TRACER = Tracer()
    TRACER.install()
    # rebinding replaced the module attributes this file reads below


# ── helpers ──────────────────────────────────────────────────────────────


class Meter:
    """Raw and reference-speed seconds of one phase made of timed pieces;
    a speed probe follows every piece (see speed.py)."""

    def __init__(self) -> None:
        self.last = probe()
        self.raw = 0.0
        self.ref = 0.0

    def add(self, seconds: float) -> float:
        after = probe()
        ref = scaled(seconds, self.last, after)
        self.last = after
        self.raw += seconds
        self.ref += ref
        return ref


class Log:
    """Timed operations and failures of one process.  While `phase` holds a
    Meter, every timed call is added to it."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, float]] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.digest = hashlib.sha256()
        self.phase: Meter | None = None

    def note_input(self, obj) -> None:
        self.digest.update(repr(obj).encode())
        self.digest.update(b"\n")

    def call(self, name: str, fn, *args, record: bool = True):
        """Run one timed operation; an exception is a failure, not a crash."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the benchmark must report, then keep going
            result = None
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - start
        if self.phase is not None:
            self.phase.add(elapsed)
        if record and result is not None:
            self.ops.append((name, elapsed))
        return result, elapsed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append((name, detail or "result disagrees with its reference"))


@contextlib.contextmanager
def untraced():
    """Reference checks are not part of the measured work: keep them out of the trace."""
    if TRACER is None:
        yield
        return
    TRACER.active = False
    try:
        yield
    finally:
        TRACER.active = True


def relabeled(edges, n: int, rng: random.Random) -> graph.LabeledGraph:
    return graph.LabeledGraph.from_edges(n, relabel(edges, n, rng))


def random_graph(rng: random.Random, n: int, p: float) -> graph.LabeledGraph:
    edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
    return graph.LabeledGraph.from_edges(n, edges)


def degree_histogram(members) -> list[int]:
    hist = Counter(m.degree for m in members)
    return [hist.get(d, 0) for d in range(max(hist) + 1)]


def maxrss_kb() -> int:
    """Peak RSS of this process so far; read before the reference checks,
    so their memory is not charged to the program."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def is_identity_product(a, b) -> bool:
    """E @ E^-1 == I, in int64 when no entry can overflow, exactly otherwise."""
    x = np.array(a.data, dtype=object)
    y = np.array(b.data, dtype=object)
    bound = len(a.data) * max(1, int(np.abs(x).max())) * max(1, int(np.abs(y).max()))
    if bound < 2**62:
        prod = x.astype(np.int64) @ y.astype(np.int64)
    else:
        prod = x @ y
    return bool((prod == np.eye(len(a.data), dtype=np.int64)).all())


# ── classes ──────────────────────────────────────────────────────────────


def classes_inputs(rng: random.Random) -> dict:
    return {
        "a": relabeled([(0, 1), (0, 2), (0, 3), (0, 4)], 9, rng),  # K1,4
        "b": relabeled([(0, 1), (1, 2), (2, 3)], 9, rng),  # P4
        "hosts": [random_graph(rng, 9, 0.2) for _ in range(3)],
    }


def classes_pass(log: Log, inp: dict, tag: str) -> dict:
    r = {}
    r["E7"], _ = log.call(f"{tag}:build_full_poset(7)", poset.build_full_poset, 7)
    r["conn8"], _ = log.call(f"{tag}:connected_classes_by_degree(8)", enumeration.connected_classes_by_degree, 8)
    a = graph.canonicalize(inp["a"])
    b = graph.canonicalize(inp["b"])
    r["gp"], _ = log.call(f"{tag}:general_product(K1,4,P4)", algebra.general_product, a, b)
    hosts = poset.build_full_poset(5).members
    if r["gp"] is not None:
        r["verified"], _ = log.call(
            f"{tag}:verify_product_identity(E5)", algebra.verify_product_identity, a, b, r["gp"], hosts
        )
    r["pair"], _ = log.call(f"{tag}:inseparable_pair(4)", generators.inseparable_pair, 4)
    return r


def classes_check(log: Log, inp: dict, cold: dict, warm: dict) -> None:
    e7 = cold["E7"]
    if e7 is not None:
        series = enumeration.graph_count_series(7)
        log.check("cold:build_full_poset(7)", len(e7) == 1044 == sum(series), f"|E(7)| = {len(e7)}")
        log.check("cold:build_full_poset(7)", degree_histogram(e7) == series, "E(7) by degree != h_7(d)")
    conn = cold["conn8"]
    if conn is not None:
        got = [len(conn.get(d, ())) for d in range(1, 9)]
        log.check("cold:connected_classes_by_degree(8)", got == CONNECTED_BY_EDGES, f"counts {got}")
    gp = cold["gp"]
    if gp is not None:
        log.check("cold:verify_product_identity(E5)", cold.get("verified") is True, "not verified on E(5)")
        a, b = graph.canonicalize(inp["a"]), graph.canonicalize(inp["b"])
        for host in inp["hosts"]:
            lhs = graph.count_subgraphs_injective(a, host) * graph.count_subgraphs_injective(b, host)
            log.check("cold:general_product(K1,4,P4)", lhs == gp.evaluate(host), "fails on a random host")
    pair = cold["pair"]
    if pair is not None:
        log.check(
            "cold:inseparable_pair(4)",
            pair.t_components != pair.u_components and pair.degree <= pair.bound,
            "T and U equal or over the degree bound",
        )
    for key in cold:
        if cold[key] is not None and warm.get(key) is not None:
            same = cold[key] == warm[key] if key != "pair" else cold[key].t_components == warm[key].t_components
            log.check(f"warm:{key}", same, "warm result differs from cold")


# ── transform ────────────────────────────────────────────────────────────


def transform_pass(log: Log, inp: dict, tag: str) -> dict:
    r = {}
    r["E6"], _ = log.call(f"{tag}:build_full_poset(6)", poset.build_full_poset, 6)
    if r["E6"] is not None:
        p6 = r["E6"]
        r["e6"], _ = log.call(f"{tag}:build_mtransform(E6)", mtransform.build_mtransform, p6)
        if r["e6"] is not None:
            r["inv6"], _ = log.call(
                f"{tag}:inverse_mtransform(E6)", mtransform.inverse_mtransform, r["e6"], p6.degrees(), p6.complete
            )
        r["half6"], _ = log.call(f"{tag}:solve_upper_half(E6)", mtransform.solve_upper_half, p6, 6)
    r["E7"], _ = log.call(f"{tag}:build_full_poset(7,10)", poset.build_full_poset, 7, 10)
    if r["E7"] is not None:
        p7 = r["E7"]
        r["e7"], _ = log.call(f"{tag}:build_mtransform(E7d10)", mtransform.build_mtransform, p7)
        if r["e7"] is not None:
            r["inv7"], _ = log.call(
                f"{tag}:inverse_mtransform(E7d10)", mtransform.inverse_mtransform, r["e7"], p7.degrees(), p7.complete
            )
    return r


def transform_inputs(rng: random.Random) -> dict:
    # entry positions to re-count with the injection oracle
    return {"e6": [(rng.randrange(156), rng.randrange(156)) for _ in range(24)],
            "e7": [(rng.randrange(522), rng.randrange(522)) for _ in range(24)]}


def transform_check(log: Log, inp: dict, cold: dict, warm: dict) -> None:
    for name, n, d, size in (("E6", 6, None, 156), ("E7", 7, 10, 522)):
        p = cold.get(name)
        if p is None:
            continue
        series = enumeration.graph_count_series(n, d)
        log.check(f"cold:{name}", len(p) == size == sum(series), f"|{name}| = {len(p)}")
        log.check(f"cold:{name}", degree_histogram(p) == series, f"{name} by degree != h_{n}(d)")
    for e, inv, poset_key, label in (("e6", "inv6", "E6", "E6"), ("e7", "inv7", "E7", "E7d10")):
        matrix, inverse = cold.get(e), cold.get(inv)
        if matrix is None:
            continue
        members = cold[poset_key].members
        for i, j in inp[e]:
            want = graph.count_subgraphs_injective(members[j], members[i])
            log.check(f"cold:build_mtransform({label})", matrix.data[i][j] == want, f"entry ({i},{j})")
        if inverse is not None:
            log.check(f"cold:inverse_mtransform({label})", is_identity_product(matrix, inverse), "E E^-1 != I")
    if cold.get("half6") is not None and cold.get("e6") is not None:
        log.check("cold:solve_upper_half(E6)", cold["half6"] == cold["e6"], "half-matrix rebuild != E(6) transform")
    for key in cold:
        if cold[key] is not None and warm.get(key) is not None:
            log.check(f"warm:{key}", cold[key] == warm[key], "warm result differs from cold")


# ── queries ──────────────────────────────────────────────────────────────


def queries_setup() -> dict:
    ctx = {f"E{n}": poset.build_full_poset(n) for n in (4, 5, 6)}
    ctx["e5"] = mtransform.build_mtransform(ctx["E5"])
    ctx["S"] = {k: perm.symmetric_group(k) for k in (3, 4, 5)}
    ctx["small"] = [m for m in ctx["E4"].members if 1 <= m.degree <= 3]
    ctx["mid5"] = [m for m in ctx["E5"].members if 2 <= m.degree <= 4]
    ctx["conn4"] = [m for m in ctx["E4"].members if graph.is_connected_class(m)]
    ctx["conn5"] = sorted(ctx["E5"].connected_members(), key=lambda c: c.sort_key)
    ctx["prod5"] = [m for m in ctx["E5"].members if 1 <= m.degree <= 2]
    return ctx


# The seven request kinds, drawn uniformly: there is no measured mix of
# library use to weight them by.
REQUEST_KINDS = ("count", "product", "general", "separator", "multiset", "complement", "reconstruct")


def make_request(rng: random.Random, ctx: dict):
    """One seeded request: (kind, inputs, timed call, check of its result)."""
    kind = rng.choice(REQUEST_KINDS)
    if kind == "count":
        pattern = rng.choice(ctx["mid5"])
        host = random_graph(rng, 7, 0.4)
        key = (pattern.bits, host.bits)
        call = lambda: graph.count_subgraphs(pattern, host)  # noqa: E731
        check = lambda got: got == graph.count_subgraphs_injective(pattern, host)  # noqa: E731
    elif kind == "product":
        a, b = rng.choice(ctx["prod5"]), rng.choice(ctx["prod5"])
        p5, e5 = ctx["E5"], ctx["e5"]
        key = (a.bits, b.bits)

        def call():
            return (
                algebra.product_kocay(a, b, p5),
                algebra.fleischmann_totals(algebra.product_fleischmann(a, b, p5)),
                algebra.product_mtransform(a, b, p5, e5),
            )

        check = lambda got: got[0] == got[1] == got[2]  # noqa: E731
    elif kind == "general":
        while True:
            a, b = rng.choice(ctx["small"]), rng.choice(ctx["small"])
            if a.cv + b.cv <= 7:
                break
        hosts = [random_graph(rng, 6, 0.4) for _ in range(2)]
        key = (a.bits, b.bits, tuple(h.bits for h in hosts))
        call = lambda: algebra.general_product(a, b)  # noqa: E731
        check = lambda got: algebra.verify_product_identity(a, b, got, hosts)  # noqa: E731
    elif kind == "separator":
        invs = rng.sample(ctx["conn5"], rng.randint(2, 4))
        p5 = ctx["E5"]
        key = tuple(c.bits for c in invs)
        call = lambda: generators.is_separator(invs, p5).is_separator  # noqa: E731

        def check(got):
            if "inj5" not in ctx:  # reference injection counts over E(5), built by the first check
                ctx["inj5"] = {(c.bits, m.bits): graph.count_subgraphs_injective(c, m)
                               for c in ctx["conn5"] for m in p5.members}
            vecs = {tuple(ctx["inj5"][c.bits, m.bits] for c in invs) for m in p5.members}
            return got == (len(vecs) == len(p5))
    elif kind == "multiset":
        k = rng.randint(3, 5)
        m = tuple(rng.randint(0, 2) for _ in range(k))
        w = tuple(rng.randint(0, 4) for _ in range(k))
        group = ctx["S"][k]
        key = (m, w)
        call = lambda: multiset.multiset_invariant(m, w, group)  # noqa: E731
        check = lambda got: got == multiset.hasse_derivative_value(m, w, group)  # noqa: E731
    elif kind == "complement":
        n = rng.choice((5, 6))
        g = rng.choice(ctx["small"])
        host = random_graph(rng, n, 0.5)
        p = ctx[f"E{n}"]
        key = (n, g.bits, host.bits)
        call = lambda: mtransform.complement_invariant_expansion(g, p, n).evaluate(host)  # noqa: E731
        check = lambda got: got == graph.count_subgraphs_injective(g, graph.complement(host, n))  # noqa: E731
    else:
        while True:
            pieces = [rng.choice(ctx["conn4"]) for _ in range(rng.randint(1, 3))]
            if sum(c.cv for c in pieces) <= 7:
                break
        conn5 = ctx["conn5"]
        key = tuple(sorted(c.bits for c in pieces))

        def call():
            host = graph.disjoint_union(pieces)
            return generators.reconstruct_components(host, [c for c in conn5 if c.degree <= host.degree])

        check = lambda got: got == Counter(pieces)  # noqa: E731
    return kind, key, call, check


def queries_run(log: Log, ctx: dict, rng: random.Random, blocks: int) -> tuple[list[dict], list]:
    """Closed loop, one client: blocks of requests, each block run cold then
    replayed.  Returns the samples and the (kind, check, result) triples whose
    oracles the caller runs after the stream."""
    samples = []
    pending = []
    for _ in range(blocks):
        reqs = []
        for _ in range(QUERY_BLOCK):
            kind, key, call, check = make_request(rng, ctx)
            log.note_input((kind, key))
            reqs.append((kind, call, check))
        meter = Meter()
        cold_s = warm_s = 0.0
        results = []
        for kind, call, check in reqs:
            got, dt = log.call(kind, call)
            cold_s += dt
            results.append(got)
            if got is not None:
                pending.append((kind, check, got))
        cold_ref = meter.add(cold_s)
        for (kind, call, check), first in zip(reqs, results):
            got, dt = log.call("warm:" + kind, call, record=False)
            warm_s += dt
            if first is not None and got is not None:
                log.check("warm:" + kind, got == first, "warm result differs from cold")
        warm_ref = meter.add(warm_s)
        samples.append({"cold_s": cold_ref, "warm_s": warm_ref, "cold_raw_s": cold_s, "warm_raw_s": warm_s,
                        "total_raw_s": cold_s + warm_s})
    return samples, pending


def queries_check(log: Log, pending: list) -> None:
    for kind, check, got in pending:
        try:
            log.check(kind, check(got), "oracle disagrees")
        except Exception as exc:  # an oracle crash is a failed request
            log.check(kind, False, f"oracle raised {type(exc).__name__}: {exc}")


# ── entry point ──────────────────────────────────────────────────────────


def main() -> None:
    mode = SPEC["mode"]
    out = {"import_s": IMPORT_S, "samples": [], "ops": [], "attempted": 0, "failures": []}
    log = Log()
    rng = random.Random(SPEC.get("seed", 0))
    try:
        if mode in ("classes", "transform"):
            make_inputs, run_pass, check = {
                "classes": (classes_inputs, classes_pass, classes_check),
                "transform": (transform_inputs, transform_pass, transform_check),
            }[mode]
            inp = make_inputs(rng)
            log.note_input({k: (v if not hasattr(v, "bits") else v.bits) for k, v in inp.items()})
            log.phase = Meter()
            cold = run_pass(log, inp, "cold")
            cold_m = log.phase
            warm_ms: list[Meter] = []
            while sum(m.raw for m in warm_ms) < WARM_MIN_S and len(warm_ms) < 20:
                log.phase = Meter()
                warm = run_pass(log, inp, "warm")
                warm_ms.append(log.phase)
            log.phase = None
            out["maxrss_kb"] = maxrss_kb()
            out["samples"].append({
                "cold_s": cold_m.ref,
                "warm_s": statistics.median(m.ref for m in warm_ms),
                "cold_raw_s": cold_m.raw,
                "warm_raw_s": statistics.median(m.raw for m in warm_ms),
                "total_raw_s": cold_m.raw + sum(m.raw for m in warm_ms),
            })
            with untraced():
                check(log, inp, cold, warm)
        elif mode in ("queries", "queries-setup"):
            t0 = time.perf_counter()
            ctx = queries_setup()
            out["setup_raw_s"] = time.perf_counter() - t0
            if mode == "queries":
                out["samples"], pending = queries_run(log, ctx, rng, SPEC["blocks"])
                out["maxrss_kb"] = maxrss_kb()
                with untraced():
                    queries_check(log, pending)
        elif mode != "import":
            raise SystemExit(f"unknown mode {mode!r}")
    except Exception:
        log.failures.append((mode, traceback.format_exc(limit=3)))
        log.attempted += 1
    out.setdefault("maxrss_kb", maxrss_kb())
    out["ops"] = [op for op in log.ops if not op[0].startswith("warm:")]
    out["attempted"] = log.attempted
    out["failures"] = log.failures
    out["digest"] = log.digest.hexdigest()
    out["trace"] = TRACER.snapshot() if TRACER else None
    with open(SPEC["out"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
