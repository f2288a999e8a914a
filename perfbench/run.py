"""graphinv benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from ./src.
Workloads (see README.md in this directory for why each exists):

  classes    fresh processes: E(7), connected classes to 8 edges, a support-9
             general product, the d=4 inseparable pair
  transform  fresh processes: E(6) transform, inverse, half-matrix rebuild;
             E(7, d<=10) transform and inverse
  queries    one warm process: a seeded stream of small mixed library requests
  cli-cache  the CLI corpus in fresh `python -m graphinv` processes, a cold and
             a warm pass against one new --cache-dir, plus contract probes

All load comes from one process at a time.  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, whose spans are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HELD_OUT_SEED = 7919  # reserved for confirming a claimed gain; do not tune on it
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 11
# `queries` runs a fixed amount of work, sized to fill about --seconds at the
# commit that introduced the benchmark, so request mix, memo growth and peak
# RSS are the same on every commit; its duration follows the program's speed.
QUERY_BLOCKS_PER_S = 3.2
WORKLOADS = ("classes", "transform", "queries", "cli-cache")
UNITS = {"wall_s": "s", "cold_pass_s": "s", "warm_pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
from inputs import relabel  # noqa: E402
from speed import probe, scaled  # noqa: E402
from tracer import layer_metrics, merge_spans  # noqa: E402


# ── child processes ──────────────────────────────────────────────────────


class Clock:
    """Deadline of the whole run; every child gets at most what is left."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    """Runs one child at a time; records its wall time and the same time at
    reference speed (speed probes before and after it)."""

    def __init__(self, clock: Clock, tmp: Path) -> None:
        self.clock = clock
        self.tmp = tmp
        self.env = child_env()
        self.count = 0
        self.last_probe = probe()

    def run(self, argv: list[str]) -> dict:
        """Returns exit code (None on timeout), wall and reference-speed
        seconds, stdout bytes and stderr text."""
        self.count += 1
        budget = self.clock.left()
        if budget <= 1.0:
            return {"code": None, "wall_s": 0.0, "ref_s": 0.0, "stdout": b"", "stderr": "run deadline reached"}
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT, timeout=budget)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:  # the child has been killed and waited for
            code, stdout, stderr = None, exc.stdout or b"", (exc.stderr or b"") + b"\ntimed out"
        wall = time.perf_counter() - start
        after = probe()
        ref = scaled(wall, self.last_probe, after)
        self.last_probe = after
        return {"code": code, "wall_s": wall, "ref_s": ref, "stdout": stdout,
                "stderr": stderr.decode(errors="replace")}

    def worker(self, spec: dict) -> tuple[dict | None, dict]:
        spec = dict(spec, out=str(self.tmp / "worker.json"))
        Path(spec["out"]).unlink(missing_ok=True)
        res = self.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)])
        if res["code"] != 0 or not Path(spec["out"]).exists():
            return None, res
        return json.loads(Path(spec["out"]).read_text()), res


# ── shared bookkeeping ───────────────────────────────────────────────────


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.samples: list[dict] = []
        self.ops: list[float] = []
        self.traces: list[dict] = []
        self.extra: dict = {}
        self.peak_kb = 0  # largest peak RSS of a child running the program

    def fail(self, what: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.failures.append(what)

    def absorb(self, result: dict | None, res: dict, label: str) -> None:
        """Fold one worker's result in; a crashed worker is one failed operation."""
        if result is None:
            tail = res["stderr"].strip().splitlines()[-1:] or [f"exit {res['code']}"]
            self.fail(f"{label}: worker failed: {tail[0]}")
            return
        self.attempted += result["attempted"]
        self.failed += min(result["attempted"], len(result["failures"]))
        self.failures += [f"{label}: {op}: {why}" for op, why in result["failures"]]
        self.digest.update(result["digest"].encode())
        self.peak_kb = max(self.peak_kb, result["maxrss_kb"])


def median_setup(spawner: Spawner, argv: list[str], tally: Tally, repeats: int = SETUP_REPEATS) -> float:
    walls = []
    for _ in range(repeats):
        res = spawner.run(argv)
        if res["code"] not in (0,):
            tally.fail(f"setup: {' '.join(argv[-2:])} exited {res['code']}")
            continue
        walls.append(res["ref_s"])
    return statistics.median(walls) if walls else 0.0


def keep_going(clock: Clock, seconds: float, started: float, walls: list[float]) -> bool:
    """Closed loop: start another sample while a typical one would end by
    --seconds plus half a sample, and the run deadline leaves room for it."""
    if not walls:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(walls) / 2 <= seconds and clock.left() > 2 * max(walls)


# ── library workloads in fresh processes ─────────────────────────────────


def run_fresh(workload: str, seed: int, seconds: float, trace: bool, spawner: Spawner, clock: Clock) -> Tally:
    t = Tally()
    t.extra["setup_s"] = median_setup(
        spawner, [sys.executable, str(HERE / "worker.py"), json.dumps({"mode": "import", "out": str(spawner.tmp / "import.json")})], t
    )
    started = time.perf_counter()
    walls: list[float] = []
    plain, traced = [], []
    i = 0
    while keep_going(clock, seconds, started, walls):
        sample_seed = seed * 1000 + i
        t0 = time.perf_counter()
        for tr in ((False, True) if trace else (False,)):
            result, res = spawner.worker({"mode": workload, "seed": sample_seed, "trace": tr})
            t.absorb(result, res, f"sample {i}{' traced' if tr else ''}")
            if result is None or not result["samples"]:
                continue
            s = result["samples"][0]
            (traced if tr else plain).append(s)
            if tr:
                t.traces.append(result["trace"])
                t.extra.setdefault("import_s", []).append(result["import_s"])
            else:
                t.ops += [dt for _, dt in result["ops"]]
        walls.append(time.perf_counter() - t0)
        i += 1
    t.samples = plain
    t.extra["traced_samples"] = traced
    return t


def run_queries(seed: int, seconds: float, trace: bool, spawner: Spawner, clock: Clock) -> Tally:
    t = Tally()
    t.extra["setup_s"] = median_setup(
        spawner,
        [sys.executable, str(HERE / "worker.py"), json.dumps({"mode": "queries-setup", "out": str(spawner.tmp / "setup.json")})],
        t,
    )
    if trace:
        # fixed work, so counts compare across commits: 6 blocks untraced, then traced
        for tr in (False, True):
            result, res = spawner.worker({"mode": "queries", "seed": seed, "trace": tr, "blocks": 6})
            t.absorb(result, res, "traced stream" if tr else "stream")
            if result is not None:
                if tr:
                    t.traces.append(result["trace"])
                    # the traced set-up is spread over the blocks, like its spans
                    share = result["setup_raw_s"] / max(1, len(result["samples"]))
                    t.extra["traced_samples"] = [dict(b, total_raw_s=b["total_raw_s"] + share) for b in result["samples"]]
                    t.extra["import_s"] = [result["import_s"]]
                else:
                    t.samples = result["samples"]
        return t
    blocks = max(1, round(seconds * QUERY_BLOCKS_PER_S))
    result, res = spawner.worker({"mode": "queries", "seed": seed, "trace": False, "blocks": blocks})
    t.absorb(result, res, "stream")
    if result is not None:
        t.samples = result["samples"]
        t.ops = [dt for _, dt in result["ops"]]
        t.extra["requests"] = len(result["ops"])
    return t


# ── the CLI corpus ───────────────────────────────────────────────────────


def edge_arg(edges, n: int, rng: random.Random) -> str:
    return ",".join(f"{i}-{j}" for i, j in relabel(edges, n, rng))


def corpus_inputs(rng: random.Random) -> dict:
    cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
    return {
        "{K2}": edge_arg([(0, 1)], 6, rng),
        "{P3}": edge_arg([(0, 1), (1, 2)], 6, rng),
        "{host}": edge_arg(cube, 8, rng),
    }


def cli_argv(args: list[str], trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "graphinv", *args]
    return [sys.executable, str(HERE / "cli_trace.py"), str(trace_path), *args]


def cli_pass(corpus: list[dict], subst: dict, cache_dir: Path, spawner: Spawner, t: Tally, label: str, traced: bool):
    """One pass over the corpus; returns (reference-speed seconds, wall seconds,
    stdout bytes, trace snapshots)."""
    total = raw = 0.0
    out_bytes = 0
    snaps = []
    for k, cmd in enumerate(corpus):
        args = [subst.get(a, a) for a in cmd["args"]] + (["--cache-dir", str(cache_dir)] if cmd["cache"] else [])
        trace_path = spawner.tmp / f"trace-{k}.json" if traced else None
        if trace_path:
            trace_path.unlink(missing_ok=True)
        res = spawner.run(cli_argv(args, trace_path))
        total += res["ref_s"]
        raw += res["wall_s"]
        out_bytes += len(res["stdout"])
        t.attempted += 1
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        if res["code"] != 0 or digest != cmd["sha256"]:
            t.failed += 1
            t.failures.append(f"{label}: {cmd['name']}: exit {res['code']}, stdout sha256 {digest[:12]}")
        if not traced:
            t.ops.append(res["wall_s"])
        if trace_path and trace_path.exists():
            snaps.append(json.loads(trace_path.read_text()))
    return total, raw, out_bytes, snaps


def run_probes(spec: dict, probe_dir: Path, spawner: Spawner) -> list[dict]:
    """Contract probes: malformed input must exit 2 with an `error:` line."""
    outcomes = []

    def verdict(name, res, allow_rebuild_digest=None):
        err_lines = res["stderr"].strip().splitlines()
        ok = res["code"] == 2 and any(line.startswith("error:") for line in err_lines)
        if allow_rebuild_digest and res["code"] == 0:
            ok = hashlib.sha256(res["stdout"]).hexdigest() == allow_rebuild_digest
        outcomes.append({"name": name, "ok": ok, "exit": res["code"], "stderr_tail": err_lines[-1:]})

    for case in spec["probes"]:
        verdict(case["name"], spawner.run(cli_argv(case["args"], None)))
    # a truncated cache entry must be rebuilt or refused, never a traceback
    trunc = spec["truncated_entry_probe"]
    shutil.rmtree(probe_dir, ignore_errors=True)
    argv = cli_argv(trunc["args"] + ["--cache-dir", str(probe_dir)], None)
    first = spawner.run(argv)
    entries = sorted(p for p in probe_dir.iterdir() if p.is_file()) if probe_dir.exists() else []
    if first["code"] != 0 or len(entries) != 1:
        outcomes.append({"name": trunc["name"], "ok": False, "exit": first["code"],
                         "stderr_tail": ["could not create one cache entry"]})
    else:
        data = entries[0].read_bytes()
        entries[0].write_bytes(data[: len(data) // 2])
        verdict(trunc["name"], spawner.run(argv), allow_rebuild_digest=trunc["sha256"])
    shutil.rmtree(probe_dir, ignore_errors=True)
    return outcomes


def run_cli_cache(seed: int, seconds: float, trace: bool, spawner: Spawner, clock: Clock) -> Tally:
    spec = json.loads((HERE / "corpus.json").read_text())
    corpus = spec["commands"]
    t = Tally()
    t.extra["setup_s"] = median_setup(spawner, cli_argv(["--help"], None), t)
    started = time.perf_counter()
    walls: list[float] = []
    plain, traced = [], []
    i = 0
    while keep_going(clock, seconds, started, walls):
        rng = random.Random(seed * 1000 + i)
        subst = corpus_inputs(rng)
        order = list(corpus)
        rng.shuffle(order)
        t.digest.update(json.dumps([subst, [c["name"] for c in order]]).encode())
        t0 = time.perf_counter()
        for tr in ((False, True) if trace else (False,)):
            cache_dir = spawner.tmp / "cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            tag = f"sample {i}{' traced' if tr else ''}"
            cold, cold_raw, cold_bytes, cold_snaps = cli_pass(order, subst, cache_dir, spawner, t, tag + " cold", tr)
            warm, warm_raw, warm_bytes, warm_snaps = cli_pass(order, subst, cache_dir, spawner, t, tag + " warm", tr)
            shutil.rmtree(cache_dir, ignore_errors=True)
            sample = {"cold_s": cold, "warm_s": warm, "cold_raw_s": cold_raw, "warm_raw_s": warm_raw,
                      "total_raw_s": cold_raw + warm_raw}
            if tr:
                traced.append(sample)
                t.traces.append({"cold": cold_snaps, "warm": warm_snaps, "stdout_bytes": cold_bytes + warm_bytes})
            else:
                plain.append(sample)
        walls.append(time.perf_counter() - t0)
        i += 1
    # every child so far ran the CLI (the no-op set-up and the corpus); the
    # probes below are left out of the peak
    t.peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    t.extra["probes"] = run_probes(spec, spawner.tmp / "probe-cache", spawner)
    t.samples = plain
    t.extra["traced_samples"] = traced
    return t


# ── results ──────────────────────────────────────────────────────────────


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def end_to_end(t: Tally) -> dict:
    samples = t.samples
    cold = [s["cold_s"] for s in samples]
    warm = [s["warm_s"] for s in samples]
    missing = 0.0  # no sample completed; the run is reported as failed
    return {
        "wall_s": statistics.median([c + w for c, w in zip(cold, warm)]) if samples else missing,
        "cold_pass_s": statistics.median(cold) if samples else missing,
        "warm_pass_s": statistics.median(warm) if samples else missing,
        "setup_s": t.extra["setup_s"],
        "peak_rss_mb": t.peak_kb / 1024.0,
    }


def per_layer(workload: str, t: Tally) -> dict:
    traced = t.extra.get("traced_samples") or []
    n = max(1, len(traced))
    if workload == "cli-cache":
        snaps = [s for tr in t.traces for s in tr["cold"] + tr["warm"]]
        metrics = layer_metrics(snaps, n)
        cold = layer_metrics([s for tr in t.traces for s in tr["cold"]], n)
        warm = layer_metrics([s for tr in t.traces for s in tr["warm"]], n)
        metrics["util.cache_fetch.cold_hits"] = cold["util.cache_fetch.hits"]
        metrics["util.cache_fetch.warm_misses"] = warm["util.cache_fetch.misses"]
        imports = [s["import_s"] for s in snaps]
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        metrics["cli.stdout_bytes"] = sum(tr["stdout_bytes"] for tr in t.traces) / n
    else:
        metrics = layer_metrics(t.traces, n)
        metrics["util.cache_fetch.cold_hits"] = 0.0
        metrics["util.cache_fetch.warm_misses"] = 0.0
        imports = t.extra.get("import_s") or [0.0]
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.stdout_bytes"] = 0.0
    plain = [s["cold_s"] + s["warm_s"] for s in t.samples]
    tr_walls = [s["cold_s"] + s["warm_s"] for s in traced]
    metrics["trace.overhead_s"] = (
        statistics.median(tr_walls) - statistics.median(plain) if plain and tr_walls else 0.0
    )
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "graphinv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "graphinv" / "__init__.py").is_file():
        print(f"error: no graphinv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    load_start = loadavg()
    clock = Clock()
    tmp = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    spawner = Spawner(clock, tmp)
    trace = bool(args.trace)
    try:
        if args.workload == "queries":
            t = run_queries(args.seed, args.seconds, trace, spawner, clock)
        elif args.workload == "cli-cache":
            t = run_cli_cache(args.seed, args.seconds, trace, spawner, clock)
        else:
            t = run_fresh(args.workload, args.seed, args.seconds, trace, spawner, clock)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        metrics = per_layer(args.workload, t)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(t)
        units = UNITS
    if not t.samples:
        t.fail("no sample completed")

    ops = t.ops
    raw = {
        name: statistics.median(s[key] for s in t.samples) if t.samples else None
        for name, key in (("cold_pass_s", "cold_raw_s"), ("warm_pass_s", "warm_raw_s"))
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(t.samples),
        "sample_values": t.samples,
        "raw_wall_medians": raw,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": t.attempted,
        "failed": t.failed,
        "failed_ratio": t.failed / max(1, t.attempted),
        "failures": t.failures[:50],
        "op_latency_ms": {
            "count": len(ops),
            "p50": 1000 * statistics.median(ops) if ops else None,
            "p99": 1000 * percentile(ops, 99) if len(ops) >= 1000 else None,
            "max": 1000 * max(ops) if ops else None,
        },
        "probes": t.extra.get("probes"),
        "request_digest": t.digest.hexdigest(),
        "children": spawner.count,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    if args.workload == "queries" and not trace and ops:
        report["queries"] = {
            "requests": len(ops),
            "queries_per_s": len(ops) / sum(ops),
            "query_p50_ms": 1000 * statistics.median(ops),
            "query_p99_ms": 1000 * percentile(ops, 99),
        }
    if trace:
        traced = t.extra.get("traced_samples") or []
        report["traced_wall_s"] = statistics.fmean([s["total_raw_s"] for s in traced]) if traced else None
        report["spans"] = merge_spans(
            [s for tr in t.traces for s in (tr["cold"] + tr["warm"] if "cold" in tr else [tr])]
        )
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(report, indent=1, sort_keys=True))

    print_report(report, record_path)
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": max(1, t.attempted),
        "failed": t.failed,
        "metrics": report["metrics"],
    }))
    return 0


def print_report(report: dict, record_path: Path) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  samples {report['samples']}  "
          f"children {report['children']}  nproc {report['nproc']}  load {report['loadavg_start']}")
    if not report["trace"]:
        for name, m in report["metrics"].items():
            raw = report["raw_wall_medians"].get(name)
            note = f"  (median of {report['samples']}" + (f", wall clock {raw:.6g} s)" if raw else ")")
            print(f"  {name:<14} {m['value']:>12.6g} {m['unit']:<3}" + ("" if name in ("setup_s", "peak_rss_mb") else note))
    lat = report["op_latency_ms"]
    if lat["count"]:
        print(f"  op latency     p50 {lat['p50']:.4g} ms  p99 {lat['p99'] if lat['p99'] is None else round(lat['p99'], 4)} ms"
              f"  max {lat['max']:.4g} ms  ({lat['count']} ops)")
    if "queries" in report:
        q = report["queries"]
        print(f"  queries        {q['queries_per_s']:.1f}/s  p50 {q['query_p50_ms']:.4g} ms  "
              f"p99 {q['query_p99_ms']:.4g} ms  ({q['requests']} requests)")
    print(f"  failed_ratio   {report['failed']}/{report['attempted']}")
    for line in report["failures"][:10]:
        print(f"  FAILED {line}")
    if report["trace"] and report["traced_wall_s"]:
        by_module: dict[str, float] = {}
        for name, m in report["metrics"].items():
            parts = name.split(".")
            if len(parts) == 3 and parts[2] == "self_s":
                by_module[parts[0]] = by_module.get(parts[0], 0.0) + m["value"]
        wall = report["traced_wall_s"]
        shares = "  ".join(f"{mod} {100 * v / wall:.0f}%" for mod, v in sorted(by_module.items(), key=lambda kv: -kv[1]) if v)
        print(f"  self time per traced sample ({wall:.4g} s): {shares}")
        print(f"  trace overhead {report['metrics']['trace.overhead_s']['value']:.4g} s per sample")
    for outcome in report["probes"] or []:
        status = "ok  " if outcome["ok"] else "FAIL"
        print(f"  probe {status} {outcome['name']}: exit {outcome['exit']} {' '.join(outcome['stderr_tail'])[:100]}")
    print(f"  record {record_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
