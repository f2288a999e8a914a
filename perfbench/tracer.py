"""In-memory spans around calls into graphinv's public functions.

`Tracer.install()` wraps every function named in LAYER_FUNCTIONS and rebinds
the wrapper in every loaded `graphinv` module that holds the same function
object, so a name imported with `from .graph import canonicalize_bits` (as in
`poset`, `algebra` and `enumeration`) or `from .graph import
subgraph_class_counts` (as in `mtransform`) is traced too.  Names missing from
the package are skipped, so the tracer survives renames and deletions.

Spans are aggregated by (function, parent function); a span's self time is
its duration minus the time covered by its child spans.  Work done through
private helpers is not seen: the canonicalization inside
`graph.subgraph_class_counts` goes through `_canon_from_packed`, so it counts
as that function's self time, not as `graph.canonicalize`.

Derived counts are computed from arguments and return values only:
canonicalizations split by the support size of the returned class, distinct
`subgraph_class_counts` keys and the edge subsets they enumerate, poset sizes,
transform sizes, and file-cache hits and misses read off the cache directory
before and after each `cache_fetch` call.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

# module -> {attribute: span function name}; `canonicalize` and
# `canonicalize_bits` share one span so a call through both counts once.
LAYER_FUNCTIONS = {
    "graph": {
        "canonicalize": "canonicalize",
        "canonicalize_bits": "canonicalize",
        "subgraph_class_counts": "subgraph_class_counts",
        "count_subgraphs": "count_subgraphs",
        "count_subgraphs_injective": "count_subgraphs_injective",
        "pattern_copies": "pattern_copies",
        "support_automorphisms": "support_automorphisms",
        "disjoint_union": "disjoint_union",
        "connected_component_classes": "connected_component_classes",
    },
    "poset": {n: n for n in ("build_full_poset", "build_span_poset", "poset_from_sidecar")},
    "mtransform": {
        n: n
        for n in (
            "build_mtransform",
            "inverse_mtransform",
            "solve_upper_half",
            "exact_rank",
            "complement_invariant_expansion",
        )
    },
    "algebra": {
        n: n
        for n in (
            "product_kocay",
            "product_fleischmann",
            "product_mtransform",
            "general_product",
            "verify_product_identity",
            "express_invariant",
        )
    },
    "generators": {
        n: n
        for n in ("is_separator", "minimal_separators", "inseparable_pair", "reconstruct_components")
    },
    "multiset": {n: n for n in ("multiset_invariant", "hasse_derivative_value")},
    "perm": {n: n for n in ("symmetric_group", "close_generators")},
    "enumeration": {
        n: n for n in ("connected_classes_by_degree", "graph_count_series", "ulam_table_csv")
    },
    "util": {"cache_fetch": "cache_fetch"},
    "cli": {"main": "main"},
}

SPAN_NAMES = sorted({f"{mod}.{fn}" for mod, names in LAYER_FUNCTIONS.items() for fn in names.values()})

CANON_BUCKETS = ("cv_le7", "cv8", "cv9", "cv10")

# derived counters, all reported even when zero
DERIVED = (
    [f"graph.canonicalize.{b}.{k}" for b in CANON_BUCKETS for k in ("calls", "self_s")]
    + [
        "graph.subgraph_class_counts.distinct_keys",
        "graph.subgraph_class_counts.subsets",
        "poset.build_full_poset.members",
        "mtransform.build_mtransform.entries",
        "mtransform.build_mtransform.nonzeros",
        "util.cache_fetch.hits",
        "util.cache_fetch.misses",
        "util.cache_fetch.bytes_read",
        "util.cache_fetch.bytes_written",
    ]
)


def _canon_bucket(cv: int) -> str:
    if cv <= 7:
        return "cv_le7"
    return "cv10" if cv >= 10 else f"cv{cv}"


def _dir_state(path) -> dict:
    """File name -> (size, mtime) for every regular file directly under path."""
    state = {}
    try:
        with os.scandir(path) as it:
            for entry in it:
                if entry.is_file(follow_symlinks=False):
                    st = entry.stat(follow_symlinks=False)
                    state[entry.name] = (st.st_size, st.st_mtime_ns)
    except FileNotFoundError:
        pass
    return state


def _rchar() -> tuple[int, int]:
    """Bytes read by this process so far and the size of this probe's own read."""
    try:
        with open("/proc/self/io") as fh:
            text = fh.read()
    except OSError:
        return 0, 0
    for line in text.splitlines():
        if line.startswith("rchar:"):
            return int(line.split()[1]), len(text)
    return 0, len(text)


class Tracer:
    """Span stack plus aggregates; one per traced process, written out at exit."""

    def __init__(self) -> None:
        self.active = True  # while False, wrappers call straight through
        self.stack: list[list] = []  # [span name, time covered by children]
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._hist_keys: set = set()

    # ── wrapping ────────────────────────────────────────────────────────

    def install(self) -> int:
        """Wrap and rebind every listed function; returns how many were wrapped."""
        loaded = [m for name, m in list(sys.modules.items()) if name.startswith("graphinv") and m]
        wrapped = 0
        for mod_name, attrs in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"graphinv.{mod_name}")
            if module is None:
                continue
            for attr, fn_name in attrs.items():
                original = getattr(module, attr, None)
                if not callable(original) or getattr(original, "__perfbench_span__", None):
                    continue
                span = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(span, original)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)
                wrapped += 1
        return wrapped

    def _wrap(self, span: str, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == span):
                return fn(*args, **kwargs)  # off, or canonicalize -> canonicalize_bits
            parent = stack[-1][0] if stack else ""
            state = before(args, kwargs) if before else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                incl = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += incl
                self_s = incl - frame[1]
                agg = spans[(span, parent)]
                agg[0] += 1
                agg[1] += incl
                agg[2] += self_s
            if after:
                after(args, kwargs, result, self_s, state)
            return result

        wrapper.__perfbench_span__ = span
        return wrapper

    # ── derived counts ──────────────────────────────────────────────────

    def _after_graph_canonicalize(self, args, kwargs, result, self_s, state):
        bucket = _canon_bucket(result.cv)
        self.counts[f"graph.canonicalize.{bucket}.calls"] += 1
        self.counts[f"graph.canonicalize.{bucket}.self_s"] += self_s

    def _after_graph_subgraph_class_counts(self, args, kwargs, result, self_s, state):
        host = args[0] if args else kwargs["host"]
        degree = args[1] if len(args) > 1 else kwargs["degree"]
        key = (host.bits, degree)
        if key not in self._hist_keys:
            self._hist_keys.add(key)
            self.counts["graph.subgraph_class_counts.distinct_keys"] += 1
            self.counts["graph.subgraph_class_counts.subsets"] += math.comb(host.bits.bit_count(), degree)

    def _after_poset_build_full_poset(self, args, kwargs, result, self_s, state):
        self.counts["poset.build_full_poset.members"] += len(result)

    def _after_mtransform_build_mtransform(self, args, kwargs, result, self_s, state):
        self.counts["mtransform.build_mtransform.entries"] += result.rows * result.cols
        self.counts["mtransform.build_mtransform.nonzeros"] += sum(
            1 for row in result.data for x in row if x
        )

    def _before_util_cache_fetch(self, args, kwargs):
        cache_dir = args[0] if args else kwargs.get("cache_dir")
        if not cache_dir:
            return None
        return cache_dir, _dir_state(cache_dir), _rchar()

    def _after_util_cache_fetch(self, args, kwargs, result, self_s, state):
        if state is None:
            return
        cache_dir, before, (rchar0, probe_len) = state
        after = _dir_state(cache_dir)
        if after == before:
            self.counts["util.cache_fetch.hits"] += 1
            self.counts["util.cache_fetch.bytes_read"] += max(0, _rchar()[0] - rchar0 - probe_len)
        else:
            self.counts["util.cache_fetch.misses"] += 1
            self.counts["util.cache_fetch.bytes_written"] += sum(
                size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime)
            )

    # ── output ──────────────────────────────────────────────────────────

    def snapshot(self) -> dict:
        """JSON-ready spans by (function, parent) plus derived counts."""
        return {
            "spans": [
                {"function": fn, "parent": parent, "calls": agg[0], "incl_s": agg[1], "self_s": agg[2]}
                for (fn, parent), agg in sorted(self.spans.items())
            ],
            "counts": dict(self.counts),
        }


def layer_metrics(snapshots, per: float) -> dict[str, float]:
    """Per-function calls and self time, plus derived counts, summed over
    snapshots and divided by `per` (the number of traced samples)."""
    out = {f"{span}.{k}": 0.0 for span in SPAN_NAMES for k in ("calls", "self_s")}
    out.update({name: 0.0 for name in DERIVED})
    for snap in snapshots:
        for rec in snap["spans"]:
            if rec["function"] in SPAN_NAMES:
                out[f"{rec['function']}.calls"] += rec["calls"]
                out[f"{rec['function']}.self_s"] += rec["self_s"]
        for name, value in snap["counts"].items():
            out[name] = out.get(name, 0.0) + value
    return {name: value / per for name, value in out.items()}


def merge_spans(snapshots) -> list[dict]:
    """Spans of several snapshots summed by (function, parent)."""
    merged: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for snap in snapshots:
        for rec in snap["spans"]:
            agg = merged[(rec["function"], rec["parent"])]
            agg[0] += rec["calls"]
            agg[1] += rec["incl_s"]
            agg[2] += rec["self_s"]
    return [
        {"function": fn, "parent": parent, "calls": a[0], "incl_s": a[1], "self_s": a[2]}
        for (fn, parent), a in sorted(merged.items())
    ]
