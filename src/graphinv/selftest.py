"""The acceptance suite: one check per criterion, exact tolerances, timed.

Each check is a pure function returning (ok, detail); the runner wraps it with
timing and a time budget.  The pytest acceptance module asserts these same
results, and the CLI `selftest` command prints one line per criterion and
exits nonzero on any mismatch.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

from .algebra import (
    degree_sum_identity_check,
    fleischmann_totals,
    general_product,
    product_fleischmann,
    product_kocay,
    product_mtransform,
    verify_product_identity,
)
from .enumeration import (
    generator_lower_bound_report,
    graph_count,
    ulam_difference_table,
)
from .errors import PreconditionError
from .generators import (
    derive_relation_in_basis,
    half_degree_system_check,
    inseparable_pair,
    is_separator,
    minimal_separators,
    reconstruct_components,
    signed_degree_sum,
    verify_relation,
)
from .graph import count_subgraphs, disjoint_union
from .mtransform import (
    IntMatrix,
    build_mtransform,
    cached_transform,
    complement_invariant_expansion,
    exact_rank,
    find_orderings_matching,
    minor_by_degree,
    mnukhin_power,
    solve_upper_half,
    subset_inclusion_minor,
    subset_minor_blocks,
)
from .multiset import (
    build_general_mtransform,
    build_multiset_poset,
    express_orbit_sum,
    multiset_invariant,
    orbit_sum_value,
    verify_orbit_sum_expression,
)
from .perm import symmetric_group, trivial_group
from .poset import build_full_poset, cached_poset
from .smallgraphs import class_name, named_class
from .util import cached_ulam_table, random_labeled_graph

# ── frozen published values ──────────────────────────────────────────────

TABLE1 = {
    ("K2", "K2"): {"K2": 1, "P3": 2},
    ("K2", "P3"): {"P3": 2, "K3": 3},
    ("K2", "K3"): {"K3": 3},
    ("P3", "P3"): {"P3": 1, "K3": 6},
    ("P3", "K3"): {"K3": 3},
    ("K3", "K3"): {"K3": 1},
}

TABLE2 = {
    "K2": {"K2": 1, "2K2": 2, "P3": 2},
    "2K2": {"2K2": 2, "P4": 1},
    "P3": {"P3": 2, "P4": 2, "K3": 3, "K1,3": 3},
    "P4": {"P4": 3, "C4": 4, "paw": 2},
    "K1,3": {"K1,3": 3, "paw": 1},
    "K3": {"K3": 3, "paw": 1},
    "C4": {"C4": 4, "diamond": 1},
    "paw": {"paw": 4, "diamond": 4},
    "diamond": {"diamond": 5, "K4": 6},
    "K4": {"K4": 6},
}

PRINTED_E4_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 0, 3, 1, 0, 0, 0, 0, 0, 0],
    [1, 3, 1, 2, 0, 1, 0, 0, 0, 0, 0],
    [1, 3, 0, 3, 0, 0, 1, 0, 0, 0, 0],
    [1, 4, 1, 5, 1, 2, 1, 1, 0, 0, 0],
    [1, 4, 2, 4, 0, 4, 0, 0, 1, 0, 0],
    [1, 5, 2, 8, 2, 6, 2, 4, 1, 1, 0],
    [1, 6, 3, 12, 4, 12, 4, 12, 3, 6, 1],
]

PRINTED_E4_ORDER = [
    "empty", "K2", "2K2", "P3", "K1,3", "P4", "K3", "paw", "C4", "diamond", "K4",
]

PRINTED_TRIVIAL_7X7 = [
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [1, 1, 0, 1, 0, 0, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [0, 1, 1, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1, 1],
]

PRINTED_TWO_SYMBOL_5X5 = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [2, 0, 1, 0, 0],
    [1, 1, 0, 1, 0],
    [2, 1, 1, 2, 1],
]

# The published difference table, rows d = 2..12, columns n = 4..12; None marks
# cells the table leaves blank (d past half of C(n,2)).
PRINTED_ULAM_ROWS = {
    2: [0, 1, 1, 1, 1, 1, 1, 1, 1],
    3: [0, 1, 1, 2, 2, 2, 2, 2, 2],
    4: [None, 0, 2, 4, 4, 5, 5, 5, 5],
    5: [None, 1, 0, 4, 8, 10, 10, 11, 11],
    6: [None, None, 0, 1, 9, 18, 23, 25, 25],
    7: [None, None, 3, 0, 6, 30, 49, 60, 65],
    8: [None, None, None, -8, -9, 24, 82, 133, 157],
    9: [None, None, None, -13, -50, -24, 96, 265, 385],
    10: [None, None, None, -2, -113, -203, -29, 410, 878],
    11: [None, None, None, None, -169, -635, -738, 173, 1678],
    12: [None, None, None, None, -201, -1431, -3018, -2237, 1779],
}


@dataclass(frozen=True)
class UlamErratum:
    """A printed cell of the difference table that is provably wrong.

    h holds the three counts that make the entry, (h_n(d), h_{n-1}(d),
    h_n(d-1)); the check re-derives them by the cycle index and by counting
    the members of the full posets, so the proof runs with every check.
    """

    printed: int
    correct: int
    h: tuple[int, int, int]
    derivation: str


# Keyed (d, n) like the computed table.  PRINTED_ULAM_ROWS keeps the published
# values verbatim; a cell listed here must still read as printed and compute to
# its corrected value.
ULAM_ERRATA = {
    (7, 6): UlamErratum(
        printed=3,
        correct=1,
        h=(24, 4, 21),
        derivation="-h_6(7) + h_5(7) + h_6(6) = -24 + 4 + 21 = 1; "
        "the printed 3 reads h_5(6) = 6 for h_5(7) = 4",
    ),
}

# The published claim that {K2, P3, P4} separates E(4), kept as printed, and
# the pair that refutes it: K1,3 and K3 both give (3, 3, 0) on (K2, P3, P4),
# and every class of four or more edges counts zero in both, so any separator
# of E(4) must contain K1,3 or K3.  The exhaustive search finds exactly the
# two triples that do.
PRINTED_E4_SEPARATOR = ("K2", "P3", "P4")
E4_SEPARATOR_WITNESS = frozenset({"K1,3", "K3"})
E4_MIN_SEPARATORS = frozenset({("K2", "K3", "P3"), ("K1,3", "K2", "P3")})


@dataclass
class CheckResult:
    ident: str
    name: str
    ok: bool
    seconds: float
    budget: float
    detail: str = ""


def _lincomb_named(comb) -> dict:
    return {class_name(c) or c.graph6: v for c, v in comb.items()}


def _expected_comb(named: dict):
    return {named_class(k): v for k, v in named.items()}


# ── criteria ─────────────────────────────────────────────────────────────

def _three_routes(p, cases) -> str | None:
    """Each (label, a, b, expected) product by all three routes; the first
    disagreement as a detail line, or None."""
    e = build_mtransform(p)
    for label, a, b, expected_named in cases:
        expected = _expected_comb(expected_named)
        for route, comb in (
            ("pairs", product_kocay(a, b, p)),
            ("colorings", fleischmann_totals(product_fleischmann(a, b, p))),
            ("transform", product_mtransform(a, b, p, e)),
        ):
            if comb.terms != expected:
                return f"{label} via {route}: {_lincomb_named(comb)} != {expected_named}"
    return None


def check_table1():
    """All six products of the 3-vertex multiplication table, by all three routes."""
    failure = _three_routes(build_full_poset(3), [
        (f"{na}*{nb}", named_class(na), named_class(nb), want) for (na, nb), want in TABLE1.items()
    ])
    return failure is None, failure or "6 products x 3 routes"


def check_table2():
    """The ten first-column products of the 4-vertex table, by all three routes."""
    k2 = named_class("K2")
    failure = _three_routes(build_full_poset(4), [
        (f"{ng}*K2", named_class(ng), k2, want) for ng, want in TABLE2.items()
    ])
    return failure is None, failure or "10 rows x 3 routes"


def check_printed_matrix_order():
    """Some within-degree reordering reproduces the printed 11x11 matrix exactly."""
    p = build_full_poset(4)
    matches = find_orderings_matching(p, PRINTED_E4_MATRIX)
    if not matches:
        return False, "no within-degree ordering matches the printed matrix"
    named = [[class_name(c) for c in order] for order in matches]
    if PRINTED_E4_ORDER not in named:
        return False, f"expected ordering not among matches: {named}"
    return True, f"orderings found: {named}"


def check_mnukhin_laws():
    """Closed-form powers equal literal powers (k = 0..3) and the literal inverse (k = -1)."""
    cases = []
    for n in (3, 4, 5):
        p = build_full_poset(n)
        cases.append((f"E({n})", build_mtransform(p), p.degrees()))
    p8 = build_multiset_poset(trivial_group(3), 1, include_empty=False)
    e8 = build_general_mtransform(p8)
    if e8.to_lists() != PRINTED_TRIVIAL_7X7:
        return False, "trivial-group 7x7 matrix differs from the printed one"
    from .perm import Permutation, close_generators

    p9 = build_multiset_poset(close_generators(3, [Permutation((1, 0, 2))]), 1, include_empty=False)
    e9 = build_general_mtransform(p9)
    if e9.to_lists() != PRINTED_TWO_SYMBOL_5X5:
        return False, "two-symbol 5x5 matrix differs from the printed one"
    cases.append(("7x7", e8, p8.degrees()))
    cases.append(("5x5", e9, p9.degrees()))
    for label, e, degs in cases:
        for k in (0, 1, 2, 3):
            if mnukhin_power(e, degs, k) != e.power(k):
                return False, f"{label}: closed form differs from literal power k={k}"
        inv = mnukhin_power(e, degs, -1)
        ident = IntMatrix.identity(e.rows)
        if inv @ e != ident or e @ inv != ident:
            return False, f"{label}: closed-form inverse is not a two-sided inverse"
    return True, "E(3), E(4), E(5), 7x7, 5x5; k in {-1,0,1,2,3}"


def check_coloring_refinement():
    """Squared path-invariant totals, the 2+2 split of the paw, transform coefficient 4."""
    p = build_full_poset(4)
    e = build_mtransform(p)
    p3 = named_class("P3")
    expected = _expected_comb({"P3": 1, "K1,3": 6, "K3": 6, "P4": 2, "paw": 4, "C4": 4})
    refined = product_fleischmann(p3, p3, p, cross_check_n=4)
    totals = fleischmann_totals(refined)
    if totals.terms != expected:
        return False, f"totals {_lincomb_named(totals)}"
    paw_classes = refined[named_class("paw")]
    if sorted(cc.pair_count for cc in paw_classes) != [2, 2]:
        return False, f"paw split {[cc.pair_count for cc in paw_classes]} != [2, 2]"
    mtrans = product_mtransform(p3, p3, p, e)
    if mtrans.coefficient(named_class("paw")) != 4 or mtrans.coefficient(named_class("C4")) != 4:
        return False, "transform route does not give 4 for both 4-edge classes"
    return True, "totals, 2+2 paw split (two orbits), transform coefficient 4"


def check_general_product():
    """K2 * P3 on all graphs: the printed 5-term identity, verified on E(5) and 100 random hosts."""
    k2, p3 = named_class("K2"), named_class("P3")
    comb = general_product(k2, p3)
    expected = _expected_comb({"P3": 2, "P4": 2, "K3": 3, "K1,3": 3, "P3+K2": 1})
    if comb.terms != expected:
        return False, f"coefficients {_lincomb_named(comb)}"
    hosts = list(build_full_poset(5).members)
    rng = random.Random(20240711)
    hosts += [random_labeled_graph(rng, rng.randint(1, 8)) for _ in range(100)]
    if not verify_product_identity(k2, p3, comb, hosts):
        return False, "identity fails on a host"
    return True, "(2,2,3,3,1) verified on E(5) members and 100 random hosts with n <= 8"


def check_three_way_agreement():
    """All 66 unordered member pairs of the 4-vertex poset: three equal expansions."""
    p = build_full_poset(4)
    e = build_mtransform(p)
    count = 0
    for a, b in combinations_with_replacement(p.members, 2):
        kocay = product_kocay(a, b, p)
        if kocay != fleischmann_totals(product_fleischmann(a, b, p)):
            return False, f"pair-count vs coloring mismatch at {a.graph6}*{b.graph6}"
        if kocay != product_mtransform(a, b, p, e):
            return False, f"pair-count vs transform mismatch at {a.graph6}*{b.graph6}"
        if kocay != product_kocay(b, a, p):
            return False, f"commutativity failure at {a.graph6}*{b.graph6}"
        count += 1
    return count == 66, f"{count} pairs agreed"


def check_ulam_table():
    """Every printed cell of the difference table reproduced exactly, blanks
    included, except the recorded errata: each still reads as printed, computes
    to its corrected value, and has its three counts confirmed by two counting
    routes."""
    table = ulam_difference_table(12, 12)
    printed_cells = {
        (d, n): v
        for d, row in PRINTED_ULAM_ROWS.items()
        for n, v in zip(range(4, 13), row)
        if v is not None
    }
    mismatches = []
    if set(printed_cells) != set(table):
        mismatches.append(f"blank cells differ: {sorted(set(printed_cells) ^ set(table))}")
    for (d, n), printed in printed_cells.items():
        computed = table.get((d, n))
        erratum = ULAM_ERRATA.get((d, n))
        expected = printed if erratum is None else erratum.correct
        if erratum is not None and printed != erratum.printed:
            mismatches.append(f"(d={d}, n={n}): printed {printed}, erratum records {erratum.printed}")
        if computed != expected:
            mismatches.append(f"(d={d}, n={n}): printed {printed}, computed {computed}")
    notes = []
    for (d, n), erratum in ULAM_ERRATA.items():
        if (d, n) not in printed_cells:
            mismatches.append(f"erratum (d={d}, n={n}) is not a printed cell")
            continue
        args = ((n, d), (n - 1, d), (n, d - 1))
        by_cycle_index = tuple(graph_count(*a) for a in args)
        degrees = {m: Counter(c.degree for c in build_full_poset(m).members) for m in (n - 1, n)}
        by_members = tuple(degrees[m][e] for m, e in args)
        if by_cycle_index != erratum.h or by_members != erratum.h:
            mismatches.append(
                f"erratum (d={d}, n={n}): counts {erratum.h} recorded, "
                f"cycle index {by_cycle_index}, poset members {by_members}"
            )
        notes.append(f"(d={d}, n={n}) printed {erratum.printed}, correct {erratum.correct}: {erratum.derivation}")
    if mismatches:
        return False, "; ".join(mismatches)
    cells = len(printed_cells)
    return True, f"{cells} cells, {cells - len(notes)} as printed; erratum " + "; ".join(notes)


def check_relations():
    """The degree-7 one-variable identity and re-derived expressions for the seven
    dependent invariants in terms of the edge, path, and star invariants."""
    p = build_full_poset(4)
    k2, p3, k13 = named_class("K2"), named_class("P3"), named_class("K1,3")
    syzygy = [
        (1, {k2: 7}), (-21, {k2: 6}), (175, {k2: 5}), (-735, {k2: 4}),
        (1624, {k2: 3}), (-1764, {k2: 2}), (720, {k2: 1}),
    ]
    if not verify_relation(syzygy, p)["holds"]:
        return False, "degree-7 identity fails"
    basis = [k2, p3, k13]
    for name in ("2K2", "P4", "K3", "C4", "paw", "diamond", "K4"):
        target = named_class(name)
        sol = derive_relation_in_basis(target, basis, p, (6, 2, 1))
        if sol is None:
            return False, f"no relation found for {name}"
        terms = [(1, {target: 1})] + [
            (-c, {b: e for b, e in zip(basis, exps) if e}) for exps, c in sol.items()
        ]
        if not verify_relation(terms, p)["holds"]:
            return False, f"re-derived relation for {name} fails on a member"
    return True, "syzygy + 7 re-derived relations hold on all 11 members"


def check_separators():
    """Separator facts on E(3)/E(4), the exhaustive minimum-size search, and the
    recorded erratum: the printed triple {K2, P3, P4} does not separate E(4)."""
    p3, p4 = build_full_poset(3), build_full_poset(4)
    k2 = named_class("K2")
    if not is_separator([k2], p3).is_separator:
        return False, "single-edge invariant fails to separate the 3-vertex poset"
    rep = is_separator([k2], p4)
    wit = {class_name(c) for c in rep.witness} if rep.witness else set()
    if rep.is_separator or wit != {"2K2", "P3"}:
        return False, f"expected failure with witness 2K2/P3, got {wit}"
    size, seps = minimal_separators(p4)
    named_seps = {tuple(sorted(class_name(c) for c in s)) for s in seps}
    if size != 3 or named_seps != E4_MIN_SEPARATORS:
        return False, f"minimum search gave size {size}: {sorted(named_seps)}"
    for triple in sorted(E4_MIN_SEPARATORS):
        if not is_separator([named_class(name) for name in triple], p4).is_separator:
            return False, f"{triple} does not separate E(4)"
    rep = is_separator([named_class(name) for name in PRINTED_E4_SEPARATOR], p4)
    wit = {class_name(c) for c in rep.witness} if rep.witness else set()
    if rep.is_separator or wit != E4_SEPARATOR_WITNESS:
        return False, f"printed triple {{K2, P3, P4}}: expected witness K1,3/K3, got {sorted(wit)}"
    return True, (
        f"minimum size 3: {sorted(named_seps)}; erratum: {{K2, P3, P4}} does NOT "
        f"separate: witness {sorted(wit)} (both give (3, 3, 0) on (K2, P3, P4) and "
        "zero on every class of four or more edges)"
    )


def check_inseparable_pairs():
    """d = 1 and d = 2 constructions with every invariant assertion, the
    signed-sum closed form for d <= 20, and the F(d) + 1 generator lower bound
    at the pair's degree bound for d <= 4 (connected counts 1, 1, 3, 5)."""
    pair1 = inseparable_pair(1)
    if pair1.t_components != Counter({named_class("K2"): 2}) or pair1.u_components != Counter(
        {named_class("P3"): 1}
    ):
        return False, "d=1 pair is not (2K2, P3)"
    if pair1.t_class != named_class("2K2") or pair1.u_class != named_class("P3"):
        return False, "d=1 materialized classes wrong"
    pair2 = inseparable_pair(2)
    if pair2.generator != named_class("K3"):
        return False, f"d=2 generator {class_name(pair2.generator)} != K3"
    if pair2.t_components != Counter({named_class("P3"): 3}):
        return False, "d=2 T is not 3 x P3"
    if pair2.u_components != Counter({named_class("K3"): 1, named_class("K2"): 3}):
        return False, "d=2 U is not K3 + 3 x K2"
    if pair2.degree != 6 or pair2.bound != 9:
        return False, "d=2 degree/bound wrong"
    for d in range(1, 21):
        if signed_degree_sum(d) != (-1) ** d * (2**d - 1):
            return False, f"signed sum closed form fails at d={d}"
    for d, big_f in zip(range(1, 5), (1, 2, 5, 10)):
        rep = generator_lower_bound_report(d)
        if (rep["F"], rep["lower_bound"]) != (big_f, big_f + 1):
            return False, f"d={d}: F = {rep['F']}, lower bound {rep['lower_bound']}; expected F = {big_f}"
        if rep["poset_degree"] != inseparable_pair(d).bound:
            return False, f"d={d}: lower-bound poset degree {rep['poset_degree']} != pair bound"
    return True, "(2K2, P3), (3P3, K3+3K2), closed form to d=20, F(1..4) = 1, 2, 5, 10"


def check_complement_machinery():
    """Expansion vs direct complement counts on all member pairs; upper-half
    rebuild, also of the paper's worked example: the triangle row withheld and
    recovered from its complement partner, the star."""
    p = build_full_poset(4)
    e = build_mtransform(p)
    from .graph import complement as _complement

    for g in p.members:
        comb = complement_invariant_expansion(g, p, 4)
        for h in p.members:
            direct = count_subgraphs(g, _complement(h.rep(4), 4))
            if comb.evaluate(h) != direct:
                return False, f"expansion of {g.graph6} wrong at {h.graph6}"
    if solve_upper_half(p, 4) != e:
        return False, "upper-half reconstruction differs from the direct build"
    if solve_upper_half(p, 4, extra_unknown=[named_class("K3")]) != e:
        return False, "triangle row recovered from the star differs from the direct build"
    quoted = [
        (named_class("K3"), named_class("K2"), 3),
        (named_class("paw"), named_class("K2"), 4),
        (named_class("K3"), named_class("2K2"), 0),
        (named_class("C4"), named_class("K3"), 0),
    ]
    for row, col, want in quoted:
        if e.entry(p.position(row), p.position(col)) != want:
            return False, f"entry ({class_name(row)},{class_name(col)}) != {want}"
    return True, "121 expansion evaluations + reconstruction + triangle row from the star + 4 quoted entries"


def check_rank_properties():
    """Every degree-pair minor has full rank; block recursion for subset posets;
    degree-(d+1) values recovered from degree d past half degree on E(3..5);
    the degree-sum identity for every member of E(4) with D = 1..3."""
    for n in (3, 4, 5):
        p = build_full_poset(n)
        e = build_mtransform(p)
        degs = p.degrees()
        top = n * (n - 1) // 2
        for delta in range(top + 1):
            for big in range(delta, top + 1):
                m = minor_by_degree(e, degs, delta, big)
                if exact_rank(m) != min(m.rows, m.cols):
                    return False, f"E({n}) minor ({delta},{big}) is rank-deficient"
    for nv in range(1, 7):
        for delta in range(nv + 1):
            for big in range(delta, nv + 1):
                m = subset_inclusion_minor(nv, delta, big)
                if exact_rank(m) != min(m.rows, m.cols):
                    return False, f"subset minor N={nv} ({delta},{big}) rank-deficient"
    for nv in range(1, 7):
        for delta in range(1, nv + 1):
            for big in range(delta, nv + 1):
                if subset_minor_blocks(nv, delta, big) != subset_inclusion_minor(nv, delta, big):
                    return False, f"block recursion fails at N={nv} ({delta},{big})"
    for n in (3, 4, 5):
        if not half_degree_system_check(n)["ok"]:
            return False, f"half-degree recovery fails on E({n})"
    p4 = build_full_poset(4)
    e4 = build_mtransform(p4)
    for g in p4.members:
        for big_d in (1, 2, 3):
            if not degree_sum_identity_check(g, big_d, p4, e4)["holds"]:
                return False, f"degree-sum identity fails for {g.graph6} with D={big_d}"
    return True, ("E(3..5) minors, subset minors N <= 6, block recursion N <= 6, "
                  "half-degree recovery E(3..5), degree-sum identity E(4) x D=1..3")


def check_multiset_values():
    """The two worked invariant values, the multilinear coincidence on 200 random
    cases, and orbit-sum expression round-trips on full grids."""
    s2 = symmetric_group(2)
    if multiset_invariant((1, 2), (1, 2), s2) != 1:
        return False, "I(x1 x2^2)(x1 x2^2) != 1"
    if multiset_invariant((1, 2), (2, 2), s2) != 4:
        return False, "I(x1 x2^2)(x1^2 x2^2) != 4"
    rng = random.Random(52)
    groups = [trivial_group(3), symmetric_group(3), trivial_group(4), symmetric_group(4)]
    for _ in range(200):
        g = rng.choice(groups)
        m = tuple(rng.randint(0, 1) for _ in range(g.n))
        w = tuple(rng.randint(0, 3) for _ in range(g.n))
        if multiset_invariant(m, w, g) != orbit_sum_value(m, w, g):
            return False, f"multilinear coincidence fails for m={m}, w={w}"
    cases = []
    for n in (2, 3):
        for group in (trivial_group(n), symmetric_group(n)):
            poset = build_multiset_poset(group, 2)
            for a in poset.members:
                cases.append((a, poset))
    poset4 = build_multiset_poset(symmetric_group(4), 2)
    for a in poset4.members:
        cases.append((a, poset4))
    for a, poset in cases:
        coeffs = express_orbit_sum(a, poset)
        if not verify_orbit_sum_expression(a, poset, coeffs):
            return False, f"orbit-sum expression fails for a={a}"
    return True, f"two worked values, 200 coincidences, {len(cases)} grid round-trips"


def check_reconstruction():
    """Component-multiplicity recovery equals direct decomposition on random unions."""
    rng = random.Random(9)
    pool = [c for c in build_full_poset(5, 4).connected_members() if c.degree <= 4]
    conn_list = sorted(
        (c for c in build_full_poset(6, 10).connected_members()), key=lambda c: c.sort_key
    )
    for _ in range(100):
        pieces: Counter = Counter()
        cv = deg = 0
        while True:
            cand = rng.choice(pool)
            if cv + cand.cv > 9 or deg + cand.degree > 10:
                break
            pieces[cand] += 1
            cv += cand.cv
            deg += cand.degree
        if not pieces:
            continue
        host = disjoint_union(pieces)
        usable = [c for c in conn_list if c.degree <= host.degree and c.cv <= host.cv]
        recovered = reconstruct_components(host, usable)
        if recovered != pieces:
            return False, f"mismatch for {host.graph6}"
    return True, "100 random unions recovered exactly"


def check_cache_soundness():
    """Cached and freshly built artifacts agree, through the loaders the CLI
    uses, with every member's degree, cv and aut; the transform, which is never
    cached, rebuilt from a loaded poset equals a fresh build; and a damaged
    entry is rebuilt."""

    def records(p):
        return [(m.bits, m.degree, m.cv, m.aut_support) for m in p.members]

    with tempfile.TemporaryDirectory() as tmp:
        e4 = build_full_poset(4)
        cached_poset(tmp, 4)
        (entry,) = Path(tmp).iterdir()
        good = entry.read_bytes()
        entry.write_bytes(good[:-1])
        if records(cached_poset(tmp, 4)) != records(e4) or entry.read_bytes() != good:
            return False, "a truncated poset entry was served or not rewritten"
        e5 = build_full_poset(5)
        for label in ("built", "loaded"):
            p, e = cached_transform(tmp, 5)
            if records(p) != records(e5) or e != build_mtransform(e5):
                return False, f"{label} E(5) poset or the transform built from it differs from a fresh build"
            if cached_ulam_table(tmp, 8, 8) != ulam_difference_table(8, 8):
                return False, f"{label} table differs from a fresh build"
    return True, "poset and table caches round-trip; the transform of a loaded E(5) equals a fresh build; a truncated entry is rebuilt"


CHECKS = [
    ("01", "3-vertex multiplication table, three routes", 1.0, check_table1),
    ("02", "4-vertex first column, three routes", 5.0, check_table2),
    ("03", "printed 11x11 matrix ordering search", 5.0, check_printed_matrix_order),
    ("04", "closed-form power laws", 30.0, check_mnukhin_laws),
    ("05", "squared path product and coloring split", 1.0, check_coloring_refinement),
    ("06", "general product identity", 60.0, check_general_product),
    ("07", "three-way agreement on 66 pairs", 30.0, check_three_way_agreement),
    ("08", "difference table reproduction", 60.0, check_ulam_table),
    ("09", "syzygy and re-derived relations", 5.0, check_relations),
    ("10", "separator facts and minimum search", 60.0, check_separators),
    ("11", "inseparable pairs, signed sums and the F(d) + 1 bound", 5.0, check_inseparable_pairs),
    ("12", "complement machinery", 10.0, check_complement_machinery),
    ("13", "minor ranks, block recursion and recovery identities", 60.0, check_rank_properties),
    ("14", "exponent-vector invariant values", 10.0, check_multiset_values),
    ("15", "component reconstruction", 10.0, check_reconstruction),
    ("16", "cache soundness", 10.0, check_cache_soundness),
]


def run_one(ident: str) -> CheckResult:
    for cid, name, budget, fn in CHECKS:
        if cid == ident:
            t0 = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:  # an honest crash is a failure, not a skip
                ok, detail = False, f"exception: {exc!r}"
            dt = time.perf_counter() - t0
            if ok and dt > budget:
                ok, detail = False, f"exceeded time budget: {dt:.2f}s > {budget:.0f}s"
            return CheckResult(ident, name, ok, dt, budget, detail)
    raise PreconditionError(f"unknown check {ident!r}")


def run_all() -> list[CheckResult]:
    return [run_one(cid) for cid, _name, _budget, _fn in CHECKS]
