"""Exact-arithmetic algebra of basic graph invariants.

Subgraph-type invariant counting, poset transform matrices with closed-form
powers, invariant products by three mutually checking routes, separator and
generator analysis, inseparable-pair construction, and cycle-index
enumeration of unlabeled graphs.

Each job has one production route.  The independent routes kept beside them
are oracles, each checking one production route:

  * `graph._canon_pure`, the sweep over all support relabelings, checks the
    bits and automorphism counts of the pruned search in `canonicalize_bits`;
  * `graph.count_subgraphs_injective`, edge-preserving injections divided by
    the automorphism order, checks `count_subgraphs`;
  * `mtransform._mtransform_by_subsets`, which classifies every edge subset of
    every member, checks the cover recursion in `build_mtransform`;
  * `inverse_mtransform` cross-asserts the closed form `mnukhin_power(-1)`
    against the elimination `unitriangular_inverse` on complete posets;
  * `algebra.product_kocay`, `product_fleischmann` and `product_mtransform`
    compute every product three ways and must agree;
  * `enumeration.pair_cycle_index_bruteforce`, an average over all of S_n,
    checks `pair_group_cycle_index`;
  * `multiset.hasse_derivative_value`, a tiny polynomial calculus, checks
    `multiset_invariant`;
  * `perm.stabilizer_order`, counted on an explicit group, checks
    `graph.stab_order`.
"""

from .errors import CapError, FormatError, PosetError, PreconditionError
from .graph import (
    EMPTY_CLASS,
    IsoClass,
    LabeledGraph,
    canonicalize,
    complement,
    count_subgraphs,
    count_subgraphs_injective,
    disjoint_union,
    connected_component_classes,
    emit_graph6,
    parse_graph6,
)
from .perm import PermGroup, Permutation, close_generators, pair_action, stabilizer_order
from .poset import GPoset, build_full_poset, build_span_poset
from .mtransform import IntMatrix, build_mtransform, exact_rank, mnukhin_power
from .algebra import LinComb, general_product, product_kocay
from .generators import inseparable_pair, is_separator, minimal_separators
from .enumeration import graph_count, pair_group_cycle_index, ulam_difference_table

__all__ = [
    "CapError",
    "FormatError",
    "PosetError",
    "PreconditionError",
    "EMPTY_CLASS",
    "IsoClass",
    "LabeledGraph",
    "canonicalize",
    "complement",
    "count_subgraphs",
    "count_subgraphs_injective",
    "disjoint_union",
    "connected_component_classes",
    "emit_graph6",
    "parse_graph6",
    "PermGroup",
    "Permutation",
    "close_generators",
    "pair_action",
    "stabilizer_order",
    "GPoset",
    "build_full_poset",
    "build_span_poset",
    "IntMatrix",
    "build_mtransform",
    "exact_rank",
    "mnukhin_power",
    "LinComb",
    "general_product",
    "product_kocay",
    "inseparable_pair",
    "is_separator",
    "minimal_separators",
    "graph_count",
    "pair_group_cycle_index",
    "ulam_difference_table",
]
