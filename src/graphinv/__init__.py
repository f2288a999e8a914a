"""Exact-arithmetic algebra of basic graph invariants.

Subgraph-type invariant counting, poset transform matrices with closed-form
powers, invariant products by three mutually checking routes, separator and
generator analysis, inseparable-pair construction, and cycle-index
enumeration of unlabeled graphs.

The import surface is `graphinv.<module>`; the package re-exports nothing, so
importing one layer (or starting the CLI) loads only the layers it uses.

Each job has one production route, run by the CLI or by `selftest`.  The
independent routes kept beside them are oracles, each checking one production
route.  Each oracle below is named with its module and each route by name
alone; a test guards that every other public function has a caller:

  * `graph._canon_pure`, the sweep over all support relabelings, checks the
    bits and automorphism counts of the pruned search in `canonicalize_bits`;
  * `graph.count_subgraphs_injective`, edge-preserving injections divided by
    the automorphism order, checks `count_subgraphs`;
  * `graph._vertex_invariant`, the sorted vertex triples read from scratch,
    checks the child fingerprints that the poset build derives from each
    parent's triples;
  * `mtransform._mtransform_by_subsets`, which classifies every edge subset of
    every member, checks the cover recursion in `build_mtransform`;
  * `mtransform.unitriangular_inverse`, elimination by forward substitution,
    checks the closed form `mnukhin_power(-1)` and the inverse S E S that
    `inverse_mtransform` builds from E's rows by the same sign rule and
    serves to `invert` once an exact packed check proves E = exp(N), N the
    one-degree block of E, so that E^-1 = S E S, and
    `solve_transform`, the one solve of a square transform system, graph or
    multiset, which proves E c = v exactly on its answer;
  * `algebra.product_kocay`, `product_fleischmann` and `product_mtransform`
    compute every product three ways and must agree: covering pairs, their
    coloring orbits, and a `solve_transform` on the block E(n, |a| + |b|);
  * `enumeration.pair_cycle_index_bruteforce`, an average over all of S_n,
    checks `pair_group_cycle_index`;
  * `multiset.hasse_derivative_value`, a tiny polynomial calculus, checks
    `multiset_invariant`;
  * `perm.stabilizer_order`, counted on an explicit group, checks
    `stab_order`;
  * `perm.pair_group`, S_n acting on the vertex-pair slots: the multiset
    transform over it checks `build_mtransform` on `E(n)`;
  * `multiset.literal_binomial_product_coeffs`, with its helper
    `multiset.binomial_transform_coeffs`: the coordinate-wise products of
    binomial transforms check `express_orbit_sum` over the trivial group.
"""
