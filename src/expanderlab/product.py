"""The routed product of a big biregular graph with a fixed-size gadget.

One gadget copy is planted per right vertex v of the big graph: the gadget's
left side indexes v's ports (so the gadget must have exactly d left
vertices), and v is replaced by the gadget's right side.  Product edges are

    E' = {(E(v,i), (v,j)) : v in R, (i,j) gadget edge}

with the product right vertex (v,j) stored at index v*|R0| + j, which makes
file output bit-exact across runs.  Unique neighbours are inherited: if the
port set of v in S has a unique neighbour j in the gadget, then (v,j) is a
unique neighbour of S in the product.  The pipeline's audit (audit) draws
random left sets and checks that route for a whole block of them at once in
numpy (audit_sets).  port_set and inheritance_check check it for one set; they
are the per-set oracle the block check is tested against, kept for the tests,
the acceptance harness and the benchmark's traced layers (perfbench/tracing.py).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from expanderlab.bigraph import (
    BipartiteMultigraph,
    VertexSet,
    _require_left,
    edge_counts_by_row,
    neighbour_tables,
    random_left_sets,
    unique_neighbours,
)
from expanderlab.report import Report

# audit trials drawn and counted at once, so memory stays bounded for any
# number of trials
AUDIT_BLOCK = 1024


@dataclass(frozen=True)
class RoutedProduct:
    big: BipartiteMultigraph
    gadget: BipartiteMultigraph
    product: BipartiteMultigraph
    c: int
    d: int
    c0: int
    d0: int

    @property
    def r0(self) -> int:
        return self.gadget.n_right

    def product_right_index(self, v: int, j: int) -> int:
        return v * self.r0 + j


def routed_product(big: BipartiteMultigraph, gadget: BipartiteMultigraph) -> RoutedProduct:
    """Route every edge of the big graph through the gadget.

    The resulting graph is (c*c0, d0)-biregular with left side L(big) and
    right side R(big) x R(gadget).
    """
    c, d = big.require_biregular()
    c0, d0 = gadget.require_biregular()
    if gadget.n_left != d:
        raise ValueError(
            f"port-count mismatch: gadget has {gadget.n_left} left vertices, "
            f"big graph right-regularity is {d}"
        )
    r0 = gadget.n_right
    # row v holds v's block: one edge per gadget edge (i, j), in gadget order
    gadget_i, gadget_j = np.array(gadget.edges, dtype=np.intp).reshape(-1, 2).T
    lefts = np.array(big.right_ports, dtype=np.intp)[:, gadget_i]
    rights = r0 * np.arange(big.n_right)[:, None] + gadget_j
    edges = tuple(zip(lefts.ravel().tolist(), rights.ravel().tolist()))
    product = BipartiteMultigraph(big.n_left, big.n_right * r0, edges)
    return RoutedProduct(big=big, gadget=gadget, product=product, c=c, d=d, c0=c0, d0=d0)


def port_set(big: BipartiteMultigraph, v: int, s: VertexSet) -> VertexSet:
    """S' = {i : E(v,i) in S}, as left vertices of the gadget indexing v's ports.

    Part of the per-set oracle for audit_sets (see inheritance_check).
    """
    _require_left(s, big.n_left)
    if not 0 <= v < big.n_right:
        raise ValueError(f"right vertex {v} out of range")
    sset = set(s.members)
    return VertexSet.left([i for i, u in enumerate(big.right_ports[v]) if u in sset])


@dataclass(frozen=True)
class InheritanceReport(Report):
    derived = ("ok",)

    v: int
    ports: tuple[int, ...]
    gadget_unique: tuple[int, ...]
    counterexample: tuple[int, int] | None
    vacuous: bool

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def inheritance_check(rp: RoutedProduct, s: VertexSet, v: int) -> InheritanceReport:
    """Check unique-neighbour inheritance at right vertex v of the big graph.

    For every unique neighbour j of the port set S' in the gadget, (v,j) must
    be a unique neighbour of S in the product.  A counterexample would falsify
    the inheritance lemma; vacuous means S' had no unique neighbour to test.

    This is the per-set oracle for audit_sets, which runs the same check on a
    whole block of sets in numpy; the tests and the acceptance harness call
    it, and perfbench/tracing.py times it.
    """
    sprime = port_set(rp.big, v, s)
    if not sprime.members:
        raise ValueError(f"right vertex {v} is not a neighbour of the set")
    uj = unique_neighbours(rp.gadget, sprime)
    sset = set(s.members)
    product_ports = rp.product.right_ports
    counterexample = None
    for j in uj.members:
        incident = [u for u in product_ports[rp.product_right_index(v, j)] if u in sset]
        if len(incident) != 1:
            counterexample = (v, j)
            break
    return InheritanceReport(
        v=v,
        ports=sprime.members,
        gadget_unique=uj.members,
        counterexample=counterexample,
        vacuous=len(uj) == 0,
    )


def audit_sets(rp: RoutedProduct, verified_k: int, blocks) -> dict:
    """Audit the left sets in the rows of each array in `blocks` (rows padded
    with n_left, as random_left_sets makes them) through the inheritance route.

    A set's chosen v is the smallest right vertex of the big graph with 1 to
    verified_k edges (ports) into S; a set without one is inconclusive.  A
    conclusive set fails when its port set S' at v has no unique neighbour in
    the gadget (vacuous), when some gadget unique neighbour j of S' leaves
    (v, j) with other than one edge into S in the product (a counterexample to
    inheritance), or when S has no unique neighbour in the product.

    Each block is checked whole in numpy, with memory independent of the
    graph's size: S' is a (sets x d) mask from comparing each set's members
    with v's ports, the gadget counts are S' times the gadget's d x r0
    edge-multiplicity matrix, and the edge counts into both graphs come from
    one gather over the padded neighbour tables (edge_counts_by_row).
    port_set and inheritance_check are the same check one set at a time.
    """
    # routed_product requires a biregular big graph, so no row of its right
    # table is padded, and a padded member (n_left) matches none of v's ports
    (big_table, _), (big_ports, _) = neighbour_tables(rp.big)
    (product_table, _), _ = neighbour_tables(rp.product)
    r0 = rp.r0
    gadget_i, gadget_j = np.array(rp.gadget.edges, dtype=np.intp).reshape(-1, 2).T
    multiplicity = np.zeros((rp.gadget.n_left, r0), dtype=np.intp)
    np.add.at(multiplicity, (gadget_i, gadget_j), 1)
    totals = dict.fromkeys(("trials", "conclusive", "inconclusive", "failures"), 0)
    for members in blocks:
        rows, vertices, counts = edge_counts_by_row(big_table, members)
        fits = counts <= verified_k
        conclusive, first = np.unique(rows[fits], return_index=True)
        chosen = vertices[fits][first]
        sets = members[conclusive]
        ports = (big_ports[chosen][:, None, :] == sets[:, :, None]).any(axis=1)
        gadget_unique = ports @ multiplicity == 1
        rows, vertices, counts = edge_counts_by_row(product_table, sets)
        direct = np.zeros(len(sets), dtype=bool)
        direct[rows[counts == 1]] = True
        # the product counts at (v, j), for the chosen v of each set
        at_v = vertices // r0 == chosen[rows]
        routed = np.zeros((len(sets), r0), dtype=np.intp)
        routed[rows[at_v], vertices[at_v] % r0] = counts[at_v]
        inherited = ~(gadget_unique & (routed != 1)).any(axis=1)
        passed = gadget_unique.any(axis=1) & inherited & direct
        totals["trials"] += len(members)
        totals["conclusive"] += len(sets)
        totals["inconclusive"] += len(members) - len(sets)
        totals["failures"] += len(sets) - int(passed.sum())
    return totals


def audit(rp: RoutedProduct, verified_k: int, trials: int, rng) -> dict:
    """audit_sets on `trials` random left sets of 1 to verified_k vertices
    (random_left_sets), drawn AUDIT_BLOCK at a time."""
    return audit_sets(rp, verified_k, (
        random_left_sets(rng, rp.big.n_left, verified_k, min(AUDIT_BLOCK, trials - start))
        for start in range(0, trials, AUDIT_BLOCK)))


def per_vertex_isomorphism_check(rp: RoutedProduct) -> bool:
    """Each right-vertex block of the product, relabelled through the port map,
    must reproduce the gadget's edge multiset exactly."""
    r0 = rp.r0
    blocks: list[Counter] = [Counter() for _ in range(rp.big.n_right)]
    for u, w in rp.product.edges:
        blocks[w // r0][(u, w % r0)] += 1
    for v in range(rp.big.n_right):
        pv = rp.big.right_ports[v]
        expected = Counter((pv[i], j) for i, j in rp.gadget.edges)
        if blocks[v] != expected:
            return False
    return True


def export_parity_check(g: BipartiteMultigraph, path) -> None:
    """Write the biadjacency as sparse triplets '<row> <col> <mult>'.

    Rows are right vertices (checks), columns left vertices (variables);
    multiplicities preserve the Tanner-code semantics of repeated edges.
    """
    counts: Counter = Counter()
    for u, v in g.edges:
        counts[(v, u)] += 1
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for (row, col) in sorted(counts):
            fh.write(f"{row} {col} {counts[(row, col)]}\n")
