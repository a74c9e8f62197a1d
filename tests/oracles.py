"""Slow exact reference implementations that tests compare the library against.

The sequential mpmath scans evaluate every value in mpmath, one at a time,
the way the library did before its float64 screens; the naive enumerator
recounts every left subset where the library searches for bad sets; direct
iteration of the p_n recurrence checks char_roots' closed form; the scan
primitives recount N(S), unique neighbours and port sets from the edge list
alone, the way the library did before its lookup tables, and the routed
product and the exact biadjacency matrix are built edge by edge from it; the
depth-first walker enumerates non-backtracking walks edge by edge, the way the
library counted them before its walk recursion, for one set's path count, the
left-to-left path matrix and lemma 9's undirected count; the per-trial audit
loop judges one set at a time, the way the pipeline did before its batched
audit.
"""

import itertools
import math
from collections import Counter

import mpmath as mp
import numpy as np

from expanderlab import nbwalk, params, product
from expanderlab.bigraph import (
    BipartiteMultigraph,
    VertexSet,
    neighbourhood,
    unique_neighbours,
)


def qhat_sequential(c0, alpha, scan_margin=params.DEFAULT_SCAN_MARGIN,
                    precision=params.DEFAULT_PRECISION):
    """(q_hat_by_convention, failures_found, holds calls) of the one-q-at-a-time scan."""
    alpha = params._as_fraction(alpha)
    test = params._threshold_test(c0, alpha, precision)
    calls = 0

    def holds(q):
        nonlocal calls
        calls += 1
        return test(q)

    failures = []
    holds_run = 0
    q = 1
    while True:
        q += 1
        if holds(q):
            holds_run += 1
            if holds_run >= scan_margin:
                break
        else:
            failures.append(q)
            holds_run = 0
    last_fail = failures[-1] if failures else 1
    pp_failures = [f for f in failures if params.is_prime_power(f)]
    last_fail_pp = pp_failures[-1] if pp_failures else 1
    confirmed = 0
    first_hold_pp = None
    q = last_fail_pp + 1
    while confirmed < scan_margin:
        if params.is_prime_power(q):
            assert holds(q), q
            if first_hold_pp is None:
                first_hold_pp = q
            confirmed += 1
        q += 1
    convention = {
        f"{params.ALL_INTEGERS}/{params.LAST_FAIL}": last_fail,
        f"{params.ALL_INTEGERS}/{params.FIRST_HOLD}": last_fail + 1,
        f"{params.PRIME_POWERS}/{params.LAST_FAIL}": last_fail_pp,
        f"{params.PRIME_POWERS}/{params.FIRST_HOLD}": first_hold_pp,
    }
    return convention, len(failures), calls


def _nb_walks(
    g: BipartiteMultigraph, length: int, starts, from_left: bool = True, allowed_left=None
) -> Counter:
    """Tally every non-backtracking walk of `length` steps by (start, last left vertex).

    Depth-first enumeration of edge sequences from each start (on the left
    side when from_left, else the right): consecutive edges share their middle
    vertex, and no edge is traversed twice in a row.  A step into a left vertex
    outside allowed_left (None: any) is not taken.  A walk that never reaches
    the left side tallies -1 as its last left vertex.  It shares no code with
    the library's walk recursion.  No enumeration budget applies.
    """
    left_adj, right_adj = [[] for _ in range(g.n_left)], [[] for _ in range(g.n_right)]
    for eid, (u, v) in enumerate(g.edges):
        left_adj[u].append((eid, v))
        right_adj[v].append((eid, u))
    tally: Counter = Counter()

    def dfs(on_left: bool, vertex: int, last_eid: int, depth: int, start: int, last_left: int):
        if depth == length:
            tally[start, last_left] += 1
            return
        if on_left:
            for eid, v in left_adj[vertex]:
                if eid != last_eid:
                    dfs(False, v, eid, depth + 1, start, last_left)
        else:
            for eid, u in right_adj[vertex]:
                if eid != last_eid and (allowed_left is None or u in allowed_left):
                    dfs(True, u, eid, depth + 1, start, u)

    for start in starts:
        dfs(from_left, start, -1, 0, start, start if from_left else -1)
    return tally


def count_nb_paths_bruteforce(g: BipartiteMultigraph, s: VertexSet, length: int,
                              mode: str = nbwalk.ENDPOINTS_IN_S) -> int:
    """nbwalk.count_nb_paths by depth-first enumeration: paths from a left
    vertex in S whose every left vertex ('all-in-S') or whose last left vertex
    ('endpoints-in-S') lies in S."""
    sset = set(s.members)
    if mode == nbwalk.ALL_IN_S:
        return sum(_nb_walks(g, length, s.members, allowed_left=sset).values())
    walks = _nb_walks(g, length, s.members)
    return sum(n for (_, last_left), n in walks.items() if last_left in sset)


def nb_path_matrix_bruteforce(g: BipartiteMultigraph, length: int):
    """Left-to-left path counts N[end, start] by enumeration (even length)."""
    if length % 2 != 0:
        raise ValueError("left-to-left counts need an even length")
    N = np.zeros((g.n_left, g.n_left), dtype=object)
    for (start, end), n in _nb_walks(g, length, range(g.n_left)).items():
        N[end, start] = n
    return N


def count_nb_paths_undirected(g: BipartiteMultigraph, s: VertexSet, length: int) -> int:
    """Non-backtracking paths counted once per edge sequence (not per direction),
    started anywhere, with every left-side vertex of the path in S.

    Half the depth-first count from both starting sides, which is exact
    because no non-backtracking path is its own reversal.  No enumeration
    budget applies.
    """
    if length == 0:
        raise ValueError("length-0 paths have no orientation to quotient")
    sset = set(s.members)
    count = (sum(_nb_walks(g, length, s.members, allowed_left=sset).values())
             + sum(_nb_walks(g, length, range(g.n_right), False, sset).values()))
    assert count % 2 == 0
    return count // 2


def iterate_recurrence(a, b, x0, x1, n: int) -> complex:
    """x_n of x_n = a x_{n-1} + b x_{n-2} by direct iteration; the oracle for
    the closed form of the p_n recurrence, nbwalk.char_roots."""
    if n == 0:
        return complex(x0)
    prev, cur = complex(x0), complex(x1)
    for _ in range(n - 1):
        prev, cur = cur, a * cur + b * prev
    return cur


def lemma6_sweep_mp(c, d, ell_max, samples, seed, precision=30):
    """lemma6_sweep with every sample's recurrence run in mpmath."""
    lams = nbwalk._band_samples(c, d, samples, seed)
    threshold = nbwalk.ell_min(c, d)
    violations = [0] * (ell_max + 1)
    worst_ratio = [0.0] * (ell_max + 1)
    worst_lam = [0.0] * (ell_max + 1)
    with mp.workdps(precision):
        growth = mp.sqrt((c - 1) * (d - 1))
        lead = 2 + mp.sqrt(d - 1)
        shift = mp.mpf(c - 1 + d - 1)
        scale = mp.mpf((c - 1) * (d - 1))
        for lam in lams:
            x = mp.mpf(lam) ** 2
            p_prev = mp.mpf(c) / (c - 1)
            p_cur = x - c
            gpow = growth
            for ell in range(1, ell_max + 1):
                if ell > 1:
                    p_prev, p_cur = p_cur, (x - shift) * p_cur - scale * p_prev
                    gpow *= growth
                ratio = float(abs(p_cur) / (lead * ell * gpow))
                if ratio > worst_ratio[ell]:
                    worst_ratio[ell] = ratio
                    worst_lam[ell] = lam
                if ratio > 1.0:
                    violations[ell] += 1
    entries = tuple(
        nbwalk.Lemma6Entry(ell=ell, asserted=ell >= threshold, violations=violations[ell],
                           worst_ratio=worst_ratio[ell], worst_lambda=worst_lam[ell])
        for ell in range(1, ell_max + 1)
    )
    return nbwalk.Lemma6Report(c=c, d=d, samples=len(lams), seed=seed, precision=precision,
                               ell_min=threshold, entries=entries, escalations=len(lams))


def _verify_naive(g: BipartiteMultigraph, k: int, budget: int):
    """Reference enumerator: recount neighbour multiplicities for every subset."""
    counts_by_vertex: list[Counter] = [Counter() for _ in range(g.n_left)]
    for u, v in g.edges:
        counts_by_vertex[u][v] += 1
    checked = 0
    for size in range(1, k + 1):
        if math.comb(g.n_left, size) > budget - checked:
            return size - 1, None, checked, True
        for comb in itertools.combinations(range(g.n_left), size):
            checked += 1
            merged: dict[int, int] = {}
            for u in comb:
                for v, mult in counts_by_vertex[u].items():
                    merged[v] = merged.get(v, 0) + mult
            if not any(m == 1 for m in merged.values()):
                return size - 1, comb, checked, False
    return k, None, checked, False


def _edge_counts_scan(g: BipartiteMultigraph, s: VertexSet) -> Counter:
    """Right vertex -> edges into S, counted over the whole edge list."""
    members = set(s.members)
    return Counter(v for u, v in g.edges if u in members)


def neighbourhood_scan(g: BipartiteMultigraph, s: VertexSet) -> VertexSet:
    return VertexSet.right(_edge_counts_scan(g, s).keys())


def unique_neighbours_scan(g: BipartiteMultigraph, s: VertexSet) -> VertexSet:
    return VertexSet.right(v for v, k in _edge_counts_scan(g, s).items() if k == 1)


def port_set_scan(big: BipartiteMultigraph, v: int, s: VertexSet) -> VertexSet:
    """S' = {i : E(v, i) in S} by a scan of the whole edge list: port i of v
    is v's i-th edge in list order."""
    sset = set(s.members)
    ports = [u for u, w in big.edges if w == v]
    return VertexSet.left(i for i, u in enumerate(ports) if u in sset)


def inheritance_check_scan(rp: product.RoutedProduct, s: VertexSet, v: int):
    """product.inheritance_check on the scan primitives above."""
    sprime = port_set_scan(rp.big, v, s)
    if not sprime.members:
        raise ValueError(f"right vertex {v} is not a neighbour of the set")
    uj = unique_neighbours_scan(rp.gadget, sprime)
    counts = _edge_counts_scan(rp.product, s)
    counterexample = None
    for j in uj:
        if counts[rp.product_right_index(v, j)] != 1:
            counterexample = (v, j)
            break
    return product.InheritanceReport(
        v=v,
        ports=sprime.members,
        gadget_unique=uj.members,
        counterexample=counterexample,
        vacuous=len(uj) == 0,
    )


def routed_product_loop(big: BipartiteMultigraph, gadget: BipartiteMultigraph) -> tuple:
    """The routed product's edge tuple, edge by edge: for each right vertex v
    of the big graph and each gadget edge (i, j) in order, the edge
    (E(v, i), v * |R0| + j), with v's ports read from the edge list."""
    edges = []
    for v in range(big.n_right):
        ports = [u for u, w in big.edges if w == v]
        for i, j in gadget.edges:
            edges.append((ports[i], v * gadget.n_right + j))
    return tuple(edges)


def biadjacency(g: BipartiteMultigraph) -> np.ndarray:
    """B[u, v] = multiplicity of the edge (u, v), as Python integers (object
    dtype), so products of B are exact at any size."""
    B = np.zeros((g.n_left, g.n_right), dtype=object)
    for u, v in g.edges:
        B[u, v] += 1
    return B


def audit_loop(rp: product.RoutedProduct, verified_k: int, sets) -> dict:
    """product.audit_sets one left set at a time: v is the first vertex of the
    big graph's N(S) with 1 to verified_k ports in S, then one inheritance
    check at v and a unique-neighbour scan of the product."""
    audit = {"trials": 0, "conclusive": 0, "inconclusive": 0, "failures": 0}
    for s in sets:
        audit["trials"] += 1
        chosen = None
        for v in neighbourhood(rp.big, s):
            if 1 <= len(product.port_set(rp.big, v, s)) <= verified_k:
                chosen = v
                break
        if chosen is None:
            audit["inconclusive"] += 1
            continue
        audit["conclusive"] += 1
        check = product.inheritance_check(rp, s, chosen)
        direct = unique_neighbours(rp.product, s)
        if check.vacuous or not check.ok or len(direct) == 0:
            audit["failures"] += 1
    return audit
