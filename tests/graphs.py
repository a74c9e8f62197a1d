"""Named graphs and parameter grids shared across the test suite."""

import functools
import importlib.util
from pathlib import Path

import numpy as np

from expanderlab.bigraph import BipartiteMultigraph
from expanderlab.spectral import RegularGraph


def c4() -> BipartiteMultigraph:
    """4-cycle as a (2,2)-biregular graph on 2+2 vertices."""
    return BipartiteMultigraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))


def cycle(n: int) -> BipartiteMultigraph:
    """2n-cycle as a (2,2)-biregular graph on n+n vertices."""
    return BipartiteMultigraph(n, n, tuple(e for i in range(n) for e in ((i, i), (i, (i + 1) % n))))


def complete_bipartite(a: int, b: int) -> BipartiteMultigraph:
    return BipartiteMultigraph(a, b, tuple((i, j) for i in range(a) for j in range(b)))


def k32() -> BipartiteMultigraph:
    return complete_bipartite(3, 2)


def k21() -> BipartiteMultigraph:
    return BipartiteMultigraph(2, 1, ((0, 0), (1, 0)))


def k31() -> BipartiteMultigraph:
    return BipartiteMultigraph(3, 1, ((0, 0), (1, 0), (2, 0)))


def double_edge() -> BipartiteMultigraph:
    return BipartiteMultigraph(1, 1, ((0, 0), (0, 0)))


def single_edge() -> BipartiteMultigraph:
    return BipartiteMultigraph(1, 1, ((0, 0),))


def hub(n: int) -> BipartiteMultigraph:
    """Left vertex 0 joined to all n right vertices, left vertex i to right i-1:
    2n edges, but n^2 - n empty cells in a left table padded to degree n."""
    edges = [(0, v) for v in range(n)] + [(i, i - 1) for i in range(1, n + 1)]
    return BipartiteMultigraph(n + 1, n, tuple(edges))


def relabelled_complete_incidence(n: int, seed: int) -> BipartiteMultigraph:
    """K_n's edge-vertex incidence graph as perfbench relabels it with numpy's
    default_rng(seed): vertices relabelled, edges reordered and each edge
    oriented at random, which changes every port E(v, i).  Built by perfbench's
    own function, so the tests cover the benchmark's graphs."""
    n_left, n_right, edges = perfbench_workloads()._complete_graph_incidence(
        n, np.random.default_rng(seed))
    return BipartiteMultigraph(n_left, n_right, tuple(edges))


@functools.cache
def perfbench_workloads():
    """perfbench/workloads.py, loaded from its file (perfbench is no package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def swap_left_endpoints(g: BipartiteMultigraph, a: int, b: int) -> BipartiteMultigraph:
    """g with the left endpoints of edges a and b exchanged: the same degrees,
    and another graph when both endpoints of the two edges differ."""
    edges = list(g.edges)
    (ua, va), (ub, vb) = edges[a], edges[b]
    edges[a], edges[b] = (ub, va), (ua, vb)
    return BipartiteMultigraph(g.n_left, g.n_right, tuple(edges))


def triangle() -> RegularGraph:
    return RegularGraph(3, 2, ((0, 1), (1, 2), (2, 0)))


def k4() -> RegularGraph:
    return RegularGraph(4, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def complete_graph(n: int) -> RegularGraph:
    return RegularGraph(n, n - 1, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def digon() -> RegularGraph:
    """Two vertices joined by a double edge: the connected 2-regular multigraph
    with a parallel edge."""
    return RegularGraph(2, 2, ((0, 1), (0, 1)))


def petersen() -> RegularGraph:
    return RegularGraph(10, 3, (
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ))


# (L, R, c, d) quadruples with L*c == R*d, n_left <= 8
SMALL_BIREGULAR_PARAMS = [
    (4, 2, 1, 2),
    (4, 4, 2, 2),
    (6, 3, 2, 4),
    (8, 4, 2, 4),
    (6, 4, 2, 3),
    (8, 6, 3, 4),
    (6, 2, 2, 6),
    (5, 5, 2, 2),
    (8, 2, 1, 4),
    (6, 6, 3, 3),
]

# subsets with 2 <= c (polynomial identity needs left regularity >= 2)
POLY_BIREGULAR_PARAMS = [p for p in SMALL_BIREGULAR_PARAMS if p[2] >= 2]

# gadget-shaped params: L > R, L <= 10
GADGET_PARAMS = [
    (6, 3, 2, 4),
    (8, 4, 2, 4),
    (10, 5, 2, 4),
    (6, 4, 2, 3),
    (8, 6, 3, 4),
    (9, 3, 2, 6),
    (10, 4, 2, 5),
    (10, 8, 4, 5),
    (6, 2, 1, 3),
    (10, 2, 1, 5),
]


def random_multigraph(rng, max_side: int = 7, max_edges: int = 30) -> BipartiteMultigraph:
    """A bipartite multigraph with parallel edges and, often, isolated vertices.

    Edges join random members of a random subset of each side, and a random
    share of them is repeated, so a right vertex can hold one left vertex at
    several ports.
    """
    n_left, n_right = (int(x) for x in rng.integers(1, max_side + 1, size=2))
    lefts = rng.choice(n_left, size=int(rng.integers(1, n_left + 1)), replace=False)
    rights = rng.choice(n_right, size=int(rng.integers(1, n_right + 1)), replace=False)
    edges = [(int(rng.choice(lefts)), int(rng.choice(rights)))
             for _ in range(int(rng.integers(0, max_edges + 1)))]
    edges += [edges[int(i)] for i in rng.integers(0, len(edges), size=len(edges) // 3)]
    order = rng.permutation(len(edges))
    return BipartiteMultigraph(n_left, n_right, tuple(edges[int(i)] for i in order))
