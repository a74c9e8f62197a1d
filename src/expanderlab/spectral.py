"""Singular spectrum of the biadjacency operator and bipartite-Ramanujan certification.

A connected (c,d)-biregular graph has top singular value sqrt(cd); it is
bipartite Ramanujan when every other singular value sigma satisfies
sigma = 0 or sqrt(d-1) - sqrt(c-1) <= sigma <= sqrt(d-1) + sqrt(c-1),
the spectrum of the infinite (c,d)-biregular tree.  Also builds edge-vertex
incidence graphs of regular graphs, which are (2,d)-biregular and inherit
Ramanujan-ness from the base graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from expanderlab.bigraph import (
    BipartiteMultigraph,
    GraphFormatError,
    IndexOutOfRangeError,
    _loads_edge_list,
    _read_ascii,
)
from expanderlab.report import Report

# Dense symmetric eigensolver contract: absolute eigenvalue error <= 1e-9 is
# comfortably met by LAPACK dsyevd at these sizes; larger inputs are rejected.
MAX_DENSE_DIM = 2000

DEFAULT_TOLERANCE = 1e-6

TRIVIAL = "trivial"
ZERO = "zero"
IN_BAND = "nontrivial-in-band"
VIOLATION = "violation"


@dataclass(frozen=True)
class RegularGraph:
    """d-regular multigraph without self-loops, stored as an unordered edge list."""

    n: int
    d: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = []
        deg = [0] * self.n
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range [0, {self.n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.append((u, v))
            deg[u] += 1
            deg[v] += 1
        if any(x != self.d for x in deg):
            raise ValueError(f"graph is not {self.d}-regular (degrees {sorted(set(deg))})")
        object.__setattr__(self, "edges", tuple(norm))


@dataclass(frozen=True)
class SpectrumReport(Report):
    c: int
    d: int
    singular_values: tuple[float, ...]
    classifications: tuple[str, ...]
    trivial_multiplicity: int
    ramanujan: bool
    tolerance: float
    band: tuple[float, float]


def ramanujan_band(c: int, d: int) -> tuple[float, float]:
    return (math.sqrt(d - 1) - math.sqrt(c - 1), math.sqrt(d - 1) + math.sqrt(c - 1))


def gram(ports, n: int) -> np.ndarray:
    """The n x n Gram matrix of one side's equal-length port lists, as float64.

    Entry (x, y) counts the pairs of ports (i, j) of one vertex's list p with
    p[i] = x and p[j] = y, so gram(g.right_ports, g.n_left) is B B^T
    and gram(g.left_ports, g.n_right) is B^T B, B the biadjacency matrix.
    The matrix is one unbuffered add of 1.0 at each vertex's port pairs:
    small integers, exact in float64.  It is the one n^2 array (no
    biadjacency, no int64 copy), and the index arrays are freed on return,
    before any eigensolve.
    """
    ports = np.array(ports, dtype=np.intp)
    pairs = (ports[:, :, None] * n + ports[:, None, :]).ravel()
    counts = np.zeros(n ** 2)
    np.add.at(counts, pairs, 1.0)
    return counts.reshape(n, n)


def spectrum(g: BipartiteMultigraph, tolerance: float = DEFAULT_TOLERANCE) -> SpectrumReport:
    """Singular values of the biadjacency matrix, classified against the tree spectrum.

    The n_left singular values are the square roots of the eigenvalues of
    B B^T (gram).  Requires a connected biregular input: the trivial/nontrivial split
    presumes the top singular value sqrt(cd) has multiplicity one.
    """
    c, d = g.require_biregular()
    if max(g.n_left, g.n_right) > MAX_DENSE_DIM:
        raise ValueError(f"graph too large for the dense eigensolver contract ({MAX_DENSE_DIM})")
    if not g.is_connected():
        raise ValueError("graph is disconnected; trivial multiplicity would exceed 1")
    eigs = np.linalg.eigvalsh(gram(g.right_ports, g.n_left))
    sigmas = np.sqrt(np.clip(eigs, 0.0, None))[::-1]

    top = math.sqrt(c * d)
    lo, hi = ramanujan_band(c, d)
    classifications = []
    for s in sigmas:
        if abs(s - top) <= tolerance:
            classifications.append(TRIVIAL)
        elif s <= tolerance:
            classifications.append(ZERO)
        elif lo - tolerance <= s <= hi + tolerance:
            classifications.append(IN_BAND)
        else:
            classifications.append(VIOLATION)

    return SpectrumReport(
        c=c,
        d=d,
        singular_values=tuple(float(s) for s in sigmas),
        classifications=tuple(classifications),
        trivial_multiplicity=classifications.count(TRIVIAL),
        ramanujan=VIOLATION not in classifications,
        tolerance=tolerance,
        band=(lo, hi),
    )


def incidence_graph(g: RegularGraph) -> BipartiteMultigraph:
    """Edge-vertex incidence graph: left = edges of g (degree 2), right = vertices (degree d)."""
    if g.d < 2:
        raise ValueError("need d >= 2 (d = 1 gives a degenerate Ramanujan band)")
    edges = []
    for e_idx, (u, v) in enumerate(g.edges):
        edges.append((e_idx, u))
        edges.append((e_idx, v))
    return BipartiteMultigraph(len(g.edges), g.n, tuple(edges))


@dataclass(frozen=True)
class IncidenceIdentityReport(Report):
    derived = ("ok",)

    d: int
    mismatched_entries: int

    @property
    def ok(self) -> bool:
        return self.mismatched_entries == 0


def incidence_identity_check(g: RegularGraph) -> IncidenceIdentityReport:
    """Count the entries where B^T B (B the incidence graph's biadjacency) differs
    from d I + A, A counting each edge of g: the integer identity that makes the
    incidence graph's nonzero squared singular values d + spec(A), checked exactly."""
    inc = incidence_graph(g)
    expected = g.d * np.eye(g.n, dtype=np.int64)
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    np.add.at(expected, (u, v), 1)
    np.add.at(expected, (v, u), 1)
    mismatched = np.count_nonzero(gram(inc.left_ports, inc.n_right) != expected)
    return IncidenceIdentityReport(d=g.d, mismatched_entries=int(mismatched))


# -- GRAPH v1 file format (regular graphs) ----------------------------------
#
# Line 1: "GRAPH v1"; line 2: "n=<int> d=<int>"; then one "u v" line per edge.

_GRAPH_MAGIC = "GRAPH v1"


def loads_regular_graph(text: str) -> RegularGraph:
    n, d, edges = _loads_edge_list(text, _GRAPH_MAGIC, ("n", "d"))
    for u, v in edges:
        if u >= n or v >= n:
            raise IndexOutOfRangeError(f"edge ({u}, {v}) outside range n={n}")
    try:
        return RegularGraph(n, d, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def dumps_regular_graph(g: RegularGraph) -> str:
    lines = [_GRAPH_MAGIC, f"n={g.n} d={g.d}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_regular_graph(path) -> RegularGraph:
    return loads_regular_graph(_read_ascii(path))


def write_regular_graph(g: RegularGraph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_regular_graph(g))
