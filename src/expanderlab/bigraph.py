"""Immutable bipartite multigraphs with indexed edge access and text-file I/O.

Vertices on each side are dense 0-based integers.  Multi-edges are allowed
(and matter: unique neighbours are defined by incident *edge* count), while
self-loops cannot occur since every edge joins a left vertex to a right
vertex.  Graphs are frozen after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class GraphFormatError(ValueError):
    """Base class for problems with the on-disk graph formats."""


class MalformedHeaderError(GraphFormatError):
    """Magic line or header fields do not match the expected format."""


class TruncatedFileError(GraphFormatError):
    """File ends before the header is complete."""


class IndexOutOfRangeError(GraphFormatError):
    """An edge endpoint falls outside the declared vertex ranges."""


class EnumerationBudgetError(ValueError):
    """An enumeration, walk length, neighbour table or scan would exceed its fixed budget."""


LEFT = "left"
RIGHT = "right"

# neighbour-table cells with no edge, n * Delta - |E| per side (0 if biregular)
MAX_TABLE_PADDING = 2 ** 22


def _is_normalised(members: tuple) -> bool:
    """True when members are plain ints, nonnegative and strictly increasing.

    Such a tuple is already a VertexSet's normal form, and checking costs a
    fraction of re-sorting it (the pipeline audit passes the sorted rows of
    random_left_sets).
    """
    prev = -1
    for m in members:
        if type(m) is not int or m <= prev:
            return False
        prev = m
    return True


@dataclass(frozen=True)
class VertexSet:
    """A duplicate-free, sorted set of vertex indices on one side of a bipartition."""

    side: str
    members: tuple[int, ...]

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {self.side!r}")
        if type(self.members) is tuple and _is_normalised(self.members):
            return
        norm = tuple(sorted(set(int(m) for m in self.members)))
        if norm and norm[0] < 0:
            raise ValueError("vertex indices must be nonnegative")
        object.__setattr__(self, "members", norm)

    @classmethod
    def left(cls, members) -> "VertexSet":
        return cls(LEFT, tuple(members))

    @classmethod
    def right(cls, members) -> "VertexSet":
        return cls(RIGHT, tuple(members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v) -> bool:
        return v in self.members


@dataclass(frozen=True)
class BipartiteMultigraph:
    """Bipartite multigraph stored as an ordered edge list.

    The edge order is significant: for each right vertex v the i-th incident
    edge (in list order) defines the indexed neighbour map E(v, i) used by the
    routed product.
    """

    n_left: int
    n_right: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("side sizes must be nonnegative")
        norm = tuple((int(u), int(v)) for u, v in self.edges)
        for u, v in norm:
            if not (0 <= u < self.n_left):
                raise ValueError(f"left endpoint {u} out of range [0, {self.n_left})")
            if not (0 <= v < self.n_right):
                raise ValueError(f"right endpoint {v} out of range [0, {self.n_right})")
        object.__setattr__(self, "edges", norm)

    # -- derived views (computed once; the graph is immutable) --

    @cached_property
    def _ports(self) -> tuple:
        left: list[list[int]] = [[] for _ in range(self.n_left)]
        right: list[list[int]] = [[] for _ in range(self.n_right)]
        for u, v in self.edges:
            left[u].append(v)
            right[v].append(u)
        return tuple(map(tuple, left)), tuple(map(tuple, right))

    @property
    def left_ports(self) -> tuple[tuple[int, ...], ...]:
        """For each left vertex u, its right neighbours in edge order (repeated
        for a multi-edge)."""
        return self._ports[0]

    @property
    def right_ports(self) -> tuple[tuple[int, ...], ...]:
        """For each right vertex v, the ordered left endpoints E(v, 0), E(v, 1), ..."""
        return self._ports[1]

    @property
    def left_degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.left_ports))

    @property
    def right_degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.right_ports))

    def biregularity(self) -> tuple[int, int] | None:
        """(c, d) when every left degree is c and every right degree is d, else None."""
        if self.n_left == 0 or self.n_right == 0:
            return None
        cs = set(self.left_degrees)
        ds = set(self.right_degrees)
        if len(cs) == 1 and len(ds) == 1:
            return cs.pop(), ds.pop()
        return None

    def require_biregular(self) -> tuple[int, int]:
        bireg = self.biregularity()
        if bireg is None:
            raise ValueError("graph is not biregular")
        return bireg

    def is_connected(self) -> bool:
        """True when the underlying bipartite graph is connected (ignoring multiplicity).

        Vertices are numbered left first: right vertex v is n_left + v.
        """
        n = self.n_left + self.n_right
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            w = stack.pop()
            if w < self.n_left:
                neighbours = [self.n_left + v for v in self.left_ports[w]]
            else:
                neighbours = self.right_ports[w - self.n_left]
            for x in neighbours:
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
        return all(seen)


def _require_left(s: VertexSet, n_left: int):
    if s.side != LEFT:
        raise ValueError("vertex set must live on the left side")
    if s.members and s.members[-1] >= n_left:
        raise ValueError(f"vertex {s.members[-1]} out of range for left side of size {n_left}")


def _edge_counts_into(g: BipartiteMultigraph, s: VertexSet) -> dict[int, int]:
    """Right vertex -> number of edges into S, for each right vertex of N(S)."""
    counts: dict[int, int] = {}
    ports = g.left_ports
    for u in s.members:
        for v in ports[u]:
            counts[v] = counts.get(v, 0) + 1
    return counts


def neighbour_tables(g: BipartiteMultigraph) -> tuple:
    """(left, right): per side, deg[u] the degree of u and row u of table its
    neighbours with multiplicity, padded with the other side's size (the index
    of a walk count's zero row); a last row holds only that index, so a vertex
    list padded with this side's size gathers no neighbour.  Both the walk
    recursion (nbwalk) and the audit's edge counts (edge_counts_by_row) read
    these tables.  Raises EnumerationBudgetError when a side's padding
    exceeds MAX_TABLE_PADDING."""
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    tables = []
    for side, (n, n_other) in enumerate(((g.n_left, g.n_right), (g.n_right, g.n_left))):
        heads, tails = edges[:, side], edges[:, 1 - side]
        order = np.argsort(heads, kind="stable")
        deg = np.bincount(heads, minlength=n)
        width = max(int(deg.max(initial=0)), 1)
        if n * width - len(heads) > MAX_TABLE_PADDING:
            raise EnumerationBudgetError(f"neighbour table padding exceeds {MAX_TABLE_PADDING}")
        slot = np.arange(len(heads)) - (np.cumsum(deg) - deg)[heads[order]]
        table = np.full((n + 1, width), n_other, dtype=np.intp)
        table[heads[order], slot] = tails[order]
        tables.append((table, deg))
    return tuple(tables)


def random_left_sets(rng, n_left: int, max_size: int, count: int) -> np.ndarray:
    """`count` random left sets, one per row: each size uniform in
    1..min(max_size, n_left), then each set of that size equally likely.

    Floyd's algorithm, vectorised over rows: step i of a row of size s draws
    t uniformly from 0..j with j = n_left - s + i, and adds t, or j when t is
    already in the row.  Rows are sorted and padded with n_left, the index of
    a neighbour table's last row (which holds no neighbour).
    """
    top = min(max_size, n_left)
    sizes = rng.integers(1, top + 1, size=count)
    members = np.full((count, top), n_left, dtype=np.intp)
    for i in range(top):
        rows = np.flatnonzero(sizes > i)
        j = n_left - sizes[rows] + i
        t = rng.integers(0, j + 1)
        taken = (members[rows, :i] == t[:, None]).any(axis=1)
        members[rows, i] = np.where(taken, j, t)
    members.sort(axis=1)
    return members


def edge_counts_by_row(table: np.ndarray, members: np.ndarray) -> tuple:
    """_edge_counts_into for every row of `members` at once.

    table is one side's table from neighbour_tables, members a 2-d array of
    that side's vertices, padded with the table's last row.  Returns the
    arrays (rows, vertices, counts), ordered by row and then by vertex: row
    rows[i]'s set has counts[i] edges into vertices[i], one entry for each
    vertex of its neighbourhood.
    """
    pad = int(table[-1, 0])
    keys = table[members].reshape(len(members), members.shape[1] * table.shape[1])
    keys.sort(axis=1)
    keys += (pad + 1) * np.arange(len(members))[:, None]
    keys = keys.ravel()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=keys.size)
    rows, vertices = np.divmod(keys[starts], pad + 1)
    real = vertices != pad
    return rows[real], vertices[real], counts[real]


def neighbourhood(g: BipartiteMultigraph, s: VertexSet) -> VertexSet:
    """N(S): right vertices adjacent to at least one member of S."""
    _require_left(s, g.n_left)
    return VertexSet.right(sorted(_edge_counts_into(g, s)))


def unique_neighbours(g: BipartiteMultigraph, s: VertexSet) -> VertexSet:
    """Right vertices with exactly one incident edge into S.

    Edge multiplicities count: a right vertex joined to a single u in S by a
    double edge is *not* a unique neighbour.
    """
    _require_left(s, g.n_left)
    counts = _edge_counts_into(g, s)
    return VertexSet.right(sorted([v for v, k in counts.items() if k == 1]))


# -- BIGRAPH v1 file format -------------------------------------------------
#
# Line 1: "BIGRAPH v1"
# Line 2: "nl=<int> nr=<int>"
# Then one "u v" pair per line (ASCII decimal, single space, LF endings).
# Repeated lines encode multi-edges; line order defines E(v, i).

_BIGRAPH_MAGIC = "BIGRAPH v1"


def _read_ascii(path) -> str:
    """A graph file's text; a byte outside ASCII is a GraphFormatError."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"byte {exc.start} is not ASCII") from exc


def _loads_edge_list(text: str, magic: str, keys: tuple[str, str]):
    """(a, b, edges) from the magic line, a "<key0>=a <key1>=b" header line and
    one "u v" line per edge.  Each format checks its own edge ranges."""
    if not text.isascii():  # str.isdigit alone accepts '²' and other scripts' digits
        raise GraphFormatError("graph text is not ASCII")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise TruncatedFileError("file ends before the two header lines")
    if lines[0] != magic:
        raise MalformedHeaderError(f"expected {magic!r}, got {lines[0]!r}")
    parts = lines[1].split(" ")
    if len(parts) != 2:
        raise MalformedHeaderError(f"expected '{keys[0]}=<int> {keys[1]}=<int>', got {lines[1]!r}")
    header = []
    for part, key in zip(parts, keys):
        prefix = key + "="
        if not part.startswith(prefix) or not part[len(prefix):].isdigit():
            raise MalformedHeaderError(f"bad header field {part!r} (expected {prefix}<int>)")
        header.append(int(part[len(prefix):]))
    edges = []
    for number, line in enumerate(lines[2:], start=3):
        parts = line.split(" ")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise GraphFormatError(f"line {number}: bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return header[0], header[1], edges


def loads_graph(text: str) -> BipartiteMultigraph:
    nl, nr, edges = _loads_edge_list(text, _BIGRAPH_MAGIC, ("nl", "nr"))
    for u, v in edges:
        if u >= nl or v >= nr:
            raise IndexOutOfRangeError(f"edge ({u}, {v}) outside ranges nl={nl}, nr={nr}")
    return BipartiteMultigraph(nl, nr, tuple(edges))


def dumps_graph(g: BipartiteMultigraph) -> str:
    lines = [_BIGRAPH_MAGIC, f"nl={g.n_left} nr={g.n_right}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_graph(path) -> BipartiteMultigraph:
    """Read a BIGRAPH v1 file.  Raises the distinct parse errors above."""
    return loads_graph(_read_ascii(path))


def write_graph(g: BipartiteMultigraph, path) -> None:
    """Write bit-exact BIGRAPH v1 (LF endings); read_graph(write_graph(g)) == g."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_graph(g))
