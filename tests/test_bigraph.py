import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expanderlab.bigraph import (
    BipartiteMultigraph,
    VertexSet,
    GraphFormatError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    TruncatedFileError,
    _edge_counts_into,
    dumps_graph,
    edge_counts_by_row,
    loads_graph,
    neighbour_tables,
    neighbourhood,
    random_left_sets,
    read_graph,
    unique_neighbours,
    write_graph,
)
from expanderlab.gadget import sample_biregular

from graphs import (
    SMALL_BIREGULAR_PARAMS,
    c4,
    complete_bipartite,
    double_edge,
    k32,
    random_multigraph,
)
from oracles import neighbourhood_scan, unique_neighbours_scan


def test_degrees_c4():
    g = c4()
    assert (g.left_degrees, g.right_degrees) == ((2, 2), (2, 2))


def test_degrees_k32():
    g = k32()
    assert g.left_degrees == (2, 2, 2)
    assert g.right_degrees == (3, 3)


def test_degrees_double_edge_counts_multiplicity():
    g = double_edge()
    assert g.left_degrees == (2,)
    assert g.right_degrees == (2,)


def test_neighbourhood_c4_singleton():
    assert neighbourhood(c4(), VertexSet.left([0])).members == (0, 1)


def test_neighbourhood_empty_set():
    assert neighbourhood(c4(), VertexSet.left([])).members == ()


def test_neighbourhood_k32_pair():
    assert neighbourhood(k32(), VertexSet.left([0, 1])).members == (0, 1)


def test_neighbourhood_side_mismatch():
    with pytest.raises(ValueError):
        neighbourhood(c4(), VertexSet.right([0]))


def test_unique_neighbours_c4():
    g = c4()
    assert unique_neighbours(g, VertexSet.left([0])).members == (0, 1)
    # every right vertex covered twice
    assert unique_neighbours(g, VertexSet.left([0, 1])).members == ()


def test_unique_neighbours_multiplicity_rule():
    # a double edge covers its endpoint twice, so it is not a unique neighbour
    assert unique_neighbours(double_edge(), VertexSet.left([0])).members == ()


def test_vertex_set_normalizes():
    s = VertexSet.left([3, 1, 1, 2])
    assert s.members == (1, 2, 3)
    assert len(s) == 3
    assert 2 in s


def test_vertex_set_keeps_a_normal_tuple_and_normalises_the_rest():
    members = (0, 4, 9)
    assert VertexSet.left(members).members is members
    assert VertexSet.left((np.int64(9), True, 4)).members == (1, 4, 9)
    assert all(type(m) is int for m in VertexSet.left((np.int64(9), True)).members)
    with pytest.raises(ValueError, match="nonnegative"):
        VertexSet.left((-1, 2))


def test_neighbourhood_and_unique_neighbours_match_the_scan_oracles():
    rng = np.random.default_rng(17)
    seen = {"parallel edge": 0, "isolated vertex": 0, "empty set": 0}
    for _ in range(300):
        g = random_multigraph(rng)
        seen["parallel edge"] += len(set(g.edges)) < len(g.edges)
        seen["isolated vertex"] += 0 in g.left_degrees or 0 in g.right_degrees
        sets = [rng.choice(g.n_left, size=int(rng.integers(0, g.n_left + 1)), replace=False)
                for _ in range(6)]
        for members in sets:
            s = VertexSet.left(members)
            seen["empty set"] += len(s) == 0
            assert neighbourhood(g, s) == neighbourhood_scan(g, s)
            assert unique_neighbours(g, s) == unique_neighbours_scan(g, s)
    assert all(seen.values()), seen


def test_vertex_set_bad_side():
    with pytest.raises(ValueError):
        VertexSet("middle", (0,))


def test_edge_range_validation():
    with pytest.raises(ValueError):
        BipartiteMultigraph(2, 2, ((0, 2),))
    with pytest.raises(ValueError):
        BipartiteMultigraph(2, 2, ((2, 0),))


def test_indexed_ports_follow_file_order():
    g = BipartiteMultigraph(3, 1, ((2, 0), (0, 0), (1, 0)))
    assert g.right_ports[0] == (2, 0, 1)


def test_biregularity_detection():
    assert c4().biregularity() == (2, 2)
    assert k32().biregularity() == (2, 3)
    assert BipartiteMultigraph(2, 2, ((0, 0), (0, 1), (1, 0))).biregularity() is None


# -- file format -------------------------------------------------------------


def test_round_trip_c4(tmp_path):
    path = tmp_path / "c4.bg"
    write_graph(c4(), path)
    assert read_graph(path) == c4()


def test_round_trip_preserves_edge_order(tmp_path):
    g = BipartiteMultigraph(3, 2, ((2, 1), (0, 0), (0, 0), (1, 1)))
    path = tmp_path / "g.bg"
    write_graph(g, path)
    back = read_graph(path)
    assert back.edges == g.edges
    assert back == g


def test_empty_graph_round_trip():
    text = "BIGRAPH v1\nnl=0 nr=0\n"
    g = loads_graph(text)
    assert (g.n_left, g.n_right, g.edges) == (0, 0, ())
    assert dumps_graph(g) == text


def test_exact_file_bytes():
    assert dumps_graph(c4()) == "BIGRAPH v1\nnl=2 nr=2\n0 0\n0 1\n1 0\n1 1\n"


def test_parse_error_bad_magic():
    with pytest.raises(MalformedHeaderError):
        loads_graph("BIGRAPH v2\nnl=1 nr=1\n")


def test_parse_error_bad_header_fields():
    with pytest.raises(MalformedHeaderError):
        loads_graph("BIGRAPH v1\nnl=1 nr=x\n")
    with pytest.raises(MalformedHeaderError):
        loads_graph("BIGRAPH v1\nn=1 nr=1\n")


def test_parse_error_truncated():
    with pytest.raises(TruncatedFileError):
        loads_graph("BIGRAPH v1\n")
    with pytest.raises(TruncatedFileError):
        loads_graph("")


def test_parse_error_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        loads_graph("BIGRAPH v1\nnl=2 nr=2\n2 0\n")


def test_parse_error_bad_edge_line():
    with pytest.raises(GraphFormatError):
        loads_graph("BIGRAPH v1\nnl=2 nr=2\n0\n")
    with pytest.raises(GraphFormatError):
        loads_graph("BIGRAPH v1\nnl=2 nr=2\n0 1 2\n")


@pytest.mark.parametrize("text", [
    "BIGRAPH v1\nnl=2 nr=1\n0 0\n1 \u00b2\n",
    "BIGRAPH v1\nnl=2 nr=1\n0 0\n1 \u0660\n",
    "BIGRAPH v1\nnl=\u00b2 nr=1\n",
], ids=["superscript-edge", "arabic-indic-edge", "superscript-header"])
def test_only_ascii_digits_are_numbers(text):
    # str.isdigit accepts these; int() refuses the superscript and reads the
    # Arabic-Indic zero as 0, which would load the edge (1, 0)
    with pytest.raises(GraphFormatError):
        loads_graph(text)


# -- invariants on random biregular graphs -----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    pidx=st.integers(min_value=0, max_value=len(SMALL_BIREGULAR_PARAMS) - 1),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    data=st.data(),
)
def test_neighbourhood_invariants(pidx, seed, data):
    L, R, c, d = SMALL_BIREGULAR_PARAMS[pidx]
    g = sample_biregular(L, R, c, d, seed=seed)
    members = data.draw(st.sets(st.integers(min_value=0, max_value=L - 1)))
    s = VertexSet.left(members)

    nbhd = neighbourhood(g, s)
    uniq = unique_neighbours(g, s)
    assert set(uniq.members) <= set(nbhd.members)
    assert len(nbhd) <= c * len(s)

    # every outgoing edge lands in N(S): counts sum to c|S|
    counts = {}
    for u in s:
        for v in g.left_ports[u]:
            counts[v] = counts.get(v, 0) + 1
    assert sum(counts.values()) == c * len(s)
    assert set(counts) == set(nbhd.members)

    # the counting argument: expansion beyond c|S|/2 forces a unique neighbour
    if 2 * len(nbhd) > c * len(s) and len(s) > 0:
        assert len(uniq) > 0


@settings(max_examples=30, deadline=None)
@given(
    pidx=st.integers(min_value=0, max_value=len(SMALL_BIREGULAR_PARAMS) - 1),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_write_read_identity(tmp_path_factory, pidx, seed):
    L, R, c, d = SMALL_BIREGULAR_PARAMS[pidx]
    g = sample_biregular(L, R, c, d, seed=seed)
    path = tmp_path_factory.mktemp("io") / "g.bg"
    write_graph(g, path)
    assert read_graph(path) == g


def test_counting_identity_complete_bipartite():
    g = complete_bipartite(4, 2)  # (2, 4)-biregular
    s = VertexSet.left([0, 2])
    total = sum(len(g.left_ports[u]) for u in s)
    assert total == 2 * len(s)  # c|S| with c = 2


@settings(max_examples=80, deadline=None)
@given(
    n_left=st.integers(min_value=1, max_value=6),
    n_right=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_edge_counts_by_row_match_edge_counts_into(n_left, n_right, data):
    # multigraphs with isolated vertices and uneven degrees, so table rows are
    # padded; sets of uneven sizes (the empty one too), each row padded with
    # n_left
    edges = data.draw(st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)),
                               max_size=14))
    g = BipartiteMultigraph(n_left, n_right, tuple(edges))
    sets = data.draw(st.lists(st.sets(st.integers(0, n_left - 1)), min_size=1, max_size=6))
    members = np.full((len(sets), max(map(len, sets)) + 1), n_left, dtype=np.intp)
    for row, s in enumerate(sets):
        members[row, :len(s)] = sorted(s)
    (left, _), _ = neighbour_tables(g)
    rows, vertices, counts = edge_counts_by_row(left, members)
    for row, s in enumerate(sets):
        mine = rows == row
        assert list(vertices[mine]) == sorted(vertices[mine])
        assert dict(zip(vertices[mine].tolist(), counts[mine].tolist())) == \
            _edge_counts_into(g, VertexSet.left(s))


@st.composite
def multigraph_edges(draw):
    """(n_left, n_right, edges): either side may be empty, and vertices may be
    isolated or joined by parallel edges."""
    n_left, n_right = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if n_left == 0 or n_right == 0:
        return n_left, n_right, []
    edge = st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1))
    return n_left, n_right, draw(st.lists(edge, max_size=14))


@settings(max_examples=100, deadline=None)
@given(graph=multigraph_edges())
def test_port_lists_and_degrees_match_an_edge_list_scan(graph):
    n_left, n_right, edges = graph
    g = BipartiteMultigraph(n_left, n_right, tuple(edges))
    assert g.left_ports == tuple(tuple(v for x, v in edges if x == u) for u in range(n_left))
    assert g.right_ports == tuple(tuple(u for u, x in edges if x == v) for v in range(n_right))
    assert g.left_degrees == tuple(sum(x == u for x, _ in edges) for u in range(n_left))
    assert g.right_degrees == tuple(sum(x == v for _, x in edges) for v in range(n_right))


def _connected_by_union_find(g: BipartiteMultigraph) -> bool:
    parent = list(range(g.n_left + g.n_right))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[root(u)] = root(g.n_left + v)
    return len({root(x) for x in range(len(parent))}) <= 1


@settings(max_examples=150, deadline=None)
@given(graph=multigraph_edges(), split=st.integers(0, 5))
@example(graph=(0, 0, []), split=0)
@example(graph=(0, 2, []), split=0)
@example(graph=(2, 1, [(0, 0)]), split=0)  # an isolated left vertex
@example(graph=(1, 1, [(0, 0), (0, 0)]), split=1)  # a double edge, then two copies of it
def test_is_connected_matches_union_find(graph, split):
    # a second graph on the vertices after the first's makes two components
    n_left, n_right, edges = graph
    g = BipartiteMultigraph(n_left, n_right, tuple(edges))
    assert g.is_connected() == _connected_by_union_find(g)
    twice = BipartiteMultigraph(2 * n_left, 2 * n_right, tuple(
        edges + [(u + n_left, v + n_right) for u, v in edges[:split]]))
    assert twice.is_connected() == _connected_by_union_find(twice)


def test_edge_counts_by_row_of_no_rows():
    # a block where no set is conclusive leaves nothing to count in the product
    (left, _), _ = neighbour_tables(double_edge())
    for width in (1, 3):
        counts = edge_counts_by_row(left, np.empty((0, width), dtype=np.intp))
        assert [a.shape for a in counts] == [(0,), (0,), (0,)]


def test_random_left_sets_are_uniform():
    # size uniform in 1..6, then each of the C(6, size) sets equally likely:
    # chi-square over all 63 nonempty subsets of 6 vertices, against 102.17,
    # the 0.999 quantile of chi-square with 62 degrees of freedom
    n, draws = 6, 63_000
    members = random_left_sets(np.random.Generator(np.random.Philox(1)), n, n, draws)
    assert members.shape == (draws, n)
    masks = np.where(members < n, 1 << np.minimum(members, n), 0).sum(axis=1)
    observed = np.bincount(masks, minlength=2 ** n)
    assert observed[0] == 0
    expected = np.array([draws / n / math.comb(n, bin(m).count("1")) for m in range(1, 2 ** n)])
    assert ((observed[1:] - expected) ** 2 / expected).sum() < 102.17


def test_random_left_sets_rows_are_sorted_sets_padded_with_n_left():
    members = random_left_sets(np.random.Generator(np.random.Philox(3)), 10, 4, 500)
    assert members.shape == (500, 4)
    for row in members:
        real = row[row < 10]
        assert (row[len(real):] == 10).all()
        assert 1 <= len(real) <= 4 and (np.diff(real) > 0).all()


def test_random_left_sets_clip_sizes_at_n_left():
    members = random_left_sets(np.random.Generator(np.random.Philox(0)), 3, 5, 300)
    assert members.shape == (300, 3)
    sizes = (members < 3).sum(axis=1)
    assert set(sizes.tolist()) == {1, 2, 3}
    assert (members[sizes == 3] == [0, 1, 2]).all()


def test_random_left_sets_repeat_for_a_seed():
    draws = [random_left_sets(np.random.Generator(np.random.Philox(7)), 40, 5, 2000).tobytes()
             for _ in range(2)]
    assert draws[0] == draws[1]
    other = random_left_sets(np.random.Generator(np.random.Philox(8)), 40, 5, 2000)
    assert other.tobytes() != draws[0]
