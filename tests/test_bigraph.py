import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expanderlab.bigraph import (
    BipartiteMultigraph,
    VertexSet,
    GraphFormatError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    TruncatedFileError,
    dumps_graph,
    loads_graph,
    neighbourhood,
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
        for v, mult in g.left_neighbour_counts[u].items():
            counts[v] = counts.get(v, 0) + mult
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
    total = sum(sum(g.left_neighbour_counts[u].values()) for u in s)
    assert total == 2 * len(s)  # c|S| with c = 2
