import math
import tracemalloc

import numpy as np
import pytest

from expanderlab.bigraph import BipartiteMultigraph, GraphFormatError, MalformedHeaderError
from expanderlab.gadget import sample_biregular
from expanderlab import spectral
from expanderlab.spectral import (
    RegularGraph,
    dumps_regular_graph,
    gram,
    incidence_graph,
    incidence_identity_check,
    loads_regular_graph,
    read_regular_graph,
    spectrum,
    write_regular_graph,
)

from graphs import (
    SMALL_BIREGULAR_PARAMS,
    complete_bipartite,
    complete_graph,
    cycle,
    digon,
    k32,
    k4,
    petersen,
    relabelled_complete_incidence,
    triangle,
)
from oracles import biadjacency


def test_spectrum_k32():
    rep = spectrum(k32())
    assert (rep.c, rep.d) == (2, 3)
    assert rep.singular_values == pytest.approx((math.sqrt(6), 0.0, 0.0), abs=1e-9)
    assert rep.classifications == ("trivial", "zero", "zero")
    assert rep.trivial_multiplicity == 1
    assert rep.ramanujan


def test_spectrum_c6():
    rep = spectrum(cycle(3))
    assert rep.singular_values == pytest.approx((2.0, 1.0, 1.0), abs=1e-9)
    assert rep.band == (0.0, 2.0)
    assert rep.ramanujan


def test_spectrum_c8():
    rep = spectrum(cycle(4))
    assert rep.singular_values == pytest.approx(
        (2.0, math.sqrt(2), math.sqrt(2), 0.0), abs=1e-9
    )
    assert rep.ramanujan


def test_spectrum_trivial_value_accuracy():
    for g in (k32(), cycle(3), cycle(5), incidence_graph(petersen())):
        rep = spectrum(g)
        assert abs(rep.singular_values[0] - math.sqrt(rep.c * rep.d)) < 1e-9


def test_spectrum_rejects_disconnected():
    two_c4 = BipartiteMultigraph(
        4, 4, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    )
    with pytest.raises(ValueError, match="disconnected"):
        spectrum(two_c4)


def test_spectrum_rejects_non_biregular():
    g = BipartiteMultigraph(2, 2, ((0, 0), (0, 1), (1, 0)))
    with pytest.raises(ValueError, match="biregular"):
        spectrum(g)


def test_spectrum_rejects_oversized():
    with pytest.raises(ValueError, match="too large"):
        spectrum(BipartiteMultigraph(2001, 2001, ()))


def test_zero_count_from_side_imbalance():
    rep = spectrum(k32())
    zeros = sum(1 for s in rep.singular_values if s <= rep.tolerance)
    assert zeros >= k32().n_left - k32().n_right


def test_tolerance_monotonicity():
    for g in (k32(), cycle(4), incidence_graph(k4())):
        tight = spectrum(g, tolerance=1e-6)
        loose = spectrum(g, tolerance=1e-2)
        if tight.ramanujan:
            assert loose.ramanujan


def test_mmt_and_mtm_nonzero_spectra_agree():
    for idx, (L, R, c, d) in enumerate(SMALL_BIREGULAR_PARAMS):
        B = biadjacency(sample_biregular(L, R, c, d, seed=idx)).astype(float)
        left = np.sort(np.linalg.eigvalsh(B @ B.T))
        right = np.sort(np.linalg.eigvalsh(B.T @ B))
        nz_left = sorted(x for x in left if x > 1e-8)
        nz_right = sorted(x for x in right if x > 1e-8)
        assert len(nz_left) == len(nz_right)
        assert np.allclose(nz_left, nz_right, atol=1e-8)


# -- the Gram matrix against B @ B.T ------------------------------------------

# K63 relabellings whose zero singular values cross the 1e-6 tolerance
K63_FALSE_VERDICTS = (3, 10, 11, 14, 17)


def _assert_spectrum_is_the_matmul_eigensolve(g):
    """The right side's gram equals B @ B.T entry for entry, and spectrum's
    singular values are bit-identical to those from eigvalsh(B @ B.T)."""
    B = biadjacency(g).astype(float)
    product = B @ B.T
    G = gram(g.right_ports, g.n_left)
    assert G.dtype == product.dtype and G.flags.c_contiguous
    assert np.array_equal(G, product)
    sigmas = np.sqrt(np.clip(np.linalg.eigvalsh(product), 0.0, None))[::-1]
    report = spectrum(g)
    assert np.array(report.singular_values).tobytes() == sigmas.tobytes()
    return report


def test_spectrum_is_the_matmul_eigensolve_on_k41_and_sampled_multigraphs():
    graphs = [relabelled_complete_incidence(41, seed) for seed in range(20)]
    sampled = [sample_biregular(L, R, c, d, seed=seed)
               for L, R, c, d in ((12, 8, 2, 3), (10, 10, 3, 3), (20, 10, 2, 4))
               for seed in range(6)]
    sampled = [g for g in sampled if g.is_connected()]
    assert any(len(set(g.edges)) < len(g.edges) for g in sampled)  # multi-edges
    smaller_left = [complete_bipartite(2, 3), sample_biregular(6, 9, 3, 2, seed=1)]
    assert all(g.n_left < g.n_right for g in smaller_left)
    for g in graphs + sampled + smaller_left:
        _assert_spectrum_is_the_matmul_eigensolve(g)


def test_spectrum_is_the_matmul_eigensolve_on_k63():
    # the Gram on every relabelling 0-19; the eigensolve (0.4 s each on K63)
    # on the lexicographic labelling and on the relabellings whose verdict is
    # wrong, which stays wrong: the Gram's eigenvalues are the matmul's
    for seed in range(20):
        g = relabelled_complete_incidence(63, seed)
        B = biadjacency(g).astype(float)
        assert np.array_equal(gram(g.right_ports, g.n_left), B @ B.T)
    assert _assert_spectrum_is_the_matmul_eigensolve(incidence_graph(complete_graph(63))).ramanujan
    for seed in K63_FALSE_VERDICTS:
        report = _assert_spectrum_is_the_matmul_eigensolve(relabelled_complete_incidence(63, seed))
        assert not report.ramanujan


def test_gram_of_each_side_is_the_exact_product():
    # biregular multigraphs with n_left != n_right on both sides of the
    # imbalance, configuration-model draws among them (parallel edges)
    graphs = [sample_biregular(L, R, c, d, seed=seed)
              for L, R, c, d in ((12, 8, 2, 3), (20, 10, 2, 4), (6, 9, 3, 2), (4, 2, 1, 2))
              for seed in range(8)]
    graphs.append(complete_bipartite(2, 5))
    assert all(g.n_left != g.n_right for g in graphs)
    assert any(len(set(g.edges)) < len(g.edges) for g in graphs)
    for g in graphs:
        B = biadjacency(g)
        assert np.array_equal(gram(g.right_ports, g.n_left), (B @ B.T).astype(float))
        assert np.array_equal(gram(g.left_ports, g.n_right), (B.T @ B).astype(float))


def _degree_plus_adjacency(g):
    """d I + A as Python integers, A counting each edge of g once per copy."""
    M = [[g.d if x == y else 0 for y in range(g.n)] for x in range(g.n)]
    for u, v in g.edges:
        M[u][v] += 1
        M[v][u] += 1
    return np.array(M)


@pytest.mark.parametrize("base", [k4(), petersen(), digon()], ids=["k4", "petersen", "digon"])
def test_incidence_right_gram_is_degree_plus_adjacency(base):
    # B^T B = d I + A entry for entry, the integer identity under the
    # incidence graph's squared singular values
    inc = incidence_graph(base)
    expected = _degree_plus_adjacency(base)
    assert np.array_equal(gram(inc.left_ports, inc.n_right), expected)
    report = incidence_identity_check(base)
    assert (report.d, report.mismatched_entries, report.ok) == (base.d, 0, True)


def test_incidence_identity_counts_the_double_edge():
    # the digon's A has a 2 off the diagonal; counting each pair of vertices
    # once would miss it
    assert _degree_plus_adjacency(digon()).tolist() == [[2, 2], [2, 2]]
    assert incidence_identity_check(digon()).ok


def test_incidence_identity_reports_a_rewired_edge(monkeypatch):
    # moving K4's edge-0 port from vertex 1 to vertex 2 changes B^T B at
    # (1, 1), (2, 2), (0, 1), (1, 0), (0, 2) and (2, 0)
    def rewired(g):
        inc = incidence_graph(g)
        assert inc.edges[1] == (0, 1)
        edges = list(inc.edges)
        edges[1] = (0, 2)
        return BipartiteMultigraph(inc.n_left, inc.n_right, tuple(edges))

    monkeypatch.setattr(spectral, "incidence_graph", rewired)
    report = incidence_identity_check(k4())
    assert report.mismatched_entries == 6
    assert report.to_dict() == {"d": 3, "mismatched_entries": 6, "ok": False}


def test_spectrum_memory_peak_stays_near_the_gram():
    # the float64 Gram is the one n_left^2 array: an int64 bincount cast to
    # float would double the peak
    g = incidence_graph(complete_graph(63))
    tracemalloc.start()
    try:
        spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * g.n_left ** 2 * 8


# -- incidence graphs ---------------------------------------------------------


def test_incidence_triangle_is_c6():
    inc = incidence_graph(triangle())
    assert (inc.n_left, inc.n_right) == (3, 3)
    assert inc.biregularity() == (2, 2)
    assert spectrum(inc).singular_values == pytest.approx(
        spectrum(cycle(3)).singular_values, abs=1e-9
    )


def test_incidence_petersen_counts():
    inc = incidence_graph(petersen())
    assert (inc.n_left, inc.n_right) == (15, 10)
    assert inc.biregularity() == (2, 3)


def test_incidence_petersen_spectrum_in_band():
    rep = spectrum(incidence_graph(petersen()))
    assert rep.ramanujan
    nontrivial = {round(s, 6) for s, cls in zip(rep.singular_values, rep.classifications)
                  if cls == "nontrivial-in-band"}
    assert nontrivial == {2.0, 1.0}


def _nonzero_squared_singular_values(g):
    return {round(s * s, 6) for s in spectrum(incidence_graph(g)).singular_values if s > 1e-3}


def test_incidence_identity_k4():
    # spec(A) = {3, -1}: the identity puts sigma^2 at d + spec(A) = {6, 2}
    assert incidence_identity_check(k4()).mismatched_entries == 0
    assert _nonzero_squared_singular_values(k4()) == {6.0, 2.0}


def test_incidence_identity_petersen():
    # spec(A) = {3, 1, -2}
    assert incidence_identity_check(petersen()).mismatched_entries == 0
    assert _nonzero_squared_singular_values(petersen()) == {6.0, 4.0, 1.0}


def test_incidence_rejects_degree_one():
    g = RegularGraph(2, 1, ((0, 1),))
    with pytest.raises(ValueError, match="d >= 2"):
        incidence_graph(g)


def test_regular_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        RegularGraph(2, 2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="regular"):
        RegularGraph(3, 2, ((0, 1), (1, 2)))


# -- GRAPH v1 format ----------------------------------------------------------


def test_regular_graph_round_trip(tmp_path):
    path = tmp_path / "petersen.g"
    write_regular_graph(petersen(), path)
    assert read_regular_graph(path) == petersen()


def test_regular_graph_format_bytes():
    assert dumps_regular_graph(triangle()) == "GRAPH v1\nn=3 d=2\n0 1\n1 2\n2 0\n"


def test_regular_graph_bad_magic():
    with pytest.raises(MalformedHeaderError):
        loads_regular_graph("BIGRAPH v1\nn=3 d=2\n")


def test_regular_graph_non_ascii_digit():
    with pytest.raises(GraphFormatError):
        loads_regular_graph("GRAPH v1\nn=3 d=2\n0 1\n1 2\n2 \u00b2\n")
