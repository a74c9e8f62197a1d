import math

import numpy as np
import pytest

from expanderlab.bigraph import BipartiteMultigraph, MalformedHeaderError
from expanderlab.gadget import sample_biregular
from expanderlab.spectral import (
    RegularGraph,
    dumps_regular_graph,
    incidence_graph,
    incidence_spectrum_identity_check,
    loads_regular_graph,
    read_regular_graph,
    spectrum,
    write_regular_graph,
)

from graphs import SMALL_BIREGULAR_PARAMS, cycle, k32, k4, petersen, triangle


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
        B = sample_biregular(L, R, c, d, seed=idx).biadjacency().astype(float)
        left = np.sort(np.linalg.eigvalsh(B @ B.T))
        right = np.sort(np.linalg.eigvalsh(B.T @ B))
        nz_left = sorted(x for x in left if x > 1e-8)
        nz_right = sorted(x for x in right if x > 1e-8)
        assert len(nz_left) == len(nz_right)
        assert np.allclose(nz_left, nz_right, atol=1e-8)


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


def test_incidence_identity_k4():
    rep = incidence_spectrum_identity_check(k4())
    assert rep.max_residual < 1e-8
    assert {round(x, 6) for x in rep.squared_singular_values} == {6.0, 2.0}


def test_incidence_identity_petersen():
    rep = incidence_spectrum_identity_check(petersen())
    assert rep.max_residual < 1e-8
    assert {round(x, 6) for x in rep.squared_singular_values} == {6.0, 4.0, 1.0}


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
