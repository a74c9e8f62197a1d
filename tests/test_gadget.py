from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from expanderlab.bigraph import VertexSet, unique_neighbours
from expanderlab.bigraph import BipartiteMultigraph
from expanderlab.gadget import (
    GadgetParams,
    lemma7_k_bound,
    lemma7_series_report,
    repeats_probability_bound,
    sample_biregular,
    verify_unique_neighbour_upto,
)

from graphs import (
    GADGET_PARAMS,
    SMALL_BIREGULAR_PARAMS,
    complete_bipartite,
    cycle,
    double_edge,
    k21,
    k31,
    k32,
    single_edge,
)
from oracles import _verify_naive


# -- the probabilistic-method size bound ---------------------------------------


def test_k_bound_rhs_below_one_gives_zero():
    # R/(3ec) <= 1 forces the right side below 1, so no k >= 1 qualifies
    assert lemma7_k_bound(10, 5, 4) == 0


def test_k_bound_example_zero():
    assert lemma7_k_bound(1000, 200, 6) == 0


def test_k_bound_first_nontrivial():
    # hand-checked desk-scale instance where exactly k = 1 is certified
    assert lemma7_k_bound(13200, 11000, 5) == 1


def test_k_bound_requires_c_above_three():
    with pytest.raises(ValueError):
        lemma7_k_bound(100, 50, 3)


def test_k_bound_monotonic_in_R():
    base = lemma7_k_bound(13200, 11000, 5)
    # growing R (fixing L, c) can only help
    assert lemma7_k_bound(13200, 12000, 5) >= base
    # growing L (fixing R, c) can only hurt
    assert lemma7_k_bound(20000, 11000, 5) <= base


def test_k_bound_accepts_fraction_R():
    q, alpha, c0 = 18908, Fraction(2), 10
    L = q ** 3 + 1
    R = Fraction(L) / (alpha * (q + 1))
    # just above the threshold the certified size reaches q + 1
    assert lemma7_k_bound(L, R, c0) >= q + 1


@pytest.mark.parametrize("c0, alpha, q_hat", [(35, Fraction(2), 1492),
                                              (100, Fraction(101, 100), 1135)])
def test_k_bound_agrees_with_qhat_at_table_boundary(c0, alpha, q_hat):
    # lemma 7 at L = q^3+1, R = L/(alpha(q+1)) reaches k = q+1 from q_hat on
    for q, certified in ((q_hat - 1, False), (q_hat, True)):
        L = q ** 3 + 1
        R = Fraction(L) / (alpha * (q + 1))
        assert (lemma7_k_bound(L, R, c0) >= q + 1) is certified


# -- sampling -------------------------------------------------------------------


def test_sample_unique_matching():
    assert sample_biregular(2, 1, 1, 2).edges == k21().edges


def test_sample_deterministic():
    assert sample_biregular(12, 8, 4, 6, seed=77) == sample_biregular(12, 8, 4, 6, seed=77)


def test_sample_seed_changes_output():
    a = sample_biregular(12, 8, 4, 6, seed=0)
    b = sample_biregular(12, 8, 4, 6, seed=1)
    assert a != b


def test_sample_biregular_degree_audit():
    for seed in range(100):
        g = sample_biregular(12, 8, 4, 6, seed=seed)
        assert set(g.left_degrees) == {4}
        assert set(g.right_degrees) == {6}


def test_params_validation():
    with pytest.raises(ValueError):
        GadgetParams(L=4, R=4, c=2, d=2)  # L must exceed R
    with pytest.raises(ValueError):
        GadgetParams(L=4, R=2, c=2, d=3)  # slot mismatch
    with pytest.raises(ValueError):
        sample_biregular(4, 2, 2, 3)


# -- the bad-set search -------------------------------------------------------------


def _agrees_with_oracle(g, k):
    cert = verify_unique_neighbour_upto(g, k)
    verified_k, witness, _, _ = _verify_naive(g, min(k, g.n_left), 10 ** 8)
    return (cert.verified_k, cert.witness) == (verified_k, witness)


def test_verify_k31():
    cert = verify_unique_neighbour_upto(k31(), 2)
    assert cert.verified_k == 1
    assert cert.witness == (0, 1)
    assert len(cert.witness) == cert.verified_k + 1


def test_verify_c6_gadget():
    cert = verify_unique_neighbour_upto(cycle(3), 3)
    assert cert.verified_k == 2
    assert cert.witness == (0, 1, 2)


def test_verify_vacuous():
    cert = verify_unique_neighbour_upto(k31(), 0)
    assert cert.verified_k == 0
    assert cert.witness is None
    assert not cert.budget_exhausted


def test_verify_budget_exhaustion():
    g = sample_biregular(8, 4, 2, 4, seed=0)
    # budget covers the 8 singletons but not the 28 pairs
    cert = verify_unique_neighbour_upto(g, 3, budget=8)
    assert cert.budget_exhausted
    assert cert.verified_k == 1
    assert cert.witness is None
    assert cert.subsets_checked == 8


def test_verify_budget_zero_and_negative():
    g = sample_biregular(8, 4, 2, 4, seed=0)
    cert = verify_unique_neighbour_upto(g, 3, budget=0)
    assert cert.budget_exhausted and cert.verified_k == 0 and cert.subsets_checked == 0
    # the search stops when its node count equals the budget, which a
    # negative budget never does: it would switch the cap off
    with pytest.raises(ValueError, match="budget"):
        verify_unique_neighbour_upto(g, 3, budget=-1)


def test_verify_double_edge():
    # a right vertex reached by two parallel edges is not a unique neighbour
    cert = verify_unique_neighbour_upto(double_edge(), 1)
    assert cert.verified_k == 0
    assert cert.witness == (0,)


def test_verify_private_neighbours_to_fourteen():
    # each left vertex owns right vertex u and shares right vertex 14 with all
    g = BipartiteMultigraph(14, 15, tuple(e for u in range(14) for e in ((u, u), (u, 14))))
    cert = verify_unique_neighbour_upto(g, 14)
    assert cert.verified_k == 14 and cert.witness is None
    assert not cert.budget_exhausted
    assert _agrees_with_oracle(g, 14)


def test_witness_is_lexicographically_smallest():
    # the search meets bad set (0, 2, 3, 4) before (0, 1, 2, 4) here
    g = sample_biregular(6, 6, 3, 3, seed=13)
    cert = verify_unique_neighbour_upto(g, 6)
    assert cert.witness == (0, 1, 2, 4)
    assert _agrees_with_oracle(g, 6)


def test_verify_budget_counts_search_nodes():
    g = sample_biregular(10, 5, 2, 4, seed=3)
    full = verify_unique_neighbour_upto(g, 10)
    exact = verify_unique_neighbour_upto(g, 10, budget=full.subsets_checked)
    assert exact == full and not exact.budget_exhausted
    short = verify_unique_neighbour_upto(g, 10, budget=full.subsets_checked - 1)
    assert short.budget_exhausted and short.witness is None
    assert short.subsets_checked == full.subsets_checked - 1
    assert short.verified_k == full.verified_k


def test_witness_has_no_unique_neighbour():
    for idx, (L, R, c, d) in enumerate(GADGET_PARAMS):
        g = sample_biregular(L, R, c, d, seed=idx)
        cert = verify_unique_neighbour_upto(g, min(L, 6))
        if cert.witness is not None:
            assert len(unique_neighbours(g, VertexSet.left(cert.witness))) == 0
            # everything strictly below the failing size passed
            assert len(cert.witness) == cert.verified_k + 1


def test_pruned_equals_naive_small():
    # the pruned search against the naive enumerator in tests/oracles.py
    fixtures = [k21(), k31(), k32(), cycle(3), cycle(5), complete_bipartite(4, 3),
                double_edge(), single_edge()]
    for g in fixtures:
        assert _agrees_with_oracle(g, g.n_left)
    for idx, (L, R, c, d) in enumerate(SMALL_BIREGULAR_PARAMS + GADGET_PARAMS):
        for seed in range(4):
            g = sample_biregular(L, R, c, d, seed=seed * 31 + idx)
            assert _agrees_with_oracle(g, L)
    # uneven left degrees, isolated vertices and parallel edges: the prune
    # must use the largest left degree, and multiplicities must count
    rng = np.random.default_rng(11)
    for _ in range(60):
        L, R = int(rng.integers(3, 10)), int(rng.integers(1, 6))
        edges = tuple((int(rng.integers(L)), int(rng.integers(R)))
                      for _ in range(int(rng.integers(L, 3 * L))))
        g = BipartiteMultigraph(L, R, edges)
        assert _agrees_with_oracle(g, L)


# -- repeats probability bound ----------------------------------------------------


def test_repeats_bound_k0_convention():
    assert repeats_probability_bound(100, 50, 4, 0) == 1.0


def test_repeats_bound_clamped_to_one():
    assert repeats_probability_bound(1000, 200, 6, 1) == 1.0


def test_repeats_bound_matches_direct_evaluation():
    # small instance where the expression is genuinely below 1
    L, R, c, k = 13200, 11000, 5, 1
    got = repeats_probability_bound(L, R, c, k)
    with mp.workdps(60):
        direct = (mp.mpf(L) * mp.e / k * (3 * mp.e * c * k / mp.mpf(R)) ** (mp.mpf(c - 1) / 2)) ** k
    assert got == pytest.approx(float(direct), rel=1e-12)


def test_repeats_bound_precision_stable():
    low = repeats_probability_bound(13200, 11000, 5, 1, precision=30)
    high = repeats_probability_bound(13200, 11000, 5, 1, precision=90)
    assert low == pytest.approx(high, rel=1e-12)


def test_series_report_certifies_existence():
    rep = lemma7_series_report(13200, 11000, 5, 1)
    assert rep["inner"] <= 0.5
    assert rep["existence_certified"]
    assert rep["per_size_sum"] < 1
    assert rep["geometric_sum"] < 1


def test_repeats_bound_requires_c3():
    with pytest.raises(ValueError):
        repeats_probability_bound(10, 5, 2, 1)


# -- the probabilistic method meets reality ---------------------------------------


@pytest.mark.slow
def test_empirical_success_rate_at_certified_k():
    # smallest desk-scale parameters where the bound certifies k = 1; sampled
    # gadgets should then pass verification at k = 1 with positive frequency
    L, R, c, d = 13200, 11000, 5, 6
    k = lemma7_k_bound(L, R, c)
    assert k == 1
    successes = 0
    trials = 3
    for seed in range(trials):
        g = sample_biregular(L, R, c, d, seed=seed)
        cert = verify_unique_neighbour_upto(g, k)
        if cert.verified_k == k:
            successes += 1
    assert successes > 0
