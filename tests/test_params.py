import math
from fractions import Fraction

import numpy as np
import pytest

from expanderlab import params
from expanderlab.params import (
    ALL_INTEGERS,
    FIRST_HOLD,
    LAST_FAIL,
    PRIME_POWERS,
    NoFeasibleEllError,
    eml_bound,
    is_prime_power,
    prime_power,
    prime_power_sieve,
    qhat,
    theorem1_wiring,
    theorem2_bound,
    theorem2_constants,
)

from oracles import qhat_sequential


# -- prime powers ----------------------------------------------------------------


def test_prime_power_examples():
    assert prime_power(8) == (2, 3)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(2) == (2, 1)
    assert prime_power(31) == (31, 1)
    assert prime_power(729) == (3, 6)
    assert is_prime_power(49)
    assert not is_prime_power(100)


def _trial_factorization_distinct_primes(n: int) -> int:
    count = 0
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            count += 1
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        count += 1
    return count


def test_prime_power_agrees_with_factorization_oracle():
    for n in range(1, 10_001):
        expected = n > 1 and _trial_factorization_distinct_primes(n) == 1
        assert is_prime_power(n) == expected, n


def test_prime_power_oracle_spot_checks_to_1e6():
    for n in [999983, 1000000, 2 ** 19, 3 ** 12, 999961 * 1, 994009, 999999]:
        expected = n > 1 and _trial_factorization_distinct_primes(n) == 1
        assert is_prime_power(n) == expected, n


def test_prime_power_sieve_agrees_with_trial_division():
    n = 10 ** 5
    sieve = prime_power_sieve(n)
    assert len(sieve) == n
    assert [bool(sieve[k]) for k in range(n)] == [is_prime_power(k) for k in range(n)]
    assert not sieve[0] and not sieve[1] and sieve[2]


# -- q_hat -------------------------------------------------------------------------


def test_qhat_35_2_reproduces_table_row():
    report = qhat(35, 2)
    assert report.q_hat == 1492
    # q_hat is the all-integers/first-hold reading of all four
    assert report.q_hat_by_convention == {
        f"{ALL_INTEGERS}/{LAST_FAIL}": 1491,
        f"{ALL_INTEGERS}/{FIRST_HOLD}": 1492,
        f"{PRIME_POWERS}/{LAST_FAIL}": 1489,
        f"{PRIME_POWERS}/{FIRST_HOLD}": 1493,
    }


def test_qhat_conventions_are_consistent():
    report = qhat(35, 2)
    conv = report.q_hat_by_convention
    assert conv[f"{ALL_INTEGERS}/{LAST_FAIL}"] + 1 == conv[f"{ALL_INTEGERS}/{FIRST_HOLD}"]
    assert conv[f"{PRIME_POWERS}/{LAST_FAIL}"] <= conv[f"{ALL_INTEGERS}/{LAST_FAIL}"]
    assert is_prime_power(conv[f"{PRIME_POWERS}/{LAST_FAIL}"])
    assert is_prime_power(conv[f"{PRIME_POWERS}/{FIRST_HOLD}"])


def test_qhat_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="c0 > 5"):
        qhat(5, 2)
    with pytest.raises(ValueError, match="alpha > 1"):
        qhat(10, 1)


def test_qhat_alpha_parsed_exactly():
    report = qhat(35, "2")
    assert report.alpha == Fraction(2)
    assert report.q_hat == 1492


@pytest.mark.parametrize("c0, alpha", [(35, "2"), (100, "1.01")])
def test_qhat_screen_agrees_with_sequential_mpmath_scan(c0, alpha):
    report = qhat(c0, alpha)
    convention, failures, calls = qhat_sequential(c0, alpha)
    assert report.q_hat_by_convention == convention
    assert report.failures_found == failures
    # every verdict the one-q-at-a-time scan asks for, and no more
    assert report.evaluations == calls
    assert report.escalations == 0


def test_qhat_every_value_escalated_still_agrees(monkeypatch):
    monkeypatch.setattr(params, "SCREEN_GUARD", math.inf)
    report = qhat(35, 2, scan_margin=200)
    convention, failures, calls = qhat_sequential(35, 2, scan_margin=200)
    assert report.q_hat_by_convention == convention
    assert report.failures_found == failures
    assert report.evaluations == calls
    assert report.escalations >= calls


def test_qhat_report_counters_in_payload():
    # 2..11491 on the integer scan (last failure 1491 plus the margin of
    # 10,000), then 10,000 prime powers past 1489
    payload = qhat(35, 2).to_dict()
    assert payload["evaluations"] == 21_490
    assert payload["escalations"] == 0


def test_qhat_rejects_empty_scan_margin():
    with pytest.raises(ValueError, match="scan_margin"):
        qhat(35, 2, scan_margin=0)


# -- theorem 2 constants ------------------------------------------------------------


def test_constants_2_3_half():
    consts = theorem2_constants(2, 3, 0.5)
    assert consts.ell == 8
    assert consts.delta == pytest.approx(2 ** -4)
    assert consts.bound == pytest.approx(1 + 1.5 * math.sqrt(2))
    assert consts.star_root <= 1.5


def test_constants_minimality():
    consts = theorem2_constants(2, 3, 0.5)
    from expanderlab.params import _star

    ell = consts.ell
    assert math.log(_star(2, 3, ell)) <= ell * math.log1p(0.5)
    assert math.log(_star(2, 3, ell - 1)) > (ell - 1) * math.log1p(0.5)


def test_constants_large_eps_gives_ell_one():
    assert theorem2_constants(2, 3, 100.0).ell == 1


def test_constants_rejects_eps_zero():
    with pytest.raises(ValueError):
        theorem2_constants(2, 3, 0.0)


def test_constants_reports_infeasible_cap():
    with pytest.raises(NoFeasibleEllError):
        theorem2_constants(2, 3, 1e-9, ell_cap=10)


# -- bound comparison ----------------------------------------------------------------


def test_eml_bound_2_3_0():
    bound, delta = eml_bound(2, 3, 0.0)
    assert bound == pytest.approx(3 + 2 * math.sqrt(2))
    assert delta == 0.0


def test_eml_delta_positive_for_positive_eps():
    _, delta = eml_bound(2, 3, 0.5)
    assert delta == pytest.approx((1 - 1.5 ** -0.5) / 3)


def test_walk_bound_beats_eml_at_2_3():
    assert theorem2_bound(2, 3, 0.0) == pytest.approx(1 + math.sqrt(2))
    assert theorem2_bound(2, 3, 0.0) < eml_bound(2, 3, 0.0)[0]


def test_walk_bound_dominance_spot_grid():
    for c in (2, 5, 17):
        for d in (c + 1, c + 7, 50):
            for eps in (0.0, 0.1, 1.0):
                assert theorem2_bound(c, d, eps) < eml_bound(c, d, eps)[0]


# -- theorem 1 wiring ------------------------------------------------------------------


def test_wiring_threshold_failure():
    # alpha*c0*(q+1) = 400 is integral, but the threshold inequality fails at q = 19
    with pytest.raises(ValueError, match="threshold inequality"):
        theorem1_wiring(10, 2, 19)


def test_wiring_q_hat_guard():
    with pytest.raises(ValueError, match="does not exceed"):
        theorem1_wiring(10, 2, 19, q_hat=18907)


def test_wiring_rejects_non_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        theorem1_wiring(10, 2, 20)


def test_wiring_degree_integrality():
    # alpha = 3/2, c0 = 7, q = 4: alpha*c0*(q+1) = 52.5
    with pytest.raises(ValueError, match="not an integer"):
        theorem1_wiring(7, Fraction(3, 2), 4)


def test_wiring_r0_integrality():
    # q = 65536, alpha = 2: the threshold inequality holds but
    # r0 = (q^3+1)/(2(q+1)) = (q^2-q+1)/2 is a half-integer
    with pytest.raises(ValueError, match="not an integer"):
        theorem1_wiring(10, 2, 65536)


def test_wiring_threshold_precedes_r0_check():
    # q = 4, alpha = 13/5: r0 = 5 is integral, so the failure must be the inequality
    with pytest.raises(ValueError, match="threshold inequality"):
        theorem1_wiring(6, Fraction(13, 5), 4)


def test_wiring_success_path():
    # q = 1277 is prime, 31 divides q^2-q+1 and 30 divides 100(q+1), so
    # alpha = 31/30 keeps every side size integral; the threshold inequality
    # holds there, and the certified gadget size covers the required q+1
    q, alpha = 1277, Fraction(31, 30)
    sheet = theorem1_wiring(100, alpha, q)
    assert sheet.c == q + 1
    assert sheet.d == q ** 3 + 1
    assert sheet.r0 == Fraction(q ** 3 + 1) / (alpha * (q + 1))
    assert sheet.required_k == q + 1
    assert sheet.lemma7_k >= sheet.required_k
    assert sheet.product_left_degree == 100 * (q + 1)
    assert sheet.product_right_degree == 132060  # alpha * c0 * (q+1)
    assert sheet.epsilon_max == Fraction(1, q)
    # with a supplied threshold below q the same call still passes
    assert theorem1_wiring(100, alpha, q, q_hat=1276).q == q


def test_qhat_scan_limit_is_exact(monkeypatch):
    # (35, 2): the integer scan stops at 1491 + 10000; the prime-power
    # confirmation reads the 10000 prime powers past 1489
    want = params.qhat(35, 2).to_dict()
    is_pp = params.prime_power_sieve(200_000)
    pp_end = int([q for q in range(1490, 200_000) if is_pp[q]][9999])
    monkeypatch.setattr(params, "QHAT_MAX_Q", pp_end)
    assert params.qhat(35, 2).to_dict() == want
    for limit in (pp_end - 1, 1491 + 10_000 - 1):
        monkeypatch.setattr(params, "QHAT_MAX_Q", limit)
        with pytest.raises(params.EnumerationBudgetError, match=str(limit)):
            params.qhat(35, 2)


def test_qhat_stopping_rule_on_a_gapped_failure_set(monkeypatch):
    # the published rows fail on a prefix 2..q_hat-1 only; a synthetic
    # inequality with isolated failures at 60 and 200 exercises the rule that
    # ends the scan at the first failure more than the margin past the last
    fails = set(range(2, 51)) | {60, 200}
    monkeypatch.setattr(params, "_threshold_test", lambda *_: lambda q: q not in fails)
    monkeypatch.setattr(params, "_threshold_screen", lambda *_: lambda qs: (
        np.array([int(q) not in fails for q in qs]), 0))
    for margin in (5, 9, 10, 20, 139, 140, 1000):
        report = params.qhat(35, 2, scan_margin=margin)
        convention, failures_found, _ = qhat_sequential(35, 2, scan_margin=margin)
        assert report.q_hat_by_convention == convention, margin
        assert report.failures_found == failures_found, margin
