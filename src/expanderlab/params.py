"""Parameter calculations for the composed construction.

The central object is the threshold q_hat(c0, alpha): the routed composition
of a (q+1, q^3+1)-biregular Ramanujan graph with a c0-left-regular gadget of
right side (q^3+1)/(alpha(q+1)) needs every left gadget set of size up to
q+1 to have a unique neighbour, and the probabilistic gadget bound supplies
that exactly when

  (q+1)^((c0-3)/2) <= 1/(2(q^3+1)e) * ( (q^3+1)/(alpha(q+1)) / (3 e c0) )^((c0-1)/2)

holds ("the threshold inequality").  The left side grows like q^((c0-3)/2)
and the right like q^(c0-4), so for c0 > 5 the inequality holds from some
q_hat on.  The scan screens whole blocks of q in float64 numpy (log-domain,
with log(q^3+1) = 3 log q + log1p(q^-3) so that q^3+1 is never rounded);
mpmath at the requested precision (default 30 digits, re-run at triple
precision near a tie) decides every q whose float margin lies within
SCREEN_GUARD of zero.  Float and mpmath margins differ by far less than that
band (about 1e-12 on the published table rows).

Because the reference table of q_hat values admits two reading ambiguities
(scan over all integers vs prime powers only, and whether the reported
threshold is the last failing q or the first q of the all-holds region),
the scan computes every combination and reports them all in
q_hat_by_convention; q_hat is the reading that reproduces the published
table (all integers, first-hold).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from expanderlab import gadget
from expanderlab.nbwalk import EnumerationBudgetError
from expanderlab.report import Report

ALL_INTEGERS = "all-integers"
PRIME_POWERS = "prime-powers-only"

LAST_FAIL = "last-fail"
FIRST_HOLD = "first-hold"

DEFAULT_SCAN_MARGIN = 10 ** 4
DEFAULT_PRECISION = 30

# float64 margins closer to zero than this are decided in mpmath
SCREEN_GUARD = 1e-6
# q values screened per numpy block (bounds the scan's memory)
MAX_SCAN_BLOCK = 1 << 16
# qhat gives up where its answer needs a q above this: 30 times the largest
# published q_hat (136,051 for (100, 100)), and a few seconds of scanning
QHAT_MAX_Q = 1 << 22


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    # via str() so that literal CLI inputs like 1.01 mean exactly 101/100
    return Fraction(str(x))


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and p prime, else None.  1 is not a prime power."""
    if n < 2:
        return None
    p = None
    if n % 2 == 0:
        p = 2
    else:
        f = 3
        while f * f <= n:
            if n % f == 0:
                p = f
                break
            f += 2
    if p is None:
        return (n, 1)  # n itself is prime
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def is_prime_power(n: int) -> bool:
    return prime_power(n) is not None


def prime_power_sieve(n: int) -> np.ndarray:
    """Boolean array of length n whose entry k says whether k is a prime power."""
    is_prime = np.ones(n, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(max(n - 1, 0)) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    mask = is_prime.copy()
    primes = np.flatnonzero(is_prime)
    power = primes
    while power.size:
        power = power * primes[:power.size]
        power = power[power < n]
        mask[power] = True
    return mask


def _threshold_test(c0: int, alpha: Fraction, precision: int):
    """q -> whether the threshold inequality holds at q.

    It is lemma 7's inequality at L = q^3+1, R = L/(alpha(q+1)), k = q+1, so
    each q costs two logs; log alpha and the lemma's constants are taken once
    per precision here.
    """
    constants = {}
    for dps in (precision, 3 * precision):
        with mp.workdps(dps):
            constants[dps] = gadget.log_exact(alpha), gadget.lemma7_constants(c0)

    def evaluate(q: int, dps: int) -> tuple[bool, mp.mpf]:
        log_alpha, lemma7 = constants[dps]
        with mp.workdps(dps):
            l1 = mp.log(q + 1)
            l3 = mp.log(q ** 3 + 1)
            margin = gadget.lemma7_log_margin(l3, l3 - log_alpha - l1, l1, lemma7)
        return margin >= 0, margin

    def holds(q: int) -> bool:
        return gadget.resolve_near_tie(functools.partial(evaluate, q), precision)

    return holds


def _threshold_screen(c0: int, alpha: Fraction, precision: int):
    """qs -> (whether the threshold inequality holds at each q, mpmath calls).

    The lemma-7 margin is taken in float64 for the whole array; a q whose
    margin lies within SCREEN_GUARD of zero is decided by _threshold_test.
    """
    holds = _threshold_test(c0, alpha, precision)
    with mp.workdps(precision):
        log_alpha = float(gadget.log_exact(alpha))
        constants = tuple(float(v) for v in gadget.lemma7_constants(c0))

    def screen(qs: np.ndarray) -> tuple[np.ndarray, int]:
        q = qs.astype(np.float64)
        log_k = np.log1p(q)
        log_L = 3 * np.log(q) + np.log1p(q ** -3)
        margin = gadget.lemma7_log_margin(log_L, log_L - log_alpha - log_k, log_k, constants)
        verdict = margin >= 0
        near = np.flatnonzero(np.abs(margin) < SCREEN_GUARD)
        for i in near:
            verdict[i] = holds(int(qs[i]))
        return verdict, len(near)

    return screen


@dataclass(frozen=True)
class ParamReport(Report):
    c0: int
    alpha: Fraction
    q_hat: int
    scan_margin: int
    precision: int
    q_hat_by_convention: dict
    failures_found: int
    evaluations: int
    escalations: int


def qhat(
    c0: int,
    alpha,
    scan_margin: int = DEFAULT_SCAN_MARGIN,
    precision: int = DEFAULT_PRECISION,
) -> ParamReport:
    """Scan the threshold inequality upward in q and locate the crossover.

    No monotonicity is assumed: every failing q is counted and the scan stops
    only after scan_margin consecutive domain points hold past the last
    failure.  Where that needs a q above QHAT_MAX_Q it raises
    EnumerationBudgetError.  q_hat_by_convention holds the answer for each
    scan domain (all integers q >= 2, or prime powers only) and boundary (the
    largest failing q, 'last-fail', or the first q of the verified all-holds
    region, 'first-hold'); q_hat is all-integers/first-hold, the reading
    that reproduces the published table.
    The comparison is non-strict; strict and non-strict never differ in
    practice (the two sides are transcendental in q).

    The verdicts come in blocks from a float64 screen (mpmath decides near
    ties), and the stopping rule is applied to each block in q order, so the
    result is that of testing one q at a time.  The report counts the q
    verdicts the stopping rule used (evaluations) and the q values sent to
    mpmath (escalations).
    """
    if c0 <= 5:
        raise ValueError("need c0 > 5 (otherwise the right side never dominates)")
    alpha = _as_fraction(alpha)
    if alpha <= 1:
        raise ValueError("need alpha > 1")
    if scan_margin < 1:
        raise ValueError("need scan_margin >= 1")

    screen = _threshold_screen(c0, alpha, precision)
    # about scan_margin q per block, the distance the stopping rule looks ahead
    block = min(max(scan_margin, 1024), MAX_SCAN_BLOCK)
    escalations = 0

    # One scan over all integers q >= 2; it stops at the first q that ends a
    # run of scan_margin holds, i.e. at last failure + scan_margin.  It keeps
    # the last failure and the last prime-power failure; the prime-power
    # answers add an extended margin check on prime powers.
    failures_found = 0
    last_fail = last_fail_pp = 1
    lo = 2
    while lo <= min(last_fail + scan_margin, QHAT_MAX_Q):
        qs = np.arange(lo, lo + block, dtype=np.int64)
        verdict, escalated = screen(qs)
        escalations += escalated
        fails = qs[~verdict]
        # in q order, the first failure more than scan_margin past the one
        # before it lies beyond the stopping point
        far = np.flatnonzero(np.diff(fails, prepend=last_fail) > scan_margin)
        fails = fails[:far[0]] if far.size else fails
        if fails.size:
            failures_found += fails.size
            last_fail = int(fails[-1])
            last_fail_pp = next((q for q in map(int, fails[::-1]) if is_prime_power(q)),
                                last_fail_pp)
        lo += block
    if last_fail + scan_margin > QHAT_MAX_Q:
        raise EnumerationBudgetError(f"q_hat needs q above the scan limit {QHAT_MAX_Q}")

    convention: dict[str, int] = {}
    convention[f"{ALL_INTEGERS}/{LAST_FAIL}"] = last_fail
    convention[f"{ALL_INTEGERS}/{FIRST_HOLD}"] = last_fail + 1

    # confirm the next scan_margin prime powers past the last prime-power
    # failure all hold (they extend beyond the integer scan's horizon)
    start = last_fail_pp + 1
    span = 2 * block
    while True:
        end = min(start + span, QHAT_MAX_Q + 1)
        pps = start + np.flatnonzero(prime_power_sieve(end)[start:])
        if len(pps) >= scan_margin:
            break
        if end > QHAT_MAX_Q:
            raise EnumerationBudgetError(f"q_hat needs q above the scan limit {QHAT_MAX_Q}")
        span *= 2
    pps = pps[:scan_margin]
    for i in range(0, scan_margin, block):
        verdict, escalated = screen(pps[i:i + block])
        escalations += escalated
        if not verdict.all():
            raise ArithmeticError(
                f"prime power {pps[i + np.argmin(verdict)]} fails past the presumed "
                "threshold; scan margin too small"
            )
    convention[f"{PRIME_POWERS}/{LAST_FAIL}"] = last_fail_pp
    convention[f"{PRIME_POWERS}/{FIRST_HOLD}"] = int(pps[0])

    return ParamReport(
        c0=c0,
        alpha=alpha,
        q_hat=convention[f"{ALL_INTEGERS}/{FIRST_HOLD}"],
        scan_margin=scan_margin,
        precision=precision,
        q_hat_by_convention=convention,
        failures_found=failures_found,
        # q = 2 .. last_fail + scan_margin, then scan_margin prime powers
        evaluations=last_fail + 2 * scan_margin - 1,
        escalations=escalations,
    )


@dataclass(frozen=True)
class Theorem2Constants(Report):
    c: int
    d: int
    eps: float
    ell: int
    delta: float
    bound: float
    star_root: float


class NoFeasibleEllError(ValueError):
    """No path half-length up to the search cap satisfies the star condition."""


def _star(c: int, d: int, ell: int) -> float:
    # average right degree bounded above by d
    return ((2 + math.sqrt(d - 1)) * ell + 2) * math.sqrt(c - 1) * math.sqrt(d - 1) / c


def theorem2_constants(c: int, d: int, eps: float, ell_cap: int = 10 ** 6) -> Theorem2Constants:
    """Smallest path half-length ell with star(ell)^(1/ell) <= 1 + eps, and the
    induced set-size fraction delta = ((c-1)(d-1))^(-ell/2).

    The resulting guarantee: left sets of size <= delta |L| in a certified
    (c,d)-biregular Ramanujan graph have average right degree at most
    1 + (1+eps) sqrt((d-1)/(c-1)).
    """
    if not (2 <= c < d):
        raise ValueError("need 2 <= c < d")
    if eps <= 0:
        raise ValueError("need eps > 0")
    log_target = math.log1p(eps)
    for ell in range(1, ell_cap + 1):
        if math.log(_star(c, d, ell)) <= ell * log_target:
            return Theorem2Constants(
                c=c, d=d, eps=eps, ell=ell,
                delta=((c - 1) * (d - 1)) ** (-ell / 2),
                bound=theorem2_bound(c, d, eps),
                star_root=math.exp(math.log(_star(c, d, ell)) / ell),
            )
    raise NoFeasibleEllError(f"no ell <= {ell_cap} satisfies the star condition")


def theorem2_bound(c: int, d: int, eps: float) -> float:
    """Average right degree bound 1 + (1+eps) sqrt((d-1)/(c-1)) for small left sets."""
    if not (2 <= c < d):
        raise ValueError("need 2 <= c < d")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return 1 + (1 + eps) * math.sqrt((d - 1) / (c - 1))


def eml_bound(c: int, d: int, eps: float) -> tuple[float, float]:
    """The weaker expander-mixing-lemma bound and its delta.

    bound = (1+eps)(1 + (d-1)/(c-1) + 2 sqrt((d-1)/(c-1))), valid for
    |S| <= delta |L| with delta = (1 - (1+eps)^(-1/2)) / d.
    """
    if not (2 <= c < d):
        raise ValueError("need 2 <= c < d")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    ratio = (d - 1) / (c - 1)
    bound = (1 + eps) * (1 + ratio + 2 * math.sqrt(ratio))
    delta = (1 - (1 + eps) ** -0.5) / d
    return bound, delta


@dataclass(frozen=True)
class Theorem1Sheet(Report):
    c0: int
    alpha: Fraction
    q: int
    c: int
    d: int
    r0: int
    gadget_left: int
    required_k: int
    product_left_degree: int
    product_right_degree: int
    epsilon_max: Fraction
    lemma7_k: int


def theorem1_wiring(
    c0: int, alpha, q: int, q_hat: int | None = None, precision: int = DEFAULT_PRECISION
) -> Theorem1Sheet:
    """Derive and validate the full parameter sheet at a concrete prime power q.

    Sets c = q+1, d = q^3+1, gadget right side r0 = d/(alpha c), required
    unique-neighbour size k = q+1, and product degrees
    (c0(q+1), alpha c0 (q+1)).  Errors on: q not a prime power, non-integral
    alpha*c0*(q+1) or r0, the threshold inequality failing at q, or
    q <= q_hat when a precomputed threshold is supplied.  Any eps < 1/q makes
    the average-degree bound 1 + (1+eps) q strictly below q+2, so a right
    vertex with at most q+1 ports into the set exists.
    """
    if c0 <= 5:
        raise ValueError("need c0 > 5")
    alpha = _as_fraction(alpha)
    if alpha <= 1:
        raise ValueError("need alpha > 1")
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if q_hat is not None and q <= q_hat:
        raise ValueError(f"q = {q} does not exceed the threshold q_hat = {q_hat}")
    c = q + 1
    d = q ** 3 + 1
    degree_right = alpha * c0 * c
    if degree_right.denominator != 1:
        raise ValueError(f"alpha*c0*(q+1) = {degree_right} is not an integer")
    # the inequality is meaningful for rational side sizes, so test it before
    # the integrality of r0
    if not _threshold_test(c0, alpha, precision)(q):
        raise ValueError(f"threshold inequality fails at q = {q} (q <= q_hat)")
    r0 = Fraction(d) / (alpha * c)
    if r0.denominator != 1:
        raise ValueError(f"gadget right side d/(alpha c) = {r0} is not an integer")
    k = gadget.lemma7_k_bound(d, int(r0), c0, precision=precision)
    return Theorem1Sheet(
        c0=c0,
        alpha=alpha,
        q=q,
        c=c,
        d=d,
        r0=int(r0),
        gadget_left=d,
        required_k=q + 1,
        product_left_degree=c0 * c,
        product_right_degree=int(degree_right),
        epsilon_max=Fraction(1, q),
        lemma7_k=k,
    )
