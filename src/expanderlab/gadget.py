"""Random biregular gadgets and a search that certifies their unique neighbours.

A gadget is a fixed-size (c,d)-biregular bipartite graph whose small left
sets all have unique neighbours.  Sampling follows the uniform half-edge
matching model: the L*c left slots are matched to the R*d right slots by a
uniformly random bijection (multi-edges allowed; rejecting them would change
the distribution).  The probabilistic method certifies set sizes up to the
largest k with

    k^((c-3)/2) <= 1/(2Le) * (R/(3ec))^((c-1)/2)

and verification below that scale searches for bad sets: left sets that
hit every right vertex they touch at least twice, counting multiplicity.
The search only grows a set through a right vertex it hits exactly once, so
it visits a few nodes per start vertex rather than every subset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from expanderlab.bigraph import BipartiteMultigraph
from expanderlab.report import Report

DEFAULT_NODE_BUDGET = 10 ** 8

# comparisons of log-domain quantities closer than this are re-run at
# triple precision before deciding (transcendental constants preclude
# exact arithmetic)
COMPARISON_MARGIN = 1e-12


@dataclass(frozen=True)
class GadgetParams(Report):
    """Side sizes, regularities and RNG seed for a gadget draw.

    Requires L > R >= 1 and Lc = Rd.  (c > 3 is needed only by the Lemma-7
    style bound, not for sampling.)
    """

    L: int
    R: int
    c: int
    d: int
    seed: int = 0

    def __post_init__(self):
        if not self.L > self.R >= 1:
            raise ValueError("need L > R >= 1")
        if self.c < 1 or self.d < 1:
            raise ValueError("regularities must be positive")
        if self.L * self.c != self.R * self.d:
            raise ValueError(f"slot mismatch: L*c = {self.L * self.c} != R*d = {self.R * self.d}")


def log_exact(x) -> mp.mpf:
    """log x at the working precision; a Fraction's numerator and denominator
    are taken separately, so rational inputs are not rounded first."""
    if isinstance(x, Fraction):
        return mp.log(x.numerator) - mp.log(x.denominator)
    return mp.log(x)


def lemma7_constants(c: int) -> tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    """log 2 + 1, log 3 + 1 + log c, (c-1)/2 and (c-3)/2 at the working precision."""
    return mp.log(2) + 1, mp.log(3) + 1 + mp.log(c), mp.mpf(c - 1) / 2, mp.mpf(c - 3) / 2


def lemma7_log_margin(log_L, log_R, log_k, constants) -> mp.mpf:
    """log RHS - log LHS of k^((c-3)/2) <= 1/(2Le) * (R/(3ec))^((c-1)/2).

    The inequality holds iff the margin is >= 0.  Takes the logs of L, R and
    k, and lemma7_constants(c), so that a caller scanning a family of
    (L, R, k) pays only for the logs that change.
    """
    log_2e, log_3ec, half_rhs, half_lhs = constants
    return -(log_2e + log_L) + half_rhs * (log_R - log_3ec) - half_lhs * log_k


def resolve_near_tie(evaluate, precision: int):
    """evaluate(dps) -> (answer, margin) at `precision` digits; when |margin|
    < COMPARISON_MARGIN the answer is recomputed at triple precision."""
    answer, margin = evaluate(precision)
    if abs(margin) < COMPARISON_MARGIN:
        answer, _ = evaluate(3 * precision)
    return answer


def lemma7_k_bound(L: int, R, c: int, precision: int = 30) -> int:
    """Largest integer k with k^((c-3)/2) <= 1/(2Le) * (R/(3ec))^((c-1)/2).

    Evaluated in log domain at the requested precision; 0 means the
    probabilistic method certifies nothing.  R may be a Fraction (the routed
    construction evaluates this at rational gadget side sizes).
    """
    if c <= 3:
        raise ValueError("the probabilistic bound needs c > 3")
    if not L > R >= 1:
        raise ValueError("need L > R >= 1")

    def solve(dps: int) -> tuple[int, mp.mpf]:
        with mp.workdps(dps):
            rhs = lemma7_log_margin(mp.log(L), log_exact(R), 0, lemma7_constants(c))
            if rhs < 0:
                return 0, mp.mpf(1)
            half = mp.mpf(c - 3) / 2
            k = max(1, int(mp.floor(mp.e ** (rhs / half))))
            while half * mp.log(k + 1) <= rhs:
                k += 1
            while k >= 1 and half * mp.log(k) > rhs:
                k -= 1
            return k, half * mp.log(max(k, 1)) - rhs

    return resolve_near_tie(solve, precision)


def sample_biregular(n_left: int, n_right: int, c: int, d: int, seed: int = 0) -> BipartiteMultigraph:
    """Uniform (c,d)-biregular multigraph via a random bijection of half-edge slots.

    Deterministic for a fixed seed (Philox 4x64 counter-based generator).
    """
    if n_left < 1 or n_right < 1 or c < 1 or d < 1:
        raise ValueError("sides and regularities must be positive")
    if n_left * c != n_right * d:
        raise ValueError(f"slot mismatch: {n_left}*{c} != {n_right}*{d}")
    rng = np.random.Generator(np.random.Philox(seed))
    perm = rng.permutation(n_right * d)
    edges = tuple((t // c, int(perm[t]) // d) for t in range(n_left * c))
    return BipartiteMultigraph(n_left, n_right, edges)


@dataclass(frozen=True)
class GadgetCertificate(Report):
    """Outcome of the bad-set search up to a target size.

    verified_k is the largest size k such that *every* nonempty left set of
    size <= k has a unique neighbour.  When verification failed, witness is
    the lexicographically smallest bad set at the smallest failing size
    (so |witness| = verified_k + 1); minimality is by size only.
    subsets_checked counts the search nodes visited (left sets, with
    repeats); budget_exhausted means the search stopped at its node budget
    and verified_k is the last size it finished.
    """

    target_k: int
    verified_k: int
    witness: tuple[int, ...] | None
    subsets_checked: int
    budget_exhausted: bool


def verify_unique_neighbour_upto(
    g: BipartiteMultigraph, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> GadgetCertificate:
    """Check that every nonempty left set of size <= k has a unique neighbour.

    Searches for bad sets, size by size and by least member u0: from {u0}
    the search adds, one at a time, another endpoint w > u0 of the smallest
    right vertex hit exactly once, since any bad superset must hit that
    vertex again.  A node with U once-hit right vertices and r members still
    to add is dropped when U > c_max * r, c_max the largest left degree (one
    vertex hits at most c_max of them).  k = 0 passes vacuously.  The search
    stops before visiting node budget + 1 and reports the last finished size
    with budget_exhausted set, rather than raising; a negative budget is an
    error.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k = min(k, g.n_left)
    hits = [sorted(Counter(p).items()) for p in g.left_ports]
    ports = [sorted(set(p)) for p in g.right_ports]
    c_max = max(g.left_degrees, default=0)
    counts = [0] * g.n_right
    once: set[int] = set()
    nodes = 0

    def move(u: int, sign: int):
        for v, mult in hits[u]:
            old = counts[v]
            counts[v] = old + sign * mult
            if old == 1:
                once.discard(v)
            if counts[v] == 1:
                once.add(v)

    def bad_sets(u0: int, size: int):
        """Every bad set of `size` with least member u0 (None when the budget runs out)."""
        nonlocal nodes
        found = []
        members: list[int] = []
        # an explicit stack of child iterators: a branch can be `size` deep
        branches = [iter((u0,))]
        while branches:
            w = next(branches[-1], None)
            if w is None:
                branches.pop()
                if members:
                    move(members.pop(), -1)
                continue
            if nodes == budget:
                return None
            nodes += 1
            members.append(w)
            move(w, 1)
            if not once:
                if len(members) == size:
                    found.append(tuple(sorted(members)))
                children = []
            elif len(once) > c_max * (size - len(members)):
                children = []
            else:
                children = [x for x in ports[min(once)] if x > u0 and x not in members]
            branches.append(iter(children))
        return found

    def certificate(verified_k, witness=None, exhausted=False):
        return GadgetCertificate(target_k=k, verified_k=verified_k, witness=witness,
                                 subsets_checked=nodes, budget_exhausted=exhausted)

    for size in range(1, k + 1):
        for u0 in range(g.n_left - size + 1):
            found = bad_sets(u0, size)
            if found is None:
                return certificate(size - 1, exhausted=True)
            if found:
                return certificate(size - 1, min(found))
    return certificate(k)


def _log_inner(L: int, R, c: int, k: int) -> mp.mpf:
    """log of (Le/k) * (3eck/R)^((c-1)/2), the per-size union bound base.

    The base is at most 1/2 exactly when lemma 7's inequality holds at k, so
    it is minus that margin, minus log 2.
    """
    return -lemma7_log_margin(mp.log(L), log_exact(R), mp.log(k), lemma7_constants(c)) - mp.ln2


def repeats_probability_bound(L: int, R, c: int, k: int, precision: int = 30) -> float:
    """Union-bound probability that some size-k left set has no unique neighbour.

    Evaluates ((Le/k) (3eck/R)^((c-1)/2))^k in log domain and clamps to [0, 1].
    k = 0 returns 1 by convention (no certificate).
    """
    if c < 3:
        raise ValueError("the repeats argument needs c >= 3")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    with mp.workdps(precision):
        log_total = k * _log_inner(L, R, c, k)
        if log_total >= 0:
            return 1.0
        return float(mp.e ** log_total)


def lemma7_series_report(L: int, R, c: int, k: int, precision: int = 30) -> dict:
    """Replicate the geometric-series step of the existence proof.

    inner is the union-bound base at size k; when inner <= 1/2 the total
    failure probability over all sizes 1..k is strictly below 1, so a good
    gadget exists.  per_size_sum is the exact sum of the per-size bounds.
    """
    if c < 3:
        raise ValueError("needs c >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workdps(precision):
        inner = mp.e ** _log_inner(L, R, c, k)
        per_size = mp.mpf(0)
        for a in range(1, k + 1):
            per_size += mp.e ** (a * _log_inner(L, R, c, a))
        geometric = inner / (1 - inner) if inner < 1 else mp.inf
        return {
            "inner": float(inner),
            "per_size_sum": float(per_size),
            "geometric_sum": float(geometric),
            "existence_certified": bool(inner <= mp.mpf(1) / 2),
        }
