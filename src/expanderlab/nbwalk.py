"""Non-backtracking walk machinery for bipartite multigraphs.

The operators A_l^{XY} count non-backtracking paths of length l that start
on side Y and end on side X.  A path of even length ends on its start side and
one of odd length on the other, so each start side has one nonzero sequence
(A_l^{LL}, A_l^{RL} alternating from the left; A_l^{RR}, A_l^{LR} from the
right).  Every walk count comes from one recursion over bigraph's neighbour
tables, padded to the largest degree (at most bigraph.MAX_TABLE_PADDING empty
cells a side), for any degree sequence: a step to a vertex adds the rows of its
neighbours and takes back the walks that would re-traverse an edge.  From the
identity it gives the operators, from 1_S one set's path count
(count_nb_paths, for nbcount and lemma 8) and from all-ones vectors lemma 9's;
it stops at MAX_OPERATOR_LEN.  On biregular graphs the even left operators
collapse to polynomials A_{2n}^{LL} = p_n(B B^T) in the path-count variable,
and the polynomial values on the Ramanujan band admit the closed-form bound
|p_l(lambda^2)| <= (2 + sqrt(d-1)) * l * ((c-1)(d-1))^(l/2)
for l past a computable threshold.  Path counts are exact integers: int64
wherever a static bound from the degrees and the length shows that no value
can reach INT64_LIMIT, Python integers (object dtype) otherwise.  Polynomials
use exact rational arithmetic.  The band-bound sweep screens its samples in
float64 and lets explicit high-precision (mpmath) arithmetic decide every
value the floats cannot settle; its reported figures are the mpmath ones.

Convention: a non-backtracking path is a sequence of directed edge traversals
starting at a vertex, where consecutive edges share the intermediate
vertex and no physical edge is immediately re-traversed in reverse.  On
multigraphs this edge-identity rule (rather than a forbidden-vertex rule) is
what the operator recursion counts: a double edge u=v admits the length-2
path u-v-u using both parallel edges.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from expanderlab.bigraph import (
    BipartiteMultigraph,
    EnumerationBudgetError,
    VertexSet,
    _require_left,
    neighbour_tables,
)
from expanderlab import spectral
from expanderlab.report import Report

MAX_OPERATOR_LEN = 20

ENDPOINTS_IN_S = "endpoints-in-S"
ALL_IN_S = "all-in-S"

# Delta(x) this close to zero switches alpha/beta to the repeated-root branch
# (cancellation control near the band endpoints).
REPEATED_ROOT_EPS = 1e-8

# lambda grid points inside the band on which ell_min takes its maximum
ELL_MIN_GRID_POINTS = 2048

# a float64 lemma-6 ratio this close to 1.0 or to the running maximum is
# re-evaluated in mpmath
SCREEN_GUARD = 1e-6

# int64 arithmetic is exact only for values below this
INT64_LIMIT = 2 ** 63

# largest p_n built: the exact-rational recurrence costs about n^2 big-number
# products; on a 2-core Xeon VM p_500 takes 1.4 s for (c, d) = (2, 3) and
# 1.7 s for (3, 28), and p_800 3.3 s
MAX_POLY_DEGREE = 500


def _exact_dtype(bound: int):
    """The dtype for integer arithmetic whose values and partial sums are all
    at most `bound`: int64 when that fits, Python integers (object) otherwise."""
    return np.int64 if bound < INT64_LIMIT else object


@dataclass(frozen=True)
class NbOperatorSet:
    """Integer path-count operators A_l^{XY} for l = 0 .. max_len.

    A_l^{XY} is indexed (end vertex, start vertex): rows live on side X where
    walks end, columns on side Y where they start.  Only the nonzero parity
    sequence of each start side is stored; operator() returns a fresh zero
    matrix for the other kinds (odd-length LL/RR, even-length LR/RL).  Entries
    are exact: int64 when _nb_walk_counts' overflow bound allows it, Python
    integers (object dtype) otherwise.
    """

    c: int
    d: int
    n_left: int
    n_right: int
    max_len: int
    _from_left: tuple
    _from_right: tuple

    def operator(self, kind: str, length: int) -> np.ndarray:
        if kind not in ("LL", "LR", "RL", "RR"):
            raise ValueError(f"unknown operator kind {kind!r}")
        if not 0 <= length <= self.max_len:
            raise ValueError(f"length {length} outside [0, {self.max_len}]")
        end, start = kind
        walks = self._from_left if start == "L" else self._from_right
        if (end == start) == (length % 2 == 0):
            return walks[length]
        size = {"L": self.n_left, "R": self.n_right}
        return np.zeros((size[end], size[start]), dtype=walks[0].dtype)


def _backtracks(deg: np.ndarray, l: int) -> np.ndarray:
    """k_l: the edges by which a walk of length l - 1 leaves its end vertex
    without backtracking, deg at l = 1 (no last edge yet) and deg - 1 after."""
    return deg if l == 1 else deg - 1


def _nb_walk_counts(x0: np.ndarray, tables, max_len: int) -> list:
    """X_0 = x0 .. X_max_len: X_l[w, j] sums x0[v, j] over the NB walks of
    length l from v to w.  x0 holds nonnegative integer weights on the start
    side (the identity, or 1_S) and a last row of zeros that every X_l keeps;
    tables is (the other side's, the start side's) from bigraph.neighbour_tables.

    X_{l+1} = N(X_l) - k_l X_{l-1}: N(X_l) adds, for each end vertex w, the
    rows of X_l at w's neighbours, extending every walk by every edge, its
    last one included.  Those backtracks are the walks of length l - 1 ending
    at w, sent out and back along one of w's deg(w) edges other than their own
    last edge: k_1 = deg (a walk of length 0 has no last edge), k_l = deg - 1
    for l >= 2, and k_0 = 0.  Overflow: a vertex starts at most
    Delta (Delta-1)^(l-1) NB walks of length l >= 1 (Delta the largest
    degree), so no column of X_l sums to more than W Delta^l (W the largest
    column sum of x0), and an entry of N(X_l), l < max_len, adds at most Delta
    such nonnegative entries: int64 when W Delta^max(max_len, 1) is below
    INT64_LIMIT, Python integers (object) otherwise.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len > MAX_OPERATOR_LEN:
        raise EnumerationBudgetError(
            f"max_len {max_len} exceeds the walk-length cap {MAX_OPERATOR_LEN}")
    delta = int(max(tables[0][1].max(initial=0), tables[1][1].max(initial=0)))
    weight = int(x0.sum(axis=0).max(initial=0))
    dtype = _exact_dtype(weight * delta ** max(max_len, 1))
    walks = [x0.astype(dtype, copy=False)]
    for l in range(max_len):
        nbrs, deg = tables[l % 2]
        nxt = walks[l][nbrs[:, 0]]
        for j in range(1, nbrs.shape[1]):
            nxt += walks[l][nbrs[:, j]]
        if l > 0:
            nxt[:-1] -= _backtracks(deg, l).astype(dtype)[:, None] * walks[l - 1][:-1]
        walks.append(nxt)
    return walks


def build_nb_operators(g: BipartiteMultigraph, max_len: int) -> NbOperatorSet:
    """The NB walks of every length up to max_len from each side: the walk
    recursion from the identity, in int64 when max(c, d)^max(max_len, 1) is
    below INT64_LIMIT (so by (c, d) and max_len, never by matrix values)."""
    c, d = g.require_biregular()
    left, right = neighbour_tables(g)
    from_left, from_right = (
        tuple(x[:-1] for x in _nb_walk_counts(np.eye(n + 1, n, dtype=np.int64), tables, max_len))
        for n, tables in ((g.n_left, (right, left)), (g.n_right, (left, right))))
    return NbOperatorSet(c=c, d=d, n_left=g.n_left, n_right=g.n_right, max_len=max_len,
                         _from_left=from_left, _from_right=from_right)


def count_nb_paths_operator(ops: NbOperatorSet, s: VertexSet, length: int) -> int:
    """M_length(S, G) = <A_length^{LL} 1_S, 1_S> as an exact integer."""
    if length % 2 != 0:
        raise ValueError("operator path counts are defined for even lengths")
    if not 0 <= length <= ops.max_len:
        raise ValueError(f"length {length} outside [0, {ops.max_len}]")
    _require_left(s, ops.n_left)
    idx = list(s.members)
    # A column of A_length sums to at most Delta^length (see _nb_walk_counts),
    # so no partial sum of the |S|^2 nonnegative terms exceeds |S| Delta^length.
    dtype = _exact_dtype(len(idx) * max(ops.c, ops.d) ** length)
    return int(ops.operator("LL", length)[np.ix_(idx, idx)].astype(dtype).sum())


def count_nb_paths(
    g: BipartiteMultigraph, s: VertexSet, length: int, mode: str = ENDPOINTS_IN_S
) -> int:
    """The NB paths of `length` that start at a left vertex in S, as an exact
    integer: the walk recursion from 1_S, on any degree sequence.

    Mode 'all-in-S' requires every left vertex of the path to lie in S: the
    walk runs on the edges whose left end is in S and counts every end.  Mode
    'endpoints-in-S' requires the first and the last left vertex to: an even
    path ends at its last left vertex, so the count sums the rows of S; an odd
    one has left it by one more step, so each path of length - 1 ending in S
    counts once per edge it can leave by (_backtracks, the recursion's own
    k).  Past MAX_OPERATOR_LEN it raises EnumerationBudgetError.
    """
    if mode not in (ENDPOINTS_IN_S, ALL_IN_S):
        raise ValueError(f"unknown mode {mode!r}")
    _require_left(s, g.n_left)
    idx = list(s.members)
    if mode == ALL_IN_S:
        inside = set(idx)
        g = BipartiteMultigraph(g.n_left, g.n_right, tuple(e for e in g.edges if e[0] in inside))
    x0 = np.zeros((g.n_left + 1, 1), dtype=np.int64)
    x0[idx] = 1
    left, right = neighbour_tables(g)
    walks = _nb_walk_counts(x0, (right, left), length)
    if mode == ALL_IN_S:
        return int(walks[-1].sum())
    if length % 2 == 0:
        return int(walks[-1][idx].sum())
    k = _backtracks(left[1], length)
    return sum(int(x) * int(k[w]) for w, x in zip(idx, walks[-2][idx, 0]))


# -- the polynomials p_n with A_{2n}^{LL} = p_n(B B^T) ----------------------


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending degree order."""

    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for coef in reversed(self.coefficients):
            acc = acc * x + coef
        return acc

    def eval_matrix(self, X: np.ndarray) -> np.ndarray:
        """Horner evaluation at a square matrix, exact when X has int/Fraction entries."""
        eye = np.eye(X.shape[0], dtype=object)
        acc = self.coefficients[-1] * eye
        for coef in reversed(self.coefficients[:-1]):
            acc = X @ acc + coef * eye
        return acc


def p_polynomial(c: int, d: int, n: int) -> RationalPolynomial:
    """p_0 = c/(c-1), p_1 = x - c, and
    p_{k+1} = (x - (c-1) - (d-1)) p_k - (c-1)(d-1) p_{k-1}.

    c = d is allowed: the recurrence and the operator identity do not need the
    two-sided band, only the bound analysis does.  Past MAX_POLY_DEGREE it
    raises EnumerationBudgetError.
    """
    if not (2 <= c <= d):
        raise ValueError("need 2 <= c <= d")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_POLY_DEGREE:
        raise EnumerationBudgetError(f"n {n} exceeds the polynomial degree cap {MAX_POLY_DEGREE}")
    p_prev = [Fraction(c, c - 1)]
    if n == 0:
        return RationalPolynomial(tuple(p_prev))
    p_cur = [Fraction(-c), Fraction(1)]
    shift = Fraction(c - 1 + d - 1)
    scale = Fraction((c - 1) * (d - 1))
    for _ in range(n - 1):
        nxt = [Fraction(0)] * (len(p_cur) + 1)
        for i, coef in enumerate(p_cur):
            nxt[i + 1] += coef          # x * p_k
            nxt[i] -= shift * coef      # -(c-1+d-1) p_k
        for i, coef in enumerate(p_prev):
            nxt[i] -= scale * coef      # -(c-1)(d-1) p_{k-1}
        p_prev, p_cur = p_cur, nxt
    return RationalPolynomial(tuple(p_cur))


@dataclass(frozen=True)
class PolyIdentityReport(Report):
    n: int
    ok: bool
    max_residual: Fraction
    worst_entry: tuple[int, int] | None


def verify_operator_polynomial_identity(g: BipartiteMultigraph, n: int) -> PolyIdentityReport:
    """Assert A_{2n}^{LL} == p_n(B B^T) in exact rational arithmetic."""
    if not 1 <= n <= 6:
        raise ValueError("n must be in [1, 6]")
    c, d = g.require_biregular()
    ops = build_nb_operators(g, 2 * n)
    # B B^T holds small integers, exact in float64; object entries keep p_n exact
    X = spectral.gram(g.right_ports, g.n_left).astype(np.int64).astype(object)
    P = p_polynomial(c, d, n).eval_matrix(X)
    A = ops.operator("LL", 2 * n)
    worst, worst_entry = Fraction(0), None
    for (i, j), a in np.ndenumerate(A):
        resid = abs(Fraction(P[i, j]) - a)
        if resid > worst:
            worst, worst_entry = resid, (i, j)
    return PolyIdentityReport(n=n, ok=worst == 0, max_residual=worst, worst_entry=worst_entry)


# -- the closed form of the p_n recurrence ------------------------------------


@dataclass(frozen=True)
class CharRoots:
    """The p_n recurrence p_{n+1} = a p_n + b p_{n-1} solved at a fixed x = lambda^2,
    with a = x - (c-1) - (d-1), b = -(c-1)(d-1), p_0 = c/(c-1) and p_1 = x - c.

    Distinct roots: p_n = alpha * lambda1^n + beta * lambda2^n.
    Repeated root:  p_n = (alpha + n * beta) * lambda1^n.
    """

    c: int
    d: int
    x: float
    delta: float
    lambda1: complex
    lambda2: complex
    alpha: complex
    beta: complex
    repeated: bool

    def evaluate(self, n: int) -> complex:
        if self.repeated:
            return (self.alpha + n * self.beta) * self.lambda1 ** n
        return self.alpha * self.lambda1 ** n + self.beta * self.lambda2 ** n


def char_delta(c: int, d: int, x: float) -> float:
    """Delta(x) = x^2 - 2x((c-1)+(d-1)) + (c-d)^2, the discriminant of the recursion."""
    return x * x - 2 * x * (c - 1 + d - 1) + (c - d) ** 2


def char_roots(c: int, d: int, x: float) -> CharRoots:
    """Roots and initial-condition coefficients of the p_n recurrence at x.

    Within REPEATED_ROOT_EPS of the band endpoints (where Delta vanishes) the
    repeated-root branch is used; the general formulas already reduce to the
    paper's special case at x = 0 (lambda = -(c-1), -(d-1), beta = 0).
    """
    if not (2 <= c < d):
        raise ValueError("need 2 <= c < d")
    x = float(x)
    delta = char_delta(c, d, x)
    a = complex(x - (c - 1) - (d - 1))
    p0, p1 = complex(c / (c - 1)), complex(x - c)
    if abs(delta) < REPEATED_ROOT_EPS:
        # b != 0, so the repeated root a/2 = +-sqrt((c-1)(d-1)) is never 0
        lam = a / 2
        return CharRoots(c, d, x, delta, lam, lam, p0, p1 / lam - p0, repeated=True)
    sq = cmath.sqrt(complex(delta))
    lam1, lam2 = (a + sq) / 2, (a - sq) / 2
    alpha = (p1 - p0 * lam2) / (lam1 - lam2)
    return CharRoots(c, d, x, delta, lam1, lam2, alpha, p0 - alpha, repeated=False)


def interior_coefficient(c: int, d: int, x: float) -> float:
    """2 sqrt(x(x-cd) / (Delta(x)(c-1))) = 2|alpha(x)| for x strictly inside the band."""
    return 2.0 * math.sqrt(x * (x - c * d) / (char_delta(c, d, x) * (c - 1)))


def ell_min(c: int, d: int) -> int:
    """Smallest l with max 2|alpha(x)| <= (2 + sqrt(d-1)) l over the interior x.

    The bound is proven only for large enough l; below this threshold checks
    are informational.  x = lambda^2 ranges over a midpoint grid of
    ELL_MIN_GRID_POINTS lambda strictly inside the band, so the threshold
    depends only on (c, d).  Clamped to >= 2: the endpoint and zero branches
    need l >= 2.
    """
    lo, hi = spectral.ramanujan_band(c, d)
    step = (hi - lo) / ELL_MIN_GRID_POINTS
    mx = 0.0
    for j in range(ELL_MIN_GRID_POINTS):
        x = (lo + (j + 0.5) * step) ** 2
        if abs(char_delta(c, d, x)) < REPEATED_ROOT_EPS:
            continue
        mx = max(mx, interior_coefficient(c, d, x))
    return max(2, math.ceil(mx / (2 + math.sqrt(d - 1))))


@dataclass(frozen=True)
class Lemma6Entry(Report):
    ell: int
    asserted: bool
    violations: int
    worst_ratio: float
    worst_lambda: float


@dataclass(frozen=True)
class Lemma6Report(Report):
    derived = ("asserted_violations",)

    c: int
    d: int
    samples: int
    seed: int
    precision: int
    ell_min: int
    entries: tuple[Lemma6Entry, ...]
    escalations: int

    @property
    def asserted_violations(self) -> int:
        return sum(e.violations for e in self.entries if e.asserted)


def _band_samples(c: int, d: int, samples: int, seed: int) -> list[float]:
    """lambda samples: 0, both band endpoints, then uniform interior draws."""
    lo, hi = spectral.ramanujan_band(c, d)
    specials = [0.0, lo, hi]
    n_random = max(0, samples - len(specials))
    rng = np.random.Generator(np.random.Philox(seed))
    return specials + list(lo + (hi - lo) * rng.random(n_random))


def _lemma6_ratios_mp(c: int, d: int, lam: float, ell_max: int) -> list[float]:
    """|p_l(lambda^2)| / ((2+sqrt(d-1)) l ((c-1)(d-1))^(l/2)) for l = 1..ell_max,
    by the p recurrence at the current mpmath working precision."""
    growth = mp.sqrt((c - 1) * (d - 1))
    lead = 2 + mp.sqrt(d - 1)
    shift = mp.mpf(c - 1 + d - 1)
    scale = mp.mpf((c - 1) * (d - 1))
    x = mp.mpf(lam) ** 2
    p_prev = mp.mpf(c) / (c - 1)
    p_cur = x - c
    gpow = growth
    ratios = []
    for ell in range(1, ell_max + 1):
        if ell > 1:
            p_prev, p_cur = p_cur, (x - shift) * p_cur - scale * p_prev
            gpow *= growth
        ratios.append(float(abs(p_cur) / (lead * ell * gpow)))
    return ratios


def lemma6_sweep(
    c: int, d: int, ell_max: int, samples: int = 10_000, seed: int = 0, precision: int = 30
) -> Lemma6Report:
    """Check |p_l(lambda^2)| <= (2+sqrt(d-1)) l ((c-1)(d-1))^(l/2) for l = 1..ell_max.

    The interior samples run the normalised recurrence
    q_{l+1} = ((x - (c-1) - (d-1))/g) q_l - q_{l-1}, q_l = p_l / g^l with
    g = sqrt((c-1)(d-1)), in float64 across all samples at once, one l at a
    time.  Inside the band both of its roots have modulus 1, so rounding
    error grows only linearly in l.  mpmath at `precision` digits evaluates
    the three special samples (0 and the band endpoints, where the float
    recurrence is not stable) and every interior sample whose float ratio
    lies within SCREEN_GUARD of 1.0 or of the running maximum for its l.  So
    violations, worst_ratio and worst_lambda (the first sample attaining the
    maximum) are those of evaluating every sample in mpmath; escalations
    counts the samples that were.  Violations are reported per l, never
    raised; entries with l >= ell_min carry the asserted flag.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    lams = _band_samples(c, d, samples, seed)
    threshold = ell_min(c, d)
    exact: dict[int, list[float]] = {}

    def ratios_mp(i: int) -> list[float]:
        if i not in exact:
            with mp.workdps(precision):
                exact[i] = _lemma6_ratios_mp(c, d, lams[i], ell_max)
        return exact[i]

    specials = range(3)  # _band_samples puts 0 and the band endpoints first
    for i in specials:
        ratios_mp(i)
    x = np.array(lams[3:]) ** 2
    g = math.sqrt((c - 1) * (d - 1))
    lead = 2 + math.sqrt(d - 1)
    step = (x - (c - 1) - (d - 1)) / g
    q_prev = np.full_like(x, c / (c - 1))
    q_cur = (x - c) / g
    entries = []
    for ell in range(1, ell_max + 1):
        if ell > 1:
            q_prev, q_cur = q_cur, step * q_cur - q_prev
        ratio = np.abs(q_cur) / (lead * ell)
        top = max([exact[i][ell - 1] for i in specials] + [ratio.max(initial=0.0)])
        near = np.abs(ratio - 1.0) < SCREEN_GUARD
        near |= ratio >= top - SCREEN_GUARD
        decided = {i: exact[i][ell - 1] for i in specials}
        decided.update((3 + j, ratios_mp(3 + j)[ell - 1])
                       for j in np.flatnonzero(near).tolist())
        worst = max(decided.values())
        # the first sample attaining the maximum, as a sequential scan finds it
        worst_at = min(i for i, r in decided.items() if r == worst)
        violations = int(np.count_nonzero(ratio[~near] > 1.0))
        violations += sum(r > 1.0 for r in decided.values())
        entries.append(Lemma6Entry(
            ell=ell,
            asserted=ell >= threshold,
            violations=violations,
            worst_ratio=worst,
            worst_lambda=lams[worst_at],
        ))
    return Lemma6Report(
        c=c, d=d, samples=len(lams), seed=seed, precision=precision,
        ell_min=threshold, entries=tuple(entries), escalations=len(exact),
    )


# -- Lemma 8 (upper bound) and Lemma 9 (lower bound) path-count checks -------


@dataclass(frozen=True)
class Lemma8Report(Report):
    derived = ("ratio",)

    ell: int
    set_size: int
    lhs: int
    rhs: float
    ok: bool

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else 0.0


def _condition9_max_size(n: int, c: int, d: int, ell: int) -> int:
    # |S| (c-1)^{l/2} (d-1)^{l/2} <= n, compared exactly by squaring
    return math.isqrt(n * n // ((c - 1) * (d - 1)) ** ell)


def lemma8_rhs(set_size: int, c: int, d: int, ell: int) -> float:
    return set_size * ((2 + math.sqrt(d - 1)) * ell + 2) * ((c - 1) * (d - 1)) ** (ell / 2)


def lemma8_upper_check(
    g: BipartiteMultigraph,
    s: VertexSet,
    ell: int,
    tolerance: float = spectral.DEFAULT_TOLERANCE,
    ops: NbOperatorSet | None = None,
    certified: bool = False,
) -> Lemma8Report:
    """M_{2l}(S, G) <= |S| ((2+sqrt(d-1)) l + 2) ((c-1)(d-1))^{l/2}.

    Requires l >= 1, a certified bipartite Ramanujan input and the smallness
    condition |S| ((c-1)(d-1))^{l/2} <= n_left (checked exactly).  The walk
    recursion counts from 1_S; pass prebuilt operators and certified=True when
    batch checking.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    c, d = g.require_biregular()
    if not certified and not spectral.spectrum(g, tolerance).ramanujan:
        raise ValueError("graph is not certified bipartite Ramanujan")
    if len(s) > _condition9_max_size(g.n_left, c, d, ell):
        raise ValueError("set too large: smallness condition |S|((c-1)(d-1))^(l/2) <= n fails")
    if ops is None:
        lhs = count_nb_paths(g, s, 2 * ell)
    else:
        lhs = count_nb_paths_operator(ops, s, 2 * ell)
    rhs = lemma8_rhs(len(s), c, d, ell)
    return Lemma8Report(ell=ell, set_size=len(s), lhs=lhs, rhs=rhs, ok=lhs <= rhs)


@dataclass(frozen=True)
class Lemma8ExhaustiveReport(Report):
    ell_max: int
    checked: int
    violations: int
    max_ratio: float


def lemma8_exhaustive_check(g: BipartiteMultigraph, ell_max: int = 4) -> Lemma8ExhaustiveReport:
    """Run lemma8 over *every* S satisfying the smallness condition, l = 1..ell_max,
    on a graph certified at spectral.DEFAULT_TOLERANCE."""
    c, d = g.require_biregular()
    if not spectral.spectrum(g).ramanujan:
        raise ValueError("graph is not certified bipartite Ramanujan")
    ops = build_nb_operators(g, 2 * ell_max)
    checked, violations, max_ratio = 0, 0, 0.0
    for ell in range(1, ell_max + 1):
        size_cap = min(g.n_left, _condition9_max_size(g.n_left, c, d, ell))
        # a set's sum is below |S| Delta^(2l), as in count_nb_paths_operator
        A = ops.operator("LL", 2 * ell).astype(_exact_dtype(size_cap * max(c, d) ** (2 * ell)))
        for size in range(1, size_cap + 1):
            rhs_unit = lemma8_rhs(size, c, d, ell)
            for comb in itertools.combinations(range(g.n_left), size):
                lhs = int(A[np.ix_(comb, comb)].sum())
                checked += 1
                max_ratio = max(max_ratio, lhs / rhs_unit)
                if lhs > rhs_unit:
                    violations += 1
    return Lemma8ExhaustiveReport(
        ell_max=ell_max, checked=checked, violations=violations, max_ratio=max_ratio
    )


@dataclass(frozen=True)
class Lemma9Entry(Report):
    """ok compares count^2 with m^2 ((dbar_L - 1)(dbar_R - 1))^(ell-1) exactly;
    lower_bound is its float approximation and may exceed an equal count."""

    ell: int
    count: int
    lower_bound: float
    ok: bool


@dataclass(frozen=True)
class Lemma9Report(Report):
    derived = ("ok",)

    avg_left_degree: float
    avg_right_degree: float
    entries: tuple[Lemma9Entry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def lemma9_lower_check(g: BipartiteMultigraph, ell_max: int = 8) -> Lemma9Report:
    """M_l(L_G) >= |E| (sqrt((dbar_L - 1)(dbar_R - 1)))^(l-1) for l = 1..ell_max.

    M_l(L_G) counts NB paths once per edge sequence (length 1 gives exactly
    |E|): half the walk recursion's count from all-ones vectors on both sides,
    as no path is its own reversal.  The averages are over the whole graph.
    Holds for any bipartite multigraph with average degrees at least 1; past
    MAX_OPERATOR_LEN or bigraph.MAX_TABLE_PADDING it raises EnumerationBudgetError.
    """
    m = len(g.edges)
    if g.n_left == 0 or g.n_right == 0 or m == 0:
        raise ValueError("graph must have at least one edge on each side")
    dbar_l, dbar_r = m / g.n_left, m / g.n_right
    if dbar_l < 1 or dbar_r < 1:
        raise ValueError("average degrees below 1; the lower bound base is undefined")
    base = math.sqrt((dbar_l - 1) * (dbar_r - 1))
    base_sq = Fraction(m - g.n_left, g.n_left) * Fraction(m - g.n_right, g.n_right)
    left, right = neighbour_tables(g)
    both = [_nb_walk_counts(np.append(np.ones(n, np.int64), 0)[:, None], tables, ell_max)
            for n, tables in ((g.n_left, (right, left)), (g.n_right, (left, right)))]
    entries = []
    for ell in range(1, ell_max + 1):
        count = sum(int(walks[ell].sum()) for walks in both) // 2
        entries.append(Lemma9Entry(ell=ell, count=count, lower_bound=m * base ** (ell - 1),
                                   ok=count * count >= m * m * base_sq ** (ell - 1)))
    return Lemma9Report(avg_left_degree=dbar_l, avg_right_degree=dbar_r,
                        entries=tuple(entries))
