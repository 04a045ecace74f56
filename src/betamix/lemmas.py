"""Executable verifiers for the combinatorics behind the curvature margin.

Four layers live here:

* the majorization trick (weighted-sum domination transfers through a
  decreasing weight sequence), checked hypothesis by hypothesis;
* the window-restricted binomial inequalities of Lemma 2, in continuous
  form ineq4-ineq6 (quadrature over closed-form intervals) and discrete
  form ineq2p1-ineq2p3 (exact integers, zero tolerance), both read from
  one table of what the three inequalities differ in;
* the coefficient-level inequalities (Eq. 12-15) that tie log-concave
  weights to the curvature margin, exact at every order: the weights are
  read as integers over one power-of-two denominator, and each side is an
  integer pair sum over binomial rows, returned as a Fraction. The rows
  come from one running exact product, which the discrete Lemma 2 terms
  read too;
* a brute-force midpoint oracle for the certifier: the chord test on
  log f at random triples, which reads density values only, where the
  certifier reads the curvature margin.

Seeded random generators for log-concave weight vectors and concave
piecewise-linear mixing functions round out the module, as public inputs
for tests and experiments; neither sweep calls them (the continuous sweep
draws its own (M, n, q)).
"""

import warnings
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

import numpy as np

from .mixtures import ContinuousMixture, DiscreteMixture, below_chord, density_grid, is_log_concave_weights
from .quadrature import PANEL_NODES, check_gauss_kronrod, kronrod_integral, panel_counts, panel_nodes
from .special import DomainError, log_abs_gen_binom_ext

# Lemma 2, one row per inequality: (continuous name, discrete name, c, r,
# sign). Each sums lhs C(M-1, i) C(M-1, n-i) and rhs C(M, i+r) C(M-2, n-i-r)
# over a window centred on n + c; sign +1 means lhs >= rhs, -1 lhs <= rhs
_LEMMA2 = (
    ("ineq4", "ineq2p1", 0, 0, 1),
    ("ineq5", "ineq2p2", 1, 0, -1),
    ("ineq6", "ineq2p3", 0, 1, 1),
)
_ROW = {name: row[2:] for row in _LEMMA2 for name in row[:2]}
CONTINUOUS_WHICH = tuple(row[0] for row in _LEMMA2)
DISCRETE_WHICH = tuple(row[1] for row in _LEMMA2)

# the discrete sweep's first M and k, check_majorization's relative slack,
# and the random generators' largest log-weight step and most linear pieces
_SWEEP_MIN_M, _SWEEP_K_MIN = 2, -1
_MAJORIZATION_TOL = 1e-10
_MAX_LOG_STEP, _MAX_SEGMENTS = 1.0, 16


# a continuous case holds when its margin is at least -CONTINUOUS_SLACK, an
# absolute slack for the quadrature error of its two sides (Gauss-Kronrod
# integrals, each gated by quadrature.REL_TOL); a discrete case is exact and
# holds when its margin is at least 0
CONTINUOUS_SLACK = 1e-7


class LemmaCase(NamedTuple):
    """One evaluated inequality instance: parameters, both sides and the verdict.

    window is q (continuous) or k (discrete). margin is sign * (lhs - rhs),
    oriented so that the inequality holds iff margin >= 0. holds is set
    where the case is built: margin >= 0 exactly on the integers of a
    discrete case, margin >= -CONTINUOUS_SLACK for a continuous one.
    clipped records that the requested q exceeded the widest window for
    which the integration set stays inside its constraint strip and was
    reduced accordingly (always False for a discrete case).
    """

    M: float
    n: float
    window: float
    which: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    clipped: bool = False


# ---------------------------------------------------------------------------
# majorization


def check_majorization(a, b, u, v, m: float | None = None) -> dict:
    """Verify the majorization hypotheses and conclusion numerically for the quadruple (a, b, u, v).

    With m set, the four equal-length 1-D arrays sample functions on a
    uniform grid over [0, m], at least two points, and integrals are
    trapezoid sums; with m=None they are plain finite sequences and
    integrals are plain sums. Any other shape, or m <= 0, raises
    ValueError. Hypotheses: a decreasing, a >= b >= 0, u and v nonnegative,
    and the running (weighted) sums of u dominate those of v. Conclusion:
    sum(a*u) >= sum(b*v) in the same weighting. Whenever hypotheses_ok is
    reported the conclusion is guaranteed up to rounding (relative slack
    _MAJORIZATION_TOL).
    """
    a, b, u, v = (np.asarray(arr, dtype=float) for arr in (a, b, u, v))
    n = a.size
    if any(arr.ndim != 1 or arr.shape[0] != n for arr in (a, b, u, v)):
        raise ValueError("a, b, u, v must be 1-D arrays of equal length")
    w = np.ones(n)
    if m is not None:
        if n < 2:
            raise ValueError("continuous tabulation needs at least two grid points")
        if not m > 0.0:
            raise ValueError("domain length m must be positive")
        w *= m / (n - 1)
        w[[0, -1]] *= 0.5
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(u))), float(np.max(np.abs(v))))
    slack = _MAJORIZATION_TOL * scale
    nonneg = all(bool(np.all(arr >= -slack)) for arr in (a, b, u, v))
    a_decreasing = bool(np.all(np.diff(a) <= slack))
    a_dominates_b = bool(np.all(a >= b - slack))
    run_u = np.cumsum(w * u)
    run_v = np.cumsum(w * v)
    running_ok = bool(np.all(run_u >= run_v - slack * np.maximum(1.0, np.abs(run_v))))
    hypotheses_ok = nonneg and a_decreasing and a_dominates_b and running_ok
    lhs = float(np.dot(w, a * u))
    rhs = float(np.dot(w, b * v))
    conclusion_scale = max(1.0, abs(lhs), abs(rhs))
    return {
        "hypotheses_ok": hypotheses_ok,
        "conclusion_ok": lhs >= rhs - _MAJORIZATION_TOL * conclusion_scale,
        "lhs": lhs,
        "rhs": rhs,
    }


# ---------------------------------------------------------------------------
# window-restricted binomial inequalities, continuous form


def _window_interval(M: float, n: float, q: float, which: str):
    """Closed-form integration interval for one inequality's window set.

    Each set is {lower constraints} intersected with |2s - (n + c)| <= q
    around the row's window centre n + c. The requested q is clipped to
    min(n + c + 2r, 2M - n - c - 2r), the widest value keeping the interval
    inside the constraint strip (beyond that the lower constraints truncate
    the window asymmetrically and the inequality is no longer covered).
    Returns (lo, hi, clipped) with lo >= hi meaning the empty set, which
    a clip to q_eff <= 0 gives.
    """
    c, r, _ = _ROW[which]
    center = n + c
    q_eff = min(q, center + 2 * r, 2.0 * M - n - c - 2 * r)
    return (center - q_eff) / 2.0, (center + q_eff) / 2.0, q_eff < q


# Cases per array pass of lemma2_continuous_cases: a pass holds about two
# dozen doubles per node, and a case in the sweep (M <= 20) has about 100
# nodes on average, so a pass peaks near 5 MB whatever the number of cases
_CASES_PER_PASS = 256


def _lemma2_pass(cases) -> list[LemmaCase]:
    """One array pass of lemma2_continuous_cases over valid cases."""
    windows = [_window_interval(*case) for case in cases]
    live = [i for i, (lo, hi, _) in enumerate(windows) if lo < hi]
    sides = np.zeros((2, len(cases)))
    if live:
        lo, hi = np.array([windows[i][:2] for i in live]).T
        # one panel per unit, the first tier of quadrature.panel_ladder: the lemma
        # integrands have no x-tilt, and the gate below judges each integral;
        # window i is segment 3i, and its node run follows from its panels
        breakpoints = np.stack([lo, hi, hi], axis=1).ravel()
        counts = panel_counts(breakpoints, np.tile([0.0, 0.0, -np.inf], len(live)))
        s, wk, wg = panel_nodes(breakpoints, counts)
        nodes = PANEL_NODES * counts[::3]
        M, n, r = np.repeat([(cases[i][0], cases[i][1], _ROW[cases[i][3]][1]) for i in live], nodes, axis=0).T
        ext = [log_abs_gen_binom_ext(m, t) for m, t in ((M - 1.0, s), (M - 1.0, n - s), (M, s + r), (M - 2.0, n - s - r))]
        f = np.stack([a[1] * b[1] * np.exp(a[0] + b[0]) for a, b in (ext[:2], ext[2:])])
        kronrod, gap = kronrod_integral(wk, wg, f, np.cumsum(nodes) - nodes)
        worst = cases[live[np.argmax(gap.max(axis=0))]]
        check_gauss_kronrod(gap, "{3} integrand (M={0}, n={1}, q={2})".format(*worst))
        sides[:, live] = kronrod
    margin = np.array([_ROW[case[3]][2] for case in cases]) * (sides[0] - sides[1])
    return [LemmaCase(*case, *values, window[2])
            for case, window, *values in zip(cases, windows, *sides.tolist(), margin.tolist(),
                                             (margin >= -CONTINUOUS_SLACK).tolist())]


def lemma2_continuous_cases(cases) -> list[LemmaCase]:
    """Evaluate a list of (M, n, q, which) integral inequalities in array passes.

    Each pass takes up to _CASES_PER_PASS cases. Every live window gets
    Gauss-Kronrod panels at one per unit of s, counted by
    quadrature.panel_counts and laid out by a single panel_nodes call, whose
    breakpoints cut each window from the next by a point of -inf log value,
    and its run of nodes is read off its count; four log_abs_gen_binom_ext
    calls give lhs C(M-1, s) C(M-1, n-s) and rhs C(M, s+r) C(M-2, n-s-r) at
    every node, and one quadrature.kronrod_integral call integrates both
    sides of every case over its run of nodes. One check_gauss_kronrod call
    gates every integral of the pass, each gap measured on the Kronrod
    integral of |integrand|, and names the case of the largest. A case's
    values do not depend on the other cases in the list. An empty window
    reads 0 on both sides. Each pass sets its cases' margins and verdicts
    (LemmaCase) in one array operation each.
    """
    for M, n, q, which in cases:
        for name, value, floor in (("M", M, 1.0), ("q", q, 0.0), ("n", n, -2.0)):
            if not value > floor:
                raise DomainError(f"lemma2_continuous requires {name} > {floor:g}, got {value!r}")
        if which not in CONTINUOUS_WHICH:
            raise ValueError(f"which must be one of {CONTINUOUS_WHICH}, got {which!r}")
    return [case for i in range(0, len(cases), _CASES_PER_PASS) for case in _lemma2_pass(cases[i:i + _CASES_PER_PASS])]


def lemma2_continuous(M: float, n: float, q: float, which: str) -> LemmaCase:
    """Evaluate one of the three window-restricted integral inequalities.

    The one-case call of lemma2_continuous_cases: one Gauss-Kronrod panel
    per unit of s, each integral gated by its Kronrod-Gauss gap. The
    binomial factors use the extension beyond their positivity domain (the
    same Gamma functional equations behind the Pascal identities), since
    the window set can carry the second factor's argument past its
    positive range even after clipping.
    """
    return lemma2_continuous_cases([(M, n, q, which)])[0]


# ---------------------------------------------------------------------------
# discrete form, exact arithmetic


def _binomial_row(m: int, u, length: int) -> list[int]:
    """[u_i C(m, i) for i < length] (shorter if u is), C(m, i) by the running exact product c <- c (m-i) // (i+1).

    The product reaches 0 at i = m + 1 and stays there; for m < 0 every C(m, i) is 0.
    """
    row, c = [], int(m >= 0)
    for i, v in zip(range(length), u):
        row.append(v * c)
        c = c * (m - i) // (i + 1)
    return row


def _lemma2_prefix_sums(M: int, n: int):
    """Running sums of Lemma 2's exact terms at (M, n): lhs, then rhs for r = 0 and r = 1.

    Entry j sums the terms of i = -1 .. j-2; outside [-1, n] every term
    vanishes (zero-extended binomials), so each list has n + 3 entries and
    any window is the difference of two of them. The binomials come from
    _binomial_row; the rhs terms for r = 1 are those for r = 0 moved one
    index down.
    """
    a, b, e = (_binomial_row(m, repeat(1), n + 1) for m in (M - 1, M, M - 2))
    lhs, rhs = list(map(mul, a, reversed(a))), list(map(mul, b, reversed(e)))
    return [list(accumulate(terms, initial=0)) for terms in ([0, *lhs], [0, *rhs], [*rhs, 0])]


def _lemma2_window(M: int, n: int, k: int, which: str, sums) -> LemmaCase:
    """The case (M, n, k, which), its window k..n-k+c read off (M, n)'s _lemma2_prefix_sums.

    The sums' entry j covers the terms below index j - 1, so the window is
    entries max(k + 1, 0) to min(n - k + c + 2, n + 2); k <= (n + 1) / 2
    keeps the first at most the second. margin and holds are exact.
    """
    c, r, sign = _ROW[which]
    lo, hi = max(k + 1, 0), min(n - k + c + 2, n + 2)
    lhs, rhs = sums[0][hi] - sums[0][lo], sums[1 + r][hi] - sums[1 + r][lo]
    margin = sign * (lhs - rhs)
    return LemmaCase(M, n, k, which, lhs, rhs, margin, margin >= 0)


def lemma2_discrete(M: int, n: int, k: int, which: str) -> LemmaCase:
    """Exact-integer evaluation of one window-restricted binomial sum inequality.

    The case's sides and margin are Python ints; it holds iff the margin is >= 0.
    """
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise DomainError(f"lemma2_discrete requires a positive integer M, got {M!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise DomainError(f"lemma2_discrete requires a nonnegative integer n, got {n!r}")
    if not (isinstance(k, (int, np.integer)) and 2 * k <= n + 1):
        raise DomainError(f"lemma2_discrete requires integer k <= (n+1)/2, got k={k!r}, n={n!r}")
    if which not in DISCRETE_WHICH:
        raise ValueError(f"which must be one of {DISCRETE_WHICH}, got {which!r}")
    M, n, k = int(M), int(n), int(k)
    return _lemma2_window(M, n, k, which, _lemma2_prefix_sums(M, n))


def discrete_lemma_sweep(max_M: int = 12) -> list[LemmaCase]:
    """Exhaustively evaluate all three discrete inequalities.

    Covers every 2 <= M <= max_M, 0 <= n <= 2M-2, and integer k from -1
    up to floor((n+1)/2), skipping empty windows k..n-k+c. k <= 0
    reproduces the full-range Vandermonde equality since out-of-range
    terms vanish. The sweep starts at M = 2 because the middle inequality
    is vacuously broken at M = 1: its right side carries a C(-1, .)
    factor that the zero-extension convention kills entirely (the factor
    only ever arises from second derivatives, which need M >= 2); a
    smaller max_M, which would sweep nothing, raises ValueError. The exact
    terms of each (M, n) are summed once (_lemma2_prefix_sums) and every
    window is read off those sums, as lemma2_discrete reads it: each case
    carries its integer sides and margin, and holds iff the margin is >= 0.
    """
    if max_M < _SWEEP_MIN_M:
        raise ValueError(f"the discrete sweep needs max_M >= {_SWEEP_MIN_M}, got {max_M!r}")
    cases = []
    for M in range(_SWEEP_MIN_M, max_M + 1):
        for n in range(0, 2 * M - 1):
            sums = _lemma2_prefix_sums(M, n)
            for k in range(_SWEEP_K_MIN, (n + 1) // 2 + 1):
                for _, which, c, _, _ in _LEMMA2:
                    if n - k + c >= k:
                        cases.append(_lemma2_window(M, n, k, which, sums))
    return cases


# ---------------------------------------------------------------------------
# coefficient-level inequalities for weight vectors, exact


def _exact_sides(weights, M: int, n: int, pairs):
    """The checked DiscreteMixture(M, weights) and both sides of a coefficient at order n, as Fractions.

    Every double is a dyadic rational, so with D the largest power-of-two
    denominator the weights are integers W_i over D. pairs(W) gives
    ((u, v), (x, y)); lhs sums u_i v_j C(M-1, i) C(M-1, j) and rhs
    x_i y_j C(M, i) C(M-2, j) over i + j = n, each an exact pair sum of
    two _binomial_row lists, over D^2.
    """
    from fractions import Fraction

    if not 0 <= n <= 2 * M - 2:
        raise DomainError(f"n must satisfy 0 <= n <= 2M-2, got n={n!r}, M={M!r}")
    mix = DiscreteMixture(M, weights)
    ratios = [w.as_integer_ratio() for w in mix.weights.tolist()]
    D = max(den for _, den in ratios)
    sides = []
    for (u, v), (mu, mv) in zip(pairs([num * (D // den) for num, den in ratios]), ((M - 1, M - 1), (M, M - 2))):
        a, b = _binomial_row(mu, u, n + 1), _binomial_row(mv, v, n + 1)
        lo, hi = max(0, n - len(b) + 1), min(n, len(a) - 1)
        sides.append(Fraction(sum(map(mul, a[lo:hi + 1], b[n - hi:n - lo + 1][::-1])), D * D))
    return mix, tuple(sides)


# index shifts (a, b, c, d) of each coefficient-level inequality: over i + j
# = n, lhs sums w_{i+a} w_{j+b} C(M-1, i) C(M-1, j) and rhs sums
# w_{i+c} w_{j+d} C(M, i) C(M-2, j)
_CORE_SHIFTS = {13: (0, 0, 0, 0), 14: (0, 1, 0, 1), 15: (1, 1, 0, 2)}


def core_inequalities_discrete(weights, M: int, n: int, which: int):
    """Both sides of one coefficient-level inequality (which in {13, 14, 15}), as exact Fractions.

    For log-concave weights the direction is lhs >= rhs for 13 and 15 and
    lhs <= rhs for 14; a non-log-concave input is reported by warning, not
    an error. Weights that are no DiscreteMixture(M, weights) raise
    ValueError.
    """
    if which not in _CORE_SHIFTS:
        raise ValueError(f"which must be 13, 14 or 15, got {which!r}")
    a, b, c, d = _CORE_SHIFTS[which]
    mix, sides = _exact_sides(weights, M, n, lambda W: ((W[a:], W[b:]), (W[c:], W[d:])))
    if not is_log_concave_weights(mix):
        warnings.warn("weight vector is not log-concave; the inequality direction is not guaranteed",
                      stacklevel=2)
    return sides


def coefficient_inequality_12(weights, M: int, n: int):
    """Both sides of the coefficient identity behind the curvature margin, as exact Fractions.

    lhs pairs first differences against C(M-1,i)C(M-1,j); rhs pairs a
    weight against a second difference with C(M,i)C(M-2,j); indices run
    over i+j = n with out-of-range weights equal to zero. For log-concave
    weights lhs >= rhs, and M(M-1) * sum_n (lhs-rhs) (1-x)^n x^(2M-2-n)
    equals ((M-1)/M) g'(x)^2 - g(x) g''(x). Weights that are no
    DiscreteMixture(M, weights) raise ValueError.
    """
    def pairs(W):
        d1 = [x - y for x, y in zip(W, W[1:])]
        return (d1, d1), (W, [x - y for x, y in zip(d1, d1[1:])])

    return _exact_sides(weights, M, n, pairs)[1]


# ---------------------------------------------------------------------------
# brute-force midpoint oracle


_MIDPOINT_SLACK = 1e-10


def midpoint_triples(count: int, eps: float, rng):
    """count random triples (x, y, l) for the midpoint checks, and the points to evaluate them at.

    Draws count points x, then y, in [eps, 1-eps] and count weights l from
    rng. Returns ((x, y, l), points), points being x, then y, then the
    midpoints lx + (1-l)y, in one array.
    """
    x = eps + (1.0 - 2.0 * eps) * rng.random(count)
    y = eps + (1.0 - 2.0 * eps) * rng.random(count)
    lam = rng.random(count)
    return (x, y, lam), np.concatenate([x, y, lam * x + (1.0 - lam) * y])


def midpoint_check(triples, log_f):
    """The defining inequality on logs, f(lx+(1-l)y) >= f(x)^l f(y)^(1-l), at each of the triples.

    log_f holds log f at the points of midpoint_triples, in their order.
    Counts the triples where log f at the midpoint falls below the chord
    by more than _MIDPOINT_SLACK (below_chord), so a zero at x or y fails
    nothing. Returns (n_failures, first witness (x, y, l) or None).
    """
    x, y, lam = triples
    lx, ly, lm = np.split(log_f, 3)
    bad = np.flatnonzero(below_chord(lx, lm, ly, lam, _MIDPOINT_SLACK))
    witness = (float(x[bad[0]]), float(y[bad[0]]), float(lam[bad[0]])) if bad.size else None
    return int(bad.size), witness


def brute_force_logconcavity(mix, samples: int = 1000, seed: int = 0) -> dict:
    """Direct midpoint-definition test over random (x, y, lambda) triples.

    Independent of the analytic-derivative machinery: only density values
    enter, those of the unit-scaled mixture (density_grid), whose logs differ
    from the mixture's by one constant, so no weight scale makes them
    underflow. Returns {"ok": bool, "witness": (x, y, lam) or None}.
    """
    triples, pts = midpoint_triples(samples, 1e-9, np.random.default_rng(seed))
    with np.errstate(divide="ignore"):
        log_f = np.log(density_grid(mix, pts))
    failures, witness = midpoint_check(triples, log_f)
    return {"ok": failures == 0, "witness": witness}


# ---------------------------------------------------------------------------
# seeded random generators (inputs for tests and experiments)


def random_log_concave_weights(rng, M: int, zero_edges: bool = False):
    """Random log-concave weight vector of length M+1.

    Built as exp of a concave sequence: increments are the running sums of
    a decreasing slope sequence, so second differences are <= 0 by
    construction. _MAX_LOG_STEP bounds |log w_{i+1} - log w_i|, keeping the
    curvature margins well inside floating-point resolution. With
    zero_edges, a random prefix and/or suffix is zeroed out.
    """
    start = rng.uniform(-0.5 * _MAX_LOG_STEP, 0.5 * _MAX_LOG_STEP)
    drops = rng.uniform(0.0, _MAX_LOG_STEP / max(M, 1), size=max(M, 1))
    slopes = start - np.concatenate([[0.0], np.cumsum(drops[:-1])]) if M >= 1 else np.empty(0)
    levels = np.concatenate([[0.0], np.cumsum(slopes)])
    levels -= np.max(levels)
    w = np.exp(levels)
    if zero_edges:
        lead = int(rng.integers(0, max(1, M // 3)))
        trail = int(rng.integers(0, max(1, M // 3)))
        w[:lead] = 0.0
        w[len(w) - trail :] = 0.0
        if not np.any(w > 0.0):
            w[M // 2] = 1.0
    return w


def random_concave_mixture(rng, M: float | None = None, m_range=(2.0, 20.0)) -> ContinuousMixture:
    """Random continuous mixture with a concave piecewise-linear log mixing.

    Chord slopes decrease strictly across the knots, so the represented
    mixing function is log-concave and the curvature margin stays safely
    positive at grid resolution.
    """
    if M is None:
        lo, hi = m_range
        M = lo + (hi - lo) * (1.0 - rng.random())
    M = float(M)
    n_seg = int(rng.integers(1, _MAX_SEGMENTS + 1))
    interior = np.sort(rng.uniform(0.05 * M, 0.95 * M, size=n_seg - 1))
    # enforce a minimum knot separation so panels stay well conditioned
    sep = 1e-3 * M
    kept = []
    last = 0.0
    for t in interior:
        if t - last >= sep and M - t >= sep:
            kept.append(t)
            last = t
    knots = np.concatenate([[0.0], kept, [M]])
    seg = np.diff(knots)
    start_slope = rng.uniform(-1.5, 1.5)
    gaps = rng.uniform(0.05, 2.0 / max(len(seg), 1), size=len(seg))
    slopes = start_slope - np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    levels = np.concatenate([[0.0], np.cumsum(slopes * seg)])
    levels -= np.max(levels)
    return ContinuousMixture(M, knots, levels)


def continuous_lemma_sweep(count: int = 50, seed: int = 0) -> list[LemmaCase]:
    """Randomized sweep of the three continuous inequalities.

    Draws M in (1, 20], n in (-2, 2M-2] and q in (0, 2M]; each draw is
    evaluated for all three inequalities (3 * count cases), all of them in
    one lemma2_continuous_cases call at one panel per unit of s, so each
    case is the one lemma2_continuous gives and holds iff its margin is at
    least -CONTINUOUS_SLACK. A negative count raises ValueError.
    """
    if count < 0:
        raise ValueError(f"the continuous sweep needs count >= 0, got {count!r}")
    u = 1.0 - np.random.default_rng(seed).random((count, 3))
    m = 1.0 + 19.0 * u[:, 0]
    draws = zip(m.tolist(), (-2.0 + 2.0 * m * u[:, 1]).tolist(), (2.0 * m * u[:, 2]).tolist())
    return lemma2_continuous_cases([(M, n, q, which) for M, n, q in draws for which in CONTINUOUS_WHICH])
