"""Independent oracles shared across the test suite.

Everything here deliberately avoids the package's evaluation paths:
binomials come from Pascal's triangle, scipy's gammaln or mpmath's rgamma,
integrals from brute-force midpoint Riemann sums or mpmath.quad,
derivatives from central differences, densities from the direct textbook
summation, Bernstein forms from the one-shot de Casteljau recurrence,
quadrature panels one interval at a time, the sign of the discrete
Eq. 10 margin from integer sums, and the Eq. 12-15 coefficients from
Fraction double loops.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln


def pascal_triangle(n_max):
    """Rows 0..n_max of Pascal's triangle as exact integers."""
    rows = [[1]]
    for m in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, m)] + [1])
    return rows


def binom_ext_oracle(m, s):
    """Continuation of the generalized binomial via gammaln, sign-tracked."""
    s = np.asarray(s, dtype=float)
    a = s + 1.0
    b = m - s + 1.0

    def recip_sign(z):
        sign = np.ones_like(z)
        neg = z < 0
        sign[neg] = np.where((np.floor(-z[neg]).astype(int) % 2) == 0, -1.0, 1.0)
        return sign

    with np.errstate(invalid="ignore"):
        vals = np.exp(gammaln(m + 1.0) - gammaln(a) - gammaln(b))
    return recip_sign(a) * recip_sign(b) * np.where(np.isfinite(vals), vals, 0.0)


def riemann(fn, a, b, n=1_000_000):
    """Midpoint Riemann sum with n points."""
    if not b > a:
        return 0.0
    s = a + (np.arange(n) + 0.5) * ((b - a) / n)
    return float(np.mean(fn(s)) * (b - a))


def riemann_cdf(density_fn, x, n=20_000, lo=1e-12):
    """integral of a vectorized density over [0, x], as a midpoint sum in u = log t.

    The substitution t = e^u resolves the logarithmic endpoint behaviour of
    continuous-mixture densities at 0. The part below lo is dropped: the
    densities are bounded, so it is at most lo times their maximum.
    """
    du = (math.log(x) - math.log(lo)) / n
    t = np.exp(math.log(lo) + (np.arange(n) + 0.5) * du)
    return float(np.sum(density_fn(t) * t) * du)


def panel_nodes_per_interval(rule, breakpoints, log_values=None, per_unit=8):
    """Composite nodes and weights built one knot interval at a time.

    The reference for the vectorised panel builder. rule is (t, wk, wg), the
    nodes on [0, 1] and their two weight sets. An interval [a, b] of positive
    length whose log values are both finite gets n = max(ceil(per_unit *
    (b - a)), ceil(min(|l_b - l_a|, 800) / 4), 1) panels, whose edges are
    np.linspace(a, b, n + 1); every other interval gets none.
    """
    t, wk, wg = rule
    bps = [float(v) for v in breakpoints]
    lv = [0.0] * len(bps) if log_values is None else [float(v) for v in log_values]
    parts = [[np.empty(0)] * 3]
    for a, b, la, lb in zip(bps[:-1], bps[1:], lv[:-1], lv[1:]):
        if not (b > a and math.isfinite(la) and math.isfinite(lb)):
            continue
        drop_panels = max(1, math.ceil(min(abs(lb - la), 800.0) / 4.0))
        edges = np.linspace(a, b, max(math.ceil((b - a) * per_unit), drop_panels) + 1)
        lo = edges[:-1, None]
        h = np.diff(edges)[:, None]
        parts.append([(lo + h * t).ravel(), (h * wk).ravel(), (h * wg).ravel()])
    return tuple(np.concatenate(column) for column in zip(*parts))


def direct_bernstein_sum(weights, M, x):
    """Textbook summation of the discrete mixture density."""
    return sum(
        weights[i] * math.comb(M, i) * (1.0 - x) ** i * x ** (M - i) for i in range(M + 1)
    )


def decasteljau_oneshot(coeffs, x):
    """de Casteljau over all points at once, one fresh array per step.

    The reference for the blocked, in-place evaluator: each step forms
    b[:-1] * (1-x) + b[1:] * x over every point, so the two must agree bit
    for bit.
    """
    x = np.asarray(x, dtype=float)
    b = np.repeat(coeffs[:, None], x.size, axis=1)
    one_minus = 1.0 - x.ravel()
    xr = x.ravel()
    for _ in range(len(coeffs) - 1):
        b = b[:-1] * one_minus + b[1:] * xr
    return b[0].reshape(x.shape)


def discrete_derivs_oneshot(weights, M, x):
    """(g, g', g'') from the weight differences, each by decasteljau_oneshot."""
    w = np.asarray(weights, dtype=float)
    g = decasteljau_oneshot(w[::-1], x)
    d1w = M * (w[:-1] - w[1:])
    d1 = decasteljau_oneshot(d1w[::-1], x)
    if M >= 2:
        d2w = M * (M - 1) * (w[:-2] - 2.0 * w[1:-1] + w[2:])
        d2 = decasteljau_oneshot(d2w[::-1], x)
    else:
        d2 = np.zeros_like(g)
    return g, d1, d2


def central_d1(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def central_d2(fn, x, h=1e-5):
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def ks_distance(draws, cdf_fn):
    """Two-sided Kolmogorov distance of draws against a CDF callable."""
    xs = np.sort(np.asarray(draws))
    n = xs.size
    f = cdf_fn(xs)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def piecewise_linear_log_alpha(knots, log_vals, s):
    """Independent evaluation of exp(piecewise-linear) mixing, 0 outside."""
    knots = np.asarray(knots, dtype=float)
    log_vals = np.asarray(log_vals, dtype=float)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for j in range(len(knots) - 1):
        a, b = knots[j], knots[j + 1]
        la, lb = log_vals[j], log_vals[j + 1]
        if not (np.isfinite(la) and np.isfinite(lb)):
            continue
        inside = (s >= a) & (s <= b)
        t = (s[inside] - a) / (b - a)
        out[inside] = np.exp((1.0 - t) * la + t * lb)
    return out


def continuous_derivs_quad(M, knots, log_alpha, x):
    """(f, f', f'') of a continuous mixture at x by adaptive scipy quadrature.

    The integrand alpha(s) C(M,s) (1-x)^s x^(M-s) is differentiated in x
    under the integral sign: d/dx multiplies it by u = (M-s)/x - s/(1-x)
    and d2/dx2 by u^2 - (M-s)/x^2 - s/(1-x)^2. Each active knot interval
    is integrated separately, after a shift of the log integrand by its
    largest value on that interval, and cut where the derivative factor
    changes sign.
    """
    from scipy.integrate import quad

    lx, l1x = math.log(x), math.log1p(-x)
    segments = [
        (a, b, la, lb)
        for a, b, la, lb in zip(knots[:-1], knots[1:], log_alpha[:-1], log_alpha[1:])
        if np.isfinite(la) and np.isfinite(lb)
    ]

    def log_integrand(s, a, b, la, lb):
        return (la + (lb - la) * (s - a) / (b - a) + gammaln(M + 1.0) - gammaln(s + 1.0)
                - gammaln(M - s + 1.0) + s * l1x + (M - s) * lx)

    # each interval is integrated on its own scale, so none of its values is
    # subnormal, and scaled back to the largest
    shifts = [float(np.max(log_integrand(np.linspace(a, b, 513), a, b, la, lb))) for a, b, la, lb in segments]
    shift = max(shifts)

    def u(s):
        return (M - s) / x - s / (1.0 - x)

    def u2_du(s):
        return u(s) ** 2 - (M - s) / x**2 - s / (1.0 - x) ** 2

    # each factor as a polynomial in s, highest power first: u = A - B s
    A, B = M / x, 1.0 / (x * (1.0 - x))
    factors = (
        (lambda s: 1.0, [1.0]),
        (u, [-B, A]),
        (u2_du, [B * B, -2.0 * A * B + 1.0 / x**2 - 1.0 / (1.0 - x) ** 2, A * A - M / x**2]),
    )

    totals = np.zeros(3)
    for (a, b, la, lb), shift_j in zip(segments, shifts):
        def base(s):
            return math.exp(log_integrand(s, a, b, la, lb) - shift_j)

        for j, (factor, coeffs) in enumerate(factors):
            # cut at the factor's sign changes, so that no piece's integral
            # cancels below the relative accuracy quad is asked for
            roots = np.roots(coeffs)
            cuts = [a, *sorted(float(r.real) for r in roots if r.imag == 0.0 and a < r.real < b), b]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                value = quad(lambda s: base(s) * factor(s), lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                totals[j] += math.exp(shift_j - shift) * value
    return tuple(math.exp(shift) * totals)


def _comb(m, k):
    """C(m, k) for integers, 0 unless 0 <= k <= m."""
    return math.comb(m, k) if 0 <= k <= m else 0


def lemma2_discrete_sums(M, n, k):
    """Both sides of each discrete inequality of Lemma 2, written out one by one.

    ineq2p1: sum_{i=k}^{n-k} C(M-1,i) C(M-1,n-i) >= sum_{i=k}^{n-k} C(M,i) C(M-2,n-i)
    ineq2p2: sum_{i=k}^{n-k+1} C(M-1,i) C(M-1,n-i) <= sum_{i=k}^{n-k+1} C(M,i) C(M-2,n-i)
    ineq2p3: sum_{i=k}^{n-k} C(M-1,i) C(M-1,n-i) >= sum_{i=k}^{n-k} C(M,i+1) C(M-2,n-i-1)
    """
    C = _comb
    return {
        "ineq2p1": (
            sum(C(M - 1, i) * C(M - 1, n - i) for i in range(k, n - k + 1)),
            sum(C(M, i) * C(M - 2, n - i) for i in range(k, n - k + 1)),
        ),
        "ineq2p2": (
            sum(C(M - 1, i) * C(M - 1, n - i) for i in range(k, n - k + 2)),
            sum(C(M, i) * C(M - 2, n - i) for i in range(k, n - k + 2)),
        ),
        "ineq2p3": (
            sum(C(M - 1, i) * C(M - 1, n - i) for i in range(k, n - k + 1)),
            sum(C(M, i + 1) * C(M - 2, n - i - 1) for i in range(k, n - k + 1)),
        ),
    }


def coefficient_sides_fraction(weights, M, which):
    """Both sides of Eq. 12 (which=12) or of Eq. 13-15 at every n = 0..2M-2, as Fractions.

    A double loop over i, j in 0..M adds each product into entry n = i + j:
    lhs takes u_i v_j C(M-1,i) C(M-1,j) and rhs x_i y_j C(M,i) C(M-2,j),
    with each weight read exactly as Fraction(w_i) and 0 outside 0..M.
    Eq. 12: u = v = w_i - w_(i+1), x = w_i, y = w_j - 2w_(j+1) + w_(j+2).
    Eq. 13: w_i w_j on both sides; Eq. 14: w_i w_(j+1) on both sides;
    Eq. 15: lhs w_(i+1) w_(j+1), rhs w_i w_(j+2).
    """
    w = [Fraction(float(v)) for v in weights]

    def at(i):
        return w[i] if 0 <= i <= M else Fraction(0)

    lhs_term, rhs_term = {
        12: (lambda i, j: (at(i) - at(i + 1)) * (at(j) - at(j + 1)),
             lambda i, j: at(i) * (at(j) - 2 * at(j + 1) + at(j + 2))),
        13: (lambda i, j: at(i) * at(j), lambda i, j: at(i) * at(j)),
        14: (lambda i, j: at(i) * at(j + 1), lambda i, j: at(i) * at(j + 1)),
        15: (lambda i, j: at(i + 1) * at(j + 1), lambda i, j: at(i) * at(j + 2)),
    }[which]
    lhs = [Fraction(0)] * (2 * M - 1)
    rhs = [Fraction(0)] * (2 * M - 1)
    for i in range(M + 1):
        for j in range(M + 1):
            # every term past n = 2M-2 has a vanishing binomial
            if i + j <= 2 * M - 2:
                lhs[i + j] += lhs_term(i, j) * _comb(M - 1, i) * _comb(M - 1, j)
                rhs[i + j] += rhs_term(i, j) * _comb(M, i) * _comb(M - 2, j)
    return lhs, rhs


def lemma2_continuous_mp(M, n, q, which, dps=30):
    """Both sides of one continuous inequality of Lemma 2, by mpmath at dps digits.

    ineq4: lhs C(M-1,s) C(M-1,n-s), rhs C(M,s) C(M-2,n-s), over |2s - n| <= q
    ineq5: the same integrands, over |2s - (n+1)| <= q
    ineq6: lhs as ineq4, rhs C(M,s+1) C(M-2,n-s-1), over |2s - n| <= q
    with C(m, s) = Gamma(m+1) rGamma(s+1) rGamma(m-s+1), mpmath's entire
    reciprocal Gamma carrying it past its positive range. The window is
    taken as given, unclipped, and integrated by mpmath.quad (Gauss-Legendre)
    in pieces of at most 8 units of s.
    """
    import mpmath

    c, r = {"ineq4": (0, 0), "ineq5": (1, 0), "ineq6": (0, 1)}[which]
    with mpmath.workdps(dps):
        M, n, q = (mpmath.mpf(float(v)) for v in (M, n, q))
        gamma = {m: mpmath.gamma(m + 1) for m in (M - 2, M - 1, M)}

        def binom(m, s):
            return gamma[m] * mpmath.rgamma(s + 1) * mpmath.rgamma(m - s + 1)

        lo, hi = (n + c - q) / 2, (n + c + q) / 2
        pieces = mpmath.linspace(lo, hi, int(mpmath.ceil((hi - lo) / 8)) + 1)
        sides = (lambda s: binom(M - 1, s) * binom(M - 1, n - s), lambda s: binom(M, s + r) * binom(M - 2, n - s - r))
        return tuple(float(mpmath.quad(fn, pieces, method="gauss-legendre")) for fn in sides)


def posterior_moments_mp(M, knots, log_alpha, x, dps=30):
    """(log f, m, V) of a continuous mixture at x, by mpmath at dps digits.

    f is the integral over s of alpha(s) C(M, s) (1-x)^s x^(M-s), with
    C(M, s) = Gamma(M+1) / (Gamma(s+1) Gamma(M-s+1)) from mpmath's
    loggamma, and m and V are the mean and variance of s under the
    integrand normalized to mass one. Each knot interval with two finite
    ends is integrated on its own by mpmath.quad (tanh-sinh), cut into
    pieces of at most 8 units of s. The log integrand is shifted by its
    largest value on a 65-point grid of each interval first, and intervals
    whose grid values all stay more than 4 dps below that are left out:
    the log integrand is concave within an interval, so its maximum there
    is at most a grid step's slope above its grid values, and such an
    interval changes no digit. V is formed about m, in a second pass.
    """
    import mpmath

    with mpmath.workdps(dps):
        M, x = mpmath.mpf(M), mpmath.mpf(x)
        lx, l1x, lgm = mpmath.log(x), mpmath.log1p(-x), mpmath.loggamma(M + 1)
        segments = []
        for a, b, la, lb in zip(knots[:-1], knots[1:], log_alpha[:-1], log_alpha[1:]):
            if not (math.isfinite(la) and math.isfinite(lb)):
                continue
            a, b, la, lb = (mpmath.mpf(float(v)) for v in (a, b, la, lb))

            def log_integrand(s, a=a, b=b, la=la, lb=lb):
                return (la + (lb - la) * (s - a) / (b - a) + lgm - mpmath.loggamma(s + 1)
                        - mpmath.loggamma(M - s + 1) + s * l1x + (M - s) * lx)

            grid = mpmath.linspace(a, b, 65)
            segments.append((a, b, log_integrand, max(log_integrand(s) for s in grid)))
        shift = max(seg[3] for seg in segments)
        segments = [seg for seg in segments if seg[3] > shift - 4 * dps]

        def integral(weight):
            total = mpmath.mpf(0)
            for a, b, log_integrand, _ in segments:
                pieces = mpmath.linspace(a, b, int(mpmath.ceil((b - a) / 8)) + 1)
                total += mpmath.quad(lambda s: weight(s) * mpmath.exp(log_integrand(s) - shift), pieces)
            return total

        z0 = integral(lambda s: 1)
        m = integral(lambda s: s) / z0
        V = integral(lambda s: (s - m) ** 2) / z0
        return shift + mpmath.log(z0), m, V


def _split_sum(b, p, q, lo, hi):
    """sum of b_i q^(i-lo) p^(hi-1-i) over lo <= i < hi, in integers, by binary splitting.

    T(lo, hi) = T(lo, mid) p^(hi-mid) + T(mid, hi) q^(mid-lo), so the
    large powers are formed once per level instead of once per term.
    """
    if hi - lo == 1:
        return b[lo]
    mid = (lo + hi) // 2
    return _split_sum(b, p, q, lo, mid) * p ** (hi - mid) + _split_sum(b, p, q, mid, hi) * q ** (mid - lo)


def exact_margin_sign(weights, x):
    """Exact sign (-1, 0 or 1) of the discrete Eq. 10 margin ((M-1)/M) g'^2 - g g'' at a double x in (0, 1).

    g(x) = sum_i w_i C(M, i) (1-x)^i x^(M-i). Every double is a dyadic
    rational, so x = p/D with D a power of two, q = D - p, and the weights
    times one power of two 2^K are integers W_i. With a_i = W_i C(M, i) and
    S_j = sum_i i^j a_i q^i p^(M-i), summed by binary splitting, and up to
    positive factors (powers of D, p q and 2^K), g = S_0, g' = G1 = M q
    S_0 - D S_1 and g'' = G2 = (M^2 - M) q^2 S_0 + D (q - p - 2Mq) S_1 +
    D^2 S_2, since d/dx log[(1-x)^i x^(M-i)] = (M(1-x) - i)/(x(1-x)). So
    the margin has the sign of (M - 1) G1^2 - M S_0 G2. Integer arithmetic
    throughout: no rounding and no betamix.
    """
    M = len(weights) - 1
    ratios = [float(w).as_integer_ratio() for w in weights]
    K = max(den.bit_length() - 1 for _, den in ratios)
    p, D = float(x).as_integer_ratio()
    q = D - p
    a, c = [], 1
    for i, (num, den) in enumerate(ratios):
        a.append((num << (K - den.bit_length() + 1)) * c)
        c = c * (M - i) // (i + 1)
    S0, S1, S2 = (_split_sum([i**j * v for i, v in enumerate(a)], p, q, 0, M + 1) for j in range(3))
    G1 = M * q * S0 - D * S1
    G2 = (M * M - M) * q * q * S0 + D * (q - p - 2 * M * q) * S1 + D * D * S2
    v = (M - 1) * G1 * G1 - M * S0 * G2
    return (v > 0) - (v < 0)
