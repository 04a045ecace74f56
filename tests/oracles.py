"""Independent oracles shared across the test suite.

Everything here deliberately avoids the package's evaluation paths:
binomials come from Pascal's triangle or scipy's gammaln, integrals from
brute-force midpoint Riemann sums, derivatives from central differences,
densities from the direct textbook summation, and Bernstein forms from the
one-shot de Casteljau recurrence.
"""

import math

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
    is integrated separately, after a common shift of the log integrand.
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

    shift = max(
        float(np.max(log_integrand(np.linspace(a, b, 513), a, b, la, lb))) for a, b, la, lb in segments
    )

    def u(s):
        return (M - s) / x - s / (1.0 - x)

    def u2_du(s):
        return u(s) ** 2 - (M - s) / x**2 - s / (1.0 - x) ** 2

    totals = np.zeros(3)
    for a, b, la, lb in segments:
        def base(s):
            return math.exp(log_integrand(s, a, b, la, lb) - shift)

        for j, factor in enumerate((lambda s: 1.0, u, u2_du)):
            totals[j] += quad(lambda s: base(s) * factor(s), a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return tuple(math.exp(shift) * totals)
