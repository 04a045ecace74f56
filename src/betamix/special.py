"""Log-Gamma machinery and generalized binomial coefficients.

Everything downstream (density evaluation, curvature margins, the lemma
integrands) rests on the functions here, so they are kept strict: log_gamma
is accurate to ~1e-15 relative, and the binomial helpers work in log space
so orders up to ~1e4 never overflow an intermediate Gamma value.

The scalar functions use math.lgamma. The two grid functions,
log_gen_binom_grid (continuous density tables) and log_abs_gen_binom_ext
(the continuous lemma integrands and gen_binom_ext), import scipy's gammaln
on their first call, so importing betamix loads numpy only, and discrete
densities, derivatives and certificates never load scipy.
"""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def log_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def gen_binom(M: float, s: float) -> float:
    """Generalized binomial coefficient Gamma(M+1)/(Gamma(s+1) Gamma(M-s+1)).

    Finite and strictly positive on -1 < s < M+1, and equal to the integer
    binomial coefficient when both arguments are integers.
    """
    if not M > 0.0:
        raise DomainError(f"generalized binomial requires order M > 0, got {M!r}")
    if not -1.0 < s < M + 1.0:
        raise DomainError(f"generalized binomial requires -1 < s < M+1, got s={s!r}, M={M!r}")
    return math.exp(math.lgamma(M + 1.0) - math.lgamma(s + 1.0) - math.lgamma(M - s + 1.0))


def int_binom_exact(M: int, i: int) -> int:
    """Exact binomial coefficient with the zero-extension convention.

    Returns C(M, i) as an arbitrary-precision integer, and 0 whenever
    i < 0 or i > M, so sums over shifted indices can run freely.
    """
    if i < 0 or i > M:
        return 0
    return math.comb(M, i)


def log_gen_binom_grid(M: float, s) -> np.ndarray:
    """Vectorized log gen_binom over an array of s in [-1, M+1].

    Values at the boundary points -1 and M+1 come out as -inf (the
    coefficient vanishes there in the limit), which exponentiates to 0.
    Beyond them it is log |extension| (log_abs_gen_binom_ext).
    """
    from scipy.special import gammaln

    s = np.asarray(s, dtype=float)
    with np.errstate(invalid="ignore"):
        return gammaln(M + 1.0) - gammaln(s + 1.0) - gammaln(M - s + 1.0)


def _recip_gamma_sign(z: np.ndarray) -> np.ndarray:
    """Sign of 1/Gamma(z), elementwise. Arbitrary (+1) at the zeros."""
    z = np.asarray(z, dtype=float)
    sign = np.ones(z.shape)
    neg = z < 0.0
    if np.any(neg):
        # Gamma alternates sign between consecutive negative integers:
        # negative on (-1,0), positive on (-2,-1), and so on.
        flip = (np.floor(-z[neg]).astype(np.int64) % 2) == 0
        sign[neg] = np.where(flip, -1.0, 1.0)
    return sign


def log_abs_gen_binom_ext(M: float, s) -> tuple[np.ndarray, np.ndarray]:
    """Signed log of the extension of gen_binom beyond -1 < s < M+1.

    The extension Gamma(M+1) * rGamma(s+1) * rGamma(M-s+1) (with rGamma the
    entire reciprocal Gamma) agrees with gen_binom inside the positive
    domain, vanishes at integer offsets s = -1, -2, ... and s = M+1, M+2,
    ..., and alternates sign in between. Requires M > -1; M may be an array
    that broadcasts against s, one order per point.

    Returns (log_abs, sign) with log_abs = -inf where the value is 0.
    """
    if not np.all(M > -1.0):
        raise DomainError(f"extended binomial requires order M > -1, got {M!r}")
    s = np.asarray(s, dtype=float)
    # gammaln is +inf at the poles of Gamma, so log_gen_binom_grid is already -inf there
    return log_gen_binom_grid(M, s), _recip_gamma_sign(s + 1.0) * _recip_gamma_sign(M - s + 1.0)


def gen_binom_ext(M: float, s) -> np.ndarray:
    """Extension of gen_binom to all real s (see log_abs_gen_binom_ext)."""
    log_abs, sign = log_abs_gen_binom_ext(M, s)
    with np.errstate(over="raise"):
        return sign * np.exp(log_abs)
