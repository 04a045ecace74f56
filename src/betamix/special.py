"""Generalized binomial coefficients in log space on grids.

The two grid functions work in log space, so orders up to ~1e4 never
overflow an intermediate Gamma value: log_gen_binom_grid (the log kernel
of a continuous moment pass) and log_abs_gen_binom_ext, its signed
extension beyond the positive domain (the continuous lemma integrands),
whose sign is scipy's gammasgn. Both import scipy on their first call, so importing betamix loads
numpy only, and discrete densities, derivatives and certificates never
load scipy. Exact integer binomials are built in lemmas, by one running
product.
"""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def log_gen_binom_grid(M: float, s) -> np.ndarray:
    """log Gamma(M+1)/(Gamma(s+1) Gamma(M-s+1)), the generalized binomial, over an array of s in [-1, M+1].

    Values at the boundary points -1 and M+1 come out as -inf (the
    coefficient vanishes there in the limit), which exponentiates to 0.
    Beyond them it is log |extension| (log_abs_gen_binom_ext). M may be an
    array, one order per point, as a lemma pass gives it: each case's order
    repeated over its nodes. log Gamma(M+1) is then evaluated once per run
    of equal consecutive orders and repeated over the run, the same doubles
    in a scan of M instead of the sort a search for distinct orders needs.
    """
    from scipy.special import gammaln

    s = np.asarray(s, dtype=float)
    if np.ndim(M):
        M = np.asarray(M, dtype=float)
        starts = np.flatnonzero(np.diff(M.ravel(), prepend=np.nan))
        log_top = np.repeat(gammaln(M.ravel()[starts] + 1.0), np.diff(starts, append=M.size)).reshape(M.shape)
    else:
        log_top = gammaln(M + 1.0)
    with np.errstate(invalid="ignore"):
        return log_top - gammaln(s + 1.0) - gammaln(M - s + 1.0)


def log_abs_gen_binom_ext(M: float, s) -> tuple[np.ndarray, np.ndarray]:
    """Signed log of the generalized binomial's extension beyond -1 < s < M+1.

    The extension Gamma(M+1) * rGamma(s+1) * rGamma(M-s+1) (with rGamma the
    entire reciprocal Gamma) agrees with log_gen_binom_grid inside the positive
    domain, vanishes at integer offsets s = -1, -2, ... and s = M+1, M+2,
    ..., and alternates sign in between. Requires M > -1; M may be an array
    that broadcasts against s, one order per point.

    Returns (log_abs, sign). Between the zeros sign is +1 or -1, that of
    Gamma(s+1) Gamma(M-s+1), from scipy's gammasgn. At a zero log_abs is
    -inf and sign is finite (gammasgn's nan at a pole reads 0).
    """
    from scipy.special import gammasgn

    if not np.all(M > -1.0):
        raise DomainError(f"extended binomial requires order M > -1, got {M!r}")
    s = np.asarray(s, dtype=float)
    # gammaln is +inf at the poles of Gamma, so log_gen_binom_grid is already -inf there
    return log_gen_binom_grid(M, s), np.nan_to_num(gammasgn(s + 1.0) * gammasgn(M - s + 1.0))
