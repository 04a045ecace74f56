"""Beta-mixture densities: data model, evaluation, derivatives, CDF, sampling.

The discrete density

    g(x) = sum_i  w_i * C(M, i) * (1-x)^i * x^(M-i)

is a Bernstein-form polynomial whose standard-order coefficients are the
weight vector read backwards (weight i multiplies the basis element of
index M-i), evaluated by de Casteljau recursion, in place over blocks of
x sized to stay in cache. Its derivatives are the order-(M-1) and
order-(M-2) Bernstein forms built from first and second weight differences.

The continuous density replaces the sum by an integral against a mixing
function alpha(s) = exp(l(s)) with l piecewise linear on a knot grid over
[0, M] and alpha = 0 outside. All integrals are evaluated in log space and
recombined by max-shifted exponentiation, on panels that split at every
knot. The derivatives come from the same density table: at fixed x the
normalized integrand is a posterior over s, and f' and f'' follow from its
mean and variance, so one exponentiation serves f, f' and f''.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .quadrature import QuadratureConfig, check_gauss_kronrod, panel_nodes
from .quadrature import QuadratureError  # noqa: F401  (re-exported)
from .special import DomainError, log_gen_binom_grid
from .special import log_abs_gen_binom_ext  # noqa: F401  (perfbench/spans.py wraps this name here)

_NEG_INF = float("-inf")


class DegenerateMixtureError(ValueError):
    """The operation needs a mixture that is not identically zero."""


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, eq=False)
class DiscreteMixture:
    """Order M plus M+1 nonnegative mixing weights w_0..w_M.

    The all-zero weight vector is legal and represents the identically
    zero density.
    """

    M: int
    weights: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            raise ValueError(f"discrete mixture order M must be a positive integer, got {self.M!r}")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != self.M + 1:
            raise ValueError(f"weights must be a vector of length M+1 = {self.M + 1}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "weights", w)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.weights > 0.0)

    def reversed(self) -> "DiscreteMixture":
        """Mixture with the weight vector reversed; its density is g(1-x)."""
        return DiscreteMixture(self.M, self.weights[::-1])


@dataclass(frozen=True, eq=False)
class ContinuousMixture:
    """Real order M > 1 plus a log-domain piecewise-linear mixing function.

    knots is a strictly increasing grid s_0 = 0 < ... < s_K = M and
    log_alpha gives l(s_j) at each knot, with -inf allowed. alpha(s) =
    exp(l(s)) with l linear between knots; alpha is zero outside [0, M]
    and on any interval with a -inf endpoint (a -inf knot value pulls the
    whole adjacent interval down to zero in the limit).
    """

    M: float
    knots: np.ndarray
    log_alpha: np.ndarray

    def __post_init__(self):
        M = float(self.M)
        if not (math.isfinite(M) and M > 1.0):
            raise ValueError(f"continuous mixture order must satisfy M > 1, got {self.M!r}")
        knots = np.asarray(self.knots, dtype=float)
        la = np.asarray(self.log_alpha, dtype=float)
        if knots.ndim != 1 or knots.shape[0] < 2:
            raise ValueError("knots must be a 1-D grid with at least two entries")
        if la.shape != knots.shape:
            raise ValueError("log_alpha must have one entry per knot")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        scale = max(1.0, abs(M))
        if abs(knots[0]) > 1e-12 * scale or abs(knots[-1] - M) > 1e-12 * scale:
            raise ValueError("knot grid must start at 0 and end at M")
        if np.any(np.isnan(la)) or np.any(la == np.inf):
            raise ValueError("log_alpha entries must be finite or -inf")
        knots = knots.copy()
        knots[0] = 0.0
        knots[-1] = M
        la = la.copy()
        knots.flags.writeable = False
        la.flags.writeable = False
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "log_alpha", la)

    def segment_active(self) -> np.ndarray:
        """Boolean mask, per knot interval, of where alpha is not identically 0."""
        finite = np.isfinite(self.log_alpha)
        return finite[:-1] & finite[1:]

    @property
    def is_zero(self) -> bool:
        return not bool(np.any(self.segment_active()))

    def log_alpha_at(self, s) -> np.ndarray:
        """l(s) = log alpha(s), vectorized; -inf outside the active support."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0, len(self.knots) - 2)
        s0 = self.knots[idx]
        s1 = self.knots[idx + 1]
        l0 = self.log_alpha[idx]
        l1 = self.log_alpha[idx + 1]
        active = np.isfinite(l0) & np.isfinite(l1)
        t = (s - s0) / (s1 - s0)
        with np.errstate(invalid="ignore"):
            val = (1.0 - t) * l0 + t * l1
        inside = (s >= 0.0) & (s <= self.M) & active
        return np.where(inside, val, _NEG_INF)


@dataclass(frozen=True)
class EvalResult:
    """Density value with first/second derivatives and their log-domain forms.

    log_d1 is the score (log f)' = f'/f and log_d2 the log-curvature
    (log f)'' = (f*f'' - f'^2)/f^2; both are nan where f vanishes.
    """

    value: float
    d1: float
    d2: float
    log_value: float
    log_d1: float
    log_d2: float

    @classmethod
    def from_linear(cls, f: float, d1: float, d2: float) -> "EvalResult":
        if f > 0.0:
            return cls(f, d1, d2, math.log(f), d1 / f, (f * d2 - d1 * d1) / (f * f))
        return cls(f, d1, d2, _NEG_INF, math.nan, math.nan)


# ---------------------------------------------------------------------------
# discrete evaluation


# Bytes per de Casteljau buffer. A block of x columns runs through every
# step while its coefficients stay in the per-core L2 cache (2 MiB on the
# machine this was tuned on): budgets from 256 KiB to 1 MiB measured alike,
# 512 KiB best. A fixed column count instead is slow at low orders.
_BLOCK_BYTES = 512 * 1024


def _decasteljau(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate the Bernstein-form polynomial with standard-order coeffs at x.

    x is walked in blocks of columns; within a block each step overwrites
    the coefficient buffer in place. Every value is the same two products
    and one sum, b[i] * (1-x) + b[i+1] * x, as in the one-shot recurrence,
    so the result does not depend on the block width.
    """
    x = np.asarray(x, dtype=float)
    xr = x.ravel()
    n = len(coeffs)
    out = np.empty(xr.size)
    width = max(1, min(xr.size, _BLOCK_BYTES // (8 * n)))
    buf = np.empty((n, width))
    scratch = np.empty((n - 1, width))
    for lo in range(0, xr.size, width):
        xb = xr[lo : lo + width]
        om = 1.0 - xb
        b = buf[:, : xb.size]
        t = scratch[:, : xb.size]
        b[...] = coeffs[:, None]
        for m in range(n - 1, 0, -1):
            np.multiply(b[1 : m + 1], xb, out=t[:m])
            np.multiply(b[:m], om, out=b[:m])
            np.add(b[:m], t[:m], out=b[:m])
        out[lo : lo + xb.size] = b[0]
    return out.reshape(x.shape)


def discrete_density_grid(mix: DiscreteMixture, x) -> np.ndarray:
    """g(x) over an array of points in [0, 1]."""
    return _decasteljau(mix.weights[::-1], x)


def discrete_derivs_grid(mix: DiscreteMixture, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, g', g'') over an array of points, all by de Casteljau."""
    w = mix.weights
    M = mix.M
    x = np.asarray(x, dtype=float)
    g = _decasteljau(w[::-1], x)
    d1w = M * (w[:-1] - w[1:])
    d1 = _decasteljau(d1w[::-1], x)
    if M >= 2:
        d2w = M * (M - 1) * (w[:-2] - 2.0 * w[1:-1] + w[2:])
        d2 = _decasteljau(d2w[::-1], x)
    else:
        d2 = np.zeros_like(g)
    return g, d1, d2


def eval_density_discrete(mix: DiscreteMixture, x: float) -> float:
    """Density of a discrete mixture at a single x in [0, 1].

    Exact at the endpoints: g(0) = w_M and g(1) = w_0.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"eval_density_discrete requires 0 <= x <= 1, got {x!r}")
    return float(discrete_density_grid(mix, x))


def eval_derivs_discrete(mix: DiscreteMixture, x: float) -> EvalResult:
    """Density and analytic first/second derivatives at x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"eval_derivs_discrete requires 0 < x < 1, got {x!r}")
    g, d1, d2 = discrete_derivs_grid(mix, x)
    return EvalResult.from_linear(float(g), float(d1), float(d2))


# ---------------------------------------------------------------------------
# continuous evaluation


class _KernelTable:
    """Quadrature nodes plus the x-independent part of the density integrand.

    The integrand is exp(log_k(s)) (1-x)^s x^(M-s) with log_k = log alpha +
    log C(M, s); nodes where it vanishes identically are dropped. wk and wg
    are the Kronrod and the embedded Gauss weights of the same nodes. At
    fixed x, the integrand normalized to mass one is a posterior over the
    mixing index s, and s is centred on the middle of the node range before
    its moments are formed, so the variance is not a difference of two
    large numbers.
    """

    __slots__ = ("s", "wk", "wg", "log_k", "M", "centre")

    def __init__(self, s, wk, wg, log_k, M):
        keep = np.isfinite(log_k)
        self.s = s[keep]
        self.wk = wk[keep]
        self.wg = wg[keep]
        self.log_k = log_k[keep]
        self.M = M
        self.centre = 0.5 * (self.s.min() + self.s.max()) if self.s.size else 0.0

    def integrate(self, x: np.ndarray, moments: bool = False, block: int = 128) -> np.ndarray:
        """Kronrod and Gauss results over an array of x in (0, 1).

        Returns an array whose first axis holds the Kronrod result, then the
        Gauss one. Each result is the density or, with moments, the triple
        (f, mean, var): the density plus the mean and variance of the
        posterior over s at each x. One exponentiation per block of x serves
        every one of them.
        """
        kinds = 3 if moments else 1
        out = np.zeros((2, kinds, x.size))
        if self.s.size:
            log_x = np.log(x)
            log_1mx = np.log1p(-x)
            x_pow = self.M - self.s
            ds = self.s - self.centre
            rows = [self.wk, self.wg]
            if moments:
                rows = [r for w in rows for r in (w, w * ds, w * ds * ds)]
            for start in range(0, x.size, block):
                sl = slice(start, start + block)
                # one row per x, so each sum over s runs over contiguous memory
                # in the same order whatever the number of points
                terms = (
                    self.log_k[None, :]
                    + self.s[None, :] * log_1mx[sl, None]
                    + x_pow[None, :] * log_x[sl, None]
                )
                top = np.max(terms, axis=1)
                live = np.isfinite(top)
                terms -= np.where(live, top, 0.0)[:, None]
                np.exp(terms, out=terms)
                z = np.reshape([np.einsum("jk,k->j", terms, row) for row in rows], (2, kinds, -1))
                out[:, 0, sl] = np.where(live, np.exp(top) * z[:, 0], 0.0)
                if moments:
                    with np.errstate(invalid="ignore", divide="ignore"):
                        mu = z[:, 1] / z[:, 0]
                        out[:, 1, sl] = self.centre + mu
                        out[:, 2, sl] = z[:, 2] / z[:, 0] - mu * mu
        return out if moments else out[:, 0]


def _active_breakpoints(mix: ContinuousMixture) -> list[np.ndarray]:
    """Knot sequences of the maximal active runs of the mixing function."""
    active = mix.segment_active()
    runs = []
    start = None
    for j, flag in enumerate(active):
        if flag and start is None:
            start = j
        if not flag and start is not None:
            runs.append(mix.knots[start : j + 1])
            start = None
    if start is not None:
        runs.append(mix.knots[start:])
    return runs


def _density_table(mix: ContinuousMixture, config: QuadratureConfig) -> _KernelTable:
    runs = [panel_nodes(run, config) for run in _active_breakpoints(mix)]
    s, wk, wg = (np.concatenate(column) for column in zip(*runs)) if runs else (np.empty(0),) * 3
    log_k = mix.log_alpha_at(s) + log_gen_binom_grid(mix.M, s)
    return _KernelTable(s, wk, wg, log_k, mix.M)


def _derivs_from_moments(M: float, x: np.ndarray, f, mean, var):
    """(f, f', f'') from the density and the posterior mean m and variance V of s.

    d/dx log[(1-x)^s x^(M-s)] = u(s) = (M(1-x) - s)/t with t = x(1-x), so
    f'/f = E[u] = (M(1-x) - m)/t and f''/f = E[u^2 + u'] =
    V/t^2 + E[u]^2 - (M-m)/x^2 - m/(1-x)^2.
    """
    t = x * (1.0 - x)
    with np.errstate(divide="ignore", invalid="ignore"):
        eu = (M * (1.0 - x) - mean) / t
        curv = var / (t * t) + eu * eu - (M - mean) / (x * x) - mean / ((1.0 - x) * (1.0 - x))
    # at x = 0 or 1 the integrals vanish, and so do their derivatives here
    return f, np.where(f > 0.0, f * eu, 0.0), np.where(f > 0.0, f * curv, 0.0)


class ContinuousEvaluator:
    """Reusable evaluator for one continuous mixture.

    Builds one density quadrature table on the G10/K21 panels of config.
    Every evaluation returns the Kronrod value after checking that the
    embedded Gauss value agrees with it to within config.abs_tol, per kind
    of value (raising QuadratureError otherwise, or recording the largest
    gap in last_gap when strict=False).
    """

    def __init__(self, mix: ContinuousMixture, config: QuadratureConfig | None = None):
        self.mix = mix
        self.config = config if config is not None else QuadratureConfig()
        self._table = _density_table(mix, self.config)
        self.last_gap = 0.0

    def _checked(self, kind: str, gauss, kronrod, strict: bool) -> np.ndarray:
        gap = check_gauss_kronrod(gauss, kronrod, self.config, kind, strict)
        self.last_gap = max(self.last_gap, gap)
        return kronrod

    def density(self, x, strict: bool = True) -> np.ndarray:
        kronrod, gauss = self._table.integrate(np.asarray(x, dtype=float))
        return self._checked("density", gauss, kronrod, strict)

    def derivs(self, x, strict: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, f', f'') over an array of x in (0, 1), in one pass over the table.

        Each of the three is checked against its Gauss value on its own.
        """
        x = np.asarray(x, dtype=float)
        kronrod, gauss = (
            _derivs_from_moments(self.mix.M, x, *m) for m in self._table.integrate(x, moments=True)
        )
        kinds = ("density", "d1", "d2")
        return tuple(self._checked(kind, g, k, strict) for kind, g, k in zip(kinds, gauss, kronrod))

    def d1(self, x, strict: bool = True) -> np.ndarray:
        return self.derivs(x, strict)[1]

    def d2(self, x, strict: bool = True) -> np.ndarray:
        return self.derivs(x, strict)[2]


def eval_density_continuous(
    mix: ContinuousMixture, x: float, quad: QuadratureConfig | None = None
) -> float:
    """Continuous-mixture density at a single x in (0, 1), by quadrature."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"eval_density_continuous requires 0 < x < 1, got {x!r}")
    return float(ContinuousEvaluator(mix, quad).density(np.array([x]))[0])


def eval_derivs_continuous(
    mix: ContinuousMixture, x: float, quad: QuadratureConfig | None = None
) -> EvalResult:
    """Density plus analytic f', f'' at x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"eval_derivs_continuous requires 0 < x < 1, got {x!r}")
    f, d1, d2 = ContinuousEvaluator(mix, quad).derivs(np.array([x]))
    return EvalResult.from_linear(float(f[0]), float(d1[0]), float(d2[0]))


# ---------------------------------------------------------------------------
# integral quantities and sampling


def density_grid(mix, x, quad: QuadratureConfig | None = None) -> np.ndarray:
    """Density over an array of x in [0, 1] for either mixture kind.

    Endpoint values are the limits: (w_M, w_0) for discrete mixtures and 0
    for continuous ones.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(mix, DiscreteMixture):
        return discrete_density_grid(mix, x)
    out = np.zeros(x.shape)
    interior = (x > 0.0) & (x < 1.0)
    if np.any(interior):
        out[interior] = ContinuousEvaluator(mix, quad).density(x[interior])
    return out


def normalization(mix, quad: QuadratureConfig | None = None) -> float:
    """Total mass of the density over [0, 1].

    Exactly sum(weights)/(M+1) for discrete mixtures (each Beta kernel
    integrates to 1/(M+1)); the quadrature analog, integral(alpha)/(M+1),
    for continuous ones. Callers divide by this to get a probability
    density.
    """
    if mix.is_zero:
        raise DegenerateMixtureError("normalization of the identically-zero mixture")
    if isinstance(mix, DiscreteMixture):
        return float(np.sum(mix.weights) / (mix.M + 1))
    return _alpha_integral(mix, quad, "normalization") / (mix.M + 1.0)


def _alpha_integral(mix: ContinuousMixture, quad: QuadratureConfig | None, what: str, factor=None):
    """Kronrod value of integral alpha(s) factor(s) ds, checked against Gauss.

    factor defaults to 1. Each active run of alpha is integrated after
    shifting out its largest log value.
    """
    config = quad if quad is not None else QuadratureConfig()
    kronrod = gauss = 0.0
    for run in _active_breakpoints(mix):
        s, wk, wg = panel_nodes(run, config)
        la = mix.log_alpha_at(s)
        m = np.max(la)
        vals = np.exp(la - m) if factor is None else np.exp(la - m) * factor(s)
        kronrod += math.exp(m) * float(np.dot(wk, vals))
        gauss += math.exp(m) * float(np.dot(wg, vals))
    check_gauss_kronrod(gauss, kronrod, config, what)
    return kronrod


def cdf(mix, x: float, quad: QuadratureConfig | None = None) -> float:
    """integral of the density over [0, x], monotone nondecreasing in x.

    Each kernel integrates in closed form: the integral over [0, x] of
    C(M, s) (1-t)^s t^(M-s) dt is I_x(M-s+1, s+1)/(M+1), with I the
    regularized incomplete Beta function. So the discrete CDF is an exact
    sum, and the continuous one a single quadrature over s.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"cdf requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    M = mix.M
    if isinstance(mix, DiscreteMixture):
        i = np.arange(M + 1, dtype=float)
        return float(np.dot(mix.weights, betainc(M - i + 1.0, i + 1.0, x)) / (M + 1))
    return _alpha_integral(mix, quad, "cdf", lambda s: betainc(M - s + 1.0, s + 1.0, x)) / (M + 1.0)


def sample(
    mix,
    count: int,
    seed: int,
    grid_points: int = 4096,
    quad: QuadratureConfig | None = None,
) -> np.ndarray:
    """Deterministic inverse-CDF draws from the normalized density.

    The CDF is tabulated on a uniform grid of `grid_points` points and
    inverted by monotone linear interpolation, so the accuracy of the
    draws is bounded by the grid resolution. Identical seeds give
    identical output.
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    if mix.is_zero:
        raise DegenerateMixtureError("cannot sample the identically-zero mixture")
    xs = np.linspace(0.0, 1.0, grid_points)
    dens = density_grid(mix, xs, quad)
    increments = 0.5 * (dens[:-1] + dens[1:]) * np.diff(xs)
    cdf_tab = np.concatenate([[0.0], np.cumsum(increments)])
    cdf_tab /= cdf_tab[-1]
    u = np.random.default_rng(seed).random(count)
    return np.interp(u, cdf_tab, xs)


# ---------------------------------------------------------------------------
# log-concavity of the mixing weights


def is_log_concave_weights(mix, rel_tol: float = 1e-12) -> bool:
    """Whether the mixing weights/function satisfy the log-concavity hypothesis.

    Discrete: contiguous support and w_i^2 >= w_{i-1} w_{i+1} on it.
    Continuous: contiguous active knot range and nonincreasing chord slopes
    of the piecewise-linear log mixing function. The identically-zero
    mixture counts as (vacuously) log-concave.
    """
    if isinstance(mix, DiscreteMixture):
        idx = np.flatnonzero(mix.weights > 0.0)
        if idx.size == 0:
            return True
        if not np.all(np.diff(idx) == 1):
            return False
        w = mix.weights[idx[0] : idx[-1] + 1]
        if w.size < 3:
            return True
        return bool(np.all(w[1:-1] ** 2 >= w[:-2] * w[2:] * (1.0 - rel_tol)))
    active = mix.segment_active()
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return True
    if not np.all(np.diff(idx) == 1):
        return False
    knots = mix.knots[idx[0] : idx[-1] + 2]
    la = mix.log_alpha[idx[0] : idx[-1] + 2]
    slopes = np.diff(la) / np.diff(knots)
    if slopes.size < 2:
        return True
    slack = rel_tol * np.maximum(1.0, np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:])))
    return bool(np.all(np.diff(slopes) <= slack))


# ---------------------------------------------------------------------------
# JSON wire format


def mixture_to_json(mix) -> dict:
    """JSON-ready dict; -inf log weights become the string "-inf"."""
    if isinstance(mix, DiscreteMixture):
        return {"M": mix.M, "weights": [float(w) for w in mix.weights]}
    log_alpha = [float(v) if math.isfinite(v) else "-inf" for v in mix.log_alpha]
    return {"M": mix.M, "knots": [float(k) for k in mix.knots], "log_alpha": log_alpha}


def _parse_log_alpha_entry(v):
    if isinstance(v, str):
        if v.strip().lower() in ("-inf", "-infinity"):
            return _NEG_INF
        raise ValueError(f"log_alpha entries must be numbers or \"-inf\", got {v!r}")
    return float(v)


def mixture_from_json(obj: dict):
    """Parse the mixture wire format (discrete or continuous)."""
    if not isinstance(obj, dict):
        raise ValueError("mixture JSON must be an object")
    if "weights" in obj:
        M = obj.get("M")
        if not isinstance(M, (int, float)) or float(M) != int(M):
            raise ValueError(f"discrete mixture M must be an integer, got {M!r}")
        return DiscreteMixture(int(M), np.asarray(obj["weights"], dtype=float))
    if "knots" in obj and "log_alpha" in obj:
        la = [_parse_log_alpha_entry(v) for v in obj["log_alpha"]]
        return ContinuousMixture(float(obj["M"]), np.asarray(obj["knots"], dtype=float), np.asarray(la))
    raise ValueError('mixture JSON needs either "weights" or "knots"+"log_alpha"')


def load_mixture(path):
    """Read a mixture from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return mixture_from_json(json.load(fh))
