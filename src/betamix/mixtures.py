"""Beta-mixture densities: data model, evaluation, derivatives, CDF, sampling.

The discrete density

    g(x) = sum_i  w_i * C(M, i) * (1-x)^i * x^(M-i)

is a Bernstein-form polynomial whose standard-order coefficients are the
weight vector read backwards (weight i multiplies the basis element of
index M-i), evaluated by de Casteljau recursion in flat steps over tiled
x, one block loop for g, g' and g'', with blocks of x sized to stay in
cache. Its derivatives are the order-(M-1) and order-(M-2) Bernstein forms
built from first and second weight differences.

The continuous density replaces the sum by an integral against a mixing
function alpha(s) = exp(l(s)) with l piecewise linear on a knot grid over
[0, M] and alpha = 0 outside. All integrals are evaluated in log space and
recombined by max-shifted exponentiation, on panels that split at every
knot, laid out over the whole knot grid in one call: the intervals where
alpha vanishes get none. Each x reads the coarsest table that resolves
the tilt of its kernel in s, in one moment pass, the only continuous
integration: at fixed x the normalized integrand is a posterior over s,
whose mass, mean m and variance V give, with t = x(1-x), log f, the score
f'/f = (M(1-x) - m)/t, the Eq. 10 margin [m(M-m)/M - V]/t^2 and the
log-curvature (log f)'' = -margin - (f'/f)^2/M, so one exponentiation
serves them all; f is the mass on each point's scale, f' is f times the
score, and f'' is f times (f'/f)^2 + (log f)''. The density alone is a
slice of that pass. The kernel's log is l(s) + log C(M, s) + s tilt, with
tilt = log(1-x) - log x, plus M log x, which joins each point's scale
instead of the exponent. Blocks of x are sized by the de Casteljau byte
budget and share one buffer, and one einsum reduces each block against
every Kronrod and Gauss weight row at once.

The weight scale is taken out inside the evaluators. Both engines,
discrete_derivs_grid and ContinuousEvaluator.forms, return the same seven
forms of the mixture as given, one Forms tuple with the fields f, d1, d2,
log_f, log_d1 = f'/f, log_d2 = (log f)'' and the Eq. 10 margin. Each
evaluates the unit-scaled mixture (unit_scaled), whose discrete weights
are divided by a power of two 2^k and whose continuous log alpha peaks
at 0, so f, f' and f'' stay in range. The continuous tables are
built on it, and its peak joins each point's log scale, so continuous
linear values are those of the mixture's own alpha, and log f and every
ratio, read off the moments, are finite wherever the posterior is.
discrete_derivs_grid forms the score, (log f)'' and margin on each point's
own power-of-two scale of the unit-scaled f, scales the linear values
back by 2^k and shifts log f by k log 2. density_grid, which the
brute-force midpoint oracle reads, is the density of the unit-scaled
mixture. The sampler evaluates no density: it draws the mixing index and
then one Beta variate (sample).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import check_gauss_kronrod, kronrod_integral, log_drop_panels, panel_nodes
from .special import DomainError, log_gen_binom_grid
from .special import log_abs_gen_binom_ext  # noqa: F401  (perfbench/spans.py wraps this name here)

_NEG_INF = float("-inf")
_TINY = np.finfo(float).tiny
_LN2 = math.log(2.0)


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
        if isinstance(self.M, bool) or not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
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


@dataclass(frozen=True, eq=False)
class ContinuousMixture:
    """Real order M > 1 plus a log-domain piecewise-linear mixing function.

    knots is a strictly increasing finite grid s_0 = 0 < ... < s_K = M and
    log_alpha gives l(s_j) at each knot, with -inf allowed. alpha(s) =
    exp(l(s)) with l linear between knots; alpha is zero outside [0, M]
    and on any interval with a -inf endpoint (a -inf knot value pulls the
    whole adjacent interval down to zero in the limit). So alpha lives on
    the intervals with two finite ends, and live_knots marks their ends.
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
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
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

    def live_knots(self) -> np.ndarray:
        """Boolean mask, per knot, of the knots beside an interval where alpha is not identically 0."""
        finite = np.isfinite(self.log_alpha)
        interval = finite[:-1] & finite[1:]
        return np.concatenate([interval, [False]]) | np.concatenate([[False], interval])

    @property
    def is_zero(self) -> bool:
        return not bool(np.any(self.live_knots()))


def weight_exponent(mix: DiscreteMixture) -> int:
    """The power of two k by which unit_scaled divides a discrete mixture's weights.

    A largest weight below 1 is scaled up into [1, 2), a larger one down
    only below 2^1022 / (4M^2), since |g|, |g'| and |g''| are at most
    max w, 2M max w and 4M^2 max w, and scaling further would only make
    small values underflow.
    """
    e = int(np.frexp(np.max(mix.weights))[1])
    return min(e - 1, max(0, e - 1022 + (4 * mix.M * mix.M).bit_length()))


def _alpha_peak(mix: ContinuousMixture) -> float:
    """The largest log alpha at a live knot, which unit_scaled takes out; -inf if alpha vanishes.

    l is linear between knots, so over the intervals where alpha lives it
    peaks at one of their ends, the knots that live_knots marks.
    """
    return float(np.max(mix.log_alpha[mix.live_knots()], initial=_NEG_INF))


def unit_scaled(mix):
    """mix rescaled so that f, f' and f'' stay in range; log f shifts by a constant, and every ratio is scale-free.

    A continuous log alpha is shifted by its largest live knot value; a
    mixture whose alpha already peaks at 1, or vanishes, is returned as it
    is. A discrete mixture's weights are divided by 2^weight_exponent(mix),
    which scales every de Casteljau value exactly (within the normal
    range), so the unscaled f, f' and f'' are those values times 2^k, and
    log f is log of the scaled f plus k log 2.
    """
    if not isinstance(mix, DiscreteMixture):
        top = _alpha_peak(mix)
        return ContinuousMixture(mix.M, mix.knots, mix.log_alpha - top) if np.isfinite(top) and top != 0.0 else mix
    return DiscreteMixture(mix.M, np.ldexp(mix.weights, -weight_exponent(mix)))


class Forms(NamedTuple):
    """The seven forms of the mixture that both engines return, each with x's shape.

    f, d1 = f' and d2 = f'' are the mixture's own, inf past the double
    range. log_f, the score log_d1 = (log f)' = f'/f, the log-curvature
    log_d2 = (log f)'' = (f f'' - f'^2)/f^2 and the Eq. 10 margin [((M-1)/M)
    f'^2 - f f'']/f^2 are formed on the unit-scaled mixture (unit_scaled),
    with log f shifted back, so they hold where f would underflow or f''
    overflow. A discrete mixture's ratios are nan where the unit-scaled f is
    not a normal double; a continuous one's are read off the posterior
    moments, finite wherever the posterior is.
    """

    f: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    log_f: np.ndarray
    log_d1: np.ndarray
    log_d2: np.ndarray
    margin: np.ndarray


# ---------------------------------------------------------------------------
# discrete evaluation


# Bytes per de Casteljau buffer; a call holds four (coefficients, scratch,
# x tile, 1-x tile), each starting on a 64-byte cache line. A block of x
# columns runs through every step of every polynomial while the four stay
# near the per-core L2 cache (2 MiB on the machine this was tuned on): on
# a discrete certify pass, 256 KiB and 512 KiB measured alike, 1 MiB two
# fifths slower, and 128 KiB a seventh slower, its narrower blocks paying
# the per-step call cost more often. A fixed column count is slow at low
# orders. _KernelTable.integrate sizes its one exponent buffer by the same
# budget.
_BLOCK_BYTES = 512 * 1024


def _line_buffers(count: int, size: int) -> list[np.ndarray]:
    """count disjoint float64 buffers of size values, each starting on a 64-byte line.

    One allocation of count strides of size rounded up to 8 doubles, plus 8
    doubles to move the first start onto a line; buffer j starts j strides
    after it. Where the allocator puts the block then no longer decides how
    the buffers sit on cache lines.
    """
    stride = -(-size // 8) * 8
    raw = np.empty(count * stride + 8)
    off = (-raw.ctypes.data % 64) // 8
    return [raw[off + j * stride : off + j * stride + size] for j in range(count)]


def _decasteljau(coeff_sets, x) -> list[np.ndarray]:
    """Evaluate at x the Bernstein-form polynomial of each standard-order coeffs vector.

    Flat steps over tiled x, one block loop for every polynomial: x is walked
    in blocks of w columns, and each block fills x and 1-x once, tiled over
    the rows of the flat (row-major n x w) coefficient buffer, so that one
    recurrence step is three contiguous ufuncs over m*w values. All the
    polynomials share the four buffers and the tiles, carved from one
    allocation by _line_buffers, and each step slices its coefficient and
    scratch views once for both products and the sum. Every value is the
    same two products and one sum, b[i] * (1-x) + b[i+1] * x, as in the
    one-shot recurrence, so the results depend neither on the block width,
    nor on which polynomials share the loop, nor on where the buffers sit.
    """
    x = np.asarray(x, dtype=float)
    xr = x.ravel()
    n = max(len(c) for c in coeff_sets)
    outs = [np.empty(xr.size) for _ in coeff_sets]
    width = max(1, min(xr.size, _BLOCK_BYTES // (8 * n)))
    b, scratch, xt, omt = _line_buffers(4, n * width)
    for lo in range(0, xr.size, width):
        xb = xr[lo : lo + width]
        w = xb.size
        tile = (n - 1) * w
        xt[:tile].reshape(n - 1, w)[...] = xb
        np.subtract(1.0, xt[:tile], out=omt[:tile])
        for coeffs, out in zip(coeff_sets, outs):
            b[: len(coeffs) * w].reshape(len(coeffs), w)[...] = coeffs[:, None]
            for m in range(len(coeffs) - 1, 0, -1):
                k = m * w
                head, tmp = b[:k], scratch[:k]
                np.multiply(b[w : k + w], xt[:k], out=tmp)
                np.multiply(head, omt[:k], out=head)
                np.add(head, tmp, out=head)
            out[lo : lo + w] = b[:w]
    return [out.reshape(x.shape) for out in outs]


def discrete_density_grid(mix: DiscreteMixture, x) -> np.ndarray:
    """g(x) over an array of points in [0, 1]."""
    return _decasteljau([mix.weights[::-1]], x)[0]


def discrete_derivs_grid(mix: DiscreteMixture, x) -> Forms:
    """The Forms of a discrete mixture over an array of points.

    de Casteljau evaluates f, f' and f'' of the unit-scaled mixture, whose
    weights are divided by 2^k with k = weight_exponent(mix), in one block
    loop. The linear values are those times 2^k, past the double range
    inf, and log f is the log of the scaled f plus k log 2. For the score
    f'/f, (log f)'' = (f f'' - f'^2)/f^2 and the Eq. 10 margin [((M-1)/M)
    f'^2 - f f'']/f^2, the scaled values are first divided, point by
    point, by the power of two that puts f in [0.5, 1). That is exact, so
    each ratio keeps its bits, while the products in it can no longer
    overflow or underflow where the ratio is finite. Where the scaled f is
    not a normal double (0, a subnormal with too few digits) all three
    read nan.
    """
    k = weight_exponent(mix)
    w, M = np.ldexp(mix.weights, -k), mix.M
    coeff_sets = [w[::-1], (M * (w[:-1] - w[1:]))[::-1]]
    if M >= 2:
        coeff_sets.append((M * (M - 1) * (w[:-2] - 2.0 * w[1:-1] + w[2:]))[::-1])
    f, d1, *d2 = _decasteljau(coeff_sets, x)
    scaled = f, d1, d2[0] if d2 else np.zeros_like(f)
    normal = np.isfinite(f) & (f >= _TINY)
    e = np.frexp(np.where(normal, f, 1.0))[1]
    fs, d1s, d2s = (np.where(normal, np.ldexp(v, -e), math.nan) for v in scaled)
    with np.errstate(divide="ignore", over="ignore"):
        log_f = np.log(f) + k * _LN2
        linear = [np.ldexp(v, k) for v in scaled]
    curv, margin = fs * d2s - d1s * d1s, ((M - 1.0) / M) * d1s * d1s - fs * d2s
    return Forms(*linear, log_f, d1s / fs, curv / (fs * fs), margin / (fs * fs))


# ---------------------------------------------------------------------------
# continuous evaluation


class _KernelTable:
    """Quadrature nodes plus the x-independent part of the density integrand.

    The integrand is exp(peak + log_k(s) + s tilt) x^M with log_k = log
    alpha + log C(M, s) for the unit-scaled alpha, whose log peaks at 0,
    peak the log alpha that unit_scaled took out, and tilt = log(1-x) - log
    x; the nodes cover only the knot intervals where alpha does not vanish,
    so log_k is finite at every one. wk and wg are the Kronrod and the
    embedded Gauss weights of the same nodes. At fixed x, the integrand
    normalized to mass one is a posterior over the mixing index s, and s is
    centred on the middle of the node range before its moments are formed,
    so the variance is not a difference of two large numbers. integrate
    forms the posterior's mass, mean and variance at every x, walking x in
    blocks of _BLOCK_BYTES, the de Casteljau budget, through one buffer per
    call.
    """

    __slots__ = ("s", "wk", "wg", "log_k", "M", "peak", "centre")

    def __init__(self, s, wk, wg, log_k, M, peak):
        self.s, self.wk, self.wg, self.log_k, self.M, self.peak = s, wk, wg, log_k, M, peak
        self.centre = 0.5 * (s.min() + s.max()) if s.size else 0.0

    def integrate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kronrod results over an array of x in (0, 1), with their Gauss-Kronrod gap at each x.

        The results are the rows (top, mass, mean, var): each point's log
        scale top, the posterior's mass on that scale, so that f = exp(top)
        mass and log f = top + log(mass), and the mean and variance of the
        posterior over s at each x. The x-only factor x^M of the kernel and
        alpha's peak leave the exponent, log_k + s tilt with tilt = log(1-x)
        - log x, and join each point's scale: top = row max + peak + M log
        x, where row max is the exponent's largest value at that x. x is
        walked in blocks of as many points as fill _BLOCK_BYTES, the de
        Casteljau budget, in one buffer reused by every block: the exponent
        is formed, shifted by its row max and exponentiated in place, and one
        einsum reduces it against the stacked Kronrod and Gauss rows, the
        weights times 1, ds and ds^2. Each sum runs over one row of the
        buffer, in the same order whatever the block, so a point's value
        depends on that point alone. The gap is the largest Kronrod-Gauss
        distance of the posterior's mass relative to itself (on its own
        scale, so defined where f underflows), its mean relative to M and
        its variance relative to M^2: the scales that bound f, f' and f''
        relative to f, f M/t and f M^2/t^2, with t = x(1-x). It is 0 where
        the integrand vanishes at every node.
        """
        # Kronrod sums in z[0], Gauss sums in z[1], each point's on its own scale exp(top)
        z = np.zeros((2, 3, x.size))
        top = np.full(x.size, _NEG_INF)
        if self.s.size:
            log_x = np.log(x)
            tilt = np.log1p(-x) - log_x
            rows = np.empty((2, 3, self.s.size))
            rows[:, 0] = self.wk, self.wg
            ds = self.s - self.centre
            np.multiply(rows[:, 0], ds, out=rows[:, 1])
            np.multiply(rows[:, 1], ds, out=rows[:, 2])
            rows = rows.reshape(6, -1)
            size = max(1, min(x.size, _BLOCK_BYTES // (8 * self.s.size)))
            buf = np.empty((size, self.s.size))
            for lo in range(0, x.size, size):
                sl = slice(lo, lo + size)
                b = buf[: x.size - lo]
                np.multiply(tilt[sl, None], self.s, out=b)
                b += self.log_k
                top[sl] = np.max(b, axis=1)
                b -= np.where(np.isfinite(top[sl]), top[sl], 0.0)[:, None]
                np.exp(b, out=b)
                z[..., sl] = np.einsum("jk,rk->rj", b, rows).reshape(2, 3, -1)
            top += self.peak + self.M * log_x
        mass = z[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = z[:, 1] / mass
            var = z[:, 2] / mass - mu * mu
            gap = np.abs(mass[0] - mass[1]) / mass[0]
            gap = np.maximum(gap, np.abs(mu[0] - mu[1]) / self.M)
            gap = np.maximum(gap, np.abs(var[0] - var[1]) / (self.M * self.M))
        return np.array([top, mass[0], self.centre + mu[0], var[0]]), np.where(np.isfinite(top), gap, 0.0)


def _density_table(mix: ContinuousMixture, per_unit: int) -> _KernelTable:
    """The kernel table of one tier, on the unit-scaled alpha, with alpha's peak kept for each point's scale."""
    unit = unit_scaled(mix)
    s, wk, wg = panel_nodes(unit.knots, unit.log_alpha, per_unit)
    log_k = np.interp(s, unit.knots, unit.log_alpha) + log_gen_binom_grid(mix.M, s)
    return _KernelTable(s, wk, wg, log_k, mix.M, _alpha_peak(mix))


def _tilt_tiers(x: np.ndarray) -> np.ndarray:
    """Panels per unit of s that resolve the kernel (1-x)^s x^(M-s) at each x.

    Its log moves by the tilt log x - log(1-x) per unit of s. At x = 0 or 1
    the tilt is infinite, and the point reads the capped tier.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return log_drop_panels(np.log(x) - np.log1p(-x))


class ContinuousEvaluator:
    """Reusable evaluator for one continuous mixture.

    Each x is integrated on the coarsest density table that resolves its
    kernel (1-x)^s x^(M-s), whose log moves by the tilt |log x - log(1-x)|
    per unit of s: per knot interval, at least log_drop_panels(tilt) G10/K21
    panels per unit length, and at least as many as the drop of log alpha
    across the interval needs (see quadrature.panel_nodes). Most of (0, 1)
    reads one panel per unit. A tier's table is built the first time a
    point needs it and kept, and a point's value depends on that point
    alone, not on the others evaluated with it. Every evaluation returns
    Kronrod values, after checking each point's Gauss-Kronrod gap on the
    scales of _KernelTable.integrate; a gap above quadrature.REL_TOL raises
    QuadratureError.
    """

    def __init__(self, mix: ContinuousMixture):
        self.mix = mix
        self._tables: dict[int, _KernelTable] = {}

    def forms(self, x) -> Forms:
        """The Forms of the mixture over x in (0, 1), in one pass over each point's table.

        Each point reads _KernelTable.integrate on its own tier's table. f =
        exp(top) mass, 0 where top is not finite, and log f = top +
        log(mass). With the posterior's mean m and variance V, and t =
        x(1-x): d/dx log[(1-x)^s x^(M-s)] = (M(1-x) - s)/t, so f'/f = (M(1-x) - m)/t, and the Eq. 10 margin [((M-1)/M)
        f'^2 - f f'']/f^2 is [m(M-m)/M - V]/t^2. Then (log f)'' = -margin -
        (f'/f)^2/M, and f' and f'' are f (f'/f) and f ((f'/f)^2 + (log
        f)''), 0 where f is. No ratio reads f, so each is finite where f
        underflows; past the double range f' and f'' read inf.
        """
        x = np.asarray(x, dtype=float)
        xr = x.ravel()
        tiers = _tilt_tiers(xr)
        rows = np.empty((4, xr.size))
        gap = np.empty(xr.size)
        for tier in np.unique(tiers).tolist():
            if tier not in self._tables:
                self._tables[tier] = _density_table(self.mix, tier)
            group = np.flatnonzero(tiers == tier)
            rows[:, group], gap[group] = self._tables[tier].integrate(xr[group])
        check_gauss_kronrod(gap, "density and derivatives")
        top, mass, mean, var = rows.reshape((4,) + x.shape)
        M = self.mix.M
        t = x * (1.0 - x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.where(np.isfinite(top), np.exp(top) * mass, 0.0)
            log_f = top + np.log(mass)
            score = (M * (1.0 - x) - mean) / t
            margin = (mean * (M - mean) / M - var) / (t * t)
            logcurv = -margin - score * score / M
            d1 = np.where(f > 0.0, f * score, 0.0)
            d2 = np.where(f > 0.0, f * (score * score + logcurv), 0.0)
            return Forms(f, d1, d2, log_f, score, logcurv, margin)

    def density(self, x) -> np.ndarray:
        return self.forms(x).f

    def d1(self, x) -> np.ndarray:
        return self.forms(x).d1

    def d2(self, x) -> np.ndarray:
        return self.forms(x).d2


# ---------------------------------------------------------------------------
# integral quantities and sampling


def density_grid(mix, x) -> np.ndarray:
    """Density of the unit-scaled mixture (unit_scaled) over an array of x in [0, 1], for either kind.

    That is the mixture's density divided by one constant, so it neither
    overflows nor underflows for the weights' scale alone. Endpoint values
    are the limits: (w_M, w_0) of the scaled weights for discrete mixtures
    and 0 for continuous ones.
    """
    x = np.asarray(x, dtype=float)
    mix = unit_scaled(mix)
    if isinstance(mix, DiscreteMixture):
        return discrete_density_grid(mix, x)
    out = np.zeros(x.shape)
    interior = (x > 0.0) & (x < 1.0)
    if np.any(interior):
        out[interior] = ContinuousEvaluator(mix).density(x[interior])
    return out


def normalization(mix) -> float:
    """Total mass of the density over [0, 1].

    Exactly sum(weights)/(M+1) for discrete mixtures (each Beta kernel
    integrates to 1/(M+1)); the quadrature analog, integral(alpha)/(M+1),
    for continuous ones. Callers divide by this to get a probability
    density. Formed as _scaled_integral does, so a value within the double
    range comes back finite.
    """
    if mix.is_zero:
        raise DegenerateMixtureError("normalization of the identically-zero mixture")
    return _scaled_integral(mix, "normalization")


def _scaled_integral(mix, what: str, factor=None) -> float:
    """The weights' sum, or integral alpha(s) ds, with each term times factor(s), divided by M+1.

    factor defaults to 1. The sum or integral is formed on the unit-scaled
    mixture (unit_scaled) and its scale is put back last: a discrete value
    is multiplied by 2^k (np.ldexp), and a continuous one, the Kronrod
    value checked by quadrature.kronrod_integral, has alpha's peak added to
    its log before one exponential. So a value within the double range
    comes back finite, and only one past it reads inf. alpha = 0
    everywhere leaves no nodes and gives 0.
    """
    M = mix.M
    with np.errstate(over="ignore", divide="ignore"):
        if isinstance(mix, DiscreteMixture):
            k = weight_exponent(mix)
            w = np.ldexp(mix.weights, -k)
            total = np.sum(w) if factor is None else np.dot(w, factor(np.arange(M + 1.0)))
            return float(np.ldexp(total / (M + 1), k))
        unit = unit_scaled(mix)
        s, wk, wg = panel_nodes(unit.knots, unit.log_alpha)
        alpha = np.exp(np.interp(s, unit.knots, unit.log_alpha))
        total = kronrod_integral(wk, wg, alpha if factor is None else alpha * factor(s), what)
        return float(np.exp(_alpha_peak(mix) + np.log(total / (M + 1.0))))


def cdf(mix, x: float) -> float:
    """integral of the density over [0, x], monotone nondecreasing in x.

    Each kernel integrates in closed form: the integral over [0, x] of
    C(M, s) (1-t)^s t^(M-s) dt is I_x(M-s+1, s+1)/(M+1), with I the
    regularized incomplete Beta function. So the discrete CDF is an exact
    sum, and the continuous one a single quadrature over s, each formed by
    _scaled_integral.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"cdf requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    from scipy.special import betainc

    M = mix.M
    return _scaled_integral(mix, "cdf", lambda s: betainc(M - s + 1.0, s + 1.0, x))


# Draws per chunk of sample. A chunk's uniforms, indices and Beta parameters
# are the only temporaries, so a call's peak memory is its output array plus
# a fixed amount, whatever the count. At 2^12 each temporary is 32 KiB, well
# below glibc's default 128 KiB mmap threshold; chunks of 2^14 (128 KiB
# temporaries) left the peak RSS of a process drawing 10^5 twice per pass up
# to 2 MB higher, at the same speed (2-core x86-64 Linux, numpy 2.4).
_SAMPLE_CHUNK = 1 << 12


def sample(mix, count: int, seed: int) -> np.ndarray:
    """Exact draws from the normalized density, by composition; identical seeds give identical output.

    Each kernel C(M, s) (1-x)^s x^(M-s) is the Beta(M-s+1, s+1) density
    divided by M+1, so the normalized mixture is the law of x ~ Beta(M-s+1,
    s+1) with the mixing index s drawn with probability proportional to w_s
    (discrete) or density proportional to alpha(s) (continuous): the
    composition method (Devroye 1986, Non-Uniform Random Variate Generation).
    s is read off the unit-scaled mixture (unit_scaled), whose cumulative
    masses stay in range. A discrete s is found by searchsorted on the
    cumulative weights. A continuous s takes a knot interval where alpha
    lives the same way, by the intervals' masses, and a position in it from
    a second uniform v. Measured from the interval's end where alpha is
    larger, at the fraction t of its length L, alpha is e^l e^(-D t), with
    l the larger and D >= 0 the difference of its two log values, so its
    mass is L e^l (1 - e^-D)/D (L e^l at D = 0), and its CDF in t inverts
    to t = -log1p(v expm1(-D))/D (t = v at D = 0), which stays finite for D
    in the thousands, where it reads -log(1 - v)/D. Draws are made
    _SAMPLE_CHUNK at a time into one output array. No density is evaluated.
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    if mix.is_zero:
        raise DegenerateMixtureError("cannot sample the identically-zero mixture")
    unit = unit_scaled(mix)
    discrete = isinstance(unit, DiscreteMixture)
    if discrete:
        mass = unit.weights
    else:
        la = unit.log_alpha
        i = np.flatnonzero(np.isfinite(la[:-1]) & np.isfinite(la[1:]))
        rise = la[i + 1] > la[i]
        near, far = np.where(rise, i + 1, i), np.where(rise, i, i + 1)
        start, span, D = unit.knots[near], unit.knots[far] - unit.knots[near], la[near] - la[far]
        mass = np.abs(span) * np.exp(la[near]) * np.divide(-np.expm1(-D), D, out=np.ones_like(D), where=D > 0.0)
    cum = np.cumsum(mass)
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    for lo in range(0, count, _SAMPLE_CHUNK):
        u = rng.random((1 if discrete else 2, min(_SAMPLE_CHUNK, count - lo)))
        s = np.minimum(np.searchsorted(cum, u[0] * cum[-1], side="right"), cum.size - 1)
        if not discrete:
            Ds = D[s]
            s = start[s] + span[s] * np.divide(-np.log1p(u[1] * np.expm1(-Ds)), Ds, out=u[1], where=Ds > 0.0)
        out[lo : lo + s.size] = rng.beta(mix.M - s + 1.0, s + 1.0)
    return out


# ---------------------------------------------------------------------------
# log-concavity of the mixing weights


# relative slack of the chord test in is_log_concave_weights
_LOG_CONCAVE_REL_TOL = 1e-12


def below_chord(left, mid, right, lam, tol) -> np.ndarray:
    """Where a log value falls below its chord: mid < lam*left + (1-lam)*right - tol.

    The values sit at s_left, s_mid and s_right, s_mid between the others, with
    lam = (s_right - s_mid)/(s_right - s_left). A -inf end puts the chord at -inf.
    """
    with np.errstate(invalid="ignore"):
        return mid < lam * left + (1.0 - lam) * right - tol


def is_log_concave_weights(mix) -> bool:
    """Whether the mixing weights/function satisfy the log-concavity hypothesis.

    Tested on logarithms, so no weight is multiplied and none underflows:
    log w_i at i = 0..M, live where w_i > 0, or log alpha at the knots that
    ContinuousMixture.live_knots marks. The live positions must be
    contiguous, and each interior value clears its neighbours' chord
    (below_chord) to within _LOG_CONCAVE_REL_TOL * max(1, |value|). The
    identically-zero mixture is (vacuously) log-concave.
    """
    if isinstance(mix, DiscreteMixture):
        s = np.arange(mix.M + 1.0)
        with np.errstate(divide="ignore"):
            logs = np.log(mix.weights)
        live = mix.weights > 0.0
    else:
        s, logs, live = mix.knots, mix.log_alpha, mix.live_knots()
    idx = np.flatnonzero(live)
    if idx.size and idx[-1] - idx[0] + 1 != idx.size:
        return False
    s, logs = s[idx], logs[idx]
    lam = (s[2:] - s[1:-1]) / (s[2:] - s[:-2])
    tol = _LOG_CONCAVE_REL_TOL * np.maximum(1.0, np.abs(logs[1:-1]))
    return not np.any(below_chord(logs[:-2], logs[1:-1], logs[2:], lam, tol))


# ---------------------------------------------------------------------------
# JSON wire format


def mixture_to_json(mix) -> dict:
    """JSON-ready dict; -inf log weights become the string "-inf"."""
    if isinstance(mix, DiscreteMixture):
        return {"M": mix.M, "weights": [float(w) for w in mix.weights]}
    log_alpha = [float(v) if math.isfinite(v) else "-inf" for v in mix.log_alpha]
    return {"M": mix.M, "knots": [float(k) for k in mix.knots], "log_alpha": log_alpha}


def _json_float(v, what: str) -> float:
    """A JSON number, or the string "-inf", as a float; ValueError for any other value, booleans and null included.

    An integer beyond the double range is a ValueError too.
    """
    if isinstance(v, str) and v.strip().lower() in ("-inf", "-infinity"):
        return _NEG_INF
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} lies beyond the double range") from None


def _json_floats(v, what: str) -> np.ndarray:
    """A JSON list of _json_float values as an array; ValueError if v is not a list."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list, got {v!r}")
    return np.array([_json_float(e, f"each {what} entry") for e in v], dtype=float)


def mixture_from_json(obj: dict):
    """Parse the mixture wire format (discrete or continuous); ValueError for any malformed value.

    A discrete M is a JSON integer or an integral number; weights, knots,
    log_alpha and a continuous M are read by _json_float, and the mixture
    decides which values it takes ("-inf" only in log_alpha).
    """
    if not isinstance(obj, dict):
        raise ValueError("mixture JSON must be an object")
    if "weights" in obj:
        M = obj.get("M")
        if isinstance(M, float) and M.is_integer():
            M = int(M)
        return DiscreteMixture(M, _json_floats(obj["weights"], "weights"))
    if "knots" in obj and "log_alpha" in obj:
        M = _json_float(obj.get("M"), "continuous mixture M")
        return ContinuousMixture(M, _json_floats(obj["knots"], "knots"), _json_floats(obj["log_alpha"], "log_alpha"))
    raise ValueError('mixture JSON needs either "weights" or "knots"+"log_alpha"')
