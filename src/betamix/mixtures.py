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
alpha vanishes get none. Each x is integrated on the coarsest layout whose
Gauss-Kronrod gap passes, climbing from one panel per unit of s, with one
moment pass (_moments) per layout it reads, the only continuous
integration: at fixed x the normalized integrand is a posterior over s,
whose mass, mean m and variance V give, with t = x(1-x), log f, the score
f'/f = (M(1-x) - m)/t, the Eq. 10 margin [m(M-m)/M - V]/t^2 and the
log-curvature (log f)'' = -margin - (f'/f)^2/M, so one exponentiation
serves them all; f is the mass on each point's scale, f' is f times the
score, and f'' is f times (f'/f)^2 + (log f)''. The density alone is a
slice of that pass. The kernel's log is l(s) + log C(M, s) + s tilt, with
tilt = log(1-x) - log x, plus M log x, which joins each point's scale
instead of the exponent. Blocks of x are sized by the de Casteljau byte
budget and share one buffer. Each point's sums are BLAS dot products of
its own exponentiated row against every Kronrod and Gauss weight row, over
fixed chunks of nodes (_DOT_CHUNK) short enough that BLAS never splits one
across threads, so their bits depend on neither the other points nor the
BLAS thread count.

The weight scale is taken out inside the evaluators. Both engines,
discrete_derivs_grid and ContinuousEvaluator.forms, return the same seven
forms of the mixture as given, one Forms tuple with the fields f, d1, d2,
log_f, log_d1 = f'/f, log_d2 = (log f)'' and the Eq. 10 margin. Each
evaluates the unit-scaled mixture (unit_scaled), whose discrete weights
are divided by a power of two 2^k and whose continuous log alpha peaks
at 0, so f, f' and f'' stay in range. The continuous moments are
formed on it, and its peak joins each point's log scale, so continuous
linear values are those of the mixture's own alpha, and log f and every
ratio, read off the moments, are finite wherever the posterior is.
discrete_derivs_grid forms the score, (log f)'' and margin on each point's
own power-of-two scale of the unit-scaled f, scales the linear values
back by 2^k and shifts log f by k log 2. density_grid, which the
brute-force midpoint oracle reads, is the density of the unit-scaled
mixture. The sampler evaluates no density: it draws the mixing index and
then one Beta variate (sample).

What does not change within an evaluation is formed once. A continuous
mixture's live-knot mask is formed when the mixture is made, read-only;
is_zero, live_knots, alpha's peak (_alpha_peak), the live intervals
(_alpha_intervals) and sample read it. alpha's peak is taken once per
ContinuousEvaluator, which builds the unit-scaled twin from it without
repeating the checks the mixture passed. One _moments call forms a
layout's log kernel, centre, six weight rows and block buffer, and forms
makes one for each layout (see _layouts) that some point climbs to; the
exponent and its row max are formed once per block of x, and its dot
products once per chunk of nodes.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import REL_TOL, check_gauss_kronrod, kronrod_integral, panel_counts, panel_ladder, panel_nodes
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
    End knots within 1e-12 max(1, M) of 0 and M are put at 0 and M, and the
    grid must increase strictly once they are.
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
        scale = max(1.0, abs(M))
        if abs(knots[0]) > 1e-12 * scale or abs(knots[-1] - M) > 1e-12 * scale:
            raise ValueError("knot grid must start at 0 and end at M")
        if np.any(np.isnan(la)) or np.any(la == np.inf):
            raise ValueError("log_alpha entries must be finite or -inf")
        knots = knots.copy()
        knots[0] = 0.0
        knots[-1] = M
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing once their ends are put at 0 and M")
        knots.flags.writeable = False
        self._set(M, knots, la.copy())

    def _set(self, M: float, knots: np.ndarray, la: np.ndarray) -> None:
        """Store checked fields, with log_alpha made read-only and the live-knot mask formed from it."""
        finite = np.isfinite(la)
        interval = finite[:-1] & finite[1:]
        live = np.concatenate([interval, [False]]) | np.concatenate([[False], interval])
        la.flags.writeable = live.flags.writeable = False
        for name, value in (("M", M), ("knots", knots), ("log_alpha", la), ("_live", live)):
            object.__setattr__(self, name, value)

    def live_knots(self) -> np.ndarray:
        """Read-only boolean mask, per knot, of the knots beside an interval where alpha is not identically 0.

        Formed once, when the mixture is made.
        """
        return self._live

    @property
    def is_zero(self) -> bool:
        return not self._live.any()


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
    return float(mix.log_alpha[mix._live].max(initial=_NEG_INF))


def _unit_continuous(mix: ContinuousMixture, top: float) -> ContinuousMixture:
    """The unit-scaled twin of mix, whose peak (_alpha_peak) is top; mix itself if top is 0 or -inf.

    The twin's log alpha is lowered by top, and it is made without repeating
    the checks that mix passed.
    """
    if not (math.isfinite(top) and top != 0.0):
        return mix
    twin = object.__new__(ContinuousMixture)
    twin._set(mix.M, mix.knots, mix.log_alpha - top)
    return twin


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
        return _unit_continuous(mix, _alpha_peak(mix))
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
# orders. _moments sizes its one exponent buffer by the same budget.
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


def _layouts(unit: ContinuousMixture):
    """The panel layouts an integral over s against the unit-scaled alpha climbs: (nodes, kronrod, gauss weights).

    This is the ladder rule of every such integral. Each tier of
    quadrature.panel_ladder has its panels per knot interval formed once,
    by quadrature.panel_counts. A tier whose counts equal those of the last
    layout yielded would lay out the same nodes and weights, so it is
    skipped; any other is laid out by quadrature.panel_nodes over the whole
    knot grid, where the intervals on which alpha vanishes get no panels. A
    caller integrates on the first layout and takes the next only for what
    failed its Gauss-Kronrod gap, so no layout is built that is not read.
    """
    last = None
    for tier in panel_ladder():
        counts = panel_counts(unit.knots, unit.log_alpha, tier)
        if last is None or not np.array_equal(counts, last):
            last = counts
            yield panel_nodes(unit.knots, counts)


# The moment sums of _moments are BLAS dot products (np.vecdot) over fixed
# chunks of at most this many nodes, the partials added in chunk order.
# OpenBLAS 0.3 splits a double dot across threads past 10 000 values
# (10 000 gave the same bits at 1 and 2 threads, 10 010 did not), so no
# chunk is split, and a sum's bits do not depend on the BLAS thread count.
# A dot's several accumulators also round less than one running sum does.
_DOT_CHUNK = 4096


def _moments(unit: ContinuousMixture, peak: float, s, wk, wg, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod moments of the density integrand on one layout over an array of x in (0, 1), with their gap at each x.

    The integrand is exp(peak + log_k(s) + s tilt) x^M with log_k = log alpha
    + log C(M, s) for the unit-scaled alpha (unit), whose log peaks at 0,
    peak the log alpha that unit_scaled took out, and tilt = log(1-x) - log
    x. The nodes s, with Kronrod weights wk and embedded Gauss weights wg,
    are a layout of _layouts over unit's knot grid, and cover only the knot
    intervals where alpha does not vanish, so log_k is finite at every one.
    At fixed x, the integrand normalized to mass one is a posterior over the
    mixing index s, and s is centred on the middle of the node range,
    halfway between the first and the last node (they ascend), before its
    moments are formed, so the variance is not a difference of two large
    numbers. One call forms log_k and the centre, then the six weight rows,
    the Kronrod and Gauss weights times 1, ds and ds^2 with ds the centred
    nodes, then walks x in blocks.

    The results are the rows (top, mass, mean, var): each point's log scale
    top, the posterior's mass on that scale, so that f = exp(top) mass and
    log f = top + log(mass), and the mean and variance of the posterior over
    s at each x. The x-only factor x^M and alpha's peak leave the exponent,
    log_k + s tilt, and join each point's scale: top = row max + peak + M
    log x, where row max is the exponent's largest value at that x. x is
    walked in blocks of as many points as fill _BLOCK_BYTES, the de
    Casteljau budget, in one buffer reused by every block: the exponent is
    formed, shifted by its row max and exponentiated in place, and each
    point's row is dotted (np.vecdot) with the six weight rows. Each sum
    reads that point's row alone, over the same node chunks of _DOT_CHUNK
    whatever the block, their partials added in chunk order, so a point's
    value depends on that point alone; the chunks keep every dot below the
    length at which BLAS splits it across threads, so it does not depend on
    the thread count either. A call holds, besides arrays of one value per
    point, the weight rows and log_k (7 values per node) and the block
    buffer, at most _BLOCK_BYTES while one row of nodes fits in it (up to
    65 536 nodes) and one row past that. The gap is the largest
    Kronrod-Gauss distance of the posterior's mass relative to itself (on
    its own scale, so defined where f underflows), its mean relative to M
    and its variance relative to M^2: the scales that bound f, f' and f''
    relative to f, f M/t and f M^2/t^2, with t = x(1-x). It is 0 where the
    integrand vanishes at every node, where the moments are nan:
    ContinuousEvaluator.forms calls this under its np.errstate, so they
    raise no warning.
    """
    log_k = np.interp(s, unit.knots, unit.log_alpha) + log_gen_binom_grid(unit.M, s)
    centre = 0.5 * (s[0] + s[-1]) if s.size else 0.0
    # Kronrod sums in z[0], Gauss sums in z[1], each point's on its own scale exp(top)
    z = np.zeros((2, 3, x.size))
    top = np.full(x.size, _NEG_INF)
    if s.size:
        log_x = np.log(x)
        tilt = np.log1p(-x) - log_x
        rows = np.empty((2, 3, s.size))
        rows[:, 0] = wk, wg
        rows[:, 2] = s - centre
        np.multiply(rows[:, 0], rows[:, 2], out=rows[:, 1])
        rows[:, 2] *= rows[:, 1]
        rows, zr = rows.reshape(6, -1), z.reshape(6, -1)
        size = max(1, min(x.size, _BLOCK_BYTES // (8 * s.size)))
        buf = np.empty((size, s.size))
        for lo in range(0, x.size, size):
            sl = slice(lo, lo + size)
            b = buf[: x.size - lo]
            np.multiply(tilt[sl, None], s, out=b)
            b += log_k
            row_max = top[sl] = b.max(axis=1)
            b -= np.where(np.isfinite(row_max), row_max, 0.0)[:, None]
            np.exp(b, out=b)
            for c in range(0, s.size, _DOT_CHUNK):
                zr[:, sl] += np.vecdot(b[:, c : c + _DOT_CHUNK], rows[:, None, c : c + _DOT_CHUNK])
        top += peak + unit.M * log_x
    # mass, mean and variance about the centre, in place; nan where the mass is 0
    mass = z[:, 0]
    z[:, 1:] /= mass[:, None]
    z[:, 2] -= z[:, 1] * z[:, 1]
    gap = np.abs(z[0] - z[1])
    gap[0] /= mass[0]
    gap[1] /= unit.M
    gap[2] /= unit.M * unit.M
    z[0, 1] += centre
    return np.array([top, *z[0]]), np.where(np.isfinite(top), gap.max(axis=0), 0.0)


class ContinuousEvaluator:
    """Reusable evaluator for one continuous mixture.

    Each x is integrated by _moments on each layout of _layouts in turn
    (1, 2, 4, ..., 200 G10/K21 panels per unit of s, and per knot interval
    at least as many panels as the drop of log alpha across it needs) until
    its Gauss-Kronrod gap, on the scales of _moments, is at most
    quadrature.REL_TOL. Most of (0, 1)
    stops at one panel per unit; a point whose kernel (1-x)^s x^(M-s) tilts
    steeply in s, near 0 or 1, climbs further. alpha's peak is taken and the
    mixture unit-scaled once, when the evaluator is made. Since a point's
    layouts follow from its own gaps alone, its value depends on that point
    alone, not on the others evaluated with it. Every evaluation returns
    Kronrod values; a gap still above quadrature.REL_TOL on the last layout
    raises QuadratureError.
    """

    def __init__(self, mix: ContinuousMixture):
        self.mix = mix
        self._peak = _alpha_peak(mix)
        self._unit = _unit_continuous(mix, self._peak)

    def forms(self, x) -> Forms:
        """The Forms of the mixture over x in (0, 1), in one _moments call for each layout read.

        Every point is integrated on the first layout of _layouts, and the
        points whose gap is not at most quadrature.REL_TOL (nan included)
        again on each next one, laid out only then, until none is left or
        the layouts end; a point keeps the values of the last layout it
        read. f = exp(top) mass, 0
        where top is not finite, and log f = top + log(mass). With the
        posterior's mean m and variance V, and t = x(1-x): d/dx log[(1-x)^s
        x^(M-s)] = (M(1-x) - s)/t, so f'/f = (M(1-x) - m)/t, and the Eq. 10
        margin [((M-1)/M) f'^2 - f f'']/f^2 is [m(M-m)/M - V]/t^2. Then
        (log f)'' = -margin - (f'/f)^2/M, and f' and f'' are f (f'/f) and
        f ((f'/f)^2 + (log f)''), 0 where f is. No ratio reads f, so each is
        finite where f underflows; past the double range f' and f'' read
        inf.
        """
        x = np.asarray(x, dtype=float)
        xr = x.ravel()
        rows = np.empty((4, xr.size))
        gap = np.empty(xr.size)
        climbing = np.arange(xr.size)
        layouts = _layouts(self._unit)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while climbing.size and (layout := next(layouts, None)):
                rows[:, climbing], gap[climbing] = _moments(self._unit, self._peak, *layout, xr[climbing])
                climbing = climbing[~(gap[climbing] <= REL_TOL)]
            check_gauss_kronrod(gap, "density and derivatives")
            top, mass, mean, var = rows.reshape((4,) + x.shape)
            M = self.mix.M
            omx = 1.0 - x
            t = x * omx
            f = np.where(np.isfinite(top), np.exp(top) * mass, 0.0)
            log_f = top + np.log(mass)
            score = (M * omx - mean) / t
            margin = (mean * (M - mean) / M - var) / (t * t)
            square = score * score
            logcurv = -margin - square / M
            positive = f > 0.0
            d1 = np.where(positive, f * score, 0.0)
            d2 = np.where(positive, f * (square + logcurv), 0.0)
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
    """Density of the unit-scaled mixture (unit_scaled) over an array of x, for either kind.

    That is the mixture's density divided by one constant, so it neither
    overflows nor underflows for the weights' scale alone. A discrete
    mixture takes x in [0, 1], where de Casteljau gives the endpoint limits
    (w_M, w_0) of the scaled weights; a continuous one takes x in (0, 1),
    as ContinuousEvaluator.forms does.
    """
    mix = unit_scaled(mix)
    if isinstance(mix, DiscreteMixture):
        return discrete_density_grid(mix, x)
    return ContinuousEvaluator(mix).density(x)


def _alpha_intervals(unit: ContinuousMixture):
    """(start, span, D, mass) of each knot interval where the unit-scaled alpha lives.

    Measured from the interval's end where alpha is larger (start), at the
    fraction t of its length L = |span| (span runs towards the other end),
    alpha is e^l e^(-D t), with l the larger and D >= 0 the difference of
    its two log values, so its mass is L e^l (1 - e^-D)/D (L e^l at D = 0).
    """
    la, live = unit.log_alpha, unit._live
    # an interval lives exactly where both its knots do: a -inf knot is never live
    i = np.flatnonzero(live[:-1] & live[1:])
    rise = la[i + 1] > la[i]
    near, far = np.where(rise, i + 1, i), np.where(rise, i, i + 1)
    start, span, D = unit.knots[near], unit.knots[far] - unit.knots[near], la[near] - la[far]
    mass = np.abs(span) * np.exp(la[near]) * np.divide(-np.expm1(-D), D, out=np.ones_like(D), where=D > 0.0)
    return start, span, D, mass


def normalization(mix) -> float:
    """Total mass of the density over [0, 1], in closed form.

    Each Beta kernel integrates to 1/(M+1), so the mass is sum(weights)/(M+1)
    for a discrete mixture and integral(alpha)/(M+1) for a continuous one,
    whose alpha integrates exactly over each interval (_alpha_intervals).
    Callers divide by this to get a probability density. Both are formed on
    the unit-scaled mixture (unit_scaled) with the scale put back last (2^k,
    or alpha's peak added to the log before one exponential), so a value
    within the double range comes back finite, and only one past it reads
    inf.
    """
    if mix.is_zero:
        raise DegenerateMixtureError("normalization of the identically-zero mixture")
    M = mix.M
    with np.errstate(over="ignore"):
        if isinstance(mix, DiscreteMixture):
            return float(np.ldexp(np.sum(unit_scaled(mix).weights) / (M + 1), weight_exponent(mix)))
        top = _alpha_peak(mix)
        return float(np.exp(top + np.log(np.sum(_alpha_intervals(_unit_continuous(mix, top))[3]) / (M + 1.0))))


def cdf(mix, x: float) -> float:
    """integral of the density over [0, x], monotone nondecreasing in x.

    Each kernel integrates in closed form: the integral over [0, x] of
    C(M, s) (1-t)^s t^(M-s) dt is I_x(M-s+1, s+1)/(M+1), with I the
    regularized incomplete Beta function. So the discrete CDF is an exact sum, and the
    continuous one a single quadrature over s, the Kronrod value of
    quadrature.kronrod_integral gated by its Gauss-Kronrod gap. It climbs
    the layouts of _layouts from one panel per unit of s until that gap is
    at most quadrature.REL_TOL. Either is formed on the unit-scaled mixture
    (unit_scaled) with its scale put back last, as normalization is. A gap
    still failing on the last layout raises QuadratureError. The gap is
    judged only where the value is at least the smallest normal double: a
    smaller one comes from a subnormal unit-scaled integrand, whose sums
    keep only a few digits on any tier, so it is returned from the first
    tier that gives it, and may fall short of the true value, as scipy's
    betainc reads 0 below about 1e-308. The identically-zero mixture gives
    0.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"cdf requires 0 <= x <= 1, got {x!r}")
    if x == 0.0 or mix.is_zero:
        return 0.0
    from scipy.special import betainc

    M = mix.M
    with np.errstate(over="ignore", divide="ignore"):
        if isinstance(mix, DiscreteMixture):
            s = np.arange(M + 1.0)
            total = np.dot(unit_scaled(mix).weights, betainc(M - s + 1.0, s + 1.0, x))
            return float(np.ldexp(total / (M + 1), weight_exponent(mix)))
        top = _alpha_peak(mix)
        unit = _unit_continuous(mix, top)
        for s, wk, wg in _layouts(unit):
            alpha = np.exp(np.interp(s, unit.knots, unit.log_alpha))
            (total,), gap = kronrod_integral(wk, wg, alpha * betainc(M - s + 1.0, s + 1.0, x))
            value = float(np.exp(top + np.log(total / (M + 1.0))))
            if gap[0] <= REL_TOL or value < np.finfo(float).tiny:
                return value
        check_gauss_kronrod(gap, "cdf")


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
    larger, at the fraction t of its length, alpha is e^l e^(-D t)
    (_alpha_intervals), and its CDF in t inverts to t = -log1p(v
    expm1(-D))/D (t = v at D = 0), which stays finite for D in the
    thousands, where it reads -log(1 - v)/D. Draws are made
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
        start, span, D, mass = _alpha_intervals(unit)
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
