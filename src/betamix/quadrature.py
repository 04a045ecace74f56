"""Composite panel quadrature with an embedded error estimate.

Every panel carries the 21-point Gauss-Kronrod rule, whose nodes include
those of the 10-point Gauss rule (QUADPACK's G10/K21 pair: Piessens et al.
1983; Kronrod extension per Laurie 1997, Math. Comp. 66). One evaluation
of the integrand at the 21 nodes gives both values: the Kronrod value is
the result, and its distance from the Gauss value, on the integral's own
scale, is the accuracy check.
"""

import functools

import numpy as np

# nonnegative abscissae of K21 on [-1, 1], descending; the entries at odd
# positions, counted from 0 (0.9739..., 0.8650..., ...), are the G10 abscissae
_XK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


# Panels per unit length of the integration variable where the caller knows
# nothing else about the integrand (the mixing-function integrals behind
# normalization and cdf). The density at a point x sets its own floor from
# the x-tilt of its kernel instead (see mixtures.ContinuousEvaluator), and
# the lemma integrands, which have no tilt, take one panel per unit (see
# lemmas.lemma2_continuous_cases).
PANELS_PER_UNIT = 8
# Largest drop of the log integrand's linear part across one panel: an
# interval whose log values differ by d gets at least d / LOG_DROP_PER_PANEL
# panels, so no panel spans more than a factor e^4 of the mixing function.
LOG_DROP_PER_PANEL = 4.0
# Log drops are capped near the usable range of a double (about e^-745 to
# e^709), which bounds the slope term at 200 panels per interval, and a
# tilt per unit length at 200 panels per unit.
LOG_DROP_CAP = 800.0
# Largest allowed gap between the Kronrod and the embedded Gauss value,
# measured on the integral's own scale (see check_gauss_kronrod).
REL_TOL = 1e-10


class QuadratureError(RuntimeError):
    """A Gauss-Kronrod gap, on its integral's own scale, exceeded REL_TOL or was nan."""


@functools.cache
def reference_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K21 nodes on [0, 1] with their Kronrod and Gauss weights.

    The Gauss weights are zero at the eleven Kronrod-only nodes. Built once;
    the returned arrays are read-only.
    """
    xk = np.array(_XK)
    t = 0.5 * (1.0 + np.concatenate([-xk[:-1], xk[::-1]]))
    wk = 0.5 * np.concatenate([_WK[:-1], _WK[::-1]])
    wg_half = np.zeros(len(_XK))
    wg_half[1::2] = _WG
    wg = 0.5 * np.concatenate([wg_half[:-1], wg_half[::-1]])
    for a in (t, wk, wg):
        a.flags.writeable = False
    return t, wk, wg


def log_drop_panels(drop) -> np.ndarray:
    """Panels that cut a log drop, or each of an array of them, into steps of LOG_DROP_PER_PANEL.

    At least one. The drop is capped at LOG_DROP_CAP, so an infinite (or nan)
    drop reads the cap.
    """
    capped = np.fmin(np.abs(drop), LOG_DROP_CAP)
    return np.maximum(1, np.ceil(capped / LOG_DROP_PER_PANEL)).astype(int)


def panel_nodes(
    breakpoints, log_values=None, per_unit: int = PANELS_PER_UNIT
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite nodes and weights over consecutive segments of `breakpoints`.

    A segment [a, b] is split into max(ceil(per_unit * (b - a)),
    log_drop_panels(l_b - l_a)) equal panels, each carrying a copy of the
    reference rule, where l_a and l_b are the entries of `log_values` (the
    log of the integrand's varying factor at each breakpoint; omitted, only
    the length counts). per_unit is the floor for a log integrand that moves
    by up to per_unit * LOG_DROP_PER_PANEL per unit length for a reason the
    breakpoints do not show, such as the x-tilt of the density kernel. So a
    steep mixing function gets panels fine enough for its own slope, with no
    setting to tune. A segment of zero length, or with a -inf log value at
    either end (where the integrand vanishes), gets no panels. Panel j of
    [a, b] starts at j * (b - a) / n + a and the last ends at b, the edges
    np.linspace(a, b, n + 1) gives. Returns flat (nodes, kronrod weights,
    gauss weights) arrays.
    """
    t, wk, wg = reference_rule()
    bps = np.asarray(breakpoints, dtype=float)
    a, b = bps[:-1], bps[1:]
    live = b > a
    drops = np.zeros(a.size)
    if log_values is not None:
        lv = np.asarray(log_values, dtype=float)
        live &= np.isfinite(lv[:-1]) & np.isfinite(lv[1:])
        # a difference of two huge log values overflows to inf, which the cap
        # absorbs; two -inf values give nan on a segment that gets no panels
        with np.errstate(over="ignore", invalid="ignore"):
            drops = np.diff(lv)
    counts = live * np.maximum(np.ceil((b - a) * per_unit).astype(int), log_drop_panels(drops))
    seg = np.repeat(np.arange(a.size), counts)
    j = np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts)
    step = (b - a)[seg] / counts[seg]
    lo = j * step + a[seg]
    hi = np.where(j + 1 == counts[seg], b[seg], (j + 1) * step + a[seg])
    h = (hi - lo)[:, None]
    return (lo[:, None] + h * t).ravel(), (h * wk).ravel(), (h * wg).ravel()


def check_gauss_kronrod(gap, what: str) -> None:
    """Raise QuadratureError unless every gap is at most REL_TOL.

    A gap is the Kronrod-Gauss distance of one integral on that integral's
    own scale: kronrod_integral's, or those of mixtures._KernelTable.integrate.
    A nan gap fails.
    """
    worst = float(np.max(gap, initial=0.0))
    if not worst <= REL_TOL:
        raise QuadratureError(
            f"{what}: Gauss and Kronrod quadratures differ by {worst:.3e} of scale (rel_tol {REL_TOL:.3e})"
        )


def kronrod_integral(wk, wg, values, what: str) -> float:
    """Kronrod value of one integral from its integrand's values at the nodes.

    Its gap is measured on the Kronrod integral of |integrand|, as QUADPACK
    does, and is 0 for an integrand that is 0 at every node.
    """
    kronrod = float(np.dot(wk, values))
    scale = float(np.dot(wk, np.abs(values)))
    check_gauss_kronrod(abs(kronrod - float(np.dot(wg, values))) / scale if scale else 0.0, what)
    return kronrod
