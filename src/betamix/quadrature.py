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
# nodes of one panel: the K21 abscissae on both sides of 0
PANEL_NODES = 2 * len(_XK) - 1


# Largest drop of the log integrand's linear part across one panel: an
# interval whose log values differ by d gets at least d / LOG_DROP_PER_PANEL
# panels, so no panel spans more than a factor e^4 of the mixing function.
LOG_DROP_PER_PANEL = 4.0
# Log drops are capped near the usable range of a double (about e^-745 to
# e^709), which bounds the slope term at 200 panels per interval and tops
# panel_ladder at 200 panels per unit, which still gives a panel per factor
# e^4 to the x-tilt of the density kernel: at most about 745 per unit of s,
# at the smallest positive double.
LOG_DROP_CAP = 800.0
# Largest allowed gap between the Kronrod and the embedded Gauss value,
# measured on the integral's own scale (see check_gauss_kronrod).
REL_TOL = 1e-10
# Most nodes one layout holds; panel_counts raises QuadratureError for a
# layout past it, before anything is allocated. 2^27 nodes hold 1 GiB per
# array. The top of panel_ladder lays out at most 200 panels of 21 nodes
# per unit of s, 21 * 200 * M nodes rounded up per knot interval (1.26e8 at
# M = 30 000), so every tier still fits at M <= 30 000.
MAX_NODES = 1 << 27


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


def panel_ladder() -> list[int]:
    """Panels per unit length that an integral climbs until its Gauss-Kronrod gap passes.

    One panel per unit, doubling at each step, up to the panels that
    panel_counts gives a capped log drop, LOG_DROP_CAP / LOG_DROP_PER_PANEL
    = 200: 1, 2, 4, ..., 128, 200. A caller integrates on the first tier,
    then again on the next only where the gap is not at most REL_TOL, and
    check_gauss_kronrod judges the gaps it is left with, so an integrand
    that the top tier does not resolve still raises QuadratureError.
    """
    cap = int(np.ceil(LOG_DROP_CAP / LOG_DROP_PER_PANEL))
    return [min(1 << k, cap) for k in range((cap - 1).bit_length() + 1)]


def panel_counts(breakpoints, log_values=None, per_unit: int = 1) -> np.ndarray:
    """Panels on each segment between consecutive `breakpoints`, the layout panel_nodes builds.

    A segment [a, b] gets max(ceil(per_unit * (b - a)), ceil(min(|l_b -
    l_a|, LOG_DROP_CAP) / LOG_DROP_PER_PANEL)) equal panels, where l_a and
    l_b are the entries of `log_values` (the log of the integrand's varying
    factor at each breakpoint; omitted, only the length counts). per_unit,
    a tier of panel_ladder, covers a log integrand that moves by up to
    per_unit * LOG_DROP_PER_PANEL per unit length for a reason the
    breakpoints do not show, such as the x-tilt of the density kernel or
    cdf's betainc factor. So a steep mixing function gets panels fine
    enough for its own slope, with no setting to tune. A segment of zero
    length, or with a -inf log value at either end (where the integrand
    vanishes), gets none. A layout of more than MAX_NODES nodes raises
    QuadratureError; the counts are formed as floats and checked before
    they are cast to the returned integers.
    """
    bps = np.asarray(breakpoints, dtype=float)
    a, b = bps[:-1], bps[1:]
    live = b > a
    drops = np.zeros(a.size)
    if log_values is not None:
        lv = np.asarray(log_values, dtype=float)
        live &= np.isfinite(lv[:-1]) & np.isfinite(lv[1:])
        # a difference of two huge log values overflows to inf, which the cap
        # absorbs; two -inf values give nan, which fmin also reads as the cap,
        # on a segment that gets no panels
        with np.errstate(over="ignore", invalid="ignore"):
            drops = np.fmin(np.abs(np.diff(lv)), LOG_DROP_CAP)
    counts = live * np.maximum(np.ceil((b - a) * per_unit), np.ceil(drops / LOG_DROP_PER_PANEL))
    nodes = PANEL_NODES * float(np.sum(counts))
    if not nodes <= MAX_NODES:
        raise QuadratureError(f"{nodes:.3g} quadrature nodes exceed the limit of {MAX_NODES}")
    return counts.astype(int)


def panel_nodes(breakpoints, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite nodes and weights over consecutive segments of `breakpoints`, with counts[i] panels on segment i.

    counts are panel_counts' for the same breakpoints, and each panel
    carries a copy of the reference rule. Panel j of [a, b] starts at j *
    (b - a) / n + a and the last ends at b, the edges np.linspace(a, b, n +
    1) gives. Returns flat (nodes, kronrod weights, gauss weights) arrays.
    """
    t, wk, wg = reference_rule()
    bps = np.asarray(breakpoints, dtype=float)
    a, b = bps[:-1], bps[1:]
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
    own scale: kronrod_integral's, or those of mixtures._moments.
    A nan gap fails.
    """
    worst = float(np.max(gap, initial=0.0))
    if not worst <= REL_TOL:
        raise QuadratureError(
            f"{what}: Gauss and Kronrod quadratures differ by {worst:.3e} of scale (rel_tol {REL_TOL:.3e})"
        )


def kronrod_integral(wk, wg, values, starts=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values of integrals over runs of nodes, with the Gauss-Kronrod gap of each.

    values holds the integrand at the nodes along its last axis, one
    integrand per row of any leading axes; each run of nodes begins at an
    index in starts and ends where the next begins (one run over all nodes
    by default). The Kronrod sum, the Gauss sum and the Kronrod integral of
    |integrand| are formed by np.add.reduceat. A gap is measured on that
    integral of |integrand|, as QUADPACK does, and is 0 for an integrand
    that is 0 at every node of its run; an overflowed integrand gives a nan
    gap, which check_gauss_kronrod fails. Returns (values, gaps), each with
    one entry per run along the last axis.
    """
    with np.errstate(invalid="ignore"):
        kronrod, gauss, scale = (np.add.reduceat(w * v, starts, axis=-1)
                                 for w, v in ((wk, values), (wg, values), (wk, np.abs(values))))
        return kronrod, np.abs(kronrod - gauss) / np.where(scale > 0.0, scale, 1.0)
