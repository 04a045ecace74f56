"""Grid certification of log-concavity via the sharpened curvature margin.

The central quantity is the normalized margin

    [ ((M-1)/M) f'(x)^2 - f(x) f''(x) ] / f(x)^2

which is nonnegative on (0, 1) whenever the mixing weights are
log-concave, vanishes identically for geometric weight sequences, and is
scale-free in the weights. A certificate records the worst margin over a
grid together with the largest log-curvature (log f)'' on the same grid,
both from one evaluation, and randomized midpoint-definition spot checks,
made on log f by the chord test (mixtures.below_chord) that also decides
the weights' hypothesis. The midpoint triples are drawn before the grid is
evaluated. A discrete margin comes from mixtures.derivative_ratios on de
Casteljau's f, f' and f'', and log f at the triples from a second de
Casteljau call; a continuous mixture gets both from one pass over the
grid and the triples' points together, straight from the posterior
moments (ContinuousEvaluator.forms), so its margin and log f are finite
at every point, even where f underflows. The grid and the midpoint
checks both evaluate the unit-scaled mixture (mixtures.unit_scaled), so
the weights' scale changes a certificate at most by rounding.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .mixtures import (
    ContinuousEvaluator,
    DiscreteMixture,
    below_chord,
    derivative_ratios,
    discrete_derivs_grid,
    discrete_density_grid,
    unit_scaled,
)
from .special import DomainError

VERDICT_CERTIFIED = "certified"
VERDICT_VIOLATED = "violated"
VERDICT_DEGENERATE = "degenerate-zero"

CRITERION_EQ10 = "curvature-margin"

_MIDPOINT_CHECKS = 64
_MIDPOINT_SLACK = 1e-10


@dataclass(frozen=True)
class ConcavityCertificate:
    """Grid verdict with the minimum curvature margin and worst point.

    min_logcurv is the largest (log f)'' = (f f'' - f'^2)/f^2 on the grid,
    formed from the same f, f' and f'' as the margin, at the points that
    have one (so it is <= 0 for a log-concave density). criterion records
    which test decided the verdict; the curvature margin is the only one
    for now, for both kinds of mixture at every order. A degenerate
    certificate computes nothing past its verdict and keeps the defaults.
    """

    verdict: str
    grid_points: int
    eps: float
    tol: float
    criterion: str
    min_margin_eq10: float | None = None
    min_logcurv: float = math.nan
    worst_x: float = math.nan
    midpoint_checks: int = 0
    midpoint_failures: int = 0
    witness: tuple[float, float, float] | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_json(self, input_echo=None) -> dict:
        """The fields in their order, nan as None and tuples as lists, then tool_version and input."""
        from . import __version__

        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, float) and math.isnan(value):
                out[key] = None
            elif isinstance(value, tuple):
                out[key] = list(value)
        return out | {"tool_version": __version__, "input": input_echo}


def _unit_ratios(mix, xs, pts):
    """(f'/f, (log f)'', margin) over xs of the unit-scaled mix, and its log f over pts.

    A continuous mixture reads both off one moment pass over xs and pts
    together; a discrete one makes a de Casteljau call for each, none for
    an empty pts.
    """
    scaled = unit_scaled(mix)
    if isinstance(mix, DiscreteMixture):
        ratios = derivative_ratios(*discrete_derivs_grid(scaled, xs), float(mix.M))
        with np.errstate(divide="ignore"):
            return ratios, np.log(discrete_density_grid(scaled, pts)) if pts.size else pts
    forms = ContinuousEvaluator(scaled).forms(np.concatenate([xs, pts]))
    return tuple(v[: xs.size] for v in forms[4:]), forms[3][xs.size :]


def margin_eq10(mix, x: float) -> float:
    """Normalized curvature margin at one point x in (0, 1).

    Nonnegative exactly when ((M-1)/M) f'^2 >= f f''; the normalization by
    f^2 makes the value a curvature-like, weight-scale-free quantity.
    Formed as in certify, on the unit-scaled mixture, so it equals the
    certificate's margin at a grid point bit for bit. A discrete margin is
    nan where that mixture's f underflows; a continuous one, read off the
    posterior moments, is not.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"margin_eq10 requires 0 < x < 1, got {x!r}")
    (_, _, margin), _ = _unit_ratios(mix, np.array([x]), np.empty(0))
    return float(margin[0])


def check_eps(eps: float) -> None:
    """Reject a grid inset eps unless 0 < eps < 0.5 and 1 - eps is below 1 in floating point."""
    if not (0.0 < eps < 0.5 and 1.0 - eps < 1.0):
        raise ValueError(f"eps must lie in (0, 0.5) with 1 - eps < 1 in floating point, got {eps!r}")


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


def certify(
    mix,
    grid_points: int = 1024,
    eps: float = 1e-6,
    tol: float = 1e-9,
    seed: int = 0,
) -> ConcavityCertificate:
    """Certify log-concavity of the mixture density on [eps, 1-eps].

    Evaluates the curvature margin and the log-curvature on a uniform grid,
    both from one evaluation of f, f' and f'', plus randomized midpoint
    spot checks, whose points a continuous mixture evaluates in the grid's
    own pass. tol must be finite and at least 0.
    "certified" means no violation was detected at this resolution and
    tolerance. Discrete grid points where the density underflowed carry no
    margin and are counted in a note; a continuous margin is finite at
    every grid point. A continuous integral that fails its Gauss-Kronrod
    check raises QuadratureError, so no certificate rests on it.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    check_eps(eps)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and at least 0, got {tol!r}")
    if mix.is_zero:
        return ConcavityCertificate(VERDICT_DEGENERATE, grid_points, eps, tol, CRITERION_EQ10)

    xs = np.linspace(eps, 1.0 - eps, grid_points)
    triples, pts = midpoint_triples(_MIDPOINT_CHECKS, eps, np.random.default_rng(seed))
    (_, logcurv, margins), log_f = _unit_ratios(mix, xs, pts)

    # a discrete margin is nan where f underflowed, and those points are
    # counted as such; the worst point and the largest log-curvature are
    # taken over the others, and with none left nothing was computed
    pool = np.flatnonzero(np.isfinite(margins))
    min_margin, min_logcurv, worst_x = None, math.nan, math.nan
    if pool.size:
        i_worst = int(pool[np.argmin(margins[pool])])
        min_margin = float(margins[i_worst])
        min_logcurv = float(np.max(logcurv[pool]))
        worst_x = float(xs[i_worst])

    n_failures, witness = midpoint_check(triples, log_f)

    notes = []
    underflowed = grid_points - pool.size
    if underflowed:
        notes.append(f"density underflowed to 0 at {underflowed} of {grid_points} grid points")

    if min_margin is None:
        verdict = VERDICT_DEGENERATE
    elif min_margin >= -tol and n_failures == 0:
        verdict = VERDICT_CERTIFIED
    else:
        verdict = VERDICT_VIOLATED
    return ConcavityCertificate(
        verdict=verdict,
        grid_points=grid_points,
        eps=eps,
        tol=tol,
        criterion=CRITERION_EQ10,
        min_margin_eq10=min_margin,
        min_logcurv=min_logcurv,
        worst_x=worst_x,
        midpoint_checks=_MIDPOINT_CHECKS,
        midpoint_failures=n_failures,
        witness=witness,
        notes=tuple(notes),
    )


def sharpness_check(M: int, r: float, grid_points: int = 1024) -> float:
    """Maximum |margin| over a grid for the geometric weights w_i = r^i.

    Geometric weights make the density c(1 + lambda*x)^M, for which the
    curvature margin vanishes identically, so the returned maximum is a
    sharpness (and floating-point stability) measure; contract: <= 1e-8.
    The margins are certify's, from _unit_ratios on the grid of certify at
    eps = 1e-6. Points where the density underflows carry no margin and
    are left out.
    """
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise DomainError(f"sharpness_check needs a positive integer order, got {M!r}")
    if not (r > 0.0 and r != 1.0):
        raise DomainError(f"sharpness_check needs r > 0, r != 1, got {r!r} (r=1 is the constant case)")
    mix = DiscreteMixture(int(M), float(r) ** np.arange(M + 1, dtype=float))
    (_, _, margins), _ = _unit_ratios(mix, np.linspace(1e-6, 1.0 - 1e-6, grid_points), np.empty(0))
    return float(np.max(np.abs(margins), initial=0.0, where=np.isfinite(margins)))


def kernel_log_curvature(M: float, s: float, x: float) -> float:
    """Second x-derivative of log[ C(M, s) (1-x)^s x^(M-s) ].

    Equals -s/(1-x)^2 - (M-s)/x^2: nonpositive for s in [0, M] but
    strictly positive somewhere in (0, 1) when -1 < s < 0 or M < s < M+1.
    """
    if not -1.0 < s < M + 1.0:
        raise DomainError(f"kernel_log_curvature requires -1 < s < M+1, got s={s!r}")
    if not 0.0 < x < 1.0:
        raise DomainError(f"kernel_log_curvature requires 0 < x < 1, got x={x!r}")
    return -s / (1.0 - x) ** 2 - (M - s) / (x * x)


def find_kernel_failure(M: float, s: float) -> float | None:
    """A point x in (0, 1) where the mixture kernel is not log-concave.

    For s in (-1, 0) or (M, M+1) the kernel's log-curvature changes sign
    once on (0, 1), at x* = a/(a+b) with a = sqrt|M-s| and b = sqrt|s|, and
    is positive above x* for s < 0, below it for s > M. The point halfway
    into that side is returned; DomainError is raised when no double there
    has positive curvature. For s in [0, M] there is no failure: None.
    """
    if not -1.0 < s < M + 1.0:
        raise DomainError(f"find_kernel_failure requires -1 < s < M+1, got s={s!r}")
    if 0.0 <= s <= M:
        return None
    a, b = math.sqrt(abs(M - s)), math.sqrt(abs(s))
    # x*/2, or 1 - (1-x*)/2 on the scale of 1 - x* = b/(a+b); where that rounds
    # to 1, the largest double below 1 is the last candidate (curvature rises in x)
    x = min(1.0 - 0.5 * b / (a + b), math.nextafter(1.0, 0.0)) if s < 0.0 else 0.5 * a / (a + b)
    if not (0.0 < x < 1.0 and kernel_log_curvature(M, s, x) > 0.0):
        raise DomainError(f"no double x in (0, 1) has positive kernel log-curvature at M={M!r}, s={s!r}")
    return x
