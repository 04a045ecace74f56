"""Grid certification of log-concavity via the sharpened curvature margin.

The central quantity is the normalized margin

    [ ((M-1)/M) f'(x)^2 - f(x) f''(x) ] / f(x)^2

which is nonnegative on (0, 1) whenever the mixing weights are
log-concave, vanishes identically for geometric weight sequences, and is
scale-free in the weights. Where it is >= 0, (log f)'' = -margin -
(f'/f)^2/M <= 0, so it is the one test a certificate applies: at every
point of a grid, where the worst margin is recorded together with the
largest log-curvature (log f)'', and at 64 random off-grid points, all
from one evaluation. The margin and the log-curvature are the margin and
log_d2 fields of the Forms tuple that both engines return: a discrete
one from mixtures.discrete_derivs_grid, formed on each point's
power-of-two scale of de Casteljau's f, f' and f''; a continuous one
straight from the posterior moments (ContinuousEvaluator.forms), so it
is finite at every point, even where f underflows. Both engines
evaluate the unit-scaled mixture, so the weights' scale changes a
certificate at most by rounding. The chord test on f itself is left to
lemmas.brute_force_logconcavity, an oracle that reads density values
only.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .mixtures import ContinuousEvaluator, DiscreteMixture, Forms, discrete_derivs_grid
from .mixtures import discrete_density_grid  # noqa: F401  (perfbench/spans.py wraps this name here)
from .special import DomainError

VERDICT_CERTIFIED = "certified"
VERDICT_VIOLATED = "violated"
VERDICT_DEGENERATE = "degenerate-zero"

CRITERION_EQ10 = "curvature-margin"

_MIDPOINT_CHECKS = 64


@dataclass(frozen=True)
class ConcavityCertificate:
    """Grid verdict with the minimum curvature margin and worst point.

    min_logcurv is the largest (log f)'' = (f f'' - f'^2)/f^2 on the grid,
    formed from the same f, f' and f'' as the margin, at the points that
    have one (so it is <= 0 for a log-concave density). criterion records
    which test decided the verdict; the curvature margin is the only one
    for now, for both kinds of mixture at every order, on the grid and off
    it. The off-grid fields read the margin at 64 random points:
    midpoint_checks counts those where it is finite (a discrete margin is
    nan where f underflows), midpoint_failures those where it is below
    -tol, and witness is the first such x, or None. A degenerate
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
    witness: float | None = None
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


def _forms(mix, xs) -> Forms:
    """The Forms of either kind of mixture over xs, from one de Casteljau call or one moment pass."""
    if isinstance(mix, DiscreteMixture):
        return discrete_derivs_grid(mix, xs)
    return ContinuousEvaluator(mix).forms(xs)


def margin_eq10(mix, x: float) -> float:
    """Normalized curvature margin at one point x in (0, 1).

    Nonnegative exactly when ((M-1)/M) f'^2 >= f f''; the normalization by
    f^2 makes the value a curvature-like, weight-scale-free quantity.
    Formed as in certify, so it equals the certificate's margin at a grid
    point bit for bit. A discrete margin is nan where the unit-scaled f
    underflows; a continuous one, read off the posterior moments, is not.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"margin_eq10 requires 0 < x < 1, got {x!r}")
    return float(_forms(mix, x).margin)


def check_eps(eps: float) -> None:
    """Reject a grid inset eps unless 0 < eps < 0.5 and 1 - eps is below 1 in floating point."""
    if not (0.0 < eps < 0.5 and 1.0 - eps < 1.0):
        raise ValueError(f"eps must lie in (0, 0.5) with 1 - eps < 1 in floating point, got {eps!r}")


def _grid(grid_points: int, eps: float) -> np.ndarray:
    """certify's grid: grid_points >= 3 equally spaced points from eps to 1 - eps (check_eps)."""
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    check_eps(eps)
    return np.linspace(eps, 1.0 - eps, grid_points)


def certify(
    mix,
    grid_points: int = 1024,
    eps: float = 1e-6,
    tol: float = 1e-9,
    seed: int = 0,
) -> ConcavityCertificate:
    """Certify log-concavity of the mixture density on [eps, 1-eps].

    Evaluates the curvature margin and the log-curvature on a uniform grid
    (_grid), and the margin at _MIDPOINT_CHECKS random points of [eps,
    1-eps] drawn from seed, all from one evaluation of f, f' and f''. tol
    must be finite and at least 0. "certified" means no margin below -tol
    was found, on the grid or off it, at this resolution and tolerance.
    Discrete points where the density underflowed carry no margin and are
    counted in a note, grid and off-grid points apart; a continuous margin
    is finite at every point. A continuous integral that fails its
    Gauss-Kronrod check raises QuadratureError, so no certificate rests on
    it.
    """
    xs = _grid(grid_points, eps)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and at least 0, got {tol!r}")
    if mix.is_zero:
        return ConcavityCertificate(VERDICT_DEGENERATE, grid_points, eps, tol, CRITERION_EQ10)

    pts = eps + (1.0 - 2.0 * eps) * np.random.default_rng(seed).random(_MIDPOINT_CHECKS)
    forms = _forms(mix, np.concatenate([xs, pts]))
    margins, off_grid = np.split(forms.margin, [grid_points])

    # a discrete margin is nan where f underflowed, and those points are
    # counted as such; the worst point and the largest log-curvature are
    # taken over the others, and with none left nothing was computed
    pool = np.flatnonzero(np.isfinite(margins))
    min_margin, min_logcurv, worst_x = None, math.nan, math.nan
    if pool.size:
        i_worst = int(pool[np.argmin(margins[pool])])
        min_margin = float(margins[i_worst])
        min_logcurv = float(np.max(forms.log_d2[pool]))
        worst_x = float(xs[i_worst])

    bad = np.flatnonzero(off_grid < -tol)

    notes = []
    checked = int(np.count_nonzero(np.isfinite(off_grid)))
    underflowed, off_grid_underflowed = grid_points - pool.size, _MIDPOINT_CHECKS - checked
    if underflowed or off_grid_underflowed:
        note = f"density underflowed to 0 at {underflowed} of {grid_points} grid points"
        if off_grid_underflowed:
            note += f" and {off_grid_underflowed} of {_MIDPOINT_CHECKS} off-grid points"
        notes.append(note)

    if min_margin is None:
        verdict = VERDICT_DEGENERATE
    elif min_margin >= -tol and not bad.size:
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
        midpoint_checks=checked,
        midpoint_failures=int(bad.size),
        witness=float(pts[bad[0]]) if bad.size else None,
        notes=tuple(notes),
    )


def sharpness_check(M: int, r: float, grid_points: int = 1024) -> float:
    """Maximum |margin| over a grid for the geometric weights w_i = r^i.

    Geometric weights make the density c(1 + lambda*x)^M, for which the
    curvature margin vanishes identically, so the returned maximum is a
    sharpness (and floating-point stability) measure. The margin is a
    difference of terms of size (f'/f)^2, at most (M(1-r)/min(1, r))^2 on
    [0, 1], and the weight differences round at the scale M^2, so the
    contract is relative: <= 1e-13 M^2 (1 + ((1-r)/min(1, r))^2). Orders
    up to 1000 at r from 1e-3 to 1e3, r near 1 included, read at most
    7.3e-15 of that scale; in absolute terms, M=150 and r=0.01 read 1.3e-7.
    The weights are built with the largest equal to 1, r^(i-M) for r > 1,
    so none overflows; the margins do not depend on that scale. They are
    certify's, from _forms on the grid of certify at eps = 1e-6, so
    grid_points must be at least 3. Points where the density underflows
    carry no margin and are left out.
    """
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise DomainError(f"sharpness_check needs a positive integer order, got {M!r}")
    if not (r > 0.0 and r != 1.0):
        raise DomainError(f"sharpness_check needs r > 0, r != 1, got {r!r} (r=1 is the constant case)")
    i = np.arange(M + 1, dtype=float)
    mix = DiscreteMixture(int(M), float(r) ** (i - M if r > 1.0 else i))
    margins = _forms(mix, _grid(grid_points, 1e-6)).margin
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
