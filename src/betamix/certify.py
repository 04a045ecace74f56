"""Grid certification of log-concavity via the sharpened curvature margin.

The central quantity is the normalized margin

    [ ((M-1)/M) f'(x)^2 - f(x) f''(x) ] / max(f(x)^2, floor)

which is nonnegative on (0, 1) whenever the mixing weights are
log-concave, vanishes identically for geometric weight sequences, and is
scale-free in the weights. A certificate records the worst margin over a
grid together with log-density second differences and randomized
midpoint-definition spot checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mixtures import (
    ContinuousEvaluator,
    DiscreteMixture,
    discrete_derivs_grid,
    discrete_density_grid,
    eval_derivs_continuous,
)
from .quadrature import QuadratureConfig
from .special import DomainError

_FLOOR = 1e-300
_TINY = np.finfo(float).tiny

VERDICT_CERTIFIED = "certified"
VERDICT_VIOLATED = "violated"
VERDICT_DEGENERATE = "degenerate-zero"

CRITERION_EQ10 = "curvature-margin"

_MIDPOINT_CHECKS = 64
_MIDPOINT_SLACK = 1e-10


@dataclass(frozen=True)
class ConcavityCertificate:
    """Grid verdict with the minimum curvature margin and worst point.

    min_logcurv is the largest second derivative of log f observed on the
    grid (so it should be <= 0 up to noise for a log-concave density).
    criterion records which test decided the verdict; the curvature margin
    is the only one for now, for both kinds of mixture at every order.
    """

    verdict: str
    grid_points: int
    eps: float
    tol: float
    criterion: str
    min_margin_eq10: float | None
    min_logcurv: float
    worst_x: float
    midpoint_checks: int
    midpoint_failures: int
    witness: tuple[float, float, float] | None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_json(self, input_echo=None, tool_version=None) -> dict:
        from . import __version__

        def _num(v):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return None
            return v

        return {
            "verdict": self.verdict,
            "grid_points": self.grid_points,
            "eps": self.eps,
            "tol": self.tol,
            "criterion": self.criterion,
            "min_margin_eq10": _num(self.min_margin_eq10),
            "min_logcurv": _num(self.min_logcurv),
            "worst_x": _num(self.worst_x),
            "midpoint_checks": self.midpoint_checks,
            "midpoint_failures": self.midpoint_failures,
            "witness": list(self.witness) if self.witness else None,
            "notes": list(self.notes),
            "tool_version": tool_version if tool_version is not None else __version__,
            "input": input_echo,
        }


def margin_grid(f, d1, d2, M) -> np.ndarray:
    """Normalized curvature margin from density/derivative arrays."""
    f = np.asarray(f, dtype=float)
    num = ((M - 1.0) / M) * d1 * d1 - f * d2
    return num / np.maximum(f * f, _FLOOR)


def margin_eq10(mix, x: float, quad: QuadratureConfig | None = None) -> float:
    """Normalized curvature margin at one point x in (0, 1).

    Nonnegative exactly when ((M-1)/M) f'^2 >= f f''; the normalization by
    f^2 makes the value a curvature-like, weight-scale-free quantity.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"margin_eq10 requires 0 < x < 1, got {x!r}")
    if isinstance(mix, DiscreteMixture):
        f, d1, d2 = discrete_derivs_grid(mix, np.array([x]))
    else:
        res = eval_derivs_continuous(mix, x, quad)
        f, d1, d2 = np.array([[res.value], [res.d1], [res.d2]])
    return float(margin_grid(f, d1, d2, float(mix.M))[0])


def midpoint_check(density_fn, count: int, eps: float, tol: float, rng):
    """Randomized checks of the defining inequality f(lx+(1-l)y) >= f(x)^l f(y)^(1-l).

    Draws count points x, then y, in [eps, 1-eps] and count weights l from
    rng, evaluates density_fn once over all 3*count points, and counts the
    triples where f at the midpoint falls below the right side by more than
    tol relative. Returns (n_failures, first witness (x, y, l) or None).
    """
    x = eps + (1.0 - 2.0 * eps) * rng.random(count)
    y = eps + (1.0 - 2.0 * eps) * rng.random(count)
    lam = rng.random(count)
    mid = lam * x + (1.0 - lam) * y
    fx, fy, fm = np.split(density_fn(np.concatenate([x, y, mid])), 3)
    applicable = (fx > 0.0) & (fy > 0.0)
    rhs = np.zeros_like(fx)
    rhs[applicable] = np.exp(
        lam[applicable] * np.log(fx[applicable]) + (1.0 - lam[applicable]) * np.log(fy[applicable])
    )
    bad = applicable & (fm < rhs - tol * rhs)
    failures = int(np.count_nonzero(bad))
    witness = None
    if failures:
        i = int(np.flatnonzero(bad)[0])
        witness = (float(x[i]), float(y[i]), float(lam[i]))
    return failures, witness


def certify(
    mix,
    grid_points: int = 1024,
    eps: float = 1e-6,
    tol: float = 1e-9,
    quad: QuadratureConfig | None = None,
    seed: int = 0,
) -> ConcavityCertificate:
    """Certify log-concavity of the mixture density on [eps, 1-eps].

    Evaluates the curvature margin on a uniform grid, log-density second
    differences on the same grid, plus randomized midpoint spot checks.
    "certified" means no violation was detected at this resolution and
    tolerance; evaluation problems are recorded in notes rather than
    raised.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    if mix.is_zero:
        return ConcavityCertificate(
            verdict=VERDICT_DEGENERATE,
            grid_points=grid_points,
            eps=eps,
            tol=tol,
            criterion=CRITERION_EQ10,
            min_margin_eq10=None,
            min_logcurv=math.nan,
            worst_x=math.nan,
            midpoint_checks=0,
            midpoint_failures=0,
            witness=None,
        )

    xs = np.linspace(eps, 1.0 - eps, grid_points)
    ev = None
    if isinstance(mix, DiscreteMixture):
        f, d1, d2 = discrete_derivs_grid(mix, xs)
        density_fn = lambda pts: discrete_density_grid(mix, pts)
    else:
        ev = ContinuousEvaluator(mix, quad)
        f, d1, d2 = ev.derivs(xs, strict=False)
        density_fn = lambda pts: ev.density(pts, strict=False)
    margins = margin_grid(f, d1, d2, float(mix.M))

    # f below the smallest normal double has underflowed, to 0 or to a
    # subnormal with too few digits for a log second difference
    normal = np.isfinite(f) & (f >= _TINY)
    log_f = np.where(normal, np.log(np.where(normal, f, 1.0)), -np.inf)
    with np.errstate(invalid="ignore"):
        second_diff = log_f[:-2] - 2.0 * log_f[1:-1] + log_f[2:]
    h = xs[1] - xs[0]
    finite = np.isfinite(second_diff)
    min_logcurv = float(np.max(second_diff[finite]) / (h * h)) if finite.any() else math.nan

    i_worst = int(np.argmin(margins))
    min_margin = float(margins[i_worst])
    worst_x = float(xs[i_worst])

    rng = np.random.default_rng(seed)
    n_failures, witness = midpoint_check(density_fn, _MIDPOINT_CHECKS, eps, _MIDPOINT_SLACK, rng)

    notes = []
    underflowed = grid_points - int(np.count_nonzero(normal))
    if underflowed:
        notes.append(f"density underflowed to 0 at {underflowed} of {grid_points} grid points")
    if ev is not None and ev.last_gap > ev.config.abs_tol:
        notes.append(
            f"quadrature: Gauss and Kronrod values disagreed by {ev.last_gap:.3e} "
            f"(abs_tol {ev.config.abs_tol:.3e})"
        )

    verdict = VERDICT_CERTIFIED if (min_margin >= -tol and n_failures == 0) else VERDICT_VIOLATED
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
    """
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise DomainError(f"sharpness_check needs a positive integer order, got {M!r}")
    if not (r > 0.0 and r != 1.0):
        raise DomainError(f"sharpness_check needs r > 0, r != 1, got {r!r} (r=1 is the constant case)")
    weights = float(r) ** np.arange(M + 1, dtype=float)
    mix = DiscreteMixture(int(M), weights)
    eps = 1e-6
    xs = np.linspace(eps, 1.0 - eps, grid_points)
    f, d1, d2 = discrete_derivs_grid(mix, xs)
    return float(np.max(np.abs(margin_grid(f, d1, d2, float(M)))))


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
    exactly once on (0, 1); the crossing is located by bisection and a
    point inside the positive region is returned. For s in [0, M] there is
    no failure and None is returned.
    """
    if not -1.0 < s < M + 1.0:
        raise DomainError(f"find_kernel_failure requires -1 < s < M+1, got s={s!r}")
    if 0.0 <= s <= M:
        return None
    # s < 0: curvature increases in x and turns positive near x = 1;
    # s > M: it decreases in x and is positive near x = 0. Bisect the sign
    # change, then step halfway from the crossing into the positive region.
    lo, hi = 1e-12, 1.0 - 1e-12
    increasing = s < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        positive = kernel_log_curvature(M, s, mid) > 0.0
        if positive == increasing:
            hi = mid
        else:
            lo = mid
    if increasing:
        witness = hi + 0.5 * (1.0 - hi)
        fallback = hi
    else:
        witness = 0.5 * lo
        fallback = lo
    if kernel_log_curvature(M, s, witness) > 0.0:
        return float(witness)
    return float(fallback)
