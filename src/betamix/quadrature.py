"""Composite panel quadrature over subdivided intervals, with its accuracy check."""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

GAUSS_LEGENDRE = "composite-Gauss-Legendre"
SIMPSON = "composite-Simpson"

_RULES = (GAUSS_LEGENDRE, SIMPSON)


class QuadratureError(RuntimeError):
    """Adjacent quadrature refinements disagreed by more than abs_tol."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule, resolution and tolerance governing every continuous integral.

    panels_per_unit is the number of panels per unit length of the
    integration variable; abs_tol is the maximum allowed difference
    between the integral at this resolution and at double resolution.
    """

    rule: str = GAUSS_LEGENDRE
    panels_per_unit: int = 8
    nodes_per_panel: int = 16
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}; expected one of {_RULES}")
        if self.panels_per_unit < 1:
            raise ValueError("panels_per_unit must be a positive integer")
        if self.nodes_per_panel < 1:
            raise ValueError("nodes_per_panel must be a positive integer")
        if self.rule == SIMPSON and (self.nodes_per_panel < 3 or self.nodes_per_panel % 2 == 0):
            raise ValueError("composite Simpson needs an odd nodes_per_panel >= 3")
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")

    def refined(self) -> "QuadratureConfig":
        """Same rule with doubled panel density (used for the accuracy check)."""
        return replace(self, panels_per_unit=2 * self.panels_per_unit)


@functools.cache
def reference_rule(config: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one panel mapped to the reference interval [0, 1].

    Built once per configuration; the returned arrays are read-only.
    """
    n = config.nodes_per_panel
    if config.rule == GAUSS_LEGENDRE:
        t, w = np.polynomial.legendre.leggauss(n)
        t, w = 0.5 * (t + 1.0), 0.5 * w
    else:
        # composite Simpson inside the panel: n odd points, spacing h = 1/(n-1)
        t = np.linspace(0.0, 1.0, n)
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= 1.0 / (3.0 * (n - 1))
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def panel_nodes(breakpoints, config: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Composite nodes/weights over consecutive segments of `breakpoints`.

    Each segment [b_i, b_{i+1}] is split into ceil(length * panels_per_unit)
    panels carrying a copy of the reference rule. Zero-length segments are
    skipped. Returns flat (nodes, weights) arrays.
    """
    t, w = reference_rule(config)
    all_nodes = []
    all_weights = []
    bps = np.asarray(breakpoints, dtype=float)
    for a, b in zip(bps[:-1], bps[1:]):
        if not b > a:
            continue
        n_panels = max(1, math.ceil((b - a) * config.panels_per_unit))
        edges = np.linspace(a, b, n_panels + 1)
        lo = edges[:-1]
        h = np.diff(edges)
        all_nodes.append((lo[:, None] + h[:, None] * t[None, :]).ravel())
        all_weights.append((h[:, None] * w[None, :]).ravel())
    if not all_nodes:
        return np.empty(0), np.empty(0)
    return np.concatenate(all_nodes), np.concatenate(all_weights)


def check_refinement(coarse, fine, config: QuadratureConfig, what: str, strict: bool = True) -> float:
    """Gap between an integral at config's resolution and at config.refined().

    The gap is max |fine - coarse| / max(1, |fine|) over the values, so
    abs_tol acts as an absolute tolerance for order-one integrals and
    degrades to a relative one for large magnitudes (a pure absolute
    criterion is below floating-point resolution once the value exceeds
    ~1e6). Raises QuadratureError when strict and the gap exceeds
    config.abs_tol; otherwise returns the gap.
    """
    coarse = np.atleast_1d(coarse)
    fine = np.atleast_1d(fine)
    gap = float(np.max(np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine)))) if fine.size else 0.0
    if strict and gap > config.abs_tol:
        raise QuadratureError(
            f"{what} quadrature refinements differ by {gap:.3e} (abs_tol {config.abs_tol:.3e})"
        )
    return gap
