"""The exact sign of the discrete Eq. 10 margin (oracles.exact_margin_sign).

The oracle sums integers only, so where the margin is exactly 0 it reads 0,
not the sign of a rounding error. It is checked here against Fraction
arithmetic on the direct derivatives of the Bernstein sum, on inputs whose
margin is exactly 0, and on certificates: at the worst grid point of a
certified log-concave input the exact margin is not negative, and at that of
a violated bimodal one it is.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from betamix import DiscreteMixture, certify, random_log_concave_weights

from oracles import exact_margin_sign


def _fraction_margin_sign(weights, x):
    """Sign of ((M-1)/M) g'^2 - g g'' in Fractions, from the x-derivatives of each term C(M, i) y^i x^(M-i), y = 1-x."""
    M = len(weights) - 1
    x = Fraction(x)
    y = 1 - x
    g = d1 = d2 = Fraction(0)
    for i, w in enumerate(weights):
        c, j = Fraction(w) * math.comb(M, i), M - i
        g += c * y**i * x**j
        d1 += c * (j * y**i * x ** (j - 1) - i * y ** (i - 1) * x**j)
        d2 += c * (
            j * (j - 1) * y**i * x ** (j - 2) - 2 * i * j * y ** (i - 1) * x ** (j - 1) + i * (i - 1) * y ** (i - 2) * x**j
        )
    v = Fraction(M - 1, M) * d1 * d1 - g * d2
    return (v > 0) - (v < 0)


def _e0(M):
    return [1.0] + [0.0] * M


# the tight inputs: the margin is exactly 0 on all of (0, 1), w = e_0 giving
# x^M and geometric weights (1 + lambda x)^M up to a factor; each is checked
# at x = 1e-6 and at the worst grid point certify (grid 1024) reported for it
# before this oracle existed
TIGHT = [
    ("e0-M30", _e0(30), 1e-06),
    ("e0-M60", _e0(60), 0.001956030303030303),
    ("geom0.5-M400", list(0.5 ** np.arange(401.0)), 0.013686212121212122),
    ("geom2-M1000", list(2.0 ** np.arange(1001.0)), 0.9814262121212122),
]


@pytest.mark.parametrize("name, weights, worst_x", TIGHT, ids=[t[0] for t in TIGHT])
def test_exact_sign_is_zero_on_tight_inputs(name, weights, worst_x):
    assert exact_margin_sign(weights, 1e-6) == 0
    assert exact_margin_sign(weights, worst_x) == 0


def test_exact_sign_of_a_known_violation():
    # g(x) = 1 - 1.98 x (1-x): the dip at 0.5 is log-convex
    assert exact_margin_sign([1.0, 0.01, 1.0], 0.5) == -1


def test_exact_sign_agrees_with_fraction_sums():
    rng = np.random.default_rng(5)
    signs = set()
    for M in (1, 2, 3, 5, 8, 17, 33, 64):
        cases = [
            rng.random(M + 1),
            random_log_concave_weights(rng, M),
            np.exp(rng.normal(0.0, 3.0, M + 1)),
            1.5 ** np.arange(M + 1.0),
        ]
        for w in cases:
            for x in (1e-6, 0.3, float(rng.random()), 0.5, 1.0 - 1e-3):
                got = exact_margin_sign(list(w), x)
                assert got == _fraction_margin_sign(list(w), x), (M, list(w), x)
                signs.add(got)
    assert signs == {-1, 0, 1}


def test_exact_sign_at_the_worst_point_of_certificates():
    rng = np.random.default_rng(11)
    for M in (4, 20, 75, 160):
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        cert = certify(mix, grid_points=256)
        assert cert.verdict == "certified"
        assert exact_margin_sign(list(mix.weights), cert.worst_x) >= 0
    for M in (5, 20, 75, 160):
        # two bumps of weight, at a fifth and four fifths of the order
        i = np.arange(M + 1.0)
        bimodal = np.exp(-(((i - 0.2 * M) / (0.05 * M + 0.5)) ** 2)) + np.exp(-(((i - 0.8 * M) / (0.05 * M + 0.5)) ** 2))
        cert = certify(DiscreteMixture(M, bimodal), grid_points=256)
        assert cert.verdict == "violated"
        assert exact_margin_sign(list(bimodal), cert.worst_x) < 0
        # the first off-grid point of negative margin is a true violation too
        assert exact_margin_sign(list(bimodal), cert.witness) < 0
