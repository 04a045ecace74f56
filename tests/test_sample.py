"""The sampler draws by composition, exactly, at large orders and wide weight scales.

Each test draws 10^5 points at a fixed seed with mixtures.density_grid
patched to raise, so no draw reads a density table, and compares the draws
with cdf / normalization: the two-sided Kolmogorov distance, taken at 19
quantiles of the draws on both sides of each jump of the empirical CDF,
must stay within the bound a false alarm passes with probability 1e-6.
"""

import math

import numpy as np
import pytest

import betamix.mixtures
from betamix import ContinuousMixture, DiscreteMixture, cdf, normalization, sample

N = 100_000
# two-sided Kolmogorov-Smirnov bound at false-alarm rate 1e-6
KS_BOUND = math.sqrt(-math.log(0.5e-6) / 2.0) / math.sqrt(N)


def _wide_range_discrete():
    # log w concave over thousands of nats at M = 2000, the weights below the
    # smallest normal double set to 0
    M = 2000
    steps = np.random.default_rng(1).uniform(1.0 / M, 4.0 / M, M)
    log_w = np.concatenate([[0.0], np.cumsum(np.cumsum(-steps))])
    w = np.exp(log_w - np.max(log_w))
    return DiscreteMixture(M, np.where(w < np.finfo(float).tiny, 0.0, w))


def _gaussian_alpha():
    M = 2000.0
    knots = np.linspace(0.0, M, 9)
    return ContinuousMixture(M, knots, -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2)


def _steep_segments():
    # log alpha rises by 800 on [1, 3], is flat on [3, 3.002] and falls by 710
    # on [3.002, 5], which carry about 34%, 27% and 39% of the mass; the -inf
    # ends leave [0, 1] and [5, 10] without mass
    return ContinuousMixture(10.0, [0.0, 1.0, 3.0, 3.002, 5.0, 10.0], [-np.inf, -800.0, 0.0, 0.0, -710.0, -np.inf])


def _ks_at_quantiles(draws, mix):
    xs = np.sort(draws)
    points = xs[np.arange(1, 20) * N // 20]
    model = np.array([cdf(mix, float(x)) for x in points]) / normalization(mix)
    below = np.searchsorted(xs, points, side="left") / N
    upto = np.searchsorted(xs, points, side="right") / N
    return float(max(np.max(upto - model), np.max(model - below)))


@pytest.mark.parametrize(
    "build, seed",
    [
        (_wide_range_discrete, 1),
        (lambda: DiscreteMixture(400, np.eye(401)[0]), 2),
        (lambda: DiscreteMixture(400, np.eye(401)[400]), 3),
        (_gaussian_alpha, 4),
        (_steep_segments, 5),
    ],
    ids=["discrete-M2000-wide-range", "e0-M400", "eM-M400", "gaussian-alpha-M2000", "steep-segments"],
)
def test_composition_draws_match_the_cdf(build, seed, monkeypatch):
    def no_grid(*args):
        raise AssertionError("sample read density_grid")

    monkeypatch.setattr(betamix.mixtures, "density_grid", no_grid)
    mix = build()
    draws = sample(mix, N, seed=seed)
    assert draws.shape == (N,)
    assert np.all(np.isfinite(draws)) and np.all((draws >= 0.0) & (draws <= 1.0))
    assert _ks_at_quantiles(draws, mix) <= KS_BOUND

