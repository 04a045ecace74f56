import numpy as np
import pytest

from betamix import (
    DegenerateMixtureError,
    DiscreteMixture,
    DomainError,
    cdf,
    eval_density_discrete,
    eval_derivs_discrete,
    normalization,
    random_log_concave_weights,
    sample,
)
from betamix import mixtures
from betamix.mixtures import discrete_density_grid, discrete_derivs_grid

from oracles import (
    central_d1,
    central_d2,
    decasteljau_oneshot,
    direct_bernstein_sum,
    discrete_derivs_oneshot,
    ks_distance,
    riemann_cdf,
)


def test_uniform_weights_binomial_identity():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    assert eval_density_discrete(mix, 0.37) == pytest.approx(1.0, abs=1e-15)


def test_geometric_weights_closed_form():
    # r=2 weights give (r + (1-r)x)^M = (2 - x)^2
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    assert eval_density_discrete(mix, 0.5) == pytest.approx(2.25, abs=1e-15)
    xs = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(discrete_density_grid(mix, xs), (2.0 - xs) ** 2, rtol=1e-14)


def test_single_bernstein_term():
    mix = DiscreteMixture(2, [0.0, 1.0, 0.0])
    assert eval_density_discrete(mix, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_endpoints_exact():
    w = np.array([0.3, 1.7, 0.0, 2.5])
    mix = DiscreteMixture(3, w)
    assert eval_density_discrete(mix, 0.0) == w[-1]
    assert eval_density_discrete(mix, 1.0) == w[0]


def test_density_domain():
    mix = DiscreteMixture(1, [1.0, 1.0])
    with pytest.raises(DomainError):
        eval_density_discrete(mix, -0.1)
    with pytest.raises(DomainError):
        eval_derivs_discrete(mix, 1.0)


def test_against_direct_summation_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        M = int(rng.integers(1, 30))
        w = rng.uniform(0.0, 5.0, M + 1)
        mix = DiscreteMixture(M, w)
        x = rng.uniform(0.0, 1.0)
        assert eval_density_discrete(mix, x) == pytest.approx(
            direct_bernstein_sum(w, M, x), rel=1e-12, abs=1e-12
        )


def test_reversal_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(25):
        M = int(rng.integers(1, 40))
        w = rng.uniform(0.0, 3.0, M + 1)
        mix = DiscreteMixture(M, w)
        xs = rng.uniform(0.0, 1.0, 16)
        fwd = discrete_density_grid(mix, xs)
        rev = discrete_density_grid(mix.reversed(), 1.0 - xs)
        np.testing.assert_allclose(fwd, rev, rtol=1e-12, atol=1e-300)


def test_nonnegativity():
    rng = np.random.default_rng(12)
    for _ in range(25):
        M = int(rng.integers(1, 50))
        w = rng.uniform(0.0, 1.0, M + 1)
        xs = rng.uniform(0.0, 1.0, 64)
        assert np.all(discrete_density_grid(DiscreteMixture(M, w), xs) >= 0.0)


# the largest point count per order; the one-shot reference costs
# O(M^2 * points), so M = 400 stops at the certify grid of 1024 points
@pytest.mark.parametrize(
    "M, weights, top",
    [
        (1, [0.3, 2.0], 4096),
        (2, [1.0, 0.0, 4.0], 4096),
        (16, np.random.default_rng(15).uniform(0.0, 3.0, 17), 4096),
        (60, np.random.default_rng(16).uniform(0.0, 3.0, 61), 4096),
        (60, np.eye(61)[0], 4096),
        (400, 0.5 ** np.arange(401), 1024),
    ],
    ids=["M1", "M2", "M16", "M60", "M60-e0", "M400-geom0.5"],
)
def test_blocked_decasteljau_matches_oneshot_bitwise(M, weights, top):
    # every block edge of g, g' and g'' (n = M+1, M, M-1 coefficients)
    widths = {max(1, mixtures._BLOCK_BYTES // (8 * n)) for n in (M + 1, M, M - 1) if n >= 1}
    counts = sorted({0, 1, top} | {c for w in widths for c in (w - 1, w, w + 1)})
    x = np.random.default_rng(M).uniform(0.0, 1.0, max(counts))
    x[:2] = 0.0, 1.0
    # the one-shot recurrence treats every point on its own, so one call
    # over all points is the reference for every prefix
    ref = discrete_derivs_oneshot(weights, M, x)
    mix = DiscreteMixture(M, weights)
    for count in counts:
        got = discrete_derivs_grid(mix, x[:count])
        for a, b in zip(got, ref):
            assert a.shape == (count,)
            assert np.array_equal(a, b[:count])
    assert np.array_equal(discrete_density_grid(mix, x[:top]), ref[0][:top])
    for point in (0.0, 1.0, 0.37):
        got = discrete_derivs_grid(mix, np.float64(point))
        for a, b in zip(got, discrete_derivs_oneshot(weights, M, np.float64(point))):
            assert a.shape == ()
            assert np.array_equal(a, b)
    assert discrete_density_grid(mix, 0.0) == decasteljau_oneshot(mix.weights[::-1], 0.0) == weights[-1]


def test_derivs_uniform_vanish():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    for x in (0.1, 0.5, 0.9):
        res = eval_derivs_discrete(mix, x)
        assert res.d1 == pytest.approx(0.0, abs=1e-15)
        assert res.d2 == pytest.approx(0.0, abs=1e-15)


def test_derivs_geometric_curvature_identity():
    # g * g'' == ((M-1)/M) * g'^2 for geometric weights
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    for x in (0.15, 0.5, 0.85):
        res = eval_derivs_discrete(mix, x)
        assert res.value * res.d2 == pytest.approx(0.5 * res.d1**2, rel=1e-13)


def test_derivs_against_finite_differences_example():
    mix = DiscreteMixture(3, [1.0, 5.0, 2.0, 1.0])
    g = lambda t: eval_density_discrete(mix, t)
    res = eval_derivs_discrete(mix, 0.3)
    assert res.d1 == pytest.approx(central_d1(g, 0.3), rel=1e-6)
    assert res.d2 == pytest.approx(central_d2(g, 0.3), rel=1e-6)


def test_derivative_consistency_random():
    # analytic d1/d2 vs central differences on random draws away from endpoints
    rng = np.random.default_rng(13)
    for _ in range(200):
        M = int(rng.integers(1, 40))
        w = random_log_concave_weights(rng, M) if rng.random() < 0.5 else rng.uniform(0.1, 2.0, M + 1)
        mix = DiscreteMixture(M, w)
        x = rng.uniform(0.01, 0.99)
        g = lambda t: eval_density_discrete(mix, t)
        res = eval_derivs_discrete(mix, x)
        f = res.value
        fd1 = central_d1(g, x)
        fd2 = central_d2(g, x)
        assert abs(res.d1 - fd1) <= 1e-5 * max(abs(fd1), M * f)
        assert abs(res.d2 - fd2) <= 1e-5 * max(abs(fd2), M * max(M - 1, 1) * f)


def test_eval_result_log_fields():
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    res = eval_derivs_discrete(mix, 0.3)
    assert res.log_value == pytest.approx(np.log(res.value))
    assert res.log_d1 == pytest.approx(res.d1 / res.value)
    assert res.log_d2 == pytest.approx(
        (res.value * res.d2 - res.d1**2) / res.value**2
    )


def test_zero_mixture_is_legal():
    mix = DiscreteMixture(2, [0.0, 0.0, 0.0])
    assert mix.is_zero
    assert eval_density_discrete(mix, 0.4) == 0.0
    res = eval_derivs_discrete(mix, 0.4)
    assert np.isneginf(res.log_value)
    assert np.isnan(res.log_d1)


@pytest.mark.parametrize(
    "M, weights, expected",
    [(2, [1.0, 1.0, 1.0], 1.0), (2, [3.0, 0.0, 0.0], 1.0), (4, [1.0, 2.0, 3.0, 2.0, 1.0], 9.0 / 5.0)],
)
def test_normalization_exact(M, weights, expected):
    assert normalization(DiscreteMixture(M, weights)) == pytest.approx(expected, rel=1e-15)


def test_normalization_matches_quadrature():
    rng = np.random.default_rng(14)
    for _ in range(10):
        M = int(rng.integers(1, 20))
        w = rng.uniform(0.0, 2.0, M + 1)
        if not np.any(w > 0):
            w[0] = 1.0
        mix = DiscreteMixture(M, w)
        assert cdf(mix, 1.0) == pytest.approx(normalization(mix), rel=1e-8)


def test_normalization_degenerate():
    with pytest.raises(DegenerateMixtureError):
        normalization(DiscreteMixture(2, [0.0, 0.0, 0.0]))


def test_cdf_basics():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    assert cdf(mix, 0.0) == 0.0
    assert cdf(mix, 1.0) == pytest.approx(normalization(mix), rel=1e-12)
    assert cdf(mix, 0.3) == pytest.approx(0.3, rel=1e-12)


def test_cdf_against_riemann_oracle():
    mix = DiscreteMixture(3, [0.2, 1.0, 0.0, 2.0])
    density = lambda t: direct_bernstein_sum(mix.weights, mix.M, t)
    mass = normalization(mix)
    for x in (0.05, 0.3, 0.62, 0.9):
        assert abs(cdf(mix, x) - riemann_cdf(density, x, n=200_000)) <= 2e-9 * mass


def test_cdf_monotone():
    mix = DiscreteMixture(3, [0.2, 1.0, 0.0, 2.0])
    xs = np.linspace(0.0, 1.0, 21)
    vals = [cdf(mix, float(x)) for x in xs]
    assert np.all(np.diff(vals) >= -1e-14)


def test_sample_uniform_ks():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    draws = sample(mix, 100_000, seed=1)
    assert ks_distance(draws, lambda x: x) <= 0.01


def test_sample_deterministic():
    mix = DiscreteMixture(3, [1.0, 2.0, 2.0, 1.0])
    a = sample(mix, 1000, seed=42)
    b = sample(mix, 1000, seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample(mix, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_sample_spike_matches_beta_moment():
    w = np.zeros(6)
    w[2] = 1.0  # Beta(4, 3), mean 4/7
    draws = sample(DiscreteMixture(5, w), 100_000, seed=2)
    assert abs(draws.mean() - 4.0 / 7.0) < 0.01
    assert np.all((draws > 0.0) & (draws < 1.0))


def test_sample_degenerate():
    with pytest.raises(DegenerateMixtureError):
        sample(DiscreteMixture(1, [0.0, 0.0]), 10, seed=0)


@pytest.mark.parametrize(
    "M, weights",
    [(0, [1.0]), (2, [1.0, 1.0]), (2, [1.0, -0.5, 1.0]), (2, [1.0, np.nan, 1.0]), (1.5, [1.0, 1.0])],
)
def test_invalid_construction(M, weights):
    with pytest.raises(ValueError):
        DiscreteMixture(M, weights)


def test_weights_are_immutable():
    mix = DiscreteMixture(1, [1.0, 2.0])
    with pytest.raises(ValueError):
        mix.weights[0] = 5.0
