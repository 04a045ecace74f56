import math
import tracemalloc

import numpy as np
import pytest

from betamix import (
    DegenerateMixtureError,
    DiscreteMixture,
    cdf,
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
    assert float(discrete_density_grid(mix, 0.37)) == pytest.approx(1.0, abs=1e-15)


def test_geometric_weights_closed_form():
    # r=2 weights give (r + (1-r)x)^M = (2 - x)^2
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    assert float(discrete_density_grid(mix, 0.5)) == pytest.approx(2.25, abs=1e-15)
    xs = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(discrete_density_grid(mix, xs), (2.0 - xs) ** 2, rtol=1e-14)


def test_single_bernstein_term():
    mix = DiscreteMixture(2, [0.0, 1.0, 0.0])
    assert float(discrete_density_grid(mix, 0.5)) == pytest.approx(0.5, abs=1e-15)


def test_endpoints_exact():
    w = np.array([0.3, 1.7, 0.0, 2.5])
    mix = DiscreteMixture(3, w)
    assert float(discrete_density_grid(mix, 0.0)) == w[-1]
    assert float(discrete_density_grid(mix, 1.0)) == w[0]


def test_against_direct_summation_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        M = int(rng.integers(1, 30))
        w = rng.uniform(0.0, 5.0, M + 1)
        mix = DiscreteMixture(M, w)
        x = rng.uniform(0.0, 1.0)
        assert float(discrete_density_grid(mix, x)) == pytest.approx(
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
        rev = discrete_density_grid(DiscreteMixture(M, w[::-1]), 1.0 - xs)
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
        # 1024 = 5 * 204 + 4 points at 512 KiB: the last block is ragged, so the x
        # tile is refilled cut short
        (320, np.pad(np.random.default_rng(17).uniform(0.0, 3.0, 309), 6), 1024),
    ],
    ids=["M1", "M2", "M16", "M60", "M60-e0", "M400-geom0.5", "M320-zeroed"],
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
        got = discrete_derivs_grid(mix, x[:count])[:3]
        for a, b in zip(got, ref):
            assert a.shape == (count,)
            assert np.array_equal(a, b[:count])
    assert np.array_equal(discrete_density_grid(mix, x[:top]), ref[0][:top])
    for point in (0.0, 1.0, 0.37):
        got = discrete_derivs_grid(mix, np.float64(point))[:3]
        for a, b in zip(got, discrete_derivs_oneshot(weights, M, np.float64(point))):
            assert a.shape == ()
            assert np.array_equal(a, b)
    assert discrete_density_grid(mix, 0.0) == decasteljau_oneshot(mix.weights[::-1], 0.0) == weights[-1]


def _carve_past_a_line(shift, carved):
    """A _line_buffers stand-in whose buffers all start shift bytes past a 64-byte line."""

    def carve(count, size):
        stride = -(-size // 8) * 8
        raw = np.empty(count * stride + 16)
        off = (-raw.ctypes.data % 64 + shift) // 8
        bufs = [raw[off + j * stride : off + j * stride + size] for j in range(count)]
        carved.extend(buf.ctypes.data % 64 for buf in bufs)
        return bufs

    return carve


@pytest.mark.parametrize(
    "M, weights",
    [
        (1, [0.3, 2.0]),
        (2, [1.0, 0.0, 4.0]),
        (60, np.random.default_rng(16).uniform(0.0, 3.0, 61)),
        (320, np.pad(np.random.default_rng(17).uniform(0.0, 3.0, 309), 6)),
    ],
    ids=["M1", "M2", "M60", "M320"],
)
def test_buffer_alignment_changes_no_value(monkeypatch, M, weights):
    # the four buffers forced 8, 16, ..., 56 bytes past a line give the
    # aligned run's and the one-shot recurrence's bits, at point counts
    # that straddle every block edge of g, g' and g''
    widths = {max(1, mixtures._BLOCK_BYTES // (8 * n)) for n in (M + 1, M, M - 1) if n >= 1}
    counts = sorted({1, 1024} | {c for w in widths for c in (w - 1, w, w + 1) if c >= 1})
    x = np.random.default_rng(M + 1).uniform(0.0, 1.0, max(counts))
    x[:2] = 0.0, 1.0
    ref = discrete_derivs_oneshot(weights, M, x)
    mix = DiscreteMixture(M, weights)
    aligned = {
        count: (*discrete_derivs_grid(mix, x[:count])[:3], discrete_density_grid(mix, x[:count])) for count in counts
    }
    for count, got in aligned.items():
        for a, b in zip(got, (*ref, ref[0])):
            assert np.array_equal(a, b[:count])
    for shift in range(8, 64, 8):
        carved = []
        monkeypatch.setattr(mixtures, "_line_buffers", _carve_past_a_line(shift, carved))
        for count in counts:
            got = (*discrete_derivs_grid(mix, x[:count])[:3], discrete_density_grid(mix, x[:count]))
            for a, b in zip(got, aligned[count]):
                assert np.array_equal(a, b)
        assert carved and set(carved) == {shift}


# 321 * 204 values is an M = 320 buffer at 512 KiB, 4 short of a multiple of 8
@pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65, 320 * 204, 321 * 204])
def test_line_buffers_are_disjoint_aligned_views(size):
    bufs = mixtures._line_buffers(4, size)
    assert len(bufs) == 4
    for j, buf in enumerate(bufs):
        assert buf.shape == (size,) and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0
        for other in bufs[j + 1 :]:
            assert not np.shares_memory(buf, other)
    for j, buf in enumerate(bufs):
        buf[...] = j
    for j, buf in enumerate(bufs):
        assert np.all(buf == j)


def test_decasteljau_works_in_four_block_buffers():
    # M = 320 over the 1088 points of a certify pass: the four buffers of
    # at most _BLOCK_BYTES each, the three outputs, and no per-step views
    # kept across steps
    mix = DiscreteMixture(320, np.random.default_rng(18).uniform(0.0, 3.0, 321))
    x = np.random.default_rng(19).uniform(0.0, 1.0, 1088)
    want = discrete_derivs_grid(mix, x)[:3]
    tracemalloc.start()
    try:
        got = discrete_derivs_grid(mix, x)[:3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert peak < 4 * mixtures._BLOCK_BYTES + 3 * 8 * x.size + 64 * 1024


def test_derivs_grid_returns_the_seven_forms_in_x_shape():
    # (f, f', f'', log f, f'/f, (log f)'', margin), the order of ContinuousEvaluator.forms
    M = 12
    w = np.random.default_rng(20).uniform(0.5, 3.0, M + 1)
    mix = DiscreteMixture(M, w)
    x = np.random.default_rng(21).uniform(0.05, 0.95, (3, 4))
    forms = discrete_derivs_grid(mix, x)
    assert len(forms) == 7 and all(v.shape == x.shape for v in forms)
    f, d1, d2, log_f, score, logcurv, margin = forms
    for a, b in zip((f, d1, d2), discrete_derivs_oneshot(w, M, x)):
        assert np.array_equal(a, b)
    np.testing.assert_allclose(log_f, np.log(f), rtol=1e-15)
    np.testing.assert_allclose(score, d1 / f, rtol=1e-13)
    scale = 1e-12 * np.max(score**2)
    np.testing.assert_allclose(logcurv, (f * d2 - d1**2) / f**2, rtol=1e-12, atol=scale)
    np.testing.assert_allclose(margin, ((M - 1) / M * d1**2 - f * d2) / f**2, rtol=1e-12, atol=scale)
    assert all(v.shape == () for v in discrete_derivs_grid(mix, 0.3))


_DYADIC_TAIL = np.array([1.0, 0.75, 0.5, 0.25, 3 * 2.0**-20, 2.0**-40, 5 * 2.0**-60])


@pytest.mark.parametrize(
    "unit, j",
    [
        (random_log_concave_weights(np.random.default_rng(22), 40), 900),
        (random_log_concave_weights(np.random.default_rng(22), 40), 1022),
        (random_log_concave_weights(np.random.default_rng(22), 40), -900),
        # its last two weights are subnormal at 2^-1000, and still exact
        (_DYADIC_TAIL, -1000),
    ],
    ids=["2^900", "2^1022", "2^-900", "subnormal-tail"],
)
def test_derivs_grid_forms_move_only_by_the_weight_scale(unit, j):
    # weights that peak at 1, and the same weights times 2^j: every ratio
    # keeps its bits, log f moves by j log 2, and f, f', f'' by exactly 2^j
    # wherever that is a normal double (at 2^1022 some f' and f'' read inf)
    M = unit.size - 1
    scaled = np.ldexp(unit, j)
    assert np.array_equal(np.ldexp(scaled, -j), unit)
    x = np.linspace(0.02, 0.98, 49)
    want = discrete_derivs_grid(DiscreteMixture(M, unit), x)
    f, d1, d2, log_f, score, logcurv, margin = discrete_derivs_grid(DiscreteMixture(M, scaled), x)
    for a, b in zip((score, logcurv, margin), want[4:]):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.all(np.isfinite(margin))
    np.testing.assert_allclose(log_f, want[3] + j * math.log(2.0), rtol=1e-15)
    with np.errstate(over="ignore"):
        for a, b in zip((f, d1, d2), want[:3]):
            expected = np.ldexp(b, j)
            normal = np.isfinite(expected) & ((expected == 0.0) | (np.abs(expected) >= np.finfo(float).tiny))
            assert np.array_equal(a[normal], expected[normal])
            assert np.all(np.isinf(a[np.isinf(expected)]))


def test_derivs_uniform_vanish():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    for x in (0.1, 0.5, 0.9):
        res = discrete_derivs_grid(mix, x)
        assert res.d1 == pytest.approx(0.0, abs=1e-15)
        assert res.d2 == pytest.approx(0.0, abs=1e-15)


def test_derivs_geometric_curvature_identity():
    # g * g'' == ((M-1)/M) * g'^2 for geometric weights
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    for x in (0.15, 0.5, 0.85):
        res = discrete_derivs_grid(mix, x)
        assert res.f * res.d2 == pytest.approx(0.5 * res.d1**2, rel=1e-13)


def test_derivs_against_finite_differences_example():
    mix = DiscreteMixture(3, [1.0, 5.0, 2.0, 1.0])
    g = lambda t: float(discrete_density_grid(mix, t))
    res = discrete_derivs_grid(mix, 0.3)
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
        g = lambda t: float(discrete_density_grid(mix, t))
        res = discrete_derivs_grid(mix, x)
        f = res.f
        fd1 = central_d1(g, x)
        fd2 = central_d2(g, x)
        assert abs(res.d1 - fd1) <= 1e-5 * max(abs(fd1), M * f)
        assert abs(res.d2 - fd2) <= 1e-5 * max(abs(fd2), M * max(M - 1, 1) * f)


def test_eval_result_log_fields():
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    res = discrete_derivs_grid(mix, 0.3)
    assert res.log_f == pytest.approx(np.log(res.f))
    assert res.log_d1 == pytest.approx(res.d1 / res.f)
    assert res.log_d2 == pytest.approx(
        (res.f * res.d2 - res.d1**2) / res.f**2
    )


@pytest.mark.parametrize(
    "M, weights, x, exact",
    [
        # f ~ 1e-223, so f*f underflows (a ZeroDivisionError unscaled)
        (400, np.eye(401)[200], 0.02, lambda x: -200.0 / x**2 - 200.0 / (1.0 - x) ** 2),
        # f = (2-x)^1000 ~ 1e176, so f*f overflows (nan unscaled)
        (1000, 2.0 ** np.arange(1001), 0.5, lambda x: -1000.0 / (2.0 - x) ** 2),
    ],
    ids=["e200-M400", "two-pow-M1000"],
)
def test_eval_result_log_curvature_at_large_orders(M, weights, x, exact):
    res = discrete_derivs_grid(DiscreteMixture(M, weights), x)
    assert res.log_d2 == pytest.approx(exact(x), rel=1e-10)
    assert res.log_d1 == pytest.approx(res.d1 / res.f, rel=1e-14)
    assert res.log_f == pytest.approx(np.log(res.f), rel=1e-14)


def test_zero_mixture_is_legal():
    mix = DiscreteMixture(2, [0.0, 0.0, 0.0])
    assert mix.is_zero
    assert float(discrete_density_grid(mix, 0.4)) == 0.0
    res = discrete_derivs_grid(mix, 0.4)
    assert np.isneginf(res.log_f)
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


def test_sample_rejects_a_nonpositive_count():
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    for count in (0, -1):
        with pytest.raises(ValueError, match="count"):
            sample(mix, count, seed=0)
    assert np.all(sample(mix, 1, seed=0) > 0.0)


def test_sample_spike_matches_beta_moment():
    w = np.zeros(6)
    w[2] = 1.0  # Beta(4, 3), mean 4/7
    draws = sample(DiscreteMixture(5, w), 100_000, seed=2)
    assert abs(draws.mean() - 4.0 / 7.0) < 0.01
    assert np.all((draws > 0.0) & (draws < 1.0))


def test_sample_degenerate():
    with pytest.raises(DegenerateMixtureError):
        sample(DiscreteMixture(1, [0.0, 0.0]), 10, seed=0)


def test_sample_subnormal_weights_draw_as_their_unit_scaled_mixture():
    # sampling the unit-scaled mixture draws what the power-of-two multiple
    # [1, 0, 0, 0] of these weights draws
    tiny = sample(DiscreteMixture(3, [2.0**-1070, 0.0, 0.0, 0.0]), 1000, seed=5)
    unit = sample(DiscreteMixture(3, [1.0, 0.0, 0.0, 0.0]), 1000, seed=5)
    np.testing.assert_array_equal(tiny, unit)


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
