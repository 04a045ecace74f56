import json
import math
import tracemalloc

import numpy as np
import pytest

from betamix import (
    ContinuousMixture,
    DiscreteMixture,
    cdf,
    certify,
    is_log_concave_weights,
    mixture_from_json,
    mixture_to_json,
    normalization,
    random_concave_mixture,
    sample,
)
from betamix import mixtures
from betamix.cli import main
from betamix.mixtures import ContinuousEvaluator, _tilt_tiers, discrete_density_grid
from betamix.quadrature import (
    LOG_DROP_CAP,
    LOG_DROP_PER_PANEL,
    PANELS_PER_UNIT,
    QuadratureError,
    check_gauss_kronrod,
    kronrod_integral,
    panel_nodes,
    reference_rule,
)

from oracles import (
    binom_ext_oracle,
    central_d1,
    central_d2,
    continuous_derivs_quad,
    ks_distance,
    panel_nodes_per_interval,
    piecewise_linear_log_alpha,
    riemann_cdf,
)

NEG_INF = float("-inf")


def flat_mixture(M=2.0):
    return ContinuousMixture(M, [0.0, M], [0.0, 0.0])


def test_flat_mixing_frozen_value():
    # integral_0^2 C(2,s) * 0.25 ds, frozen from a 30-digit quadrature
    v = float(ContinuousEvaluator(flat_mixture()).forms(0.5).f)
    assert v == pytest.approx(0.81519570563115379181, rel=1e-12)
    assert float(ContinuousEvaluator(flat_mixture()).forms(0.25).f) == pytest.approx(
        0.71937248153625242279, rel=1e-12
    )
    assert float(ContinuousEvaluator(flat_mixture()).forms(0.9).f) == pytest.approx(
        0.53818267485120302906, rel=1e-12
    )


def test_density_against_riemann_oracle():
    mix = ContinuousMixture(3.0, [0.0, 0.7, 1.9, 3.0], [0.3, 0.9, 0.4, -1.2])
    n = 1_000_000
    s = (np.arange(n) + 0.5) * (3.0 / n)
    alpha = piecewise_linear_log_alpha(mix.knots, mix.log_alpha, s)
    for x in (0.2, 0.55, 0.9):
        ref = float(np.mean(alpha * binom_ext_oracle(3.0, s) * (1 - x) ** s * x ** (3.0 - s)) * 3.0)
        assert float(ContinuousEvaluator(mix).forms(x).f) == pytest.approx(ref, rel=1e-7)


def test_delta_limit_single_bump():
    # mass-1 spike at s*=1 with M=2 approaches C(2,1)(1-x)x as width -> 0
    x = 0.37
    target = 2.0 * (1.0 - x) * x
    drop = 40.0
    errors = []
    for w in (0.2, 0.1, 0.05):
        peak = math.log(drop / (2.0 * w * (1.0 - math.exp(-drop))))
        mix = ContinuousMixture(
            2.0,
            [0.0, 1.0 - w, 1.0, 1.0 + w, 2.0],
            [-60.0, peak - drop, peak, peak - drop, -60.0],
        )
        errors.append(abs(float(ContinuousEvaluator(mix).forms(x).f) - target))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


def test_zero_mixture_density():
    mix = ContinuousMixture(2.0, [0.0, 2.0], [NEG_INF, NEG_INF])
    assert mix.is_zero
    assert float(ContinuousEvaluator(mix).forms(0.5).f) == 0.0


def test_partial_dead_zone():
    # a -inf knot zeroes out both adjacent intervals, leaving only [2, 3]
    mix = ContinuousMixture(3.0, [0.0, 1.0, 2.0, 3.0], [0.0, NEG_INF, 0.0, 0.0])
    assert list(mix.live_knots()) == [False, False, True, True]
    n = 1_000_000
    s = 2.0 + (np.arange(n) + 0.5) / n
    x = 0.45
    ref = float(np.mean(binom_ext_oracle(3.0, s) * (1 - x) ** s * x ** (3.0 - s)))
    assert float(ContinuousEvaluator(mix).forms(x).f) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize(
    "log_alpha, live, peak",
    [
        ([0.0, 0.0, NEG_INF], [True, True, False], 0.0),
        ([NEG_INF, 0.0, 0.0], [False, True, True], 0.0),
        ([NEG_INF, 0.0, NEG_INF], [False, False, False], NEG_INF),
    ],
    ids=["dead-right", "dead-left", "dead-both"],
)
def test_log_alpha_at_a_knot_reads_either_live_side(log_alpha, live, peak):
    # the middle knot is live beside either live interval, and unit_scaled
    # takes out the peak over the live knots; a zero mixture comes back as is
    mix = ContinuousMixture(2.0, [0.0, 1.0, 2.0], log_alpha)
    assert list(mix.live_knots()) == live
    assert mixtures._alpha_peak(mix) == peak
    scaled = mixtures.unit_scaled(mix)
    assert scaled is mix if peak == NEG_INF else np.array_equal(scaled.log_alpha, mix.log_alpha - peak)


def test_flat_mixing_derivative_is_boundary_only():
    # alpha(s) - alpha(s+1) vanishes on [0, M-1] for constant alpha, so f'
    # reduces to the two boundary strips; finite differences confirm.
    mix = flat_mixture(3.0)
    for x in (0.3, 0.7):
        res = ContinuousEvaluator(mix).forms(x)
        fd = central_d1(lambda t: float(ContinuousEvaluator(mix).forms(t).f), x)
        assert res.d1 == pytest.approx(fd, rel=1e-6)


def test_log_linear_mixing_derivatives():
    # l(s) = s * ln r, the continuous analog of geometric weights
    r = 2.0
    M = 4.0
    mix = ContinuousMixture(M, [0.0, M], [0.0, M * math.log(r)])
    for x in (0.25, 0.6):
        res = ContinuousEvaluator(mix).forms(x)
        g = lambda t: float(ContinuousEvaluator(mix).forms(t).f)
        assert res.d1 == pytest.approx(central_d1(g, x), rel=1e-6)
        assert res.d2 == pytest.approx(central_d2(g, x), rel=1e-5)


def test_derivatives_against_finite_differences_random():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 60:
        mix = random_concave_mixture(rng, m_range=(2.2, 12.0))
        x = rng.uniform(0.01, 0.99)
        ev = ContinuousEvaluator(mix)
        xs = np.array([x - 1e-5, x, x + 1e-5])
        f3 = ev.density(xs)
        d1 = float(ev.d1(xs[1:2])[0])
        d2 = float(ev.d2(xs[1:2])[0])
        fd1 = (f3[2] - f3[0]) / 2e-5
        fd2 = (f3[2] - 2.0 * f3[1] + f3[0]) / 1e-10
        M = mix.M
        assert abs(d1 - fd1) <= 1e-5 * max(abs(fd1), M * f3[1])
        assert abs(d2 - fd2) <= 1e-5 * max(abs(fd2), M * (M - 1) * f3[1])
        checked += 1


def test_derivatives_with_dead_zones():
    # derivative kernels must handle mixing functions that vanish on a
    # prefix or suffix of [0, M] (shifted difference supports change)
    cases = [
        ContinuousMixture(4.0, [0.0, 1.0, 2.5, 4.0], [NEG_INF, 0.4, 0.8, -0.6]),
        ContinuousMixture(3.5, [0.0, 2.0, 3.0, 3.5], [0.2, 0.9, NEG_INF, NEG_INF]),
    ]
    for mix in cases:
        ev = ContinuousEvaluator(mix)
        M = mix.M
        for x in (0.15, 0.5, 0.85):
            pts = np.array([x - 1e-5, x, x + 1e-5])
            f3 = ev.density(pts)
            d1 = float(ev.d1(pts[1:2])[0])
            d2 = float(ev.d2(pts[1:2])[0])
            fd1 = (f3[2] - f3[0]) / 2e-5
            fd2 = (f3[2] - 2.0 * f3[1] + f3[0]) / 1e-10
            assert abs(d1 - fd1) <= 1e-5 * max(abs(fd1), M * f3[1])
            assert abs(d2 - fd2) <= 1e-5 * max(abs(fd2), M * (M - 1) * f3[1])


@pytest.mark.parametrize(
    "mix",
    [
        ContinuousMixture(2.05, [0.0, 1.0, 2.05], [0.0, 0.3, -0.2]),
        ContinuousMixture(2.3, [0.0, 0.8, 1.6, 2.3], [NEG_INF, 0.1, 0.5, -0.4]),
        ContinuousMixture(3.5, [0.0, 2.0, 3.0, 3.5], [0.2, 0.9, NEG_INF, NEG_INF]),
        ContinuousMixture(5.5, [0.0, 1.0, 3.0, 4.5, 5.5], [NEG_INF, 0.2, 0.6, 0.1, NEG_INF]),
        random_concave_mixture(np.random.default_rng(8), M=12.0),
        ContinuousMixture(1.25, [0.0, 0.5, 1.0, 1.25], [NEG_INF, 0.2, 0.1, -0.3]),
        ContinuousMixture(1.9, [0.0, 0.9, 1.9], [0.1, 0.4, -0.5]),
    ],
    ids=["M2.05", "dead-prefix", "dead-suffix", "dead-both-ends", "M12", "M1.25-dead-prefix", "M1.9"],
)
def test_derivatives_against_quad_oracle_near_endpoints(mix):
    # close to 0 and 1 central differences cannot resolve f' and f''; the
    # oracle integrates the x-differentiated integrand directly
    M = mix.M
    xs = np.array([1e-6, 1e-4, 1.0 - 1e-4])
    f, d1, d2 = ContinuousEvaluator(mix).forms(xs)[:3]
    for i, x in enumerate(xs):
        rf, r1, r2 = continuous_derivs_quad(M, mix.knots, mix.log_alpha, x)
        t = x * (1.0 - x)
        assert f[i] == pytest.approx(rf, rel=1e-12)
        assert abs(d1[i] - r1) <= 1e-11 * rf * M / t
        assert abs(d2[i] - r2) <= 1e-11 * rf * M * M / (t * t)
        res = ContinuousEvaluator(mix).forms(float(x))
        assert (res.f, res.d1, res.d2) == (f[i], d1[i], d2[i])


def test_derivs_at_order_at_most_two():
    # the posterior-moment form gives f'' at every order M > 1
    mix = flat_mixture(1.8)
    ev = ContinuousEvaluator(mix)
    xs = np.array([0.3, 0.5])
    f, d1, d2 = ev.forms(xs)[:3]
    assert np.all(f > 0.0) and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
    np.testing.assert_array_equal(ev.d2(xs), d2)
    res = ContinuousEvaluator(mix).forms(0.5)
    assert (res.f, res.d1, res.d2) == (f[1], d1[1], d2[1])


def test_evaluator_takes_a_scalar_x():
    # a scalar x gives 0-d results, equal to those of the one-element array
    ev = ContinuousEvaluator(ContinuousMixture(4.0, [0.0, 1.5, 4.0], [0.0, 0.4, -0.8]))
    x = 0.37
    got = [ev.density(x), *ev.forms(x)[:3], ev.d1(x), ev.d2(x)]
    want = [ev.density(np.array([x])), *ev.forms(np.array([x]))[:3], ev.d1([x]), ev.d2([x])]
    for g, w in zip(got, want):
        assert np.shape(g) == () and w.shape == (1,)
        assert g == w[0]


def test_both_engines_return_the_named_forms(tmp_path):
    # one Forms tuple from either engine; a scalar x gives 0-d fields, and
    # eval's columns are the fields of the same name, bit for bit
    discrete = DiscreteMixture(5, [1.0, 3.0, 4.0, 3.5, 2.0, 0.5])
    continuous = ContinuousMixture(4.0, [0.0, 1.5, 4.0], [0.0, 0.4, -0.8])
    engines = [(discrete, lambda x: mixtures.discrete_derivs_grid(discrete, x)),
               (continuous, ContinuousEvaluator(continuous).forms)]
    for mix, forms in engines:
        one = forms(0.37)
        assert type(one) is mixtures.Forms
        assert one._fields == ("f", "d1", "d2", "log_f", "log_d1", "log_d2", "margin")
        assert all(np.shape(v) == () for v in one)
        path, out = tmp_path / "mix.json", tmp_path / "eval.csv"
        path.write_text(json.dumps(mixture_to_json(mix)))
        assert main(["eval", "--input", str(path), "--grid-points", "16", "--out", str(out)]) == 0
        names, *rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
        x, *columns = np.array(rows, dtype=float).T
        assert names == ["x", "f", "d1", "d2", "log_f", "log_d2"]
        grid = forms(x)
        for name, column in zip(names[1:], columns):
            np.testing.assert_array_equal(column, getattr(grid, name))


def test_normalization_flat():
    # integral of alpha over [0, 2] is 2, each kernel integrates to 1/(M+1)
    assert normalization(flat_mixture()) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_cdf_endpoints_and_uniform():
    mix = flat_mixture()
    assert cdf(mix, 0.0) == 0.0
    assert cdf(mix, 1.0) == pytest.approx(normalization(mix), rel=1e-9)
    vals = [cdf(mix, x) for x in np.linspace(0.0, 1.0, 11)]
    assert np.all(np.diff(vals) >= -1e-14)


def test_cdf_against_riemann_oracle():
    mixes = [
        ContinuousMixture(3.0, [0.0, 1.5, 3.0], [0.0, 0.5, -1.0]),
        # a -inf knot at 1.5 splits the support into [0, 1] and [2.5, 4]
        ContinuousMixture(4.0, [0.0, 1.0, 1.5, 2.5, 4.0], [0.0, 0.5, NEG_INF, -0.5, -1.0]),
    ]
    for mix in mixes:
        density = ContinuousEvaluator(mix).density
        mass = normalization(mix)
        for x in (1e-6, 0.3, 0.9):
            assert abs(cdf(mix, x) - riemann_cdf(density, x, n=100_000)) <= 2e-8 * mass


def test_cdf_of_zero_mixture_is_zero():
    mix = ContinuousMixture(2.0, [0.0, 1.0, 2.0], [NEG_INF, NEG_INF, NEG_INF])
    for x in (0.0, 0.5, 1.0):
        assert cdf(mix, x) == 0.0


def test_tiny_x_resolved_by_its_tilt_tier():
    # at x = 1e-100 the factor x^(M-s) tilts the integrand by 230 per unit of
    # s; the point reads a table of 58 panels per unit, which resolves it
    mix = ContinuousMixture(3.0, [0.0, 3.0], [0.0, 0.0])
    x = 1e-100
    rf, r1, r2 = continuous_derivs_quad(mix.M, mix.knots, mix.log_alpha, x)
    res = ContinuousEvaluator(mix).forms(x)
    assert res.f == pytest.approx(rf, rel=1e-12)
    assert abs(res.d1 - r1) <= 1e-11 * rf * mix.M / x
    assert abs(res.d2 - r2) <= 1e-11 * rf * mix.M**2 / x**2
    assert ContinuousEvaluator(mix).forms(np.array([x])).f[0] == res.f


def test_quadrature_failure_surfaces(tmp_path, capsys):
    # a log drop past the cap gets only the capped 200 panels: evaluation
    # raises, and so does certify, which issues no certificate over it
    mix = ContinuousMixture(3.0, [0.0, 1.0, 3.0], [0.0, -1e6, -1e6 - 1.0])
    with pytest.raises(QuadratureError):
        ContinuousEvaluator(mix).forms(np.linspace(1e-6, 1.0 - 1e-6, 64))
    with pytest.raises(QuadratureError):
        certify(mix, grid_points=64)
    path, out = tmp_path / "capped.json", tmp_path / "cert.json"
    path.write_text(json.dumps(mixture_to_json(mix)))
    assert main(["certify", "--input", str(path), "--grid-points", "64", "--out", str(out)]) == 3
    assert not out.exists()
    assert "Gauss and Kronrod quadratures differ" in capsys.readouterr().err


def test_gauss_kronrod_check_fails_a_nan_gap():
    with pytest.raises(QuadratureError):
        check_gauss_kronrod(np.array([np.nan]), "nan gap")
    with pytest.raises(QuadratureError):
        check_gauss_kronrod(np.array([0.0, np.nan, 1e-12]), "nan gap")
    check_gauss_kronrod(np.array([0.0, 1e-10]), "at the tolerance")
    check_gauss_kronrod(np.array([]), "no points")


def test_kronrod_integral_gap_on_the_scale_of_the_absolute_integrand():
    s, wk, wg = panel_nodes([0.0, 1.0])
    # an integrand whose integral cancels to about 0 is judged on the
    # integral of its absolute value, so its Kronrod value passes
    assert abs(kronrod_integral(wk, wg, np.sin(2.0 * np.pi * s), "sine")) <= 1e-15
    for scale in (1e-300, 1.0, 1e300):
        assert kronrod_integral(wk, wg, scale * np.exp(s), "exp") == pytest.approx(
            scale * (math.e - 1.0), rel=1e-14
        )
    assert kronrod_integral(wk, wg, np.zeros_like(s), "zero") == 0.0
    # inf - inf: the gap is nan, and fails
    with pytest.raises(QuadratureError), np.errstate(invalid="ignore"):
        kronrod_integral(wk, wg, np.full_like(s, np.inf), "overflowed integrand")


# An M = 200 mixture whose f'' cancels near x = 0.98 down from terms of scale
# f M^2/t^2: its Gauss-Kronrod gap there is about 1e-9 of max(1, |f''|) but
# 3e-14 of the posterior variance's scale M^2.
M200_KNOTS = [0.0, 13.03789872, 38.76826494, 71.07771893, 189.3584576, 200.0]
M200_LOG_ALPHA = np.array([0.0, -1.57565692, -12.19499155, -27.76329719, -92.08051285, -101.54966575])


@pytest.mark.parametrize("c", [-30.0, -10.0, 0.0, 10.0, 30.0])
def test_gauss_kronrod_gate_does_not_depend_on_the_mixing_scale(c):
    xs = np.linspace(1e-6, 1.0 - 1e-6, 1024)
    base = ContinuousEvaluator(ContinuousMixture(200.0, M200_KNOTS, M200_LOG_ALPHA)).forms(xs)[:3]
    scaled = ContinuousEvaluator(ContinuousMixture(200.0, M200_KNOTS, M200_LOG_ALPHA + c)).forms(xs)[:3]
    # the density and its derivatives scale with alpha, to within rounding
    # on the scales f, f M/t and f M^2/t^2 that the gate measures
    f, t = base[0], xs * (1.0 - xs)
    for got, want, scale in zip(scaled, base, (f, f * 200.0 / t, f * 200.0**2 / t**2)):
        assert np.all(np.abs(got - math.exp(c) * want) <= 1e-12 * math.exp(c) * scale)


def test_byte_sized_blocks_keep_each_point_independent():
    # the M = 200 tier tables take 15, 7 and 3 points per block of
    # mixtures._BLOCK_BYTES; 64 shuffled points fill several blocks of tiers
    # 1, 2 and 4, and each point's values are those it has on its own
    mix = ContinuousMixture(200.0, M200_KNOTS, M200_LOG_ALPHA)
    edges = np.geomspace(4e-4, 1.5e-2, 8), np.geomspace(2e-7, 5e-6, 8)
    xs = np.concatenate([np.linspace(0.03, 0.97, 32), *edges, *(1.0 - e for e in edges)])
    xs = np.random.default_rng(19).permutation(xs)
    tiers = _tilt_tiers(xs)
    assert {1, 2, 4} <= set(tiers.tolist())
    ev = ContinuousEvaluator(mix)
    f, d1, d2 = ev.forms(xs)[:3]
    for tier, table in ev._tables.items():
        per_block = mixtures._BLOCK_BYTES // (8 * table.s.size)
        assert 1 < per_block < np.count_nonzero(tiers == tier) - 1
    for i, x in enumerate(xs):
        np.testing.assert_array_equal(np.ravel(ev.forms(xs[i : i + 1])[:3]), [f[i], d1[i], d2[i]])
    np.testing.assert_array_equal(ev.density(xs), f)


def test_kernel_integration_works_in_one_block_buffer():
    # M = 2000, log alpha a concave parabola on 9 knots: each table row holds
    # 42 000 nodes; once the table is built, forms over 256 points holds
    # one block buffer of at most _BLOCK_BYTES, the six stacked weight rows,
    # the centred nodes and a few arrays of one value per point
    M = 2000.0
    knots = np.linspace(0.0, M, 9)
    mix = ContinuousMixture(M, knots, -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2)
    ev = ContinuousEvaluator(mix)
    xs = np.linspace(0.05, 0.95, 256)
    want = ev.forms(xs)[:3]
    (table,) = ev._tables.values()
    tracemalloc.start()
    try:
        got = ev.forms(xs)[:3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert peak < mixtures._BLOCK_BYTES + (6 + 1) * 8 * table.s.size + 64 * 1024


def test_large_order_second_derivative_matches_oracle_near_one():
    mix = ContinuousMixture(200.0, M200_KNOTS, M200_LOG_ALPHA)
    xs = np.linspace(1e-6, 1.0 - 1e-6, 1024)
    x = float(xs[np.argmin(np.abs(xs - 0.98))])
    t = x * (1.0 - x)
    rf, r1, r2 = continuous_derivs_quad(mix.M, mix.knots, mix.log_alpha, x)
    res = ContinuousEvaluator(mix).forms(x)
    assert res.f == pytest.approx(rf, rel=1e-12)
    assert abs(res.d1 - r1) <= 1e-11 * rf * mix.M / t
    assert abs(res.d2 - r2) <= 1e-11 * rf * mix.M**2 / t**2


def test_narrow_bump_passes_gauss_kronrod_check():
    # a knot interval 1/20 long with a log drop of 40 gets 10 panels, one
    # per factor e^4 of alpha, where its length alone would give one
    x, w, drop = 0.37, 0.05, 40.0
    peak = math.log(drop / (2.0 * w * (1.0 - math.exp(-drop))))
    mix = ContinuousMixture(
        2.0, [0.0, 1.0 - w, 1.0, 1.0 + w, 2.0], [-60.0, peak - drop, peak, peak - drop, -60.0]
    )
    ref = continuous_derivs_quad(mix.M, mix.knots, mix.log_alpha, x)[0]
    assert float(ContinuousEvaluator(mix).forms(x).f) == pytest.approx(ref, rel=1e-12)
    # certify raises QuadratureError if any integral fails its check
    assert certify(mix, grid_points=64).notes == ()


def test_panel_count_follows_length_and_capped_log_drop():
    size = reference_rule()[0].size
    assert panel_nodes([0.0, 0.5, 2.0])[0].size == size * (4 + 12)
    assert panel_nodes([0.0, 0.5, 2.0], [0.0, -1.0, 99.0])[0].size == size * (4 + 25)
    # |log drop| = 1e6 over an interval of length 2: ceil(8 * 2) + 200 bounds it
    for drop in (1e6, 1e300, -1e300):
        n_panels = panel_nodes([0.0, 2.0], [0.0, drop])[0].size // size
        assert n_panels == LOG_DROP_CAP / LOG_DROP_PER_PANEL <= math.ceil(PANELS_PER_UNIT * 2.0) + 200
    assert panel_nodes([0.0, 2.0], [1e308, -1e308])[0].size == size * 200


# knot grids with -inf knots (alone and in pairs), zero-length segments and
# capped log drops
PANEL_GRIDS = [
    ([0.0, 0.5, 2.0], None),
    ([0.0, 0.5, 2.0], [0.0, -1.0, 99.0]),
    ([0.0, 2.0], [1e308, -1e308]),
    ([0.0, 1.0, 1.0, 2.5, 2.5, 4.0], [0.0, -3.0, 7.0, 1.0, 2.0, -1.0]),
    ([0.0, 1.0, 1.5, 2.5, 4.0], [0.0, 0.5, NEG_INF, -0.5, -1.0]),
    ([0.0, 0.25, 1.0, 3.0, 3.5, 6.0, 6.5], [NEG_INF, 0.0, -2.0, NEG_INF, NEG_INF, 1e308, -1e308]),
    ([0.0, 1.0, 2.0], [NEG_INF, NEG_INF, NEG_INF]),
]


def _random_panel_grid(rng):
    knots = np.cumsum(rng.choice([0.0, 0.125, 0.3, 1.7, 5.0], size=8))
    log_alpha = rng.normal(0.0, 40.0, size=8)
    log_alpha[rng.random(8) < 0.3] = NEG_INF
    return knots, log_alpha


@pytest.mark.parametrize("per_unit", [1, 2, 3, 4, 8, 58, 200])
def test_panel_nodes_match_the_per_interval_builder(per_unit):
    rng = np.random.default_rng(per_unit)
    grids = PANEL_GRIDS + [_random_panel_grid(rng) for _ in range(20)]
    for knots, log_alpha in grids:
        got = panel_nodes(knots, log_alpha, per_unit)
        want = panel_nodes_per_interval(reference_rule(), knots, log_alpha, per_unit)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, strict=True)


def test_panel_nodes_whole_grid_equals_concatenated_runs():
    # each maximal run of intervals with finite log values, built on its own
    rng = np.random.default_rng(5)
    for knots, log_alpha in PANEL_GRIDS[4:] + [_random_panel_grid(rng) for _ in range(20)]:
        knots, log_alpha = np.asarray(knots), np.asarray(log_alpha)
        finite = np.flatnonzero(np.isfinite(log_alpha))
        cuts = np.flatnonzero(np.diff(finite) > 1) + 1
        runs = [panel_nodes(knots[r[0] : r[-1] + 1], log_alpha[r[0] : r[-1] + 1], 3)
                for r in np.split(finite, cuts) if r.size > 1]
        whole = panel_nodes(knots, log_alpha, 3)
        for column, part in zip(whole, zip(*runs) if runs else [[np.empty(0)]] * 3):
            np.testing.assert_array_equal(column, np.concatenate(part), strict=True)


def _tier_edge(tilt):
    # the x below 1/2 at which log((1-x)/x) equals tilt
    return 1.0 / (1.0 + math.exp(tilt))


def test_tilt_tiers_follow_the_kernel_tilt():
    xs = np.array([0.5, 0.1, 1e-3, 1e-5, 1e-6, 1e-8, 1e-100, 0.0, 1.0, 1.0 - 1e-6])
    cap = math.ceil(LOG_DROP_CAP / LOG_DROP_PER_PANEL)
    assert _tilt_tiers(xs).tolist() == [1, 1, 2, 3, 4, 5, 58, cap, cap, 4]
    for tilt in (4.0, 8.0, 12.0):
        x = _tier_edge(tilt)
        tier = round(tilt / LOG_DROP_PER_PANEL)
        inside = np.array([x * (1.0 + 1e-9), 1.0 - x * (1.0 + 1e-9)])
        outside = np.array([x * (1.0 - 1e-9), 1.0 - x * (1.0 - 1e-9)])
        assert _tilt_tiers(inside).tolist() == [tier, tier]
        assert _tilt_tiers(outside).tolist() == [tier + 1, tier + 1]
    # a tier is a per-unit floor of the panel count; the log drop still counts
    size = reference_rule()[0].size
    assert panel_nodes([0.0, 0.5, 2.0], per_unit=1)[0].size == size * (1 + 2)
    assert panel_nodes([0.0, 0.5, 2.0], [0.0, -1.0, 99.0], per_unit=3)[0].size == size * (2 + 25)


def test_derivs_batch_across_tiers_equals_per_point():
    mix = ContinuousMixture(6.5, [0.0, 1.0, 4.0, 6.5], [-0.5, 0.3, 0.1, -1.2])
    xs = np.array([0.5, 1e-8, 0.3, 1e-100, 2e-3, 1.0 - 1e-5, 1e-6, 0.97, 1.0 - 1e-8, 4e-4])
    assert set(_tilt_tiers(xs).tolist()) >= {1, 2, 3, 4, 5}
    ev = ContinuousEvaluator(mix)
    f, d1, d2 = ev.forms(xs)[:3]
    dens = ev.density(xs)
    for i, x in enumerate(xs):
        one = ContinuousEvaluator(mix).forms(xs[i : i + 1])[:3]
        np.testing.assert_array_equal(np.ravel(one), [f[i], d1[i], d2[i]])
        res = ContinuousEvaluator(mix).forms(float(x))
        assert (res.f, res.d1, res.d2) == (f[i], d1[i], d2[i])
        assert res.f == dens[i]


@pytest.mark.parametrize("M", [1.25, 12.0, 64.0, 200.0])
def test_tier_edges_against_quad_oracle(M):
    # just inside and just past each tier edge, on both sides of 1/2
    mix = random_concave_mixture(np.random.default_rng([11, int(4 * M)]), M)
    xs = np.array([
        side(_tier_edge(tilt) * (1.0 + rel))
        for tilt in (4.0, 8.0, 12.0)
        for rel in (-1e-9, 1e-9)
        for side in (lambda x: x, lambda x: 1.0 - x)
    ])
    f, d1, d2 = ContinuousEvaluator(mix).forms(xs)[:3]
    for i, x in enumerate(xs):
        rf, r1, r2 = continuous_derivs_quad(M, mix.knots, mix.log_alpha, x)
        t = x * (1.0 - x)
        assert f[i] == pytest.approx(rf, rel=1e-12)
        assert abs(d1[i] - r1) <= 1e-11 * rf * M / t
        assert abs(d2[i] - r2) <= 1e-11 * rf * M * M / (t * t)


def test_evaluator_builds_each_tier_table_once(monkeypatch):
    built = []
    original = mixtures._density_table

    def counting(mix, per_unit):
        built.append(per_unit)
        return original(mix, per_unit)

    monkeypatch.setattr(mixtures, "_density_table", counting)
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [0.0, 0.5, -1.0])
    ev = ContinuousEvaluator(mix)
    assert built == []
    ev.forms(np.array([0.5, 1e-6, 0.4]))
    ev.density(np.array([0.2, 1e-6, 1e-3]))
    ev.forms(np.array([0.6, 1.0 - 1e-3, 1e-3, 1e-6]))
    assert built == [1, 4, 2]


def test_discrete_continuous_agreement():
    # bumps of shrinking width concentrated at the integers converge to the
    # discrete mixture; the error must decrease monotonically with width
    M = 3
    weights = np.array([1.0, 2.0, 1.5, 0.8])
    drop = 40.0
    xs = np.array([0.3, 0.62])
    target = discrete_density_grid(DiscreteMixture(M, weights), xs)
    errors = []
    for w in (0.2, 0.1, 0.05):
        knots = [0.0, w]
        ramp = 1.0 - math.exp(-drop)
        levels = [math.log(weights[0] * drop / (w * ramp)), math.log(weights[0] * drop / (w * ramp)) - drop]
        for i in range(1, M):
            peak = math.log(weights[i] * drop / (2.0 * w * ramp))
            knots.extend([i - w, i, i + w])
            levels.extend([peak - drop, peak, peak - drop])
        peak = math.log(weights[M] * drop / (w * ramp))
        knots.extend([M - w, M])
        levels.extend([peak - drop, peak])
        mix = ContinuousMixture(float(M), knots, levels)
        ev = ContinuousEvaluator(mix)
        errors.append(float(np.max(np.abs(ev.density(xs) - target))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-3


def test_sampling_continuous():
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [0.0, 0.5, -1.0])
    draws = sample(mix, 50_000, seed=3)
    assert np.all((draws > 0.0) & (draws < 1.0))
    # compare the empirical CDF against quadrature CDF values on a grid
    total = normalization(mix)
    grid = np.linspace(0.0, 1.0, 201)
    model = np.array([cdf(mix, float(x)) for x in grid]) / total
    empirical = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    assert np.max(np.abs(empirical - model)) <= 0.01


def test_sample_underflowing_density_draws_as_its_unit_scaled_mixture():
    # alpha = e^-800 makes f underflow to 0 everywhere; the sampler shifts
    # log alpha to peak at 0 and draws what alpha = 1 draws
    low = sample(ContinuousMixture(3.0, [0.0, 3.0], [-800.0, -800.0]), 1000, seed=5)
    unit = sample(ContinuousMixture(3.0, [0.0, 3.0], [0.0, 0.0]), 1000, seed=5)
    np.testing.assert_array_equal(low, unit)


def test_json_round_trip():
    mix = ContinuousMixture(2.5, [0.0, 1.0, 2.5], [0.1, NEG_INF, -0.3])
    blob = json.dumps(mixture_to_json(mix))
    back = mixture_from_json(json.loads(blob))
    np.testing.assert_array_equal(back.knots, mix.knots)
    np.testing.assert_array_equal(back.log_alpha, mix.log_alpha)
    disc = DiscreteMixture(2, [1.0, 0.5, 0.0])
    back = mixture_from_json(json.loads(json.dumps(mixture_to_json(disc))))
    np.testing.assert_array_equal(back.weights, disc.weights)
    assert back.M == 2


def test_json_accepts_minus_inf_string():
    mix = mixture_from_json({"M": 2.0, "knots": [0.0, 2.0], "log_alpha": ["-inf", 0.0]})
    assert np.isneginf(mix.log_alpha[0])


@pytest.mark.parametrize(
    "obj",
    [
        {"M": 2.0},
        {"M": 2.5, "weights": [1.0, 1.0]},
        {"M": 2.0, "knots": [0.0, 2.0], "log_alpha": ["nope", 0.0]},
        [1, 2, 3],
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        mixture_from_json(obj)


@pytest.mark.parametrize(
    "M, knots, log_alpha",
    [
        (1.0, [0.0, 1.0], [0.0, 0.0]),          # order must exceed 1
        (2.0, [0.0, 1.0], [0.0, 0.0]),          # grid must end at M
        (2.0, [0.5, 2.0], [0.0, 0.0]),          # grid must start at 0
        (2.0, [0.0, 1.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0]),  # strictly increasing
        (2.0, [0.0, 2.0], [0.0, np.inf]),       # +inf forbidden
        (2.0, [0.0, 2.0], [0.0]),               # length mismatch
    ],
)
def test_invalid_construction(M, knots, log_alpha):
    with pytest.raises(ValueError):
        ContinuousMixture(M, knots, log_alpha)


def test_log_concavity_checker_discrete():
    assert is_log_concave_weights(DiscreteMixture(3, [1.0, 2.0, 2.0, 1.0]))
    assert is_log_concave_weights(DiscreteMixture(2, [0.0, 1.0, 0.5]))  # zero prefix ok
    assert not is_log_concave_weights(DiscreteMixture(2, [1.0, 0.01, 1.0]))
    assert not is_log_concave_weights(DiscreteMixture(2, [1.0, 0.0, 1.0]))  # support gap
    assert is_log_concave_weights(DiscreteMixture(2, [0.0, 0.0, 0.0]))  # vacuous
    # the squares of these weights underflow to 0; their logs do not
    assert not is_log_concave_weights(DiscreteMixture(2, [1e-200, 1e-210, 1e-200]))
    # rounding leaves float geometric weights short of w_i^2 >= w_{i-1} w_{i+1}
    # at 11 to 21 of their 39 interior points in exact rational arithmetic;
    # the relative slack admits them
    for r in (0.3, 0.7, 1.3, 5.0):
        assert is_log_concave_weights(DiscreteMixture(40, r ** np.arange(41)))
    # log w concave over thousands of nats: its tail rounds to subnormals that
    # break log-concavity, and with those set to 0 the support stays one run
    M = 2000
    steps = np.random.default_rng(M).uniform(1.0 / M, 4.0 / M, M)
    log_w = np.concatenate([[0.0], np.cumsum(np.cumsum(-steps))])
    w = np.exp(log_w - np.max(log_w))
    tiny = np.finfo(float).tiny
    assert np.any((w > 0.0) & (w < tiny))
    assert not is_log_concave_weights(DiscreteMixture(M, w))
    assert is_log_concave_weights(DiscreteMixture(M, np.where(w < tiny, 0.0, w)))


def test_log_concavity_checker_continuous():
    assert is_log_concave_weights(flat_mixture())
    concave = ContinuousMixture(2.0, [0.0, 1.0, 2.0], [0.0, 0.5, 0.0])
    convex = ContinuousMixture(2.0, [0.0, 1.0, 2.0], [0.0, -0.5, 0.5])
    assert is_log_concave_weights(concave)
    assert not is_log_concave_weights(convex)
    # a single -inf knot zeroes both adjacent segments, so the support of
    # [0, -inf, 0, 0] is still one interval and the mixing is log-concave
    one_sided = ContinuousMixture(3.0, [0.0, 1.0, 2.0, 3.0], [0.0, NEG_INF, 0.0, 0.0])
    assert is_log_concave_weights(one_sided)
    gap = ContinuousMixture(
        4.0, [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, NEG_INF, 0.0, 0.0]
    )
    assert not is_log_concave_weights(gap)
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert is_log_concave_weights(random_concave_mixture(rng))
    # unequal spacing: the middle knot's chord weights its ends 3/4 and 1/4,
    # so 0.975 lies under the value 1 for [0, 1, 3.9] (an even-weight chord,
    # 1.95, would reject it), and 1.05 over it for [0, 1, 4.2]
    for scale in (1.0, 1e4):
        knots = scale * np.array([0.0, 1.0, 4.0])
        assert is_log_concave_weights(ContinuousMixture(4.0 * scale, knots, scale * np.array([0.0, 1.0, 3.9])))
        assert not is_log_concave_weights(ContinuousMixture(4.0 * scale, knots, scale * np.array([0.0, 1.0, 4.2])))


def test_reference_rule_built_once_and_read_only():
    t, wk, wg = reference_rule()
    assert reference_rule()[0] is t
    assert not (t.flags.writeable or wk.flags.writeable or wg.flags.writeable)


def test_gauss_kronrod_rule():
    t, wk, wg = reference_rule()
    assert t.size == wk.size == wg.size == 21
    np.testing.assert_array_equal(t + t[::-1], 1.0)
    np.testing.assert_array_equal(wk, wk[::-1])
    np.testing.assert_array_equal(wg, wg[::-1])
    assert np.count_nonzero(wg) == 10 and np.all(wk > 0.0)
    assert float(np.sum(wk)) == pytest.approx(1.0, rel=1e-15)
    assert float(np.sum(wg)) == pytest.approx(1.0, rel=1e-15)
    # K21 integrates polynomials of degree 31 exactly, G10 those of degree 19
    for k in range(32):
        assert float(wk @ t**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)
    for k in range(20):
        assert float(wg @ t**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)
    assert abs(float(wg @ t**20) - 1.0 / 21) > 1e-12


def test_evaluations_order_independent():
    # grid evaluation must be bitwise identical to pointwise evaluation
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [0.0, 0.4, -0.8])
    ev = ContinuousEvaluator(mix)
    xs = np.linspace(0.1, 0.9, 9)
    batch = ev.density(xs)
    single = np.array([ev.density(np.array([x]))[0] for x in xs])
    np.testing.assert_array_equal(batch, single)
    batch = np.array(ev.forms(xs)[:3])
    single = np.array([[v[0] for v in ev.forms(np.array([x]))[:3]] for x in xs]).T
    np.testing.assert_array_equal(batch, single)
    np.testing.assert_array_equal(batch[0], ev.density(xs))
