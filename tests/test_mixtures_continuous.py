import json
import math
import os
import subprocess
import sys
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
from betamix import mixtures, quadrature
from betamix.cli import main
from betamix.mixtures import ContinuousEvaluator, discrete_density_grid
from betamix.quadrature import (
    LOG_DROP_CAP,
    LOG_DROP_PER_PANEL,
    QuadratureError,
    check_gauss_kronrod,
    kronrod_integral,
    panel_counts,
    panel_ladder,
    panel_nodes,
    reference_rule,
)

from ladder import LadderLog, same_layout, tier_layout

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
# alpha = e^(-1000 s) on [0, 3]: the log drop of 3000 is capped at 800, so
# every tier up to 64 panels per unit lays out the same 200 panels
STEEP = ContinuousMixture(3.0, [0.0, 3.0], [0.0, -3000.0])


def lay_out(breakpoints, log_values=None, per_unit=1):
    return panel_nodes(breakpoints, panel_counts(breakpoints, log_values, per_unit))


def every_tier(unit):
    # every tier of the ladder, each laid out by a panel_nodes call of its own
    return (tier_layout(unit, tier) for tier in panel_ladder())


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


def test_cdf_climbs_the_ladder_until_its_gap_passes(monkeypatch):
    # STEEP lays out 200 panels on every tier up to 64 panels per unit, and
    # that layout is laid out and integrated once; the gap fails until 128
    # panels per unit lay out 384
    tier, tiers, panels = [None], [], []
    count, nodes, integrate = mixtures.panel_counts, mixtures.panel_nodes, mixtures.kronrod_integral

    def recording_counts(breakpoints, log_values=None, per_unit=1):
        tier[0] = per_unit
        return count(breakpoints, log_values, per_unit)

    def recording_nodes(breakpoints, counts):
        tiers.append(tier[0])
        return nodes(breakpoints, counts)

    def recording_integral(wk, wg, values):
        panels.append(wk.size // reference_rule()[0].size)
        return integrate(wk, wg, values)

    monkeypatch.setattr(mixtures, "panel_counts", recording_counts)
    monkeypatch.setattr(mixtures, "panel_nodes", recording_nodes)
    monkeypatch.setattr(mixtures, "kronrod_integral", recording_integral)
    # integral of alpha(s) I_0.5(4 - s, s + 1) ds / 4 by mpmath at 30 digits
    value = cdf(STEEP, 0.5)
    assert value == pytest.approx(1.56603176594754520552e-05, rel=1e-13)
    assert tiers == [1, 128]
    assert panels == [200, 384]
    # a climb that reads every tier, each laid out on its own, gives the same bits
    monkeypatch.setattr(mixtures, "_layouts", every_tier)
    assert cdf(STEEP, 0.5).hex() == value.hex()
    assert panels == [200, 384] + [200] * 7 + [384]


@pytest.mark.parametrize(
    "mix, x, ref",
    [
        # 30-digit mpmath; alpha * I_x is subnormal wherever it lives, and
        # the gap reads 7.1e-3 on every tier
        (ContinuousMixture(300.0, [0.0, 60.0, 300.0], [-50.0, 0.0, -800.0]), 0.01, 8.5397208033539279144e-321),
        # scipy's betainc reads 0 below about 1e-308 (betainc(271, 31, 0.05)
        # = 0 against 1.09e-312), so float64 falls short of 4.886e-315 here
        (ContinuousMixture(300.0, [0.0, 30.0, 300.0], [-50.0, 0.0, -1600.0]), 0.05, None),
    ],
    ids=["subnormal-integrand", "betainc-underflow"],
)
def test_cdf_below_the_normal_range_is_returned_unjudged(mix, x, ref):
    value = cdf(mix, x)
    assert 0.0 < value < np.finfo(float).tiny
    if ref is not None:
        assert value == pytest.approx(ref, rel=4e-4)
    # the same integrand with alpha scaled by e^700 has a normal value, and
    # its gap fails the gate
    shifted = ContinuousMixture(mix.M, mix.knots, mix.log_alpha + 700.0)
    with pytest.raises(QuadratureError):
        cdf(shifted, x)


def test_cdf_past_the_node_limit_raises_quadrature_error():
    # one panel per unit of s over [0, 1e18]: the count is checked before
    # anything is allocated, where numpy raised ValueError (array too big)
    with pytest.raises(QuadratureError, match="quadrature nodes exceed the limit"):
        cdf(ContinuousMixture(1e18, [0.0, 1e18], [0.0, 0.0]), 0.5)


def test_panel_layout_up_to_the_node_limit(monkeypatch):
    # [0, 1] at 8 panels per unit is 8 * 21 = 168 nodes
    monkeypatch.setattr(quadrature, "MAX_NODES", 168)
    assert lay_out([0.0, 1.0], per_unit=8)[0].size == 168
    monkeypatch.setattr(quadrature, "MAX_NODES", 167)
    with pytest.raises(QuadratureError, match="168 quadrature nodes exceed the limit of 167"):
        panel_counts([0.0, 1.0], per_unit=8)


def test_tiny_x_resolved_up_the_ladder():
    # at x = 1e-100 the factor x^(M-s) tilts the integrand by 230 per unit of
    # s; the point climbs to the table of 32 panels per unit, which resolves it
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
    s, wk, wg = lay_out([0.0, 1.0])
    # an integrand whose integral cancels to about 0 is judged on the
    # integral of its absolute value, so its Kronrod value passes
    (value,), gap = kronrod_integral(wk, wg, np.sin(2.0 * np.pi * s))
    assert abs(value) <= 1e-15
    check_gauss_kronrod(gap, "sine")
    for scale in (1e-300, 1.0, 1e300):
        (value,), gap = kronrod_integral(wk, wg, scale * np.exp(s))
        assert value == pytest.approx(scale * (math.e - 1.0), rel=1e-14)
        check_gauss_kronrod(gap, "exp")
    assert tuple(kronrod_integral(wk, wg, np.zeros_like(s))) == (0.0, 0.0)
    # inf - inf: the gap is nan, and fails
    with pytest.raises(QuadratureError):
        check_gauss_kronrod(kronrod_integral(wk, wg, np.full_like(s, np.inf))[1], "overflowed integrand")


def test_kronrod_integral_over_runs_is_each_run_alone():
    # runs of nodes, and rows of integrands, are integrated independently
    s, wk, wg = lay_out([0.0, 1.0, 3.0])
    first = np.flatnonzero(s > 1.0)[0]
    values = np.stack([np.exp(s), np.cos(s)])
    runs, gaps = kronrod_integral(wk, wg, values, [0, first])
    assert runs.shape == gaps.shape == (2, 2)
    for lo, hi, col in ((0, first, 0), (first, s.size, 1)):
        alone, gap = kronrod_integral(wk[lo:hi], wg[lo:hi], values[:, lo:hi])
        np.testing.assert_array_equal(runs[:, col], alone[:, 0])
        np.testing.assert_array_equal(gaps[:, col], gap[:, 0])
    np.testing.assert_allclose(runs[0], [math.e - 1.0, math.exp(3.0) - math.e], rtol=1e-14)


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


def test_byte_sized_blocks_keep_each_point_independent(monkeypatch):
    # the M = 200 tier tables take 15, 7 and 3 points per block of
    # mixtures._BLOCK_BYTES; 80 shuffled points fill several blocks of tier
    # 1, and the 16 below 1e-9, which fail it, several blocks of tiers 2 and
    # 4; each point's values are those it has on its own
    mix = ContinuousMixture(200.0, M200_KNOTS, M200_LOG_ALPHA)
    edges = np.geomspace(4e-4, 1.5e-2, 8), np.geomspace(2e-7, 5e-6, 8)
    tiny = np.geomspace(1e-30, 1e-10, 16)
    xs = np.concatenate([np.linspace(0.03, 0.97, 32), *edges, *(1.0 - e for e in edges), tiny])
    xs = np.random.default_rng(19).permutation(xs)
    log = LadderLog(monkeypatch)
    ev = ContinuousEvaluator(mix)
    f, d1, d2 = ev.forms(xs)[:3]
    assert log.climbs_only_on_failure()
    assert {1, 2, 4} <= set(log.tiers)
    for (tier, x, _), nodes in zip(log.steps, log.nodes):
        if tier <= 4:
            assert 1 < mixtures._BLOCK_BYTES // (8 * nodes) < x.size - 1
    for i, x in enumerate(xs):
        np.testing.assert_array_equal(np.ravel(ev.forms(xs[i : i + 1])[:3]), [f[i], d1[i], d2[i]])
    np.testing.assert_array_equal(ev.density(xs), f)


_THREADS_SCRIPT = """
import hashlib, numpy as np
from betamix import ContinuousMixture
from betamix.mixtures import ContinuousEvaluator
M = 1000.0
knots = np.linspace(0.0, M, 9)
mix = ContinuousMixture(M, knots, -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2)
forms = ContinuousEvaluator(mix).forms(np.linspace(1e-6, 1.0 - 1e-6, 1024))
print(hashlib.sha256(np.array(forms).tobytes()).hexdigest())
"""


def test_moment_sums_do_not_depend_on_the_blas_thread_count():
    # at M = 1000 the first table has 21 000 nodes, several dot chunks; a
    # single dot over all of them is split across threads by OpenBLAS (past
    # 10 000 values) and reads other bits at 2 threads than at 1
    M = 1000.0
    knots = np.linspace(0.0, M, 9)
    ev = ContinuousEvaluator(ContinuousMixture(M, knots, -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2))
    assert next(mixtures._layouts(ev._unit))[0].size == 21_000 > 2 * mixtures._DOT_CHUNK
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_kernel_integration_works_in_one_block_buffer():
    # M = 2000, log alpha a concave parabola on 9 knots: the first layout
    # holds 42 000 nodes, and every one of 256 points passes on it. The
    # layout is laid out outside the traced window, as forms lays it out,
    # and forms runs first, so scipy.special is imported before it; the
    # whole _moments call, its log kernel included, then holds one block
    # buffer of at most _BLOCK_BYTES (a row of 42 000 nodes fits in it),
    # the six stacked weight rows, the log kernel and a few arrays of one
    # value per point, and no centred-node array besides the rows
    M = 2000.0
    knots = np.linspace(0.0, M, 9)
    mix = ContinuousMixture(M, knots, -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2)
    ev = ContinuousEvaluator(mix)
    xs = np.linspace(0.05, 0.95, 256)
    f = ev.forms(xs).f
    layout = next(mixtures._layouts(ev._unit))
    assert layout[0].size == 42_000
    tracemalloc.start()
    try:
        rows, gap = mixtures._moments(ev._unit, ev._peak, *layout, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(gap <= quadrature.REL_TOL)
    np.testing.assert_array_equal(np.where(np.isfinite(rows[0]), np.exp(rows[0]) * rows[1], 0.0), f)
    assert peak < mixtures._BLOCK_BYTES + (6 + 1) * 8 * layout[0].size + 64 * 1024


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
    assert panel_counts([0.0, 0.5, 2.0], per_unit=8).tolist() == [4, 12]
    assert panel_counts([0.0, 0.5, 2.0], [0.0, -1.0, 99.0], per_unit=8).tolist() == [4, 25]
    assert lay_out([0.0, 0.5, 2.0], [0.0, -1.0, 99.0], per_unit=8)[0].size == size * (4 + 25)
    # |log drop| = 1e6 over an interval of length 2: ceil(8 * 2) + 200 bounds it
    for drop in (1e6, 1e300, -1e300):
        (n_panels,) = panel_counts([0.0, 2.0], [0.0, drop], per_unit=8)
        assert n_panels == LOG_DROP_CAP / LOG_DROP_PER_PANEL <= math.ceil(8 * 2.0) + 200
    assert panel_counts([0.0, 2.0], [1e308, -1e308], per_unit=8).tolist() == [200]


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
        got = lay_out(knots, log_alpha, per_unit)
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
        runs = [lay_out(knots[r[0] : r[-1] + 1], log_alpha[r[0] : r[-1] + 1], 3)
                for r in np.split(finite, cuts) if r.size > 1]
        whole = lay_out(knots, log_alpha, 3)
        for column, part in zip(whole, zip(*runs) if runs else [[np.empty(0)]] * 3):
            np.testing.assert_array_equal(column, np.concatenate(part), strict=True)


def _tier_edge(tilt):
    # the x below 1/2 at which log((1-x)/x) equals tilt
    return 1.0 / (1.0 + math.exp(tilt))


def test_ladder_tiers_a_point_visits(monkeypatch):
    assert panel_ladder() == [1, 2, 4, 8, 16, 32, 64, 128, 200]
    # at M = 3, x = 0.5 stops on the first tier, and x = 1e-100, whose
    # kernel tilts by 230 per unit of s, climbs to 32 panels per unit
    mix = ContinuousMixture(3.0, [0.0, 3.0], [0.0, 0.0])
    for x, tiers in ((0.5, [1]), (1e-100, [1, 2, 4, 8, 16, 32])):
        log = LadderLog(monkeypatch)
        ContinuousEvaluator(mix).forms(x)
        assert log.tiers == tiers
        assert log.climbs_only_on_failure()
    # a tier is a per-unit floor of the panel count; the log drop still counts
    assert panel_counts([0.0, 0.5, 2.0], per_unit=1).tolist() == [1, 2]
    assert panel_counts([0.0, 0.5, 2.0], [0.0, -1.0, 99.0], per_unit=3).tolist() == [2, 25]


def test_forms_skips_a_tier_that_repeats_the_last_layout(monkeypatch):
    # STEEP lays out the same 200 panels (4200 nodes) on every tier up to 64
    # panels per unit: x = 0.5 fails that layout and passes on 128 panels
    # per unit, so two layouts are integrated, each once
    log = LadderLog(monkeypatch)
    skipped = ContinuousEvaluator(STEEP).forms(0.5)
    assert list(zip(log.tiers, log.nodes)) == [(1, 4200), (128, 8064)]
    assert log.climbs_only_on_failure()
    # a climb that reads every tier, each laid out on its own, gives the same bits
    monkeypatch.setattr(mixtures, "_layouts", every_tier)
    full = ContinuousEvaluator(STEEP).forms(0.5)
    assert [v.tobytes() for v in full] == [v.tobytes() for v in skipped]
    assert log.nodes[2:] == [4200] * 7 + [8064]


def test_layouts_skip_only_a_tier_that_repeats_the_last_layout():
    # each tier _layouts skips lays out, by a panel_nodes call of its own,
    # the nodes and weights of the last layout yielded, bit for bit, and each
    # layout yielded differs from the one before. STEEP repeats its first
    # layout up to 64 panels per unit, a -inf knot splits alpha into two
    # runs, and random concave log alphas, times 1 and times 300, have
    # intervals of every length, set by their length or by their log drop
    rng = np.random.default_rng(38)
    mixes = [STEEP, ContinuousMixture(6.0, [0.0, 1.0, 2.0, 2.5, 3.0, 6.0], [0.0, 0.4, -0.5, NEG_INF, -1.0, -2.5])]
    for M in (1.25, 3.0, 12.0, 64.0):
        for _ in range(3):
            mix = random_concave_mixture(rng, M)
            mixes += [mix, ContinuousMixture(M, mix.knots, 300.0 * mix.log_alpha)]
    skips = 0
    for mix in mixes:
        unit = mixtures.unit_scaled(mix)
        yielded = mixtures._layouts(unit)
        last = None
        for tier in panel_ladder():
            own = tier_layout(unit, tier)
            if last is not None and same_layout(own, last):
                skips += 1
                continue
            last = next(yielded)
            assert same_layout(own, last), (mix, tier)
        assert next(yielded, None) is None
    assert skips >= 6


def test_derivs_batch_across_tiers_equals_per_point(monkeypatch):
    mix = ContinuousMixture(6.5, [0.0, 1.0, 4.0, 6.5], [-0.5, 0.3, 0.1, -1.2])
    xs = np.array([0.5, 1e-8, 0.3, 1e-100, 2e-3, 1.0 - 1e-5, 1e-6, 0.97, 1.0 - 1e-8, 4e-4])
    log = LadderLog(monkeypatch)
    ev = ContinuousEvaluator(mix)
    f, d1, d2 = ev.forms(xs)[:3]
    # 1 - 1e-8 stops on the second tier and 1e-100 climbs to the sixth
    assert log.climbs_only_on_failure() and log.tiers == [1, 2, 4, 8, 16, 32]
    dens = ev.density(xs)
    for i, x in enumerate(xs):
        one = ContinuousEvaluator(mix).forms(xs[i : i + 1])[:3]
        np.testing.assert_array_equal(np.ravel(one), [f[i], d1[i], d2[i]])
        res = ContinuousEvaluator(mix).forms(float(x))
        assert (res.f, res.d1, res.d2) == (f[i], d1[i], d2[i])
        assert res.f == dens[i]


@pytest.mark.parametrize("M", [1.25, 12.0, 64.0, 200.0])
def test_tier_edges_against_quad_oracle(M):
    # just inside and just past the x where the kernel's tilt |log x -
    # log(1-x)| crosses 4, 8 and 12, on both sides of 1/2
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
    # one forms call integrates on each layout it climbs to once, the first
    # time a point's gap fails on the layout below, for just the points that
    # failed; nothing is integrated before the call
    log = LadderLog(monkeypatch)
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [0.0, 0.5, -1.0])
    ev = ContinuousEvaluator(mix)
    assert log.calls == []
    ev.forms(np.array([0.5, 1e-6, 0.4, 0.2, 1e-30, 1e-3, 0.6, 1.0 - 1e-3, 1e-100]))
    assert log.tiers == [1, 2, 4, 8, 16, 32]
    assert [x.size for _, x, _ in log.steps] == [9, 2, 2, 2, 1, 1]
    assert log.climbs_only_on_failure()


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
        # ends within 1e-12 M of 0 and M, put there, then out of order
        (3.0, [0.0, 3.0 + 1e-12, 3.0 + 2e-12], [0.0, 0.0, 0.0]),
        (3.0, [-2e-12, -1e-12, 3.0], [0.0, 0.0, 0.0]),
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
