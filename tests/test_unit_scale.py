"""The weight scale is taken out inside the evaluators.

Log-concavity, the Eq. 10 margin, f'/f and (log f)'' do not change when the
weights are multiplied by a constant. Every log, ratio and midpoint check
reads the unit-scaled mixture (mixtures.unit_scaled), and every discrete
ratio comes from mixtures.discrete_derivs_grid, so a power-of-two weight
scale leaves them bitwise unchanged and moves the linear values by exactly
that power.
"""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from betamix import (
    ContinuousMixture,
    DiscreteMixture,
    brute_force_logconcavity,
    cdf,
    certify,
    margin_eq10,
    mixture_to_json,
    normalization,
    random_concave_mixture,
    random_log_concave_weights,
    sample,
)
from betamix.cli import main
from betamix.mixtures import ContinuousEvaluator, discrete_derivs_grid

_E200 = np.eye(401)[200]


def _e200_curvature(x):
    # f = C(400, 200) (x(1-x))^200 up to the weight, so (log f)'' has a closed form
    return -200.0 / x**2 - 200.0 / (1.0 - x) ** 2


def _eval_columns(tmp_path, mix, grid_points, name="mix"):
    """The columns of `betamix eval` on mix, as parsed floats keyed by name."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"M": mix.M, "weights": mix.weights.tolist()}))
    out = tmp_path / f"{name}.csv"
    assert main(["eval", "--input", str(path), "--grid-points", str(grid_points), "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    cells = list(zip(*(line.split(",") for line in lines[1:])))
    return {n: np.array([float(c) for c in col]) for n, col in zip(names, cells)}


# ---------------------------------------------------------------------------
# defects of evaluating off the unit scale


@pytest.mark.parametrize("seed", [0, 1])
def test_certify_checks_midpoints_on_the_unit_scaled_mixture(seed, tmp_path):
    # at weight 1e-305 the unscaled density is subnormal over most of (0, 1),
    # and the midpoint checks read wrong digits there (2 and 1 failures on
    # seeds 0 and 1); on the unit-scaled weights they read the true density
    tiny = certify(DiscreteMixture(400, 1e-305 * _E200), seed=seed)
    unit = certify(DiscreteMixture(400, _E200), seed=seed)
    assert unit.certified
    assert tiny.certified and tiny.midpoint_failures == 0 and tiny.witness is None
    assert tiny.min_margin_eq10 == pytest.approx(unit.min_margin_eq10, rel=1e-13)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"M": 400, "weights": (1e-305 * _E200).tolist()}))
    assert main(["certify", "--input", str(path), "--seed", str(seed), "--out", str(tmp_path / "c.json")]) == 0


def test_brute_force_reads_the_unit_scaled_mixture():
    tiny = DiscreteMixture(400, 1e-305 * _E200)
    for seed in range(3):
        assert brute_force_logconcavity(tiny, samples=1000, seed=seed)["ok"]
    assert brute_force_logconcavity(DiscreteMixture(400, _E200), samples=1000, seed=0)["ok"]


def test_eval_of_huge_weights_keeps_f_second_derivative_finite(tmp_path):
    # M(M-1) times the second weight difference overflows at weight 1e305
    # unless the weights are scaled first; f'' itself is 4.08e293 at x = 0.3
    big = DiscreteMixture(400, 1e305 * _E200)
    res = discrete_derivs_grid(big, 0.3)
    unit = discrete_derivs_grid(DiscreteMixture(400, _E200), 0.3)
    assert res.d2 == pytest.approx(1e305 * unit.d2, rel=1e-12)
    assert res.log_d2 == pytest.approx(_e200_curvature(0.3), rel=1e-12)
    cols = _eval_columns(tmp_path, big, 8)
    assert np.all(np.isfinite(cols["d2"]))
    live = np.isfinite(cols["log_f"])
    assert live.sum() == 6
    np.testing.assert_allclose(cols["log_d2"][live], _e200_curvature(cols["x"][live]), rtol=1e-11)


def test_log_forms_of_subnormal_densities_are_finite(tmp_path):
    # at weight 1e-305, f(0.3) is about 3e-322, a subnormal; its log forms
    # come from the unit-scaled weights, where f is normal
    tiny = DiscreteMixture(400, 1e-305 * _E200)
    res = discrete_derivs_grid(tiny, 0.3)
    unit = discrete_derivs_grid(DiscreteMixture(400, _E200), 0.3)
    assert res.log_d2 == pytest.approx(_e200_curvature(0.3), rel=1e-12)
    assert res.log_d1 == pytest.approx(unit.log_d1, rel=1e-12)
    assert res.log_f == pytest.approx(unit.log_f + math.log(1e-305), rel=1e-14)
    cols = _eval_columns(tmp_path, tiny, 8)
    live = np.isfinite(cols["log_f"])
    assert live.sum() == 6
    np.testing.assert_allclose(cols["log_d2"][live], _e200_curvature(cols["x"][live]), rtol=1e-11)


def test_continuous_eval_log_forms_come_from_the_unit_scaled_mixture(tmp_path):
    # alpha = e^700 overflows f'' near x = 0 and 1, but log f and (log f)''
    # are formed on the unit-scaled alpha, so (log f)'' is that of alpha = 1
    # and log f is shifted back by 700, with no RuntimeWarning
    huge = ContinuousMixture(2.0, [0.0, 2.0], [700.0, 700.0])
    unit = ContinuousMixture(2.0, [0.0, 2.0], [0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, want = ContinuousEvaluator(huge).forms(1e-6), ContinuousEvaluator(unit).forms(1e-6)
        assert res.d2 == -math.inf
        assert res.log_d2 == want.log_d2 == pytest.approx(-7.3171793050533e10, rel=1e-12)
        assert res.log_d1 == want.log_d1
        assert res.log_f == pytest.approx(want.log_f + 700.0, rel=1e-15)
        tables = {}
        for name, mix in (("huge", huge), ("unit", unit)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(mixture_to_json(mix)))
            out = tmp_path / f"{name}.csv"
            assert main(["eval", "--input", str(path), "--grid-points", "8", "--out", str(out)]) == 0
            lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            tables[name] = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    x, log_f, log_d2 = tables["huge"][:, [0, 4, 5]].T
    np.testing.assert_array_equal(log_d2, tables["unit"][:, 5])
    np.testing.assert_allclose(log_f, tables["unit"][:, 4] + 700.0, rtol=1e-15)
    assert log_d2[0] == res.log_d2 and x[0] == 1e-6


# ---------------------------------------------------------------------------
# a power-of-two weight scale changes no verdict, ratio or draw


def _unit_peak_inputs():
    """Discrete weights peaking at exactly 1, each nonzero weight at least 2^-20."""
    rng = np.random.default_rng(18)
    out = []
    for M, zero_edges in ((5, False), (40, True), (150, False)):
        w = random_log_concave_weights(rng, M, zero_edges=zero_edges)
        out.append(np.where(w >= 2.0**-20, w, 0.0))
    bump = lambda c: np.exp(-0.5 * ((np.arange(61) - c) / 4.0) ** 2)
    bimodal = bump(15.0) + 0.5 * bump(45.0)
    out.append(np.where(bimodal >= 2.0**-20, bimodal, 0.0) / np.max(bimodal))
    assert all(np.max(w) == 1.0 for w in out)
    return out


@pytest.mark.parametrize("j", [-1000, -300, -1])
@pytest.mark.parametrize("index", range(4))
def test_power_of_two_weight_scale_changes_no_ratio(j, index, tmp_path):
    w = _unit_peak_inputs()[index]
    unit = DiscreteMixture(len(w) - 1, w)
    scaled = DiscreteMixture(len(w) - 1, np.ldexp(w, j))
    assert np.min(scaled.weights[scaled.weights > 0.0]) >= np.finfo(float).tiny
    assert repr(certify(scaled, grid_points=256, seed=5)) == repr(certify(unit, grid_points=256, seed=5))
    assert brute_force_logconcavity(scaled, 300, seed=6) == brute_force_logconcavity(unit, 300, seed=6)
    np.testing.assert_array_equal(sample(scaled, 500, seed=7), sample(unit, 500, seed=7))

    def normal_equal(got, want):
        keep = np.abs(got) >= np.finfo(float).tiny
        np.testing.assert_array_equal(got[keep], np.ldexp(want, j)[keep])

    def log_shifted(got, want):
        live = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), live)
        shifted = want[live] + j * math.log(2.0)
        assert np.all(np.abs(got[live] - shifted) <= 4.0 * np.spacing(np.abs(shifted)))

    for x in (0.05, 0.3, 0.5, 0.77, 0.999):
        a, b = discrete_derivs_grid(scaled, x), discrete_derivs_grid(unit, x)
        assert repr((a.log_d1, a.log_d2)) == repr((b.log_d1, b.log_d2))
        assert repr(margin_eq10(scaled, x)) == repr(margin_eq10(unit, x))
        for got, want in ((a.f, b.f), (a.d1, b.d1), (a.d2, b.d2)):
            normal_equal(np.array([got]), np.array([want]))
        log_shifted(np.array([a.log_f]), np.array([b.log_f]))
    got, want = _eval_columns(tmp_path, scaled, 64, "scaled"), _eval_columns(tmp_path, unit, 64, "unit")
    np.testing.assert_array_equal(got["log_d2"], want["log_d2"])
    for name in ("f", "d1", "d2"):
        normal_equal(got[name], want[name])
    log_shifted(got["log_f"], want["log_f"])


def test_normalization_and_cdf_are_finite_wherever_their_values_are():
    # the sum of the weights overflowed for the discrete mixture; math.exp of
    # alpha's peak for the continuous ones returned inf (709) and raised
    # OverflowError (710)
    disc = DiscreteMixture(3, [1e308] * 4)
    assert normalization(disc) == 1e308
    assert cdf(disc, 1.0) == pytest.approx(1e308, rel=1e-14)
    # equal weights make the density the constant weight, so cdf(x) = 1e308 x
    assert cdf(disc, 0.5) == pytest.approx(5e307, rel=1e-14)
    for peak in (709.0, 710.0):
        cont = ContinuousMixture(3.0, [0.0, 3.0], [peak, peak])
        # integral alpha / (M+1) = 3 e^peak / 4; by symmetry half lies below 1/2
        want = float(mpmath.mpf(0.75) * mpmath.exp(peak))
        assert normalization(cont) == pytest.approx(want, rel=1e-12)
        assert cdf(cont, 1.0) == pytest.approx(want, rel=1e-12)
        assert cdf(cont, 0.5) == pytest.approx(want / 2.0, rel=1e-12)
    # only a value past the double range reads inf, with no overflow warning
    assert normalization(ContinuousMixture(3.0, [0.0, 3.0], [800.0, 800.0])) == math.inf
    # alpha integrates in closed form over each interval, (1 - e^-D)/D times
    # its length and larger value: a log drop of 3000 or 1e6 across one
    # interval (where a quadrature failed its Gauss-Kronrod gate) and an
    # order of 1e18 (where one needed 2e19 nodes)
    assert normalization(ContinuousMixture(3.0, [0.0, 3.0], [0.0, -3000.0])) == pytest.approx(2.5e-4, rel=1e-15)
    mix = ContinuousMixture(3.0, [0.0, 1.0, 3.0], [0.0, -1e6, -1e6 - 1.0])
    assert normalization(mix) == pytest.approx(2.5e-7, rel=1e-15)
    assert normalization(ContinuousMixture(1e18, [0.0, 1e18], [0.0, 0.0])) == 1e18 / (1e18 + 1.0)


# ---------------------------------------------------------------------------
# one formula for the certificate, the margin and the eval columns


def test_margin_eq10_at_the_worst_point_is_the_certificate_margin():
    rng = np.random.default_rng(9)
    w = 0.3 * random_log_concave_weights(rng, 60)
    cont = random_concave_mixture(rng, M=7.5)
    cont = ContinuousMixture(cont.M, cont.knots, cont.log_alpha + 3.7)
    for mix in (DiscreteMixture(60, w), cont):
        cert = certify(mix, grid_points=256)
        assert cert.certified
        assert repr(margin_eq10(mix, cert.worst_x)) == repr(cert.min_margin_eq10)


def test_discrete_derivs_log_curvature_is_the_eval_cell(tmp_path):
    rng = np.random.default_rng(10)
    mix = DiscreteMixture(80, 0.01 * random_log_concave_weights(rng, 80))
    cols = _eval_columns(tmp_path, mix, 16)
    for x, cell in zip(cols["x"][1:-1], cols["log_d2"][1:-1]):
        assert repr(float(discrete_derivs_grid(mix, float(x)).log_d2)) == repr(float(cell))
