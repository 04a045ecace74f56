"""Continuous f'/f, (log f)'', the Eq. 10 margin and log f, read off the posterior moments.

With t = x(1-x) and the mean m and variance V of the posterior over the
mixing index s, f'/f = (M(1-x) - m)/t, the margin is [m(M-m)/M - V]/t^2
and (log f)'' = -margin - (f'/f)^2/M; none of them reads f, so each is
finite where f underflows. The oracle is oracles.posterior_moments_mp.
"""

import functools
import json
import math

import mpmath
import numpy as np
import pytest

from betamix import ContinuousMixture, certify, margin_eq10, mixture_to_json
from betamix.cli import main
from betamix.mixtures import ContinuousEvaluator

from ladder import LadderLog
from oracles import posterior_moments_mp


def _gaussian_alpha(M, w, c):
    """Knots linspace(0, M, 33) with log alpha = -((s - cM)/(wM))^2 at each."""
    knots = np.linspace(0.0, M, 33)
    return ContinuousMixture(float(M), knots, -((knots - c * M) / (w * M)) ** 2)


@functools.lru_cache
def _oracle_forms(M, w, c, x):
    """(log f, f'/f, margin, (log f)'', m(M-m)/(M t^2)) of _gaussian_alpha(M, w, c) at x, from 30-digit posterior moments."""
    mix = _gaussian_alpha(M, w, c)
    log_f, m, V = posterior_moments_mp(mix.M, mix.knots, mix.log_alpha, x, dps=30)
    with mpmath.workdps(30):
        M, x = mpmath.mpf(mix.M), mpmath.mpf(x)
        t = x * (1 - x)
        score = (M * (1 - x) - m) / t
        margin = (m * (M - m) / M - V) / t**2
        return tuple(float(v) for v in (log_f, score, margin, -margin - score**2 / M, m * (M - m) / M / t**2))


# f underflows at 196, 290 and 16 of 1024 grid points (50, 73 and 4 of
# 256), where a margin formed from f, f' and f'' has no value
SKIPPED_POINT_INPUTS = [(2000, 0.01, 0.5), (2000, 0.02, 0.95), (400, 0.002, 0.5)]


def test_posterior_moment_oracle_reference_values():
    # computed at 30 digits apart from this oracle
    log_f, score, _, logcurv, _ = _oracle_forms(2000, 0.01, 0.5, 0.05)
    assert log_f == pytest.approx(-1049.2635504172235, rel=1e-15)
    assert score == pytest.approx(10128.749809499026, rel=1e-15)
    assert logcurv == pytest.approx(-140768.18544805346, rel=1e-15)


@pytest.mark.parametrize("M, w, c", SKIPPED_POINT_INPUTS)
def test_certificate_margin_is_finite_at_every_grid_point(M, w, c):
    mix = _gaussian_alpha(M, w, c)
    cert = certify(mix, grid_points=256)
    assert cert.verdict == "certified" and cert.notes == ()
    xs = np.linspace(1e-6, 1.0 - 1e-6, 256)
    f, *_, margin = ContinuousEvaluator(mix).forms(xs)
    assert np.count_nonzero(f == 0.0) > 0
    assert np.all(np.isfinite(margin))
    assert cert.min_margin_eq10 == np.min(margin) == margin_eq10(mix, cert.worst_x)
    # relative to m(M-m)/(M t^2), the margin's own scale, the certificate
    # is off the mpmath margin by 3.2e-15, 9.8e-11 and 0 on the three inputs;
    # the second is the node-range centring of V at M = 2000
    _, _, want, _, scale = _oracle_forms(M, w, c, cert.worst_x)
    assert abs(cert.min_margin_eq10 - want) <= 5e-10 * scale


def test_eval_log_columns_are_finite_where_f_underflows(tmp_path):
    mix = _gaussian_alpha(2000, 0.01, 0.5)
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(mixture_to_json(mix)))
    csv, js = tmp_path / "eval.csv", tmp_path / "eval.json"
    assert main(["eval", "--input", str(path), "--grid-points", "256", "--out", str(csv)]) == 0
    assert main(["eval", "--input", str(path), "--grid-points", "256", "--format", "json", "--out", str(js)]) == 0
    lines = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "x,f,d1,d2,log_f,log_d2"
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.count_nonzero(table[:, 1] == 0.0) > 0
    assert np.all(np.isfinite(table[:, 4:]))
    rows = json.loads(js.read_text())["rows"]
    assert len(rows) == 256 and all(None not in row for row in rows)
    np.testing.assert_array_equal(np.array(rows, dtype=float), table)
    # f underflows at x = 0.05, but its log forms match the 30-digit oracle
    res = ContinuousEvaluator(mix).forms(0.05)
    assert res.f == 0.0
    log_f, score, _, logcurv, _ = _oracle_forms(2000, 0.01, 0.5, 0.05)
    assert res.log_f == pytest.approx(log_f, rel=1e-14)
    assert res.log_d1 == pytest.approx(score, rel=1e-12)
    assert res.log_d2 == pytest.approx(logcurv, rel=1e-11)


@pytest.mark.parametrize("x", [1e-100, 1e-30, 1e-10])
def test_tiny_x_forms_against_the_posterior_moment_oracle(x):
    # flat alpha at M = 3: the points climb to 32, 8 and 2 panels per unit
    # of s; f, log f, f'/f, (log f)'' and the margin were measured within
    # 7.6e-14 of 40-digit moments, f at x = 1e-100 the farthest
    mix = ContinuousMixture(3.0, [0.0, 3.0], [0.0, 0.0])
    log_f, m, V = posterior_moments_mp(mix.M, mix.knots, mix.log_alpha, x, dps=30)
    with mpmath.workdps(30):
        M, xm = mpmath.mpf(mix.M), mpmath.mpf(x)
        t = xm * (1 - xm)
        score = (M * (1 - xm) - m) / t
        margin = (m * (M - m) / M - V) / t**2
        want = (mpmath.exp(log_f), log_f, score, -margin - score**2 / M, margin)
    res = ContinuousEvaluator(mix).forms(x)
    got = (res.f, res.log_f, res.log_d1, res.log_d2, res.margin)
    for g, w in zip(got, want):
        assert float(g) == pytest.approx(float(w), rel=3e-13)


def test_continuous_eval_builds_each_tier_table_once(monkeypatch, tmp_path):
    # alpha = e^700 is taken to its unit scale where the tables are built,
    # and its peak joins each point's log scale, so one set of tables gives
    # the linear values and the log forms alike; one forms call, alone or
    # under eval, builds each layout's table at most once, and only for
    # points whose gap failed on the layout below
    log = LadderLog(monkeypatch)
    huge = ContinuousMixture(2.0, [0.0, 2.0], [700.0, 700.0])
    res = ContinuousEvaluator(huge).forms(1e-6)
    assert math.isfinite(res.log_f) and res.d2 == -math.inf
    assert len(log.built) == 1
    log = LadderLog(monkeypatch)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(mixture_to_json(huge)))
    assert main(["eval", "--input", str(path), "--grid-points", "64", "--out", str(tmp_path / "e.csv")]) == 0
    assert len(log.built) == len(set(log.tiers_built)) and len(log.climbs()) == 1
    assert log.climbs_only_on_failure()


def test_continuous_certify_makes_one_moment_pass(monkeypatch):
    # the grid and the 64 off-grid points go through one forms call, with no
    # density call, and each layout's table is built at most once, only for
    # the points whose gap failed on the layout below; the margin at the off-grid
    # points is read off the moments, so it is finite where f underflows
    calls = []
    forms, density = ContinuousEvaluator.forms, ContinuousEvaluator.density

    def recording_forms(self, x):
        out = forms(self, x)
        calls.append(("forms", np.asarray(x), out))
        return out

    def recording_density(self, x):
        calls.append(("density", np.asarray(x), None))
        return density(self, x)

    monkeypatch.setattr(ContinuousEvaluator, "forms", recording_forms)
    monkeypatch.setattr(ContinuousEvaluator, "density", recording_density)
    log = LadderLog(monkeypatch)
    cert = certify(_gaussian_alpha(2000, 0.01, 0.5), grid_points=256)
    assert cert.verdict == "certified" and (cert.midpoint_checks, cert.midpoint_failures) == (64, 0)
    [(name, x, (f, *_, margin))] = calls
    assert name == "forms" and x.size == 256 + 64
    np.testing.assert_array_equal(x[:256], np.linspace(1e-6, 1.0 - 1e-6, 256))
    assert len(log.built) == len(set(log.tiers_built)) and len(log.climbs()) == 1
    assert log.climbs_only_on_failure()
    assert np.count_nonzero(f[256:] == 0.0) > 0
    assert np.all(np.isfinite(margin[256:]))
