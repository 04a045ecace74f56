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

from betamix import ContinuousMixture, certify, margin_eq10, mixture_to_json, random_concave_mixture
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


# Stored 40-digit posterior moments (m, V) at stated points, each from
# oracles.posterior_moments_mp(M, knots, log_alpha, x, dps=40) and printed
# by mpmath.nstr(v, 40) inside mpmath.workdps(40). The mixtures: "flat",
# alpha = 1 on [0, 2] at the worst_x of test_certify's alpha-scale test;
# "draw k", random_concave_mixture(np.random.default_rng(k), m_range=(2.5,
# 12.0)) at its certify worst_x (grid 1024), its M stored to catch a
# changed draw; "gauss", 9 equally spaced knots on [0, 1000] with log alpha
# = -3((s - 0.4M)/(0.3M))^2, at the worst_x where a single-accumulator sum
# read -9.45e-7 (ROADMAP item 2). The bound is on the margin's own scale
# m(M-m)/(M t^2), in units of eps. Dot products over node chunks measured
# at most 2.4 eps at the small orders and 3411 eps at M = 1000; an einsum
# moment pass measured 10.5 and 123 158 eps.
STORED_MOMENTS = [
    ("flat", 2.0, 0.49206350793650794,
     "1.008789932953613571288258300567835903018", "0.2768341864519153688663316243360548659424", 8),
    ("draw 1", 7.137694565347561, 0.5425219090909091,
     "1.971511024139031389632615817992079898192", "1.054904362623322605449550684695279713098", 8),
    ("draw 2", 9.514684724631493, 0.3362662121212121,
     "3.503220227198808633510985857149944832027", "2.141439155107294706575174248834620744319", 8),
    ("draw 3", 11.186332912135569, 0.44183784848484847,
     "3.06260699566592257739884221874685430794", "2.08411048016246891902384431877486478614", 8),
    ("draw 4", 3.0409669970625073, 0.5034213030303031,
     "1.906130704556546243857496781453646004126", "0.4238918941557630155565040453217818155427", 8),
    ("gauss", 1000.0, 0.9696960303030303,
     "30.97218014258346317757463668285585755293", "30.01290419979421483034992721877545720044", 10_000),
]


def _stored_mixture(name, M):
    if name == "flat":
        return ContinuousMixture(2.0, [0.0, 2.0], [0.0, 0.0])
    if name == "gauss":
        knots = np.linspace(0.0, M, 9)
        return ContinuousMixture(M, knots, -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2)
    mix = random_concave_mixture(np.random.default_rng(int(name.split()[1])), m_range=(2.5, 12.0))
    assert mix.M == M, "the draw changed: recompute its stored moments"
    return mix


@pytest.mark.parametrize("name, M, x, m, V, bound", STORED_MOMENTS, ids=[p[0] for p in STORED_MOMENTS])
def test_margin_against_stored_40_digit_moments(name, M, x, m, V, bound):
    got = ContinuousEvaluator(_stored_mixture(name, M)).forms(x).margin
    with mpmath.workdps(40):
        M, x, m, V = (mpmath.mpf(v) for v in (M, x, m, V))
        t = x * (1 - x)
        want, scale = (m * (M - m) / M - V) / t**2, m * (M - m) / M / t**2
        err = float(abs(mpmath.mpf(float(got)) - want) / scale)
    assert err <= bound * np.finfo(float).eps


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
    # alpha = e^700 is taken to its unit scale where the moments are formed,
    # and its peak joins each point's log scale, so one moment pass per
    # layout gives the linear values and the log forms alike; one forms
    # call, alone or under eval, integrates on each layout at most once,
    # and only for points whose gap failed on the layout below
    log = LadderLog(monkeypatch)
    huge = ContinuousMixture(2.0, [0.0, 2.0], [700.0, 700.0])
    res = ContinuousEvaluator(huge).forms(1e-6)
    assert math.isfinite(res.log_f) and res.d2 == -math.inf
    assert len(log.calls) == 1
    log = LadderLog(monkeypatch)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(mixture_to_json(huge)))
    assert main(["eval", "--input", str(path), "--grid-points", "64", "--out", str(tmp_path / "e.csv")]) == 0
    assert len(log.tiers) == len(set(log.tiers)) and len(log.climbs()) == 1
    assert log.climbs_only_on_failure()


def test_continuous_certify_makes_one_moment_pass(monkeypatch):
    # the grid and the 64 off-grid points go through one forms call, with no
    # density call, and each layout is integrated on at most once, only for
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
    assert len(log.tiers) == len(set(log.tiers)) and len(log.climbs()) == 1
    assert log.climbs_only_on_failure()
    assert np.count_nonzero(f[256:] == 0.0) > 0
    assert np.all(np.isfinite(margin[256:]))
