"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (a pytest failure is the corresponding fail line).
"""

import math
import time

import numpy as np
import pytest

from betamix import (
    DiscreteMixture,
    certify,
    coefficient_inequality_12,
    continuous_lemma_sweep,
    core_inequalities_discrete,
    discrete_lemma_sweep,
    find_kernel_failure,
    kernel_log_curvature,
    random_concave_mixture,
    random_log_concave_weights,
    sample,
    sharpness_check,
)
from betamix.lemmas import _window_interval
from betamix.mixtures import ContinuousEvaluator, discrete_density_grid, discrete_derivs_grid

from oracles import binom_ext_oracle, riemann


def _report(k, message):
    print(f"ACCEPTANCE {k:>2} PASS: {message}")


def test_criterion_01_uniform_weights_identity():
    start = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 1024)
    worst = 0.0
    for M in (1, 2, 10, 50):
        g = discrete_density_grid(DiscreteMixture(M, np.ones(M + 1)), xs)
        worst = max(worst, float(np.max(np.abs(g - 1.0))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"uniform-weight density is 1 to {worst:.2e} on 1024 points ({elapsed:.2f}s)")


def test_criterion_02_geometric_tightness():
    start = time.perf_counter()
    worst = 0.0
    for M in (2, 10, 100):
        for r in (0.5, 2.0, 5.0):
            worst = max(worst, sharpness_check(M, r, grid_points=1024))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 2.0
    _report(2, f"geometric weights: max |curvature margin| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_discrete_certification_at_scale():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = np.inf
    for _ in range(100):
        M = int(rng.integers(1, 65))
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        cert = certify(mix)
        assert cert.verdict == "certified"
        assert cert.min_margin_eq10 >= -1e-9
        assert cert.midpoint_checks == 64 and cert.midpoint_failures == 0
        worst = min(worst, cert.min_margin_eq10)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"100 log-concave weight vectors certified, worst margin {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_04_hypothesis_necessity():
    mix = DiscreteMixture(2, [1.0, 0.01, 1.0])
    assert float(discrete_density_grid(mix, 0.25)) == pytest.approx(0.62875, abs=1e-15)
    assert float(discrete_density_grid(mix, 0.75)) == pytest.approx(0.62875, abs=1e-15)
    assert float(discrete_density_grid(mix, 0.5)) == pytest.approx(0.505, abs=1e-15)
    assert 0.62875**2 > 0.505**2
    cert = certify(mix)
    assert cert.verdict == "violated"
    assert abs(cert.worst_x - 0.5) < 0.1
    assert cert.witness is not None
    _report(4, f"known counterexample violated at worst_x = {cert.worst_x:.4f}")


def test_criterion_05_discrete_lemma_sweep():
    start = time.perf_counter()
    cases = discrete_lemma_sweep(max_M=12)
    failures = [c for c in cases if not (c.holds and c.margin >= 0)]
    assert not failures
    vandermonde = 0
    for case in cases:
        if case.window <= 0 and case.which in ("ineq2p1", "ineq2p2"):
            expected = math.comb(2 * int(case.M) - 2, int(case.n))
            assert case.lhs == expected and case.rhs == expected
            vandermonde += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, f"{len(cases)} exact cases hold, {vandermonde} full-range equalities ({elapsed:.2f}s)")


def test_criterion_06_continuous_lemma_sweep():
    start = time.perf_counter()
    cases = continuous_lemma_sweep(count=50, seed=0)
    for case in cases:
        assert case.holds, case

    spot_checked = 0
    for case in cases:
        if spot_checked >= 20:
            break
        scale = max(abs(case.lhs), abs(case.rhs))
        if scale < 1e-3:
            continue
        M, n, r = case.M, case.n, int(case.which == "ineq6")
        lo, hi, _ = _window_interval(M, n, case.window, case.which)
        lhs_ref = riemann(lambda s: binom_ext_oracle(M - 1, s) * binom_ext_oracle(M - 1, n - s), lo, hi)
        rhs_ref = riemann(lambda s: binom_ext_oracle(M, s + r) * binom_ext_oracle(M - 2, n - s - r), lo, hi)
        assert case.lhs == pytest.approx(lhs_ref, rel=1e-6)
        assert case.rhs == pytest.approx(rhs_ref, rel=1e-6, abs=1e-12)
        spot_checked += 1
    elapsed = time.perf_counter() - start
    assert spot_checked == 20
    assert elapsed < 30.0
    _report(6, f"150 quadrature cases hold to 1e-7; 20 Riemann spot checks agree ({elapsed:.2f}s)")


def test_criterion_07_continuous_certification_at_scale():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = np.inf
    fd_checked = 0
    for _ in range(50):
        mix = random_concave_mixture(rng, m_range=(2.0, 20.0))
        assert 2.0 < mix.M <= 20.0 and len(mix.knots) - 1 <= 16
        cert = certify(mix, grid_points=512)
        assert cert.verdict == "certified"
        assert cert.criterion == "curvature-margin"
        assert cert.min_margin_eq10 >= -1e-9
        worst = min(worst, cert.min_margin_eq10)

        ev = ContinuousEvaluator(mix)
        M = mix.M
        for x in rng.uniform(0.05, 0.95, 2):
            pts = np.array([x - 1e-5, x, x + 1e-5])
            f3 = ev.density(pts)
            d1 = float(ev.d1(pts[1:2])[0])
            d2 = float(ev.d2(pts[1:2])[0])
            fd1 = (f3[2] - f3[0]) / 2e-5
            fd2 = (f3[2] - 2.0 * f3[1] + f3[0]) / 1e-10
            assert abs(d1 - fd1) <= 1e-5 * max(abs(fd1), M * f3[1])
            assert abs(d2 - fd2) <= 1e-5 * max(abs(fd2), M * (M - 1) * f3[1])
            fd_checked += 1
    elapsed = time.perf_counter() - start
    assert fd_checked == 100
    assert elapsed < 60.0
    _report(7, f"50 continuous mixtures certified, worst margin {worst:.2e}; "
               f"100 finite-difference checks pass ({elapsed:.1f}s)")


def test_criterion_08_kernel_failure_regime():
    rng = np.random.default_rng(7)
    orders = (2.0, 5.0, 10.0)
    for i in range(20):
        M = orders[i % 3]
        if rng.random() < 0.5:
            s = rng.uniform(-1.0, 0.0)
            if s in (-1.0, 0.0):
                s = -0.5
        else:
            s = M + rng.uniform(0.0, 1.0)
            if s in (M, M + 1.0):
                s = M + 0.5
        x = find_kernel_failure(M, s)
        assert x is not None and 0.0 < x < 1.0
        assert kernel_log_curvature(M, s, x) > 0.0
    for i in range(20):
        M = orders[i % 3]
        s = rng.uniform(0.0, M)
        assert find_kernel_failure(M, s) is None
    _report(8, "kernel failures found outside [0, M], none inside, 20 draws each")


def test_criterion_09_coefficient_level_consistency():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = int(rng.integers(2, 13))
        w = random_log_concave_weights(rng, M)
        mix = DiscreteMixture(M, w)
        diffs = [coefficient_inequality_12(w, M, n) for n in range(0, 2 * M - 1)]
        for x in rng.uniform(0.05, 0.95, 20):
            g, d1, d2 = discrete_derivs_grid(mix, np.array([x]))[:3]
            target = ((M - 1) / M) * d1[0] ** 2 - g[0] * d2[0]
            total = M * (M - 1) * sum(
                (lhs - rhs) * (1.0 - x) ** n * x ** (2 * M - 2 - n)
                for n, (lhs, rhs) in enumerate(diffs)
            )
            assert total == pytest.approx(target, rel=1e-9, abs=1e-12)
        for n in range(0, 2 * M - 1):
            for which in (13, 14, 15):
                lhs, rhs = core_inequalities_discrete(w, M, n, which)
                scale = max(1.0, abs(lhs), abs(rhs))
                if which == 14:
                    assert lhs <= rhs + 1e-10 * scale
                else:
                    assert lhs >= rhs - 1e-10 * scale
    _report(9, "curvature margin rebuilt coefficientwise for 20 weight vectors")


def test_criterion_10_sampler_sanity():
    draws = sample(DiscreteMixture(2, [1.0, 1.0, 1.0]), 100_000, seed=0)
    xs = np.sort(draws)
    n = xs.size
    ks = max(
        float(np.max(np.arange(1, n + 1) / n - xs)), float(np.max(xs - np.arange(0, n) / n))
    )
    assert ks <= 0.01

    spike = np.zeros(6)
    spike[2] = 1.0
    mean = sample(DiscreteMixture(5, spike), 100_000, seed=0).mean()
    assert abs(mean - 4.0 / 7.0) < 0.01
    _report(10, f"uniform KS distance {ks:.4f}; spike mean {mean:.4f} vs 4/7")
