import math

import numpy as np
import pytest
from mpmath import mp

from betamix import DomainError, gen_binom, gen_binom_ext, int_binom_exact, log_gamma
from betamix.special import log_abs_gen_binom_ext, log_gen_binom_grid

from oracles import pascal_triangle


@pytest.mark.parametrize(
    "x, expected",
    [(1.0, 0.0), (5.0, math.log(24.0)), (0.5, 0.5 * math.log(math.pi))],
)
def test_log_gamma_known_values(x, expected):
    assert log_gamma(x) == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_log_gamma_accuracy_against_mpmath():
    mp.dps = 40
    xs = np.logspace(-3, 4, 300)
    for x in xs:
        ref = float(mp.loggamma(mp.mpf(float(x))))
        got = log_gamma(float(x))
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_log_gamma_domain(x):
    with pytest.raises(DomainError):
        log_gamma(x)


def test_gen_binom_integer_case():
    assert gen_binom(4.0, 2.0) == pytest.approx(6.0, rel=1e-14)


def test_gen_binom_half_integer_case():
    # Gamma(3.5)/Gamma(0.5) = 1.875, Gamma(1.5)/Gamma(0.5) = 0.5, Gamma(3) = 2
    assert gen_binom(2.5, 0.5) == pytest.approx(1.875, rel=1e-13)


@pytest.mark.parametrize("M, s", [(2.0, -1.0), (2.0, 3.0), (2.0, -1.5), (2.0, 4.0)])
def test_gen_binom_domain(M, s):
    with pytest.raises(DomainError):
        gen_binom(M, s)


def test_gen_binom_positive_on_domain():
    rng = np.random.default_rng(0)
    for _ in range(300):
        M = rng.uniform(0.1, 50.0)
        s = rng.uniform(-1.0, M + 1.0)
        if not -1.0 < s < M + 1.0:
            continue
        assert gen_binom(M, s) > 0.0


def test_gen_binom_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(300):
        M = rng.uniform(0.5, 100.0)
        s = rng.uniform(-0.999, M + 0.999)
        assert gen_binom(M, s) == pytest.approx(gen_binom(M, M - s), rel=1e-12)


def test_gen_binom_ratio_identities():
    rng = np.random.default_rng(2)
    for _ in range(300):
        M = rng.uniform(1.1, 80.0)
        s = rng.uniform(-0.999, M - 0.001)
        assert gen_binom(M - 1.0, s) == pytest.approx(
            (M - s) / M * gen_binom(M, s), rel=1e-12
        )
        s = rng.uniform(0.001, M + 0.999)
        assert gen_binom(M - 1.0, s - 1.0) == pytest.approx(s / M * gen_binom(M, s), rel=1e-12)


def test_gen_binom_pascal_identity():
    # valid where all three coefficients are inside the positive domain,
    # kept a margin of 1e-6 away from its edges
    rng = np.random.default_rng(3)
    margin = 1e-6
    for _ in range(300):
        M = rng.uniform(1.5, 60.0)
        s = rng.uniform(margin, M - margin)
        total = gen_binom(M - 1.0, s) + gen_binom(M - 1.0, s - 1.0)
        assert gen_binom(M, s) == pytest.approx(total, rel=1e-12)


def test_gen_binom_matches_exact_integers():
    for M in range(1, 61):
        for i in range(0, M + 1, max(1, M // 7)):
            assert gen_binom(float(M), float(i)) == pytest.approx(
                int_binom_exact(M, i), rel=1e-12
            )


@pytest.mark.parametrize("M, i, expected", [(3, 1, 3), (3, -1, 0), (3, 4, 0), (0, 0, 1)])
def test_int_binom_exact_small(M, i, expected):
    assert int_binom_exact(M, i) == expected


def test_int_binom_exact_against_pascal():
    rows = pascal_triangle(60)
    assert int_binom_exact(60, 30) == rows[60][30]
    for m in range(61):
        for i in range(m + 1):
            assert int_binom_exact(m, i) == rows[m][i]


def test_int_binom_negative_order_is_zero():
    assert int_binom_exact(-1, 0) == 0
    assert int_binom_exact(-2, 3) == 0


def test_gen_binom_ext_matches_interior():
    rng = np.random.default_rng(4)
    for _ in range(200):
        M = rng.uniform(0.5, 30.0)
        s = rng.uniform(-0.999, M + 0.999)
        assert float(gen_binom_ext(M, s)) == pytest.approx(gen_binom(M, s), rel=1e-12)


def test_gen_binom_ext_zeros_and_signs():
    # zeros at integer offsets outside the domain, alternating signs between
    assert float(gen_binom_ext(2.0, -1.0)) == 0.0
    assert float(gen_binom_ext(2.0, 3.0)) == 0.0
    assert float(gen_binom_ext(2.0, -2.0)) == 0.0
    assert float(gen_binom_ext(2.0, -1.5)) < 0.0
    assert float(gen_binom_ext(2.0, -2.5)) > 0.0
    assert float(gen_binom_ext(2.0, 3.5)) < 0.0
    # reflection symmetry survives the continuation
    vals = gen_binom_ext(2.0, np.array([-1.5, 3.5]))
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_gen_binom_ext_against_mpmath():
    mp.dps = 40
    for m, s in [(2.0, -1.5), (3.5, -0.3), (3.5, 4.2), (0.5, 1.2), (1.5, -1.9)]:
        ref = float(mp.gamma(m + 1) * mp.rgamma(s + 1) * mp.rgamma(m - s + 1))
        assert float(gen_binom_ext(m, s)) == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_log_grid_edges_go_to_zero():
    vals = log_gen_binom_grid(2.0, np.array([-1.0, 3.0]))
    assert np.all(np.isneginf(vals))
    log_abs, _ = log_abs_gen_binom_ext(2.0, np.array([-1.0, -2.0, 3.0]))
    assert np.all(np.isneginf(log_abs))


def test_log_abs_gen_binom_ext_takes_one_order_per_point():
    # an array of orders gives, point by point, what each scalar order gives
    orders = np.array([-0.5, 0.5, 2.0, 3.5, 18.0])
    s = np.array([-1.5, 0.3, 4.2, -0.7, 9.1])
    log_abs, sign = log_abs_gen_binom_ext(orders, s)
    for m, point, la, sg in zip(orders, s, log_abs, sign):
        want = log_abs_gen_binom_ext(float(m), np.array([point]))
        assert (la, sg) == (want[0][0], want[1][0])
    with pytest.raises(DomainError):
        log_abs_gen_binom_ext(np.array([2.0, -1.0]), np.array([0.5, 0.5]))
