import numpy as np
import pytest
from mpmath import mp

import math

from betamix import DomainError
from betamix.lemmas import _binomial_row
from betamix.special import log_abs_gen_binom_ext, log_gen_binom_grid

from oracles import pascal_triangle


def _binom(M, s):
    """Gamma(M+1)/(Gamma(s+1) Gamma(M-s+1)) elementwise, read off log_gen_binom_grid."""
    return np.exp(log_gen_binom_grid(M, s))


def _binom_ext(M, s):
    """The extension beyond -1 < s < M+1 elementwise, read off log_abs_gen_binom_ext."""
    log_abs, sign = log_abs_gen_binom_ext(M, s)
    return sign * np.exp(log_abs)


def _mp_binom_ext(m, s):
    return float(mp.gamma(m + 1) * mp.rgamma(s + 1) * mp.rgamma(m - s + 1))


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_log_gamma_domain(x):
    # the extension's Gamma(M+1) factor needs x = M + 1 > 0
    with pytest.raises(DomainError):
        log_abs_gen_binom_ext(x - 1.0, np.array([0.5]))


def test_gen_binom_integer_case():
    assert _binom(4.0, 2.0) == pytest.approx(6.0, rel=1e-14)


def test_gen_binom_half_integer_case():
    # Gamma(3.5)/Gamma(0.5) = 1.875, Gamma(1.5)/Gamma(0.5) = 0.5, Gamma(3) = 2
    assert _binom(2.5, 0.5) == pytest.approx(1.875, rel=1e-13)


@pytest.mark.parametrize("M, s", [(2.0, -1.0), (2.0, 3.0), (2.0, -1.5), (2.0, 4.0)])
def test_gen_binom_domain(M, s):
    # at and past the edges of the positive domain -1 < s < M+1 the
    # coefficient is the extension: 0 at the integer offsets, signed between
    mp.dps = 40
    assert float(_binom_ext(M, s)) == pytest.approx(_mp_binom_ext(M, s), rel=1e-12, abs=1e-300)
    assert (float(_binom_ext(M, s)) == 0.0) == (s == int(s))
    if s in (-1.0, M + 1.0):
        assert np.isneginf(log_gen_binom_grid(M, s))


def test_gen_binom_positive_on_domain():
    rng = np.random.default_rng(0)
    M = rng.uniform(0.1, 50.0, 300)
    s = rng.uniform(-1.0, M + 1.0)
    inside = (-1.0 < s) & (s < M + 1.0)
    assert np.all(_binom(M[inside], s[inside]) > 0.0)
    assert np.all(log_abs_gen_binom_ext(M[inside], s[inside])[1] == 1.0)


def test_gen_binom_symmetry():
    rng = np.random.default_rng(1)
    M = rng.uniform(0.5, 100.0, 300)
    s = rng.uniform(-0.999, M + 0.999)
    np.testing.assert_allclose(_binom(M, s), _binom(M, M - s), rtol=1e-12, atol=0.0)


def test_gen_binom_ratio_identities():
    rng = np.random.default_rng(2)
    M = rng.uniform(1.1, 80.0, 300)
    s = rng.uniform(-0.999, M - 0.001)
    np.testing.assert_allclose(_binom(M - 1.0, s), (M - s) / M * _binom(M, s), rtol=1e-12, atol=0.0)
    s = rng.uniform(0.001, M + 0.999)
    np.testing.assert_allclose(_binom(M - 1.0, s - 1.0), s / M * _binom(M, s), rtol=1e-12, atol=0.0)


def test_gen_binom_pascal_identity():
    # valid where all three coefficients are inside the positive domain,
    # kept a margin of 1e-6 away from its edges
    rng = np.random.default_rng(3)
    margin = 1e-6
    M = rng.uniform(1.5, 60.0, 300)
    s = rng.uniform(margin, M - margin)
    total = _binom(M - 1.0, s) + _binom(M - 1.0, s - 1.0)
    np.testing.assert_allclose(_binom(M, s), total, rtol=1e-12, atol=0.0)


def test_gen_binom_matches_exact_integers():
    for M in range(1, 61):
        i = np.arange(0, M + 1, max(1, M // 7))
        want = [math.comb(M, int(k)) for k in i]
        np.testing.assert_allclose(_binom(float(M), i), want, rtol=1e-12, atol=0.0)


# the exact binomials of the lemma layer: lemmas._binomial_row(m, u, length)
# is [u_i C(m, i) for i < length], zero past m and for m < 0


def _row(m, length):
    return _binomial_row(m, [1] * length, length)


@pytest.mark.parametrize("M, i, expected", [(3, 1, 3), (3, 4, 0), (0, 0, 1)])
def test_int_binom_exact_small(M, i, expected):
    assert _row(M, i + 1)[i] == expected


def test_int_binom_exact_against_pascal():
    rows = pascal_triangle(60)
    assert _row(60, 61)[30] == rows[60][30]
    for m in range(61):
        assert _row(m, m + 3) == rows[m] + [0, 0]


def test_int_binom_negative_order_is_zero():
    assert _row(-1, 1) == [0]
    assert _row(-2, 4) == [0, 0, 0, 0]


def test_gen_binom_ext_matches_interior():
    rng = np.random.default_rng(4)
    M = rng.uniform(0.5, 30.0, 200)
    s = rng.uniform(-0.999, M + 0.999)
    np.testing.assert_allclose(_binom_ext(M, s), _binom(M, s), rtol=1e-12, atol=0.0)
    mp.dps = 40
    np.testing.assert_allclose(_binom_ext(M, s), [_mp_binom_ext(m, t) for m, t in zip(M, s)], rtol=1e-12, atol=0.0)


def test_gen_binom_ext_zeros_and_signs():
    # zeros at integer offsets outside the domain, alternating signs between
    assert float(_binom_ext(2.0, -1.0)) == 0.0
    assert float(_binom_ext(2.0, 3.0)) == 0.0
    assert float(_binom_ext(2.0, -2.0)) == 0.0
    assert float(_binom_ext(2.0, -1.5)) < 0.0
    assert float(_binom_ext(2.0, -2.5)) > 0.0
    assert float(_binom_ext(2.0, 3.5)) < 0.0
    # reflection symmetry survives the continuation
    vals = _binom_ext(2.0, np.array([-1.5, 3.5]))
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_gen_binom_ext_against_mpmath():
    mp.dps = 40
    for m, s in [(2.0, -1.5), (3.5, -0.3), (3.5, 4.2), (0.5, 1.2), (1.5, -1.9)]:
        assert float(_binom_ext(m, s)) == pytest.approx(_mp_binom_ext(m, s), rel=1e-12, abs=1e-300)


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
