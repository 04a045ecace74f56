import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from betamix import (
    DiscreteMixture,
    DomainError,
    QuadratureError,
    brute_force_logconcavity,
    certify,
    check_majorization,
    coefficient_inequality_12,
    continuous_lemma_sweep,
    core_inequalities_discrete,
    discrete_lemma_sweep,
    lemma2_continuous,
    lemma2_discrete,
    random_log_concave_weights,
)
from betamix import lemmas, quadrature
from betamix.lemmas import CONTINUOUS_WHICH, _window_interval, lemma2_continuous_cases, midpoint_check, midpoint_triples
from betamix.mixtures import discrete_derivs_grid
from betamix.quadrature import panel_nodes

from oracles import (
    binom_ext_oracle,
    coefficient_sides_fraction,
    discrete_derivs_oneshot,
    lemma2_continuous_mp,
    lemma2_discrete_sums,
    riemann,
)


# ---------------------------------------------------------------------------
# majorization


def test_majorization_identical_sides():
    out = check_majorization([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 0.5, 1.0], [2.0, 0.5, 1.0])
    assert out["hypotheses_ok"]
    assert out["conclusion_ok"]
    assert out["lhs"] == pytest.approx(out["rhs"])


def test_majorization_hand_example():
    out = check_majorization([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0])
    assert out["hypotheses_ok"]
    assert out["conclusion_ok"]
    assert out["lhs"] == pytest.approx(6.0)
    assert out["rhs"] == pytest.approx(2.0)


def test_majorization_reports_broken_hypotheses():
    # running sums of v exceed those of u up front
    out = check_majorization([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0])
    assert not out["hypotheses_ok"]


@pytest.mark.parametrize("arrays", [
    ([[3.0, 2.0]], [[1.0, 1.0]], [[1.0, 1.0]], [[1.0, 1.0]]),
    ([3.0, 2.0, 1.0], [1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]),
], ids=["not-1d", "unequal-lengths"])
def test_majorization_rejects_arrays_of_other_shapes(arrays):
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        check_majorization(*arrays)


def test_majorization_tabulation_needs_two_points():
    with pytest.raises(ValueError, match="at least two grid points"):
        check_majorization([1.0], [1.0], [1.0], [1.0], m=1.0)
    # a plain sequence of one term is legal
    assert check_majorization([1.0], [1.0], [1.0], [1.0])["conclusion_ok"]


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_majorization_tabulation_needs_a_positive_length(m):
    with pytest.raises(ValueError, match="m must be positive"):
        check_majorization([3.0, 2.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], m=m)


def _random_instance(rng, continuous):
    n = int(rng.integers(3, 30))
    a = np.sort(rng.uniform(0.0, 3.0, n))[::-1].copy()
    b = a * rng.uniform(0.0, 1.0, n)
    u = rng.uniform(0.0, 2.0, n)
    if rng.random() < 0.5:
        v = u * rng.uniform(0.0, 1.0, n)
    else:
        # push mass toward the tail while keeping running-sum domination
        v = u.copy()
        for i in range(n - 1):
            move = rng.uniform(0.0, v[i])
            v[i] -= move
            v[i + 1] += move * rng.uniform(0.0, 1.0)
        v[-1] *= rng.uniform(0.0, 1.0)
    m = float(rng.uniform(0.5, 4.0)) if continuous else None
    return a, b, u, v, m


def test_majorization_fuzz_never_contradicts():
    # whenever the hypotheses verify, the conclusion must hold
    rng = np.random.default_rng(200)
    seen_ok = 0
    for i in range(1000):
        inst = _random_instance(rng, continuous=bool(i % 2))
        out = check_majorization(*inst)
        if out["hypotheses_ok"]:
            seen_ok += 1
            assert out["conclusion_ok"], inst
    assert seen_ok > 800


# ---------------------------------------------------------------------------
# continuous window inequalities


def test_window_interval_clipping():
    lo, hi, clipped = _window_interval(2.0, 2.0, 2.0, "ineq4")
    assert (lo, hi, clipped) == (0.0, 2.0, False)
    lo, hi, clipped = _window_interval(2.0, 2.0, 3.5, "ineq4")
    assert (lo, hi) == (0.0, 2.0)
    assert clipped
    # n <= 0 leaves no admissible window at all
    lo, hi, clipped = _window_interval(2.0, -1.0, 1.0, "ineq4")
    assert lo > hi and clipped


def test_lemma2_continuous_spec_example():
    # M=2, n=2, q=2: A = [0, 2]; values frozen from 30-digit quadrature
    case = lemma2_continuous(2.0, 2.0, 2.0, "ineq4")
    assert not case.clipped
    assert case.lhs == pytest.approx(1.06059847959621394, rel=1e-10)
    assert case.rhs == pytest.approx(0.63274481589958839053, rel=1e-10)
    assert case.margin >= 0.0 and case.holds


def test_lemma2_continuous_against_riemann():
    for M, n, q, which in [
        (2.0, 2.0, 2.0, "ineq4"),
        (3.5, 1.7, 1.1, "ineq5"),
        (5.0, 4.4, 2.9, "ineq6"),
        (12.0, 9.1, 5.0, "ineq4"),
    ]:
        case = lemma2_continuous(M, n, q, which)
        lo, hi, _ = _window_interval(M, n, q, which)
        lhs_ref = riemann(lambda s: binom_ext_oracle(M - 1, s) * binom_ext_oracle(M - 1, n - s), lo, hi)
        if which == "ineq6":
            rhs_ref = riemann(
                lambda s: binom_ext_oracle(M, s + 1) * binom_ext_oracle(M - 2, n - s - 1), lo, hi
            )
        else:
            rhs_ref = riemann(lambda s: binom_ext_oracle(M, s) * binom_ext_oracle(M - 2, n - s), lo, hi)
        assert case.lhs == pytest.approx(lhs_ref, rel=1e-6)
        assert case.rhs == pytest.approx(rhs_ref, rel=1e-6)


def test_lemma2_continuous_tiny_window_degenerates():
    case = lemma2_continuous(3.0, 2.0, 1e-12, "ineq4")
    assert abs(case.lhs) < 1e-10
    assert abs(case.rhs) < 1e-10


def test_lemma2_continuous_clip_matches_max_window():
    full = lemma2_continuous(4.0, 3.0, 1e6, "ineq5")
    at_max = lemma2_continuous(4.0, 3.0, min(3.0 + 1.0, 2 * 4.0 - 3.0 - 1.0), "ineq5")
    assert full.clipped and not at_max.clipped
    assert full.lhs == pytest.approx(at_max.lhs, rel=1e-12)
    assert full.rhs == pytest.approx(at_max.rhs, rel=1e-12)


def test_lemma2_continuous_domain():
    with pytest.raises(DomainError):
        lemma2_continuous(1.0, 2.0, 1.0, "ineq4")
    with pytest.raises(DomainError):
        lemma2_continuous(2.0, 2.0, 0.0, "ineq4")
    with pytest.raises(DomainError):
        lemma2_continuous(2.0, -2.0, 1.0, "ineq4")
    with pytest.raises(ValueError):
        lemma2_continuous(2.0, 2.0, 1.0, "ineq7")


def test_lemma2_continuous_random_sweep_holds():
    # each case's margin is oriented lhs - rhs, and it holds within the
    # continuous slack of 1e-7
    for case in continuous_lemma_sweep(count=15, seed=7):
        direction = -1 if case.which == "ineq5" else 1
        assert case.margin == direction * (case.lhs - case.rhs)
        assert case.holds == (case.margin >= -1e-7)
        assert case.holds, case


@pytest.mark.parametrize("seed, count", [(0, 30), (1, 30), (2, 30), (3, 200)])
def test_continuous_sweep_is_the_one_case_path_bitwise(seed, count, monkeypatch):
    # the sweep's array passes give each case exactly what the one-case call
    # gives it, whatever else shares the pass and in whatever order, empty
    # and clipped windows included; 3 * count cases take one panel layout
    # per _CASES_PER_PASS of them
    layouts = []
    monkeypatch.setattr(lemmas, "panel_nodes", lambda *args, **kw: layouts.append(1) or panel_nodes(*args, **kw))
    sweep = continuous_lemma_sweep(count=count, seed=seed)
    assert len(layouts) == math.ceil(3 * count / lemmas._CASES_PER_PASS)
    for case in sweep:
        assert lemma2_continuous(case.M, case.n, case.window, case.which) == case
    draws = [(c.M, c.n, c.window, c.which) for c in sweep]
    assert lemma2_continuous_cases(draws[::-1]) == sweep[::-1]
    windows = [_window_interval(*draw) for draw in draws]
    assert any(lo > hi for lo, hi, _ in windows)
    assert any(lo < hi and clipped for lo, hi, clipped in windows)
    for case, (lo, hi, _) in zip(sweep, windows):
        if lo > hi:
            assert (case.lhs, case.rhs, case.clipped) == (0.0, 0.0, True)


@pytest.mark.parametrize("M, n, q, which", [
    (1.5, 0.7, 0.5, "ineq4"),
    (1.5, 0.6, 0.3, "ineq6"),
    (20.0, 17.3, 11.0, "ineq5"),
    (20.0, 21.6, 15.0, "ineq6"),
    (200.0, 190.4, 37.0, "ineq4"),
    (200.0, 213.7, 52.0, "ineq5"),
])
def test_lemma2_continuous_against_mpmath(M, n, q, which):
    # one panel per unit against 30-digit quadrature; at M = 200 the
    # binomials' own log-space rounding (about 1e-13) is what differs
    case = lemma2_continuous(M, n, q, which)
    assert not case.clipped
    lhs, rhs = lemma2_continuous_mp(M, n, q, which)
    assert case.lhs == pytest.approx(lhs, rel=1e-12)
    assert case.rhs == pytest.approx(rhs, rel=1e-12)


def test_lemma2_continuous_gate_passes_up_to_order_200():
    # one panel per unit keeps every Gauss-Kronrod gap within REL_TOL at
    # orders far past the sweep's 20, over the sweep's ranges of n and q
    rng = np.random.default_rng(11)
    for M in (1.5, 5.0, 20.0, 60.0, 200.0):
        u = 1.0 - rng.random((20, 2))
        draws = zip(-2.0 + 2.0 * M * u[:, 0], 2.0 * M * u[:, 1])
        cases = lemma2_continuous_cases([(M, n, q, which) for n, q in draws for which in CONTINUOUS_WHICH])
        assert all(math.isfinite(c.lhs) and math.isfinite(c.rhs) for c in cases)


def test_lemma2_continuous_gate_reads_the_gaps(monkeypatch):
    # with no tolerance left, a rounding-level Kronrod-Gauss gap fails the gate
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    with pytest.raises(QuadratureError, match=r"ineq4 integrand \(M=200.0, n=190.4, q=37.0\)"):
        lemma2_continuous_cases([(200.0, 190.4, 37.0, "ineq4")])


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_lemma2_continuous_gate_names_the_worst_case():
    # C(599, 300)^2 overflows a double: the one gate fails, naming that case
    with pytest.raises(QuadratureError, match=r"ineq5 integrand \(M=600.0, n=600.0, q=20.0\)"):
        lemma2_continuous_cases([(2.0, 2.0, 0.5, "ineq4"), (600.0, 600.0, 20.0, "ineq5"), (3.0, 2.0, 1.0, "ineq6")])


# ---------------------------------------------------------------------------
# discrete window inequalities, exact arithmetic


def test_lemma2_discrete_hand_example():
    case = lemma2_discrete(3, 2, 1, "ineq2p1")
    assert (case.lhs, case.rhs) == (4, 3)
    case = lemma2_discrete(3, 2, 0, "ineq2p1")
    assert (case.lhs, case.rhs) == (6, 6)
    assert case.lhs == math.comb(4, 2)


def test_lemma2_discrete_against_explicit_sums():
    # every row at every M <= 8, n and k, against math.comb sums written per
    # inequality; the direction holds from M = 2 on (M = 1 breaks ineq2p2)
    for M in range(1, 9):
        for n in range(0, 2 * M - 1):
            for k in range(-2, (n + 1) // 2 + 1):
                for which, (lhs, rhs) in lemma2_discrete_sums(M, n, k).items():
                    case = lemma2_discrete(M, n, k, which)
                    assert (case.lhs, case.rhs) == (lhs, rhs), (M, n, k, which)
                    direction = -1 if which == "ineq2p2" else 1
                    assert case.margin == direction * (lhs - rhs)
                    assert case.holds == (case.margin >= 0)
                    assert case.holds or M == 1


def test_discrete_sweep_windows_match_explicit_sums():
    # the sweep reads every window off prefix sums of each (M, n)'s terms;
    # each of its cases at M <= 12 against the sums written out one by one
    cases = discrete_lemma_sweep(max_M=12)
    keys = set()
    for case in cases:
        M, n, k = case.M, case.n, case.window
        assert (case.lhs, case.rhs) == lemma2_discrete_sums(M, n, k)[case.which], (M, n, k, case.which)
        assert type(case.lhs) is int and type(case.rhs) is int
        assert lemma2_discrete(M, n, k, case.which) == case
        keys.add((M, n, k, case.which))
    assert len(keys) == len(cases) == 2442


def test_lemma2_discrete_far_negative_k_matches_k0():
    for which in ("ineq2p1", "ineq2p2", "ineq2p3"):
        far = lemma2_discrete(5, 4, -30, which)
        base = lemma2_discrete(5, 4, 0, which)
        assert (far.lhs, far.rhs) == (base.lhs, base.rhs)


def test_lemma2_discrete_exact_types():
    case = lemma2_discrete(12, 10, 2, "ineq2p2")
    assert isinstance(case.lhs, int) and isinstance(case.rhs, int)


def test_lemma2_discrete_domain():
    with pytest.raises(DomainError):
        lemma2_discrete(0, 1, 0, "ineq2p1")
    with pytest.raises(DomainError):
        lemma2_discrete(3, -1, 0, "ineq2p1")
    with pytest.raises(DomainError):
        lemma2_discrete(3, 2, 2, "ineq2p1")  # k > (n+1)/2


def test_discrete_sweep_all_hold_exactly():
    cases = discrete_lemma_sweep(max_M=8)
    assert cases
    for case in cases:
        assert case.holds and case.margin >= 0, case


def test_discrete_sweep_full_range_vandermonde():
    # k <= 0 covers every nonzero term: both sides of the first two
    # inequalities collapse to C(2M-2, n) exactly
    for case in discrete_lemma_sweep(max_M=8):
        if case.window <= 0 and case.which in ("ineq2p1", "ineq2p2"):
            expected = math.comb(2 * int(case.M) - 2, int(case.n))
            assert case.lhs == expected
            assert case.rhs == expected


def test_lemma2_discrete_m1_middle_inequality_is_vacuously_broken():
    # the C(-1, .) factor vanishes identically under the zero convention,
    # which is why the exhaustive sweep starts at M = 2
    case = lemma2_discrete(1, 0, 0, "ineq2p2")
    assert case.lhs == 1 and case.rhs == 0
    assert case.margin == -1 and not case.holds
    assert all(c.M >= 2 for c in discrete_lemma_sweep(max_M=4))


def test_lemma_sweeps_over_nothing_raise():
    # no order to sweep, or a negative number of draws, is an error, not an
    # empty sweep that passes; zero draws is an empty continuous sweep
    for max_M in (-3, 0, 1):
        with pytest.raises(ValueError, match="max_M"):
            discrete_lemma_sweep(max_M=max_M)
    with pytest.raises(ValueError, match="count"):
        continuous_lemma_sweep(count=-1)
    assert continuous_lemma_sweep(count=0) == []


# ---------------------------------------------------------------------------
# coefficient-level inequalities


def test_core_inequality_13_uniform_equality():
    M = 4
    w = np.ones(M + 1)
    for n in range(0, 2 * M - 1):
        lhs, rhs = core_inequalities_discrete(w, M, n, 13)
        assert lhs == pytest.approx(math.comb(2 * M - 2, n), rel=1e-12)
        assert rhs == pytest.approx(math.comb(2 * M - 2, n), rel=1e-12)


def test_core_inequality_13_geometric_equality():
    M = 5
    w = 2.0 ** np.arange(M + 1)
    for n in range(0, 2 * M - 1):
        lhs, rhs = core_inequalities_discrete(w, M, n, 13)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_core_inequalities_random_directions():
    rng = np.random.default_rng(201)
    for _ in range(60):
        M = int(rng.integers(2, 21))
        w = random_log_concave_weights(rng, M, zero_edges=rng.random() < 0.3)
        n = int(rng.integers(0, 2 * M - 1))
        for which in (13, 14, 15):
            lhs, rhs = core_inequalities_discrete(w, M, n, which)
            scale = max(1.0, abs(lhs), abs(rhs))
            if which == 14:
                assert lhs <= rhs + 1e-10 * scale
            else:
                assert lhs >= rhs - 1e-10 * scale


def test_core_inequalities_warn_on_bad_weights():
    with pytest.warns(UserWarning):
        core_inequalities_discrete(np.array([1.0, 0.01, 1.0]), 2, 1, 13)


def test_coefficient_12_uniform_holds():
    M = 2
    w = np.ones(M + 1)
    for n in range(0, 2 * M - 1):
        lhs, rhs = coefficient_inequality_12(w, M, n)
        assert lhs >= rhs - 1e-12


def test_coefficient_12_geometric_equality():
    M = 6
    w = 0.5 ** np.arange(M + 1)
    for n in range(0, 2 * M - 1):
        lhs, rhs = coefficient_inequality_12(w, M, n)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_coefficient_12_polynomial_reconstruction():
    # M(M-1) * sum_n (lhs_n - rhs_n)(1-x)^n x^(2M-2-n) must rebuild the
    # curvature margin numerator computed from the density evaluators
    rng = np.random.default_rng(202)
    for _ in range(10):
        M = int(rng.integers(2, 13))
        w = random_log_concave_weights(rng, M)
        diffs = [coefficient_inequality_12(w, M, n) for n in range(0, 2 * M - 1)]
        mix = DiscreteMixture(M, w)
        for x in rng.uniform(0.05, 0.95, 20):
            g, d1, d2 = discrete_derivs_grid(mix, np.array([x]))[:3]
            target = ((M - 1) / M) * d1[0] ** 2 - g[0] * d2[0]
            total = sum(
                (lhs - rhs) * (1.0 - x) ** n * x ** (2 * M - 2 - n)
                for n, (lhs, rhs) in enumerate(diffs)
            )
            total *= M * (M - 1)
            assert total == pytest.approx(target, rel=1e-9, abs=1e-12)


def test_coefficient_12_consistency_with_certifier():
    # coefficientwise domination for every n forces a nonnegative grid margin
    rng = np.random.default_rng(203)
    for _ in range(10):
        M = int(rng.integers(2, 13))
        w = random_log_concave_weights(rng, M)
        for n in range(0, 2 * M - 1):
            lhs, rhs = coefficient_inequality_12(w, M, n)
            assert lhs >= rhs - 1e-10 * max(1.0, abs(lhs), abs(rhs))
        cert = certify(DiscreteMixture(M, w))
        assert cert.min_margin_eq10 >= -1e-9


def _coefficient_weights(rng, M, kind, max_exponent=600):
    """Weights for the exact coefficient tests: log-concave, zero-edged or bimodal, times 2^k, |k| < max_exponent."""
    if kind == "bimodal":
        i = np.arange(M + 1.0)
        w = np.exp(-0.5 * ((i - M / 4) / 1.5) ** 2) + 0.5 * np.exp(-0.5 * ((i - 3 * M / 4) / 1.5) ** 2)
    else:
        w = random_log_concave_weights(rng, M, zero_edges=kind == "zero-edged")
    return w * 2.0 ** int(rng.integers(-max_exponent, max_exponent))


@pytest.mark.parametrize("kind", ["log-concave", "zero-edged", "bimodal"])
def test_coefficient_views_equal_the_fraction_oracle(kind):
    rng = np.random.default_rng(204)
    for M in (1, 2, 3, 5, 8, 13, 24):
        w = _coefficient_weights(rng, M, kind)
        for which in (12, 13, 14, 15):
            want = coefficient_sides_fraction(w, M, which)
            for n in range(2 * M - 1):
                if which == 12:
                    got = coefficient_inequality_12(w, M, n)
                else:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        got = core_inequalities_discrete(w, M, n, which)
                assert all(isinstance(side, Fraction) for side in got)
                assert got == (want[0][n], want[1][n]), (M, which, n)


@pytest.mark.parametrize("M", [600, 1000])
def test_coefficients_past_the_double_range(M):
    # the middle sides pass the double range here, so only exact arithmetic reaches them
    middle = (0, 1, M - 1, 2 * M - 3, 2 * M - 2)
    for n in middle:
        # Vandermonde: uniform weights give C(2M-2, n) on both sides of Eq. 13
        assert core_inequalities_discrete(np.ones(M + 1), M, n, 13) == (math.comb(2 * M - 2, n),) * 2
        lhs, rhs = coefficient_inequality_12(0.5 ** np.arange(M + 1), M, n)
        assert lhs == rhs > 0
    assert math.comb(2 * M - 2, M - 1).bit_length() > 1024
    w = random_log_concave_weights(np.random.default_rng(M), M)
    for n in middle:
        lhs, rhs = coefficient_inequality_12(w, M, n)
        assert lhs >= rhs
        for which in (13, 14, 15):
            lhs, rhs = core_inequalities_discrete(w, M, n, which)
            assert lhs <= rhs if which == 14 else lhs >= rhs


def test_coefficient_12_geometric_tight_at_every_order():
    M = 400
    w = 0.5 ** np.arange(M + 1)
    diffs = [lhs - rhs for lhs, rhs in (coefficient_inequality_12(w, M, n) for n in range(2 * M - 1))]
    assert len(diffs) == 799
    assert all(d == 0 for d in diffs)


@pytest.mark.parametrize("M", [3, 7, 12])
def test_coefficients_give_the_log_concavity_numerator(M):
    # g'^2 - g g'' = M sum_n (M lhs_n - (M-1) rhs_n) (1-x)^n x^(2M-2-n), with
    # the Eq. 12 coefficients summed exactly at x and g from de Casteljau
    rng = np.random.default_rng(205)
    for kind in ("log-concave", "zero-edged", "bimodal"):
        w = _coefficient_weights(rng, M, kind, max_exponent=60)
        coef = [coefficient_inequality_12(w, M, n) for n in range(2 * M - 1)]
        for x in (0.05, 0.3, 0.5, 0.77, 0.95):
            g, d1, d2 = (float(v[0]) for v in discrete_derivs_oneshot(w, M, np.array([x])))
            X = Fraction(x)
            exact = M * sum((M * lhs - (M - 1) * rhs) * (1 - X) ** n * X ** (2 * M - 2 - n)
                            for n, (lhs, rhs) in enumerate(coef))
            assert abs(d1 * d1 - g * d2 - float(exact)) <= 1e-13 * (d1 * d1 + abs(g * d2)), (kind, x)


@pytest.mark.parametrize("view", ["12", "13"])
@pytest.mark.parametrize("M, weights", [(5, np.ones(3)), (2, [1.0, -1.0, 1.0]), (2, [1.0, 1.0, math.nan])])
def test_coefficient_views_check_their_weights(view, M, weights):
    # wrong length, a negative weight, nan: no DiscreteMixture(M, weights)
    with pytest.raises(ValueError, match="weights"):
        if view == "12":
            coefficient_inequality_12(weights, M, 2)
        else:
            core_inequalities_discrete(weights, M, 2, 13)


# ---------------------------------------------------------------------------
# brute force oracle


def _density_check(density_fn, count, eps, rng):
    """midpoint_check of the count triples drawn from rng, on the log of density_fn at their points."""
    triples, pts = midpoint_triples(count, eps, rng)
    with np.errstate(divide="ignore"):
        return midpoint_check(triples, np.log(density_fn(pts)))


def _by_draw(fx, fy, fm):
    """A density function reading fx at the x draws, fy at the y draws and fm at the midpoints.

    midpoint_triples gives the points as one array, x then y then the
    midpoints; the points themselves are kept in `seen`.
    """
    seen = []

    def density_fn(pts):
        seen.append(pts)
        n = pts.size // 3
        return np.concatenate([np.broadcast_to(v, n) for v in (fx, fy, fm)]).astype(float)

    return density_fn, seen


def test_midpoint_check_zero_at_an_end_fails_nothing():
    for fx, fy, fm in ((0.0, 1.0, 1e-300), (1.0, 0.0, 1e-300), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)):
        density_fn, _ = _by_draw(fx, fy, fm)
        assert _density_check(density_fn, 16, 1e-6, np.random.default_rng(0)) == (0, None)


def test_midpoint_check_zero_at_the_midpoint_is_the_witness():
    fm = np.ones(16)
    fm[5] = 0.0
    density_fn, seen = _by_draw(1e-300, 1.0, fm)
    failures, witness = _density_check(density_fn, 16, 1e-6, np.random.default_rng(0))
    x, y, mid = np.split(seen[0], 3)
    assert failures == 1
    assert witness[:2] == (x[5], y[5])
    lam = witness[2]
    assert lam * x[5] + (1.0 - lam) * y[5] == mid[5]


def test_midpoint_check_log_concave_and_log_convex_densities():
    concave = lambda pts: np.exp(-((pts - 0.5) ** 2))
    assert _density_check(concave, 64, 1e-6, np.random.default_rng(1)) == (0, None)
    convex = lambda pts: np.exp(8.0 * (pts - 0.5) ** 2)
    failures, witness = _density_check(convex, 64, 1e-6, np.random.default_rng(1))
    assert failures > 0
    x, y, lam = witness
    log_f = lambda t: 8.0 * (t - 0.5) ** 2
    assert log_f(lam * x + (1.0 - lam) * y) < lam * log_f(x) + (1.0 - lam) * log_f(y)


def test_brute_force_uniform_ok():
    out = brute_force_logconcavity(DiscreteMixture(2, [1.0, 1.0, 1.0]), samples=300, seed=1)
    assert out["ok"] and out["witness"] is None


def test_brute_force_finds_counterexample():
    out = brute_force_logconcavity(DiscreteMixture(2, [1.0, 0.01, 1.0]), samples=500, seed=2)
    assert not out["ok"]
    x, y, lam = out["witness"]
    assert 0.0 < x < 1.0 and 0.0 < y < 1.0 and 0.0 < lam < 1.0


def test_brute_force_single_beta_component():
    w = np.zeros(6)
    w[2] = 3.0
    out = brute_force_logconcavity(DiscreteMixture(5, w), samples=400, seed=3)
    assert out["ok"]


def test_brute_force_agrees_with_certifier():
    rng = np.random.default_rng(204)
    for _ in range(10):
        M = int(rng.integers(2, 20))
        w = random_log_concave_weights(rng, M)
        assert brute_force_logconcavity(DiscreteMixture(M, w), samples=200, seed=4)["ok"]
