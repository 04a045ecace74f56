import json
import math
import sys

import numpy as np
import pytest

from betamix import (
    __version__,
    ContinuousMixture,
    DiscreteMixture,
    DomainError,
    certify,
    find_kernel_failure,
    kernel_log_curvature,
    margin_eq10,
    mixture_to_json,
    random_concave_mixture,
    random_log_concave_weights,
    sharpness_check,
)
from betamix.cli import main
from betamix.mixtures import discrete_density_grid

from oracles import continuous_derivs_quad


def test_margin_zero_for_uniform_weights():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    for x in (0.2, 0.5, 0.8):
        assert margin_eq10(mix, x) == 0.0


def test_margin_zero_for_geometric_weights():
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    for x in (0.1, 0.5, 0.9):
        assert abs(margin_eq10(mix, x)) <= 1e-10


def test_margin_nonnegative_for_log_concave():
    mix = DiscreteMixture(3, [1.0, 3.0, 3.0, 1.0])
    assert margin_eq10(mix, 0.5) >= 0.0


def test_margin_domain():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        margin_eq10(mix, 0.0)


def test_certify_uniform():
    cert = certify(DiscreteMixture(2, [1.0, 1.0, 1.0]))
    assert cert.verdict == "certified"
    assert cert.min_margin_eq10 == 0.0
    assert cert.midpoint_failures == 0


def test_certify_known_violation():
    # g(0.25) g(0.75) = 0.62875^2 > g(0.5)^2 = 0.505^2
    mix = DiscreteMixture(2, [1.0, 0.01, 1.0])
    assert float(discrete_density_grid(mix, 0.25)) == pytest.approx(0.62875, abs=1e-15)
    assert float(discrete_density_grid(mix, 0.5)) == pytest.approx(0.505, abs=1e-15)
    cert = certify(mix)
    assert cert.verdict == "violated"
    assert abs(cert.worst_x - 0.5) < 0.05
    assert cert.min_margin_eq10 < 0.0
    # the witness is an off-grid point where the margin itself is negative
    assert type(cert.witness) is float and 1e-6 <= cert.witness <= 1.0 - 1e-6
    assert margin_eq10(mix, cert.witness) < 0.0


@pytest.mark.parametrize(
    "mix",
    [
        DiscreteMixture(2, [1.0, 0.01, 1.0]),
        ContinuousMixture(3.0, [0.0, 1.5, 3.0], [3.0, -6.0, 3.0]),
    ],
    ids=["discrete", "continuous"],
)
def test_certify_witness_margin_is_margin_eq10(mix, monkeypatch):
    # the off-grid margins come out of the grid's own evaluation; the one at
    # the witness is margin_eq10 at that x, bit for bit
    module = sys.modules["betamix.certify"]
    seen = []
    original = module._forms

    def recording(mixture, xs):
        out = original(mixture, xs)
        seen.append((xs, out.margin))
        return out

    monkeypatch.setattr(module, "_forms", recording)
    cert = certify(mix, grid_points=64)
    [(xs, margins)] = seen
    assert cert.verdict == "violated" and cert.midpoint_failures > 0
    assert xs.size == 64 + 64
    [at] = np.flatnonzero(xs[64:] == cert.witness)
    assert margins[64 + at] < -cert.tol
    assert np.all(margins[64 : 64 + at] >= -cert.tol)
    monkeypatch.undo()
    assert margin_eq10(mix, cert.witness) == margins[64 + at]


@pytest.mark.parametrize("seed", range(5))
def test_certify_wide_range_weights_by_the_margin_off_the_grid(seed):
    # log w concave over thousands of nats at M = 2000, with the weights below
    # the smallest normal double set to 0, so the weights are exactly
    # log-concave. The chord test on f read wrong de Casteljau subnormals at
    # 1 to 3 midpoints on each of these seeds; the margin is nan where f
    # underflows, and a certificate counts only the checks it made and notes
    # the points, on the grid and off it, that it could not make
    M = 2000
    steps = np.random.default_rng(M).uniform(1.0 / M, 4.0 / M, M)
    log_w = np.concatenate([[0.0], np.cumsum(np.cumsum(-steps))])
    w = np.exp(log_w - np.max(log_w))
    cert = certify(DiscreteMixture(M, np.where(w < np.finfo(float).tiny, 0.0, w)), grid_points=16, seed=seed)
    assert cert.verdict == "certified"
    off_grid_underflowed = {0: 21, 1: 20, 2: 19, 3: 21, 4: 12}[seed]
    assert cert.midpoint_checks == 64 - off_grid_underflowed
    assert cert.midpoint_failures == 0 and cert.witness is None
    assert cert.notes == (f"density underflowed to 0 at 5 of 16 grid points and {off_grid_underflowed} of 64 off-grid points",)


def test_certify_degenerate_zero():
    cert = certify(DiscreteMixture(2, [0.0, 0.0, 0.0]))
    assert cert.verdict == "degenerate-zero"
    assert cert.min_margin_eq10 is None


def test_certify_notes_underflowed_density():
    # w = e_200 at M = 400 is one log-concave Beta kernel, but its density
    # underflows at the 16 grid points nearest the ends (14 to 0, 2 to
    # subnormals); the certificate says so and takes the log-curvature over
    # the rest, where (log f)'' = -200/x^2 - 200/(1-x)^2 <= -1600
    w = np.zeros(401)
    w[200] = 1.0
    cert = certify(DiscreteMixture(400, w))
    assert cert.verdict == "certified"
    assert cert.notes == ("density underflowed to 0 at 16 of 1024 grid points and 2 of 64 off-grid points",)
    assert cert.midpoint_checks == 62
    assert -1600.1 < cert.min_logcurv < -1600.0
    # w = e_0 at M = 60: x^60 underflows at x = 1e-6 only; (log f)'' = -60/x^2
    # is largest at the last grid point
    cert = certify(DiscreteMixture(60, np.eye(61)[0]))
    assert cert.notes == ("density underflowed to 0 at 1 of 1024 grid points",)
    assert cert.min_logcurv == pytest.approx(-60.0 / (1.0 - 1e-6) ** 2, rel=1e-12)


def test_certify_notes_off_grid_underflow_when_the_grid_has_none():
    # w = e_0 + e_M at M = 1200: f = (1-x)^M + x^M is a normal double at the
    # 4 grid points (x = 1/3 gives e^-487) but underflows near x = 1/2, where
    # off-grid points fall with no margin; the note counts them
    M, eps, seed = 1200, 1e-6, 0
    w = np.zeros(M + 1)
    w[0] = w[M] = 1.0
    cert = certify(DiscreteMixture(M, w), grid_points=4, eps=eps, seed=seed)
    pts = eps + (1.0 - 2.0 * eps) * np.random.default_rng(seed).random(64)
    log_f = np.logaddexp(M * np.log1p(-pts), M * np.log(pts))
    missing = int(np.count_nonzero(log_f < math.log(np.finfo(float).tiny)))
    assert missing > 0 and cert.midpoint_checks == 64 - missing
    assert cert.notes == (f"density underflowed to 0 at 0 of 4 grid points and {missing} of 64 off-grid points",)


def test_certify_worst_point_skips_underflowed_margins():
    # w = e_200 at M = 400: the margin 200/x^2 + 200/(1-x)^2 - u^2/400, with
    # u = 200/x - 200/(1-x), is smallest (1600) at x = 1/2; the points where
    # f underflowed carry no margin and must not be the worst point
    w = np.zeros(401)
    w[200] = 1.0
    cert = certify(DiscreteMixture(400, w))
    x = cert.worst_x
    assert abs(x - 0.5) < 1e-3
    u = 200.0 / x - 200.0 / (1.0 - x)
    assert cert.min_margin_eq10 == pytest.approx(200.0 / x**2 + 200.0 / (1.0 - x) ** 2 - u * u / 400.0, rel=1e-9)
    # alpha = e^-700 gives f near 1e-304, so f*f underflows everywhere, but
    # the margin is formed on each point's own scale and is that of alpha = 1
    cert = certify(ContinuousMixture(2.0, [0.0, 2.0], [-700.0, -700.0]))
    unit = certify(ContinuousMixture(2.0, [0.0, 2.0], [0.0, 0.0]))
    assert cert.verdict == "certified"
    assert cert.min_margin_eq10 == pytest.approx(3.57, abs=0.01)
    assert cert.min_margin_eq10 == pytest.approx(unit.min_margin_eq10, rel=1e-12)
    # tiny discrete weights are scaled up before the margin is formed, so
    # their margin is resolved, and is that of the unscaled weights
    tiny = certify(DiscreteMixture(2, [1e-200, 2e-200, 1e-200]))
    assert tiny.notes == ()
    assert tiny.min_margin_eq10 == pytest.approx(certify(DiscreteMixture(2, [1.0, 2.0, 1.0])).min_margin_eq10, rel=1e-12)


def test_certify_continuous_alpha_scale_is_shifted_out():
    # alpha = e^-800 would put f below 1e-340 at every grid point, and
    # alpha = e^700 would overflow f''; log alpha is shifted by its largest
    # knot value first, so both certify exactly as alpha = 1, with no note
    # (and no RuntimeWarning, which the suite turns into an error)
    unit = certify(ContinuousMixture(2.0, [0.0, 2.0], [0.0, 0.0]), grid_points=64)
    # at worst_x = 0.49206350793650794 the margin is 3.5718345456967383100 to
    # 40 digits: oracles.posterior_moments_mp(2, [0, 2], [0, 0], x, dps=40)
    # gives [m(M-m)/M - V]/t^2, and mpmath.quad of f, f' and f'' (the
    # x-differentiated integrand) over [0, 2] gives ((M-1)/M) f'^2 - f f''
    # over f^2, the same digits. The moment form reads V within 0.13 ulp of
    # its 40-digit value; the margin's own arithmetic, m(M-m)/M - V over
    # t^2, then lands 2 ulps below the nearest double, 3.5718345456967384
    assert unit.worst_x == 0.49206350793650794
    exact = 3.5718345456967383100
    assert abs(unit.min_margin_eq10 - exact) <= 4 * math.ulp(exact)
    for level in (700.0, -800.0):
        mix = ContinuousMixture(2.0, [0.0, 2.0], [level, level])
        assert certify(mix, grid_points=64) == unit
        assert margin_eq10(mix, 0.3) == margin_eq10(ContinuousMixture(2.0, [0.0, 2.0], [0.0, 0.0]), 0.3)
    # the shift reads only live knots: a finite value beside a -inf one is not alpha's peak
    dead_peak = ContinuousMixture(3.0, [0.0, 1.0, 2.0, 3.0], [900.0, float("-inf"), -800.0, -800.0])
    cert = certify(dead_peak, grid_points=64)
    assert cert.verdict == "certified" and cert.notes == ()


def test_certify_large_weights_margin_finite():
    # w_i = 2^i at M = 1000: g = (2 - x)^1000 is finite, but g'^2 and g*g
    # overflow unless the weights are scaled first; the margin is 0 (geometric
    # weights), and what is left is rounding at the tight input
    mix = DiscreteMixture(1000, 2.0 ** np.arange(1001))
    cert = certify(mix, grid_points=64)
    assert math.isfinite(cert.min_margin_eq10) and abs(cert.min_margin_eq10) < 1e-7
    # near x = 1 the smallest weights dominate and f*f of the scaled weights
    # underflows; the margin, formed on each point's own scale, still covers
    # all 1024 points of the default grid
    cert = certify(mix)
    assert cert.notes == () and abs(cert.min_margin_eq10) < 1e-7
    assert math.isfinite(margin_eq10(mix, 0.3))
    assert sharpness_check(1000, 2.0, grid_points=64) < 1e-7


def test_certify_scales_weights_only_as_far_as_the_range_needs():
    # w_i = 2^(i - 1000) at M = 2000: the density lies in about [9e-302,
    # 1e301] and underflows nowhere. Weights scaled to put the largest in
    # [1, 2) gave de Casteljau values down to 1e-602, which underflowed at 26
    # of 64 points; scaled only below 2^1022 / (4M^2) they underflow nowhere.
    # The verdict stays violated: the margin is 0 and rounding decides it.
    mix = DiscreteMixture(2000, 2.0 ** (np.arange(2001) - 1000))
    cert = certify(mix, grid_points=64)
    assert cert.notes == ()
    assert cert.verdict == "violated" and abs(cert.min_margin_eq10) < 1e-7
    # weights near the top of the double range are still scaled down far
    # enough for g'' to stay finite, and give the margin of unscaled weights
    w = np.exp(-0.001 * (np.arange(401) - 150.0) ** 2)
    big = certify(DiscreteMixture(400, 1e305 * w), grid_points=256)
    unit = certify(DiscreteMixture(400, w), grid_points=256)
    assert big.certified and big.notes == ()
    assert big.min_margin_eq10 == pytest.approx(unit.min_margin_eq10, rel=1e-9)
    assert big.worst_x == unit.worst_x
    # subnormal weights are scaled up, so their density is resolved
    tiny = certify(DiscreteMixture(2, [1e-310, 2e-310, 1e-310]))
    assert tiny.certified and tiny.notes == ()


def test_certify_rejects_eps_outside_the_grid_range():
    # at or below 2^-54, 1 - eps rounds to 1 and the grid would end at x = 1
    mix = DiscreteMixture(2, [1.0, 2.0, 4.0])
    for eps in (0.0, -1e-3, 0.5, 1e-17, 2.0**-54):
        with pytest.raises(ValueError):
            certify(mix, eps=eps)
    assert certify(mix, eps=2.0**-52).certified


def test_certify_random_log_concave_batch():
    rng = np.random.default_rng(100)
    for _ in range(25):
        M = int(rng.integers(1, 65))
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        cert = certify(mix)
        assert cert.verdict == "certified"
        assert cert.min_margin_eq10 >= -1e-9


def test_certify_deterministic():
    mix = DiscreteMixture(4, [1.0, 2.0, 2.5, 2.0, 1.0])
    a = certify(mix, seed=5)
    b = certify(mix, seed=5)
    assert a == b


def _recorded_abscissae(monkeypatch):
    """The points certify evaluates, one array per call, recorded at its _forms."""
    module = sys.modules["betamix.certify"]
    seen, original = [], module._forms

    def recording(mixture, xs):
        seen.append(xs)
        return original(mixture, xs)

    monkeypatch.setattr(module, "_forms", recording)
    return seen


def test_certify_keeps_an_integer_seeds_points_read_only(monkeypatch):
    # an integer seed's grid and off-grid points are formed once per
    # (grid_points, eps, seed) and shared by every call, so none may write to
    # them; the live-knot mask, formed once per mixture, is read-only too
    seen = _recorded_abscissae(monkeypatch)
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [0.0, -0.5, float("-inf")])
    assert certify(mix, grid_points=48, seed=7) == certify(mix, grid_points=48, seed=7)
    first, second = seen
    assert first is second and first.size == 48 + 64
    with pytest.raises(ValueError):
        first[0] = 0.5
    certify(mix, grid_points=48, seed=8)
    assert seen[2] is not first
    assert np.array_equal(seen[2][:48], first[:48]) and not np.array_equal(seen[2][48:], first[48:])
    live = mix.live_knots()
    assert live is mix.live_knots() and list(live) == [True, True, False]
    with pytest.raises(ValueError):
        live[2] = True


def test_certify_draws_afresh_from_a_generator_seed(monkeypatch):
    # a Generator is not kept: each call draws its own off-grid points from it
    seen = _recorded_abscissae(monkeypatch)
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [3.0, -6.0, 3.0])
    rng = np.random.default_rng(5)
    first, second = certify(mix, grid_points=64, seed=rng), certify(mix, grid_points=64, seed=rng)
    assert first.midpoint_failures > 0 and second.midpoint_failures > 0
    assert not np.array_equal(seen[0][64:], seen[1][64:])
    assert first.witness != second.witness
    rng = np.random.default_rng(5)
    for cert in (first, second):
        pts = 1e-6 + (1.0 - 2e-6) * rng.random(64)
        assert cert.witness in pts


def test_certify_numpy_integer_seed_equals_int():
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [3.0, -6.0, 3.0])
    for seed in (0, 11):
        want = certify(mix, grid_points=64, seed=seed)
        assert certify(mix, grid_points=64, seed=np.int64(seed)) == want
        assert certify(mix, grid_points=64, seed=np.uint32(seed)) == want


def test_certify_reversal_invariance():
    rng = np.random.default_rng(101)
    for _ in range(10):
        M = int(rng.integers(2, 30))
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        fwd = certify(mix)
        rev = certify(DiscreteMixture(M, mix.weights[::-1]))
        assert fwd.verdict == rev.verdict
        assert abs(abs(fwd.min_margin_eq10) - abs(rev.min_margin_eq10)) <= 1e-10
    bad = DiscreteMixture(3, [1.0, 0.05, 0.8, 1.2])
    fwd = certify(bad)
    rev = certify(DiscreteMixture(3, bad.weights[::-1]))
    assert fwd.verdict == rev.verdict == "violated"
    assert fwd.worst_x == pytest.approx(1.0 - rev.worst_x, abs=1e-9)


def test_margin_scaling_invariance():
    rng = np.random.default_rng(102)
    M = 6
    w = random_log_concave_weights(rng, M)
    mix = DiscreteMixture(M, w)
    scaled = DiscreteMixture(M, 37.5 * w)
    for x in (0.1, 0.45, 0.9):
        assert margin_eq10(mix, x) == pytest.approx(margin_eq10(scaled, x), abs=1e-12)
    assert certify(mix).verdict == certify(scaled).verdict


def test_margin_implies_nonpositive_log_curvature():
    # (log f)'' = -margin - (f'/f)^2/M, so wherever the grid margin is
    # nonnegative the log-curvature on the same grid is nonpositive
    rng = np.random.default_rng(103)
    for _ in range(10):
        M = int(rng.integers(2, 40))
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        cert = certify(mix)
        assert cert.min_margin_eq10 >= -1e-9
        assert cert.min_logcurv <= 0.0


@pytest.mark.parametrize(
    "M, weights, exact",
    [
        # f = x^M: (log f)'' = -M/x^2, largest at x = 1 - eps
        (30, np.eye(31)[0], -30.0 / (1.0 - 1e-6) ** 2),
        (60, np.eye(61)[0], -60.0 / (1.0 - 1e-6) ** 2),
        # w_i = 0.5^i: f = ((1+x)/2)^M, (log f)'' = -M/(1+x)^2, largest at x = 1 - eps
        (400, 0.5 ** np.arange(401), -400.0 / (2.0 - 1e-6) ** 2),
    ],
    ids=["e0-M30", "e0-M60", "half-pow-M400"],
)
def test_min_logcurv_of_tight_inputs_in_closed_form(M, weights, exact):
    cert = certify(DiscreteMixture(M, weights))
    assert cert.min_logcurv == pytest.approx(exact, rel=1e-12)


def _eval_log_d2(mix, grid_points, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(mixture_to_json(mix)))
    out = tmp_path / "eval.json"
    argv = ["eval", "--input", str(path), "--grid-points", str(grid_points), "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    table = json.loads(out.read_text())
    return [row[table["columns"].index("log_d2")] for row in table["rows"]]


def test_min_logcurv_is_the_largest_eval_log_curvature(tmp_path):
    # certify and eval form (log f)'' by the same formula on the same grid
    rng = np.random.default_rng(107)
    mixes = [
        DiscreteMixture(25, random_log_concave_weights(rng, 25)),
        random_concave_mixture(rng, m_range=(2.5, 12.0)),
    ]
    for mix in mixes:
        log_d2 = _eval_log_d2(mix, 256, tmp_path)
        assert certify(mix, grid_points=256).min_logcurv == max(v for v in log_d2 if v is not None)


@pytest.mark.parametrize("M", [2, 10, 100])
@pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
def test_sharpness_geometric(M, r):
    assert sharpness_check(M, r, 1024) <= 1e-8


@pytest.mark.parametrize("M, r", [
    (150, 0.01), (300, 0.1), (1000, 0.5), (400, 0.01), (400, 0.2), (1000, 2.0),
    (60, 1000.0), (1000, 1 - 1e-3), (30, 1 + 1e-10),
])
def test_sharpness_within_its_relative_bound(M, r):
    # the margin is a difference of terms of size (f'/f)^2, at most
    # (M(1-r)/min(1, r))^2, plus the rounding of the weight differences, of
    # size M^2 near r = 1; an absolute 1e-8 does not hold at these orders
    # (M=150, r=0.01 reads 1.3e-7), this bound does with room (the largest
    # ratio measured is 7e-15)
    d = (1.0 - r) / min(1.0, r)
    assert sharpness_check(M, r, 64 if M >= 400 else 1024) <= 1e-13 * M * M * (1.0 + d * d)


def test_sharpness_rejects_trivial_ratio():
    with pytest.raises(DomainError):
        sharpness_check(10, 1.0)
    with pytest.raises(DomainError):
        sharpness_check(10, -2.0)


def test_sharpness_keeps_certifys_rule_on_the_grid_size():
    # it reads certify's grid, which needs at least 3 points
    for grid_points in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="grid_points"):
            sharpness_check(10, 2.0, grid_points)


def test_kernel_log_curvature_value():
    # 0.5/0.0001 - 2.5/0.9801
    assert kernel_log_curvature(2.0, -0.5, 0.99) == pytest.approx(
        0.5 / 0.01**2 - 2.5 / 0.99**2, rel=1e-12
    )
    assert kernel_log_curvature(2.0, -0.5, 0.99) > 4990.0


def test_kernel_log_curvature_nonpositive_inside():
    rng = np.random.default_rng(104)
    for _ in range(200):
        M = rng.uniform(1.0, 20.0)
        s = rng.uniform(0.0, M)
        x = rng.uniform(1e-3, 1.0 - 1e-3)
        assert kernel_log_curvature(M, s, x) <= 0.0


def test_kernel_log_curvature_symmetry():
    rng = np.random.default_rng(105)
    for _ in range(100):
        M = rng.uniform(1.0, 10.0)
        s = rng.uniform(-0.999, M + 0.999)
        x = rng.uniform(1e-3, 1.0 - 1e-3)
        assert kernel_log_curvature(M, s, x) == pytest.approx(
            kernel_log_curvature(M, M - s, 1.0 - x), rel=1e-9, abs=1e-9
        )


def test_kernel_log_curvature_domain():
    with pytest.raises(DomainError):
        kernel_log_curvature(2.0, -1.5, 0.5)
    with pytest.raises(DomainError):
        kernel_log_curvature(2.0, 0.5, 0.0)


def test_find_kernel_failure_left_flank():
    x = find_kernel_failure(2.0, -0.5)
    assert x is not None and 0.0 < x < 1.0
    assert kernel_log_curvature(2.0, -0.5, x) > 0.0
    # closed-form sign-change point: x* = sqrt(M-s) / (sqrt(M-s) + sqrt(-s))
    root = math.sqrt(2.5) / (math.sqrt(2.5) + math.sqrt(0.5))
    assert x > root


def test_find_kernel_failure_right_flank():
    x = find_kernel_failure(2.0, 2.5)
    assert x is not None and 0.0 < x < 1.0
    assert kernel_log_curvature(2.0, 2.5, x) > 0.0
    root = math.sqrt(2.5) / (math.sqrt(2.5) + math.sqrt(0.5))
    assert x < 1.0 - root  # mirror of the left-flank case


def test_find_kernel_failure_near_the_crossing_at_one():
    # x* = 1 - 4.3e-13 here; a bisection over [1e-12, 1 - 1e-12] stopped at
    # its right end and returned x = 0.999999999999, where the curvature is -7405
    M, s = 9064.63748228448, -1.6596219548600665e-21
    x = find_kernel_failure(M, s)
    assert 0.0 < x < 1.0 and kernel_log_curvature(M, s, x) > 0.0
    # s = -1e-300 puts x* within 1e-150 of 1: no double has positive curvature
    with pytest.raises(DomainError):
        find_kernel_failure(10.0, -1e-300)
    assert main(["demo", "--M", "10", "--s=-1e-300"]) == 2


def test_find_kernel_failure_none_inside():
    assert find_kernel_failure(2.0, 1.0) is None
    assert find_kernel_failure(2.0, 0.0) is None
    assert find_kernel_failure(2.0, 2.0) is None
    with pytest.raises(DomainError):
        find_kernel_failure(2.0, -1.5)


def test_certify_continuous_mixture():
    rng = np.random.default_rng(106)
    mix = random_concave_mixture(rng, m_range=(2.5, 12.0))
    cert = certify(mix, grid_points=256)
    assert cert.verdict == "certified"
    assert cert.criterion == "curvature-margin"
    assert cert.min_margin_eq10 >= -1e-9


def test_certify_continuous_low_order():
    # orders 1 < M <= 2 are decided on the curvature margin like any other
    mix = ContinuousMixture(1.7, [0.0, 0.8, 1.7], [0.0, 0.3, 0.0])
    cert = certify(mix, grid_points=256)
    assert cert.criterion == "curvature-margin"
    assert cert.verdict == "certified"
    assert cert.min_margin_eq10 >= -1e-9
    assert cert.min_logcurv <= 0.0
    assert cert.notes == ()


@pytest.mark.parametrize(
    "M, knots, log_alpha",
    [
        (1.25, [0.0, 0.5, 1.25], [-math.inf, 0.0, -0.3]),
        (1.7, [0.0, 0.4, 0.8, 1.7], [0.0, 0.3, 0.35, 0.0]),
        (2.0, [0.0, 1.0, 2.0], [-0.5, 0.2, -0.4]),
    ],
)
def test_certify_low_order_margin_against_quad_oracle(M, knots, log_alpha):
    # at 1 < M <= 2 the certificate's Eq. 10 margin is the normalized margin
    # of the scipy quad oracle's f, f', f'' at its worst point
    cert = certify(ContinuousMixture(M, knots, log_alpha), grid_points=512)
    assert cert.verdict == "certified"
    assert cert.criterion == "curvature-margin"
    f, d1, d2 = continuous_derivs_quad(M, np.array(knots), np.array(log_alpha), cert.worst_x)
    first, second = (M - 1.0) / M * (d1 / f) ** 2, d2 / f
    assert abs(cert.min_margin_eq10 - (first - second)) <= 1e-9 * (abs(first) + abs(second))


def test_certify_continuous_violation_by_convex_mixing():
    # strongly log-convex mixing concentrated at both ends of [0, M]
    mix = ContinuousMixture(3.0, [0.0, 1.5, 3.0], [3.0, -6.0, 3.0])
    cert = certify(mix, grid_points=512)
    assert cert.verdict == "violated"


def test_certificate_json_shape():
    mix = DiscreteMixture(2, [1.0, 1.0, 1.0])
    cert = certify(mix)
    blob = cert.to_json(input_echo={"M": 2, "weights": [1.0, 1.0, 1.0]})
    text = json.dumps(blob)
    back = json.loads(text)
    assert back["verdict"] == "certified"
    assert back["tool_version"]
    assert back["input"]["weights"] == [1.0, 1.0, 1.0]
    for key in ("grid_points", "eps", "tol", "criterion", "min_margin_eq10",
                "min_logcurv", "worst_x", "midpoint_checks", "midpoint_failures",
                "witness", "notes"):
        assert key in back


def test_certificate_json_text_is_pinned():
    # key order is field order, then tool_version and input; nan and None read
    # null, the witness is one x, and notes is a list, not a tuple
    zero = certify(DiscreteMixture(2, [0.0, 0.0, 0.0])).to_json(input_echo={"M": 2})
    assert json.dumps(zero) == (
        '{"verdict": "degenerate-zero", "grid_points": 1024, "eps": 1e-06, "tol": 1e-09, '
        '"criterion": "curvature-margin", "min_margin_eq10": null, "min_logcurv": null, '
        '"worst_x": null, "midpoint_checks": 0, "midpoint_failures": 0, "witness": null, '
        f'"notes": [], "tool_version": "{__version__}", "input": {{"M": 2}}}}'
    )
    cert = certify(DiscreteMixture(2, [1.0, 0.01, 1.0]), seed=0)
    blob = cert.to_json()
    assert cert.verdict == "violated" and cert.witness is not None
    assert json.dumps(blob) == (
        '{"verdict": "violated", "grid_points": 1024, "eps": 1e-06, "tol": 1e-09, '
        f'"criterion": "curvature-margin", "min_margin_eq10": {cert.min_margin_eq10!r}, '
        f'"min_logcurv": {cert.min_logcurv!r}, "worst_x": {cert.worst_x!r}, '
        f'"midpoint_checks": 64, "midpoint_failures": {cert.midpoint_failures}, '
        f'"witness": {cert.witness!r}, "notes": [], '
        f'"tool_version": "{__version__}", "input": null}}'
    )
    assert type(blob["witness"]) is float and type(blob["notes"]) is list
    assert type(zero["notes"]) is list
