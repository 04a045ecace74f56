import json
import math

import numpy as np
import pytest

from betamix import (
    ContinuousMixture,
    DiscreteMixture,
    DomainError,
    certify,
    eval_density_discrete,
    find_kernel_failure,
    kernel_log_curvature,
    margin_eq10,
    random_concave_mixture,
    random_log_concave_weights,
    sharpness_check,
)


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
    assert eval_density_discrete(mix, 0.25) == pytest.approx(0.62875, abs=1e-15)
    assert eval_density_discrete(mix, 0.5) == pytest.approx(0.505, abs=1e-15)
    cert = certify(mix)
    assert cert.verdict == "violated"
    assert abs(cert.worst_x - 0.5) < 0.05
    assert cert.min_margin_eq10 < 0.0
    assert cert.witness is not None
    x, y, lam = cert.witness
    mid = lam * x + (1.0 - lam) * y
    lhs = eval_density_discrete(mix, mid)
    rhs = eval_density_discrete(mix, x) ** lam * eval_density_discrete(mix, y) ** (1.0 - lam)
    assert lhs < rhs


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
    assert cert.notes == ("density underflowed to 0 at 16 of 1024 grid points",)
    assert -1600.1 < cert.min_logcurv < -1600.0
    # w = e_0 at M = 60: x^60 underflows at x = 1e-6 only; the note is the
    # one change to its certificate
    cert = certify(DiscreteMixture(60, np.eye(61)[0]))
    assert cert.notes == ("density underflowed to 0 at 1 of 1024 grid points",)
    assert cert.min_logcurv == pytest.approx(-60.11762317071039, rel=1e-12)


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


def test_certify_reversal_invariance():
    rng = np.random.default_rng(101)
    for _ in range(10):
        M = int(rng.integers(2, 30))
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        fwd = certify(mix)
        rev = certify(mix.reversed())
        assert fwd.verdict == rev.verdict
        assert abs(abs(fwd.min_margin_eq10) - abs(rev.min_margin_eq10)) <= 1e-10
    bad = DiscreteMixture(3, [1.0, 0.05, 0.8, 1.2])
    fwd = certify(bad)
    rev = certify(bad.reversed())
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


def test_margin_implies_second_difference():
    # wherever the grid margin is nonnegative, log-density second
    # differences on the same grid must be nonpositive up to tolerance
    rng = np.random.default_rng(103)
    for _ in range(10):
        M = int(rng.integers(2, 40))
        mix = DiscreteMixture(M, random_log_concave_weights(rng, M))
        cert = certify(mix)
        assert cert.min_margin_eq10 >= -1e-9
        h = (1.0 - 2.0 * cert.eps) / (cert.grid_points - 1)
        assert cert.min_logcurv * h * h <= 1e-9


@pytest.mark.parametrize("M", [2, 10, 100])
@pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
def test_sharpness_geometric(M, r):
    assert sharpness_check(M, r, 1024) <= 1e-8


def test_sharpness_rejects_trivial_ratio():
    with pytest.raises(DomainError):
        sharpness_check(10, 1.0)
    with pytest.raises(DomainError):
        sharpness_check(10, -2.0)


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
