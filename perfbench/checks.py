"""Correctness checks run after timing.

Every reference value here is computed apart from betamix: mpmath sums for
discrete mixtures, scipy quadrature of the x-differentiated integrand for
continuous ones, math.comb for the lemma rows, scipy.special.betainc and
scipy.stats.beta for the sampler and the evaluator. Each check returns a
list of error strings; an empty list means the outputs are correct.
"""

import json
import math

import numpy as np

# the certificate's margin comes from float de Casteljau sums or from
# quadrature with a 1e-10 refinement tolerance; these are the allowed
# disagreements relative to the size of the margin's two terms
DISCRETE_AGREE_REL = 1e-7
CONTINUOUS_AGREE_REL = 1e-6
EXTRA_POINTS = (0.1, 0.5, 0.9)


# ---------------------------------------------------------------------------
# discrete mixtures


def weights_log_concave(w):
    """Contiguous support and w_i^2 >= w_{i-1} w_{i+1} on it."""
    idx = np.flatnonzero(np.asarray(w) > 0.0)
    if idx.size == 0 or np.any(np.diff(idx) != 1):
        return False
    v = np.asarray(w)[idx[0] : idx[-1] + 1]
    return bool(np.all(v[1:-1] ** 2 >= v[:-2] * v[2:]))


def discrete_margin_mp(M, weights, x, dps=50):
    """(margin, scale) of Eq. 10 at x from the power form, in mpmath.

    g = sum w_i C(M,i) (1-x)^i x^(M-i); each term's derivatives follow from
    d/dx log[x^a (1-x)^b] = a/x - b/(1-x). margin is normalized by g^2 and
    scale is the size of its two terms.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        y = 1 - x
        g = g1 = g2 = mpmath.mpf(0)
        for i, w in enumerate(weights):
            if w == 0.0:
                continue
            a, b = M - i, i
            t = mpmath.mpf(float(w)) * math.comb(M, i) * x**a * y**b
            u = a / x - b / y
            g += t
            g1 += t * u
            g2 += t * (u * u - a / x**2 - b / y**2)
        first = (mpmath.mpf(M - 1) / M) * (g1 / g) ** 2
        second = g2 / g
        return float(first - second), float(abs(first) + abs(second))


def check_discrete_certify(workload, records, failed):
    errors = []
    for op, cert, bad in zip(workload.ops, records, failed):
        kind = op.info["kind"]
        M = op.info["mix"].M
        w = np.asarray(op.info["mix"].weights)
        if bad:
            if kind != "tight":
                errors.append(f"{op.name}: unexpected failure ({getattr(cert, 'verdict', cert)})")
                continue
            # a kept failure: the paper's equality case, so the true margin is 0
            m, scale = discrete_margin_mp(M, w, cert.worst_x)
            if abs(m) > 1e-30 * scale:
                errors.append(f"{op.name}: tight input has true margin {m:.3e} at {cert.worst_x}")
            continue
        m, scale = discrete_margin_mp(M, w, cert.worst_x)
        if kind == "bimodal":
            if weights_log_concave(w):
                errors.append(f"{op.name}: bimodal weights are log-concave")
            if not m < 0.0:
                errors.append(f"{op.name}: violated, but mpmath margin {m:.6e} >= 0 at {cert.worst_x}")
            continue
        if not weights_log_concave(w):
            errors.append(f"{op.name}: generated weights are not log-concave")
        if not m >= 0.0:
            errors.append(f"{op.name}: mpmath margin {m:.6e} < 0 at {cert.worst_x}")
        if abs(m - cert.min_margin_eq10) > DISCRETE_AGREE_REL * scale:
            errors.append(
                f"{op.name}: certificate margin {cert.min_margin_eq10:.12e} != mpmath {m:.12e}"
            )
    return errors


# ---------------------------------------------------------------------------
# continuous mixtures


def _segments(knots, log_alpha):
    for a, b, la, lb in zip(knots[:-1], knots[1:], log_alpha[:-1], log_alpha[1:]):
        if math.isfinite(la) and math.isfinite(lb):
            yield float(a), float(b), float(la), float(lb)


def continuous_derivs_ref(M, knots, log_alpha, x):
    """(f, f', f'') at x, up to one common positive factor, by scipy.quad.

    The integrand alpha(s) C(M,s) (1-x)^s x^(M-s) is differentiated in x
    analytically: with u = (M-s)/x - s/(1-x) and v = (M-s)/x^2 + s/(1-x)^2,
    d/dx multiplies it by u and d2/dx2 by u^2 - v.
    """
    from scipy.integrate import quad
    from scipy.special import gammaln

    lx, l1x = math.log(x), math.log1p(-x)
    segs = list(_segments(knots, log_alpha))

    def expo(s, a, b, la, lb):
        t = (s - a) / (b - a)
        return ((1 - t) * la + t * lb + gammaln(M + 1) - gammaln(s + 1) - gammaln(M - s + 1)
                + s * l1x + (M - s) * lx)

    shift = max(float(np.max(expo(np.linspace(a, b, 257), a, b, la, lb))) for a, b, la, lb in segs)
    totals = [0.0, 0.0, 0.0]
    for a, b, la, lb in segs:
        def base(s):
            return math.exp(expo(s, a, b, la, lb) - shift)

        def u(s):
            return (M - s) / x - s / (1 - x)

        def v(s):
            return (M - s) / x**2 + s / (1 - x) ** 2

        f = quad(base, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        umax = max(abs(u(a)), abs(u(b)))
        d1 = quad(lambda s: base(s) * u(s), a, b, epsabs=1e-14 * f * umax, epsrel=1e-13, limit=200)[0]
        d2 = quad(lambda s: base(s) * (u(s) ** 2 - v(s)), a, b,
                  epsabs=1e-14 * f * (umax**2 + v(a) + v(b)), epsrel=1e-13, limit=200)[0]
        totals[0] += f
        totals[1] += d1
        totals[2] += d2
    return tuple(totals)


def continuous_margin_ref(M, knots, log_alpha, x):
    """(margin, log-curvature, scale) of the density at x."""
    f, d1, d2 = continuous_derivs_ref(M, knots, log_alpha, x)
    first = (M - 1.0) / M * (d1 / f) ** 2
    second = d2 / f
    return first - second, second - (d1 / f) ** 2, abs(first) + abs(second)


def check_continuous_cert(name, mix, cert):
    """Errors for one certificate of a continuous mixture with concave log mixing."""
    errors = []
    M, knots, la = mix.M, np.asarray(mix.knots), np.asarray(mix.log_alpha)
    points = (cert.worst_x,) + EXTRA_POINTS
    for x in points:
        margin, logcurv, scale = continuous_margin_ref(M, knots, la, x)
        if M > 2.0:
            if not margin >= -1e-9 * scale:
                errors.append(f"{name}: reference margin {margin:.6e} < 0 at x={x}")
        elif not logcurv <= 1e-9 * scale:
            errors.append(f"{name}: reference log-curvature {logcurv:.6e} > 0 at x={x}")
        if x == cert.worst_x and M > 2.0:
            if abs(margin - cert.min_margin_eq10) > CONTINUOUS_AGREE_REL * scale:
                errors.append(
                    f"{name}: certificate margin {cert.min_margin_eq10:.12e} != reference {margin:.12e}"
                )
    if M <= 2.0 and not cert.min_logcurv <= cert.tol:
        errors.append(f"{name}: min_logcurv {cert.min_logcurv} > tol {cert.tol}")
    return errors


def check_continuous_certify(workload, records, failed):
    errors = []
    for op, cert, bad in zip(workload.ops, records, failed):
        if bad:
            errors.append(f"{op.name}: unexpected failure ({getattr(cert, 'verdict', cert)})")
            continue
        errors.extend(check_continuous_cert(op.name, op.info["mix"], cert))
    return errors


# ---------------------------------------------------------------------------
# cli-batch


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def _comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def lemma_row_exact(M, n, k, which):
    """Both sides of one discrete window inequality, with exact integers."""
    hi = n - k + 1 if which == "ineq2p2" else n - k
    idx = range(k, hi + 1)
    lhs = sum(_comb(M - 1, i) * _comb(M - 1, n - i) for i in idx)
    if which == "ineq2p3":
        rhs = sum(_comb(M, i + 1) * _comb(M - 2, n - i - 1) for i in idx)
    else:
        rhs = sum(_comb(M, i) * _comb(M - 2, n - i) for i in idx)
    return lhs, rhs


def expected_discrete_rows(max_M):
    count = 0
    for M in range(2, max_M + 1):
        for n in range(0, 2 * M - 1):
            for k in range(-1, (n + 1) // 2 + 1):
                count += (n - k + 1 >= k) + 2 * (n - k >= k)
    return count


def check_lemmas(path, max_M, n_draws):
    errors = []
    lines = _data_lines(path)
    if lines[0] != "M,n,window,which,lhs,rhs,margin,pass":
        return [f"lemmas: unexpected header {lines[0]!r}"]
    discrete = []
    continuous = 0
    for line in lines[1:]:
        M, n, window, which, lhs, rhs, margin, ok = line.split(",")
        if ok != "1":
            errors.append(f"lemmas: row fails: {line}")
        if which.startswith("ineq2p"):
            discrete.append((int(float(M)), int(float(n)), int(float(window)), which, float(lhs), float(rhs)))
        else:
            continuous += 1
            if not float(margin) >= -1e-7:
                errors.append(f"lemmas: continuous margin below tolerance: {line}")
    if len(discrete) != expected_discrete_rows(max_M):
        errors.append(f"lemmas: {len(discrete)} discrete rows, expected {expected_discrete_rows(max_M)}")
    if continuous != 3 * n_draws:
        errors.append(f"lemmas: {continuous} continuous rows, expected {3 * n_draws}")
    for j, (M, n, k, which, lhs, rhs) in enumerate(discrete):
        # a window that covers every nonzero term gives Vandermonde's identity,
        # both sides C(2M-2, n); ineq2p3's right side is shifted by one index,
        # so its window covers everything only from k = -1
        if k <= (-1 if which == "ineq2p3" else 0):
            full = float(math.comb(2 * M - 2, n))
            if not lhs == rhs == full:
                errors.append(f"lemmas: Vandermonde row M={M} n={n} k={k} {which}: {lhs}, {rhs}, {full}")
        if j % 17 == 0:
            el, er = lemma_row_exact(M, n, k, which)
            if (float(el), float(er)) != (lhs, rhs):
                errors.append(f"lemmas: row M={M} n={n} k={k} {which} is ({lhs}, {rhs}), math.comb gives ({el}, {er})")
    return errors


def discrete_cdf(mix_obj, x):
    """sum_i w_i I_x(M-i+1, i+1) / sum_i w_i: each kernel integrates to 1/(M+1)."""
    from scipy.special import betainc

    M = mix_obj["M"]
    w = np.asarray(mix_obj["weights"], dtype=float)
    i = np.arange(M + 1)
    x = np.asarray(x, dtype=float)
    return betainc(M - i[None, :] + 1.0, i[None, :] + 1.0, x[:, None]) @ w / w.sum()


def _log_alpha(mix_obj):
    return np.array([-math.inf if v == "-inf" else float(v) for v in mix_obj["log_alpha"]])


def continuous_cdf(mix_obj, x):
    """integral alpha(s) I_x(M-s+1, s+1) ds / integral alpha(s) ds, by scipy.quad."""
    from scipy.integrate import quad
    from scipy.special import betainc

    M = float(mix_obj["M"])
    segs = list(_segments(np.asarray(mix_obj["knots"], dtype=float), _log_alpha(mix_obj)))

    def alpha(s, a, b, l0, l1):
        t = (s - a) / (b - a)
        return math.exp((1 - t) * l0 + t * l1)

    mass = sum(quad(alpha, a, b, args=(a, b, l0, l1), epsrel=1e-12)[0] for a, b, l0, l1 in segs)
    out = []
    for xv in x:
        total = sum(
            quad(lambda s: alpha(s, a, b, l0, l1) * betainc(M - s + 1.0, s + 1.0, xv), a, b,
                 epsrel=1e-10)[0]
            for a, b, l0, l1 in segs
        )
        out.append(total / mass)
    return np.array(out)


# two-sided Kolmogorov-Smirnov bound at false-alarm rate 1e-6 per sample:
# sqrt(-ln(1e-6 / 2) / 2) / sqrt(n)
def ks_bound(n):
    return math.sqrt(-math.log(0.5e-6) / 2.0) / math.sqrt(n)


def check_sample(path, n, cdf_fn, exact_points=False):
    draws = np.array([float(v) for v in _data_lines(path)])
    errors = []
    if draws.size != n:
        return [f"{path}: {draws.size} draws, expected {n}"]
    if np.any(draws < 0.0) or np.any(draws > 1.0):
        errors.append(f"{path}: draws outside [0, 1]")
    draws.sort()
    if exact_points:
        F = cdf_fn(draws)
        ranks = np.arange(1, n + 1) / n
        stat = float(max(np.max(ranks - F), np.max(F - (ranks - 1.0 / n))))
    else:
        grid = np.linspace(0.0, 1.0, 129)[1:-1]
        ecdf = np.searchsorted(draws, grid, side="right") / n
        stat = float(np.max(np.abs(ecdf - cdf_fn(grid))))
    if stat > ks_bound(n):
        errors.append(f"{path}: KS distance {stat:.4g} exceeds {ks_bound(n):.4g}")
    return errors


def _csv_table(path):
    lines = _data_lines(path)
    return lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def check_eval(csv_path, json_path, mix_obj, grid):
    from scipy.stats import beta

    errors = []
    cols, table = _csv_table(csv_path)
    if cols != ["x", "f", "d1", "d2", "log_f", "log_d2"]:
        return [f"eval: unexpected columns {cols}"]
    with open(json_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["columns"] != cols or not np.array_equal(np.array(payload["rows"]), table):
        errors.append("eval: CSV and JSON tables differ")
    if table.shape[0] != grid:
        errors.append(f"eval: {table.shape[0]} rows, expected {grid}")
    x, f = table[:, 0], table[:, 1]
    M = mix_obj["M"]
    w = np.asarray(mix_obj["weights"], dtype=float)
    i = np.arange(M + 1)
    ref = beta.pdf(x[:, None], M - i[None, :] + 1.0, i[None, :] + 1.0) @ w / (M + 1.0)
    rel = np.max(np.abs(f - ref) / np.maximum(np.abs(ref), 1e-300))
    if not rel <= 1e-9:
        errors.append(f"eval: density differs from scipy.stats.beta sums by {rel:.3e} (relative)")
    return errors


def check_certify_json(path, mix_obj):
    from types import SimpleNamespace

    with open(path, encoding="utf-8") as fh:
        cert = json.load(fh)
    if cert["verdict"] != "certified":
        return [f"certify: verdict {cert['verdict']}"]
    mix = SimpleNamespace(M=float(mix_obj["M"]), knots=np.asarray(mix_obj["knots"], dtype=float),
                          log_alpha=_log_alpha(mix_obj))
    c = SimpleNamespace(worst_x=cert["worst_x"], min_margin_eq10=cert["min_margin_eq10"],
                        min_logcurv=cert["min_logcurv"], tol=cert["tol"])
    return check_continuous_cert("certify", mix, c)


def check_demo(path):
    errors = []
    fields = {}
    for line in _data_lines(path):
        head, *pairs = line.split()
        fields[head] = dict(p.split("=") for p in pairs)
    sharp = fields.get("sharpness")
    if sharp is None or not float(sharp["max_abs_margin"]) <= 1e-8:
        errors.append(f"demo: sharpness line {sharp}")
    kern = fields.get("kernel-failure")
    if kern is None:
        return errors + ["demo: no kernel-failure line"]
    M, s, x, c = (float(kern[k]) for k in ("M", "s", "x", "log_curvature"))
    ref = -s / (1.0 - x) ** 2 - (M - s) / (x * x)
    if not (ref > 0.0 and abs(c - ref) <= 1e-12 * abs(ref)):
        errors.append(f"demo: kernel log-curvature {c} at x={x}, direct formula gives {ref}")
    return errors


def check_cli_batch(workload, records, failed):
    """Checks of the last pass; byte-identical repeats are checked by comparing
    each command's output digest across passes."""
    from workloads import CLI_EVAL_GRID, CLI_LEMMAS_M, CLI_LEMMAS_N, CLI_SAMPLE_N

    errors = [f"{op.name}: {rec}" for op, rec, bad in zip(workload.ops, records, failed) if bad]
    if errors:
        return errors
    out = {op.name: op.info["out"] for op in workload.ops}
    disc, cont = workload.inputs["discrete"], workload.inputs["continuous"]
    errors = check_lemmas(out["lemmas"], CLI_LEMMAS_M, CLI_LEMMAS_N)
    errors += check_sample(out["sample-discrete"], CLI_SAMPLE_N, lambda x: discrete_cdf(disc, x),
                           exact_points=True)
    errors += check_sample(out["sample-continuous"], CLI_SAMPLE_N, lambda x: continuous_cdf(cont, x))
    errors += check_eval(out["eval-csv"], out["eval-json"], disc, CLI_EVAL_GRID)
    errors += check_certify_json(out["certify"], cont)
    errors += check_demo(out["demo"])
    return errors
