"""Seeded inputs and operations of the three benchmark workloads.

A workload is a fixed list of operations built from the seed; one pass runs
the whole list once. The seed changes the weights, knot positions and knot
values, never how much work an operation does: orders, grid sizes, support
lengths and node counts are fixed per list position, so the amount of work
and every traced count are the same for every seed.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import betamix
import betamix.cli

# discrete-certify: orders log-uniform from 16 to 320; every fifth input is
# bimodal, every third log-concave input has zeroed edges
DISCRETE_COUNT = 24
DISCRETE_ORDER_RANGE = (16, 320)
DISCRETE_GRID = 1024

# inputs the paper proves log-concave with Eq. 10 holding with equality; the
# certifier calls them "violated" because rounding beats its absolute tol
TIGHT_INPUTS = (
    ("tight-e0-M30", 30, "e0"),
    ("tight-e0-M60", 60, "e0"),
    ("tight-geom0.5-M400", 400, "geom0.5"),
)

# continuous-certify: orders log-uniform from 9/8 to 32 on the 1/8 lattice
CONTINUOUS_COUNT = 24
CONTINUOUS_ORDER_RANGE = (1.125, 32.0)
CONTINUOUS_GRID = 512
CONTINUOUS_MAX_KNOTS = 16
# knots sit on multiples of 1/LATTICE; with the default 8 panels per unit
# every quadrature segment then holds a whole number of panels, so node
# counts depend only on the support, which is fixed per list position
LATTICE = 8

# cli-batch inputs
CLI_DISCRETE_M = 40
CLI_CONTINUOUS_M = 6.0
CLI_CONTINUOUS_INNER_KNOTS = 5
CLI_SAMPLE_N = 100000
CLI_EVAL_GRID = 4096
CLI_LEMMAS_M = 12
CLI_LEMMAS_N = 50


@dataclass
class Op:
    """One benchmark operation.

    call() is the timed work; record(result) turns its result into what the
    checks read and runs untimed; failed(record) says whether the program
    gave another answer than the paper predicts.
    """

    name: str
    call: object
    record: object
    failed: object
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generators (numpy only; nothing here calls betamix)


def log_uniform_orders(lo, hi, count):
    return np.exp(np.linspace(math.log(lo), math.log(hi), count))


def concave_log_weights(rng, M):
    """Strictly concave log-weights: second differences in [-4/M, -1/M].

    That curvature keeps the Eq. 10 margin far above rounding at every order
    (geometric weights, whose margin is exactly 0, have none).
    """
    curv = rng.uniform(1.0, 4.0, size=M) / M
    peak = rng.uniform(0.2, 0.8) * M
    slopes = np.cumsum(-curv)
    slopes -= np.interp(peak, np.arange(M), slopes)
    levels = np.concatenate([[0.0], np.cumsum(slopes)])
    return np.exp(levels - levels.max())


def discrete_log_concave(rng, M, zero_edges):
    w = concave_log_weights(rng, M)
    if zero_edges:
        # short zeroed runs keep the density above underflow on the grid
        lead = int(rng.integers(1, 9))
        trail = int(rng.integers(1, 9))
        w[:lead] = 0.0
        w[M + 1 - trail :] = 0.0
    return w


def discrete_bimodal(rng, M):
    i = np.arange(M + 1)
    c1 = rng.uniform(0.1, 0.3) * M
    c2 = rng.uniform(0.7, 0.9) * M
    width = rng.uniform(0.02, 0.05) * M + 0.5
    ratio = rng.uniform(0.3, 3.0)
    return np.exp(-0.5 * ((i - c1) / width) ** 2) + ratio * np.exp(-0.5 * ((i - c2) / width) ** 2)


def tight_weights(M, form):
    if form == "e0":
        w = np.zeros(M + 1)
        w[0] = 1.0
        return w
    return 0.5 ** np.arange(M + 1, dtype=float)


def lattice_order(value):
    return max(LATTICE + 1, round(value * LATTICE)) / LATTICE


def lattice_knots(rng, n, lo, hi, inner_count):
    """inner_count lattice points strictly inside (lo, hi), none a whole 1 or 2
    apart from another knot (0, lo, hi, n included).

    The difference kernels split their panels at every knot and every knot
    shifted by 1 and 2; with no coincidences, the number of those panels and
    of quadrature calls depends on the knot count alone.
    """
    fixed = {0, lo, hi, n}
    banned = {p + d for p in fixed for d in (-2 * LATTICE, -LATTICE, LATTICE, 2 * LATTICE)}
    allowed = [p for p in range(lo + 1, hi) if p not in banned]
    # each pick bans at most four more points, so this many always fit
    inner_count = min(inner_count, len(allowed) // 5)
    chosen = []
    for _ in range(inner_count):
        p = int(rng.choice(allowed))
        chosen.append(p)
        gone = {p + d for d in (-2 * LATTICE, -LATTICE, 0, LATTICE, 2 * LATTICE)}
        allowed = [q for q in allowed if q not in gone]
    return sorted(chosen)


def concave_log_mixing(rng, M, support, inner_count):
    """Knots on the 1/8 lattice with a concave piecewise-linear log mixing.

    support = (lo, hi) in lattice units is where alpha > 0; knots outside it
    carry -inf. Interior knot positions and all values come from rng.
    """
    n = round(M * LATTICE)
    lo, hi = support
    pts = np.array([lo] + lattice_knots(rng, n, lo, hi, inner_count) + [hi])
    seg = np.diff(pts) / LATTICE
    slope0 = rng.uniform(-1.5, 1.5)
    drops = rng.uniform(0.2, 2.0, size=len(seg))
    slopes = slope0 - np.concatenate([[0.0], np.cumsum(drops[:-1])])
    levels = np.concatenate([[0.0], np.cumsum(slopes * seg)])
    levels -= levels.max()
    knots = [p / LATTICE for p in pts]
    log_alpha = list(levels)
    if lo > 0:
        knots = [0.0] + knots
        log_alpha = [-math.inf] + log_alpha
    if hi < n:
        knots = knots + [M]
        log_alpha = log_alpha + [-math.inf]
    return np.array(knots), np.array(log_alpha)


def continuous_support(j, M):
    """Fixed support per list position; positions 1 and 2 mod 3 cut one end."""
    n = round(M * LATTICE)
    cut = max(1, n // 5)
    if j % 3 == 1:
        return cut, n
    if j % 3 == 2:
        return 0, n - cut
    return 0, n


# ---------------------------------------------------------------------------
# operations


def _certify_op(name, mix, grid, expected, info):
    def call():
        # looked up at call time, so a traced run sees the wrapped entry point
        return betamix.certify(mix, grid_points=grid)

    return Op(
        name=name,
        call=call,
        record=lambda cert: cert,
        failed=lambda cert: not hasattr(cert, "verdict") or cert.verdict != expected,
        info=dict(info, mix=mix),
    )


def discrete_certify(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    ops = []
    orders = np.rint(log_uniform_orders(*DISCRETE_ORDER_RANGE, DISCRETE_COUNT)).astype(int)
    for j, M in enumerate(orders):
        M = int(M)
        if j % 5 == 2:
            kind, w, expected = "bimodal", discrete_bimodal(rng, M), "violated"
        else:
            zero = j % 3 == 1
            kind = "log-concave-zeroed" if zero else "log-concave"
            w, expected = discrete_log_concave(rng, M, zero), "certified"
        mix = betamix.DiscreteMixture(M, w)
        ops.append(_certify_op(f"d{j:02d}-M{M}-{kind}", mix, DISCRETE_GRID, expected, {"kind": kind}))
    for name, M, form in TIGHT_INPUTS:
        mix = betamix.DiscreteMixture(M, tight_weights(M, form))
        ops.append(_certify_op(name, mix, DISCRETE_GRID, "certified", {"kind": "tight"}))
    return Workload("discrete-certify", ops)


def continuous_certify(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    ops = []
    orders = [lattice_order(v) for v in log_uniform_orders(*CONTINUOUS_ORDER_RANGE, CONTINUOUS_COUNT)]
    for j, M in enumerate(orders):
        # 0 to 12 interior knots, fixed per position: the knot count sets how
        # many quadrature calls a certificate makes
        knots, log_alpha = concave_log_mixing(rng, M, continuous_support(j, M), (5 * j) % 13)
        mix = betamix.ContinuousMixture(M, knots, log_alpha)
        ops.append(_certify_op(f"c{j:02d}-M{M:g}-K{len(knots)}", mix, CONTINUOUS_GRID, "certified", {}))
    return Workload("continuous-certify", ops)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


def write_cli_inputs(seed, workdir):
    """Write the two seeded mixture files the CLI script reads."""
    rng = np.random.default_rng([seed, 3])
    M = CLI_DISCRETE_M
    w = discrete_log_concave(rng, M, zero_edges=False)
    disc = {"M": M, "weights": [float(v) for v in w]}
    Mc = CLI_CONTINUOUS_M
    n = round(Mc * LATTICE)
    knots, log_alpha = concave_log_mixing(rng, Mc, (n // 6, n), CLI_CONTINUOUS_INNER_KNOTS)
    cont = {
        "M": Mc,
        "knots": [float(k) for k in knots],
        "log_alpha": [float(v) if math.isfinite(v) else "-inf" for v in log_alpha],
    }
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for key, obj in (("discrete", disc), ("continuous", cont)):
        paths[key] = os.path.join(workdir, f"{key}.json")
        _write_json(paths[key], obj)
    return paths, {"discrete": disc, "continuous": cont}


def _cli_op(name, argv, out):
    def call():
        return betamix.cli.main(argv)

    def record(rc):
        with open(out, "rb") as fh:
            data = fh.read()
        return {"rc": rc, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    return Op(name=name, call=call, record=record, failed=lambda rec: rec["rc"] != 0, info={"out": out})


def _cli_ops(script, workdir):
    """One operation per (name, argv, output file), writing through --out."""
    ops = []
    for name, argv, fname in script:
        out = os.path.join(workdir, fname)
        ops.append(_cli_op(name, argv + ["--out", out], out))
    return ops


def cli_script(paths, workdir, seed):
    d, c = paths["discrete"], paths["continuous"]
    n, grid = str(CLI_SAMPLE_N), str(CLI_EVAL_GRID)
    return _cli_ops([
        ("lemmas", ["lemmas", "--M", str(CLI_LEMMAS_M), "--n", str(CLI_LEMMAS_N)], "lemmas.csv"),
        ("sample-discrete", ["sample", "--input", d, "--n", n, "--seed", str(seed)], "sample-discrete.txt"),
        ("sample-continuous", ["sample", "--input", c, "--n", n, "--seed", str(seed)], "sample-continuous.txt"),
        ("eval-csv", ["eval", "--input", d, "--grid-points", grid], "eval.csv"),
        ("eval-json", ["eval", "--input", d, "--grid-points", grid, "--format", "json"], "eval.json"),
        ("certify", ["certify", "--input", c, "--grid-points", str(CONTINUOUS_GRID)], "certify.json"),
        ("demo", ["demo", "--M", "10", "--r", "2", "--s", "-0.5"], "demo.txt"),
    ], workdir)


def cli_batch(seed, workdir):
    paths, objs = write_cli_inputs(seed, workdir)
    return Workload("cli-batch", cli_script(paths, workdir, seed), inputs=objs)


WORKLOADS = {
    "discrete-certify": discrete_certify,
    "continuous-certify": continuous_certify,
    "cli-batch": cli_batch,
}


def probe_ops(workdir):
    """Tiny CLI calls that enter every layer once (traced runs only).

    They make every per-layer time a measured, nonzero figure on every
    workload; their counts are the same on every run.
    """
    os.makedirs(workdir, exist_ok=True)
    d = os.path.join(workdir, "probe-discrete.json")
    c = os.path.join(workdir, "probe-continuous.json")
    _write_json(d, {"M": 2, "weights": [1.0, 2.0, 1.0]})
    _write_json(c, {"M": 3.0, "knots": [0.0, 1.5, 3.0], "log_alpha": [0.0, 0.4, -0.8]})
    return _cli_ops([
        ("probe-lemmas", ["lemmas", "--M", "2", "--n", "1"], "probe-lemmas.csv"),
        ("probe-eval", ["eval", "--input", d, "--grid-points", "8"], "probe-eval.csv"),
        ("probe-certify", ["certify", "--input", d, "--grid-points", "8"], "probe-certify.json"),
        ("probe-sample", ["sample", "--input", c, "--n", "16", "--grid-points", "16"], "probe-sample.txt"),
    ], workdir)
