"""The benchmark's per-layer tracer finds every entry point it wraps.

perfbench/spans.py replaces named functions of the program for the length of
a traced run and looks each one up by name; a renamed or removed entry point
fails here rather than only under `perfbench/run.py --trace 1`.
"""

import json
import os

import numpy as np
import pytest

import betamix
import betamix.cli
from betamix import ContinuousMixture, DiscreteMixture, lemmas, mixtures, quadrature

from ladder import LadderLog

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    return spans


def test_tracer_wraps_discrete_certify(spans):
    M, grid = 40, 64
    mix = DiscreteMixture(M, np.exp(-0.01 * (np.arange(M + 1) - 15.0) ** 2))
    plain = betamix.certify(mix, grid_points=grid)
    tracer = spans.Tracer()
    # entering looks up every wrapped name, across all layers
    with tracer.installed():
        traced = betamix.certify(mix, grid_points=grid)
    assert traced == plain
    assert not hasattr(betamix.certify, "__wrapped__")  # restored on exit

    counts = tracer.counts
    assert counts["certify"] == {"calls": 1, "grid_points": grid}
    # the grid and the 64 off-grid points go through one discrete_derivs_grid
    # call, and nothing through discrete_density_grid
    tri = lambda n: n * (n - 1) // 2
    assert counts["mixtures.discrete"] == {
        "calls": 1,
        "points": grid + 64,
        "bernstein_ops": (grid + 64) * (tri(M + 1) + tri(M) + tri(M - 1)),
    }
    layers = {span[1] for span in tracer.spans}
    assert layers == {"certify", "mixtures.discrete"}


def test_tracer_wraps_cli_commands(spans, tmp_path):
    # the command handlers reach the wrapped layers through betamix.cli's own
    # names, which the tracer replaces
    M, grid = 40, 64
    mix_path = tmp_path / "mix.json"
    mix_path.write_text(json.dumps({"M": M, "weights": [1.0] * (M + 1)}))
    demo, table = tmp_path / "demo.txt", tmp_path / "eval.csv"
    tracer = spans.Tracer()
    with tracer.installed():
        assert betamix.cli.main(["demo", "--M", "10", "--r", "2", "--s", "-0.5", "--out", str(demo)]) == 0
        assert betamix.cli.main(["eval", "--input", str(mix_path), "--grid-points", str(grid),
                                 "--out", str(table)]) == 0
    assert not hasattr(betamix.cli.main, "__wrapped__")

    counts = tracer.counts
    assert counts["cli"] == {"commands": 2, "bytes_out": demo.stat().st_size + table.stat().st_size}
    # the sharpness demo evaluates the order-10 geometric mixture on its
    # default 1024 points, which the tracer counts in the certify layer
    assert counts["certify"] == {"calls": 1, "grid_points": 1024}
    tri = lambda n: n * (n - 1) // 2
    derivs_ops = lambda order, points: points * (tri(order + 1) + tri(order) + tri(order - 1))
    assert counts["mixtures.discrete"] == {
        "calls": 2,
        "points": 1024 + grid,
        "bernstein_ops": derivs_ops(10, 1024) + derivs_ops(M, grid),
    }
    names = {span[0] for span in tracer.spans}
    assert {
        "betamix.cli.main",
        "betamix.cli.sharpness_check",
        "betamix.cli.find_kernel_failure",
        "betamix.cli.kernel_log_curvature",
        "betamix.cli.discrete_derivs_grid",
    } <= names


def test_tracer_counts_one_panel_call_per_continuous_table(spans, monkeypatch):
    # a -inf knot splits alpha into two runs, [0, 2] and [3, 6]; each
    # layout is still laid out by one panel_nodes call over the whole knot
    # grid, and none is laid out that no moment pass reads. x = 1e-100
    # fails the first tier, so the evaluator climbs past it
    knots = [0.0, 1.0, 2.0, 2.5, 3.0, 6.0]
    mix = ContinuousMixture(6.0, knots, [0.0, 0.4, -0.5, float("-inf"), -1.0, -2.5])
    plain = betamix.certify(mix, grid_points=64)
    tiny = mixtures.ContinuousEvaluator(mix).forms(1e-100)
    log = LadderLog(monkeypatch)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = betamix.certify(mix, grid_points=64)
        np.testing.assert_array_equal(mixtures.ContinuousEvaluator(mix).forms(1e-100), tiny)
    assert traced == plain
    assert len(log.calls) >= 2
    assert log.climbs_only_on_failure() and log.tiers.count(1) == 2
    assert tracer.counts["quadrature"] == {
        "panel_calls": len(log.calls),
        "rule_builds": len(log.calls),
        "nodes": sum(log.nodes),
    }


def test_tracer_counts_continuous_evaluator_entry_points(spans):
    # density, d1 and d2 are each one call in the mixtures.continuous layer,
    # counted by the points of their x, whether x is passed by position or
    # by name; forms, which density, d1 and d2 slice, is not wrapped
    mix = ContinuousMixture(4.0, [0.0, 1.5, 4.0], [0.0, 0.4, -0.8])
    x = np.linspace(0.05, 0.95, 16)
    plain = mixtures.ContinuousEvaluator(mix)
    want = [plain.density(x), plain.d1(x[:5]), plain.d2(x[:3])]
    tracer = spans.Tracer()
    with tracer.installed():
        ev = mixtures.ContinuousEvaluator(mix)
        got = [ev.density(x), ev.d1(x=x[:5]), ev.d2(x[:3])]
    assert not hasattr(mixtures.ContinuousEvaluator.density, "__wrapped__")
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert tracer.counts["mixtures.continuous"] == {"evaluators": 1, "calls": 3, "points": 16 + 5 + 3}
    names = [span[0] for span in tracer.spans if span[1] == "mixtures.continuous"]
    assert names == [
        "ContinuousEvaluator.__init__",
        "ContinuousEvaluator.density",
        "ContinuousEvaluator.d1",
        "ContinuousEvaluator.d2",
    ]


def test_tracer_counts_lemma_sweeps(spans, tmp_path):
    # the lemmas command reaches the sweeps through betamix.cli's names, and
    # the continuous sweep lays every non-empty window out at one panel per
    # unit in one panel_nodes call, then calls log_abs_gen_binom_ext four
    # times over all its nodes (two products of two binomials), through
    # betamix.lemmas' own names, which the tracer replaces
    discrete = lemmas.discrete_lemma_sweep(max_M=3)
    continuous = lemmas.continuous_lemma_sweep(count=2, seed=0)
    windows = [lemmas._window_interval(c.M, c.n, c.window, c.which)[:2] for c in continuous]
    nodes = sum(quadrature.PANEL_NODES * int(quadrature.panel_counts([lo, hi])[0]) for lo, hi in windows if lo < hi)
    assert nodes
    tracer = spans.Tracer()
    with tracer.installed():
        assert betamix.cli.main(["lemmas", "--M", "3", "--n", "2", "--out", str(tmp_path / "l.csv")]) == 0
    counts = tracer.counts
    assert counts["lemmas"] == {"discrete_cases": len(discrete), "continuous_cases": len(continuous)}
    # the counts are the cases, one per data row written: a sweep whose
    # len() counted anything else (say the columns of a table) fails here
    rows = [line for line in (tmp_path / "l.csv").read_text().splitlines() if not line.startswith("#")][1:]
    assert counts["lemmas"]["discrete_cases"] + counts["lemmas"]["continuous_cases"] == len(rows)
    assert counts["quadrature"] == {"panel_calls": 1, "rule_builds": 1, "nodes": nodes}
    assert counts["special"] == {"calls": 4, "points": 4 * nodes}
