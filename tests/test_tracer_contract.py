"""The benchmark's per-layer tracer finds every entry point it wraps.

perfbench/spans.py replaces named functions of the program for the length of
a traced run and looks each one up by name; a renamed or removed entry point
fails here rather than only under `perfbench/run.py --trace 1`.
"""

import os

import numpy as np
import pytest

import betamix
from betamix import DiscreteMixture

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
    # the grid goes through discrete_derivs_grid, the 3 x 64 midpoint checks
    # through discrete_density_grid
    tri = lambda n: n * (n - 1) // 2
    assert counts["mixtures.discrete"] == {
        "calls": 2,
        "points": grid + 192,
        "bernstein_ops": grid * (tri(M + 1) + tri(M) + tri(M - 1)) + 192 * tri(M + 1),
    }
    layers = {span[1] for span in tracer.spans}
    assert layers == {"certify", "mixtures.discrete"}
