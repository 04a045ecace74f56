"""The import graph: importing betamix and running its discrete commands and a continuous sample loads numpy only.

Sampling draws a mixing index and a Beta variate and needs no gammaln.
scipy is loaded on first use, by a continuous integral, the continuous lemma
sweep or cdf, and fractions by the exact coefficient functions; decimal by
neither. Each check runs in a fresh interpreter, whose sys.modules holds
nothing the test process imported before.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import json, os, sys

import betamix
import betamix.cli
from betamix.cli import main

tmp, then = sys.argv[1], sys.argv[2]


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def exact_modules():
    return sorted(m for m in ("fractions", "decimal") if m in sys.modules)


disc = os.path.join(tmp, "discrete.json")
cont = os.path.join(tmp, "continuous.json")
with open(disc, "w") as fh:
    json.dump({"M": 4, "weights": [1.0, 2.0, 3.0, 2.0, 1.0]}, fh)
with open(cont, "w") as fh:
    json.dump({"M": 3.0, "knots": [0.0, 1.5, 3.0], "log_alpha": [0.0, 0.4, -0.8]}, fh)
after_import = scipy_modules()
exact_after_import = exact_modules()
codes = {}
for name, argv in (
    ("eval", ["eval", "--input", disc, "--grid-points", "16"]),
    ("certify", ["certify", "--input", disc, "--grid-points", "16"]),
    ("sample", ["sample", "--input", disc, "--n", "10", "--grid-points", "16"]),
    ("sample-continuous", ["sample", "--input", cont, "--n", "10"]),
    ("demo", ["demo", "--M", "10", "--r", "2", "--grid-points", "16"]),
):
    codes[name] = main(argv + ["--out", os.path.join(tmp, name + ".out")])
after_discrete = scipy_modules()
exact_after_discrete = exact_modules()
if then == "continuous-certify":
    result = main(["certify", "--input", cont, "--grid-points", "16", "--out", os.path.join(tmp, "c.out")])
else:
    result = betamix.cdf(betamix.DiscreteMixture(4, [1.0, 2.0, 3.0, 2.0, 1.0]), 0.5)
print(json.dumps({
    "after_import": after_import,
    "after_discrete": after_discrete,
    "exact_after_import": exact_after_import,
    "exact_after_discrete": exact_after_discrete,
    "codes": codes,
    "result": result,
    "scipy_loaded": "scipy" in sys.modules,
}))
"""


def _run(tmp_path, then):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), then],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("then", ["continuous-certify", "cdf"])
def test_discrete_commands_never_load_scipy_and_first_use_does(tmp_path, then):
    report = _run(tmp_path, then)
    assert report["after_import"] == []
    assert report["codes"] == {"eval": 0, "certify": 0, "sample": 0, "sample-continuous": 0, "demo": 0}
    assert report["after_discrete"] == []
    assert report["exact_after_import"] == report["exact_after_discrete"] == []
    if then == "continuous-certify":
        assert report["result"] == 0
    else:
        # symmetric weights: half of the mass sum(w)/(M+1) = 9/5 lies below 1/2
        assert report["result"] == pytest.approx(0.9, rel=1e-12)
    assert report["scipy_loaded"]


def test_every_public_name_resolves_and_is_listed_once():
    import betamix

    assert len(set(betamix.__all__)) == len(betamix.__all__)
    missing = [name for name in betamix.__all__ if not hasattr(betamix, name)]
    assert missing == []
