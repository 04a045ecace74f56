import argparse
import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betamix
import betamix.cli
from betamix.cli import build_parser, main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# the flags each command accepts, all of which it reads but sample's
# --grid-points; every other flag is rejected
COMMAND_FLAGS = {
    "eval": ["--input", "--grid-points", "--eps", "--format", "--out"],
    "certify": ["--input", "--grid-points", "--eps", "--tol", "--seed", "--out"],
    "lemmas": ["--M", "--n", "--seed", "--format", "--out"],
    "demo": ["--M", "--r", "--s", "--grid-points", "--out"],
    "sample": ["--input", "--n", "--grid-points", "--seed", "--out"],
}


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"M": 2, "weights": [1.0, 1.0, 1.0]}))
    return str(path)


@pytest.fixture
def geometric_file(tmp_path):
    path = tmp_path / "geometric.json"
    path.write_text(json.dumps({"M": 2, "weights": [1.0, 2.0, 4.0]}))
    return str(path)


@pytest.fixture
def violated_file(tmp_path):
    path = tmp_path / "violated.json"
    path.write_text(json.dumps({"M": 2, "weights": [1.0, 0.01, 1.0]}))
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"M": 2, "weights": [0.0, 0.0, 0.0]}))
    return str(path)


def _data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0], lines[1:]


def test_eval_uniform(uniform_file, tmp_path):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--input", uniform_file, "--grid-points", "5", "--out", str(out)])
    assert code == 0
    header, rows = _data_rows(out.read_text())
    assert header == "x,f,d1,d2,log_f,log_d2"
    assert len(rows) == 5
    for row in rows:
        f = float(row.split(",")[1])
        assert f == pytest.approx(1.0, abs=1e-12)


def test_eval_geometric_matches_closed_form(geometric_file, tmp_path):
    out = tmp_path / "eval.csv"
    assert main(["eval", "--input", geometric_file, "--grid-points", "7", "--out", str(out)]) == 0
    _, rows = _data_rows(out.read_text())
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        assert cells[1] == pytest.approx((2.0 - cells[0]) ** 2, rel=1e-12)


def test_eval_missing_file(tmp_path, capsys):
    code = main(["eval", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_eval_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--input", str(bad)]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"M": 3, "knots": [0, 1.5, 3], "log_alpha": [0, null, -1]}',
        '{"M": 3, "knots": [0, 1.5, 3], "log_alpha": 5}',
        '{"knots": [0, 1.5, 3], "log_alpha": [0, 0.4, -1]}',
        '{"M": [3], "knots": [0, 1.5, 3], "log_alpha": [0, 0.4, -1]}',
        '{"M": "3", "knots": [0, 1.5, 3], "log_alpha": [0, 0.4, -1]}',
        '{"M": 3, "knots": [0, NaN, 3], "log_alpha": [0, 0.4, -1]}',
        '{"M": 3, "knots": [NaN, 1.5, 3], "log_alpha": [0, 0.4, -1]}',
        '{"M": Infinity, "weights": [1, 1, 1]}',
        '{"M": true, "weights": [1, 1]}',
        '{"M": 2, "weights": [1, true, 1]}',
        '{"M": 2, "weights": [1, {"a": 1}, 1]}',
        '{"M": 2, "weights": {"a": 1}}',
        pytest.param('{"M": 2, "weights": [1, 1' + "0" * 400 + ', 1]}', id="weight-of-401-digits"),
    ],
)
def test_certify_malformed_mixture_files_exit_2(tmp_path, text, capsys):
    # each used to crash with a traceback (exit 1, which reads "violated"),
    # certify a NaN knot as degenerate, or be accepted
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "cert.json"
    assert main(["certify", "--input", str(path), "--grid-points", "16", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("betamix: invalid input:") and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "-1e-300"])
def test_certify_rejects_a_tol_that_is_not_finite_and_nonnegative(uniform_file, tol, tmp_path, capsys):
    # an infinite tol passes every margin and is not JSON; a negative one fails every input
    out = tmp_path / "cert.json"
    assert main(["certify", "--input", uniform_file, f"--tol={tol}", "--out", str(out)]) == 2
    assert "tol" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="tol"):
        betamix.certify(betamix.DiscreteMixture(2, [1.0, 1.0, 1.0]), tol=float(tol))


def test_eval_header_metadata(uniform_file, tmp_path):
    out = tmp_path / "eval.csv"
    main(["eval", "--input", uniform_file, "--grid-points", "3", "--out", str(out)])
    text = out.read_text()
    assert text.startswith("# betamix ")
    assert "# command: eval" in text
    assert "--grid-points=3" in text
    assert "# input-sha256: " in text


def test_eval_json_format(uniform_file, tmp_path):
    out = tmp_path / "eval.json"
    main(["eval", "--input", uniform_file, "--grid-points", "4", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "x"
    assert len(payload["rows"]) == 4
    assert payload["meta"]["tool_version"]


def test_eval_json_writes_non_finite_cells_as_null(tmp_path):
    # w = e_200 at M = 400: f underflows to 0 at the grid ends, where log f is
    # -inf and (log f)'' is nan; a strict parser must still read the file
    path = tmp_path / "e200.json"
    path.write_text(json.dumps({"M": 400, "weights": np.eye(401)[200].tolist()}))
    out = tmp_path / "eval.json"
    assert main(["eval", "--input", str(path), "--grid-points", "64", "--format", "json", "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"bare {token} in JSON output")

    rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
    # two points at each end, where f is 0; (log f)'' is finite wherever f is
    # positive, even where f*f underflows
    assert sum(cell is None for row in rows for cell in row) == 4
    assert all(row[1] == 0.0 for row in rows if None in row)
    csv = tmp_path / "eval.csv"
    assert main(["eval", "--input", str(path), "--grid-points", "64", "--out", str(csv)]) == 0
    assert ",0,0,0,-inf,nan" in csv.read_text()


def test_eval_log_curvature_where_f_squared_leaves_the_double_range(tmp_path):
    # w_i = 2^i at M = 1000 gives f = (2-x)^1000, up to 1e301, so f*f
    # overflows; w = e_200 at M = 400 gives f down to 6e-243, so f*f
    # underflows. (log f)'' is finite and known in closed form at every point
    cases = [
        ([2.0**i for i in range(1001)], 8, lambda x: -1000.0 / (2.0 - x) ** 2),
        (np.eye(401)[200].tolist(), 64, lambda x: -200.0 / x**2 - 200.0 / (1.0 - x) ** 2),
    ]
    for weights, grid, exact in cases:
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"M": len(weights) - 1, "weights": weights}))
        out = tmp_path / "eval.csv"
        argv = ["eval", "--input", str(path), "--grid-points", str(grid), "--out", str(out)]
        assert main(argv) == 0
        _, rows = _data_rows(out.read_text())
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        x, f, log_d2 = table[:, [0, 1, 5]].T
        positive = f > 0.0
        assert np.count_nonzero(positive) >= grid - 4
        np.testing.assert_allclose(log_d2[positive], exact(x[positive]), rtol=1e-10)
        assert np.all(np.isnan(log_d2[~positive]))


@pytest.mark.parametrize("eps", ["1e-17", "0", "0.5", "-0.1"])
def test_eval_and_certify_reject_eps_outside_the_grid_range(uniform_file, eps, capsys):
    # 1 - 1e-17 == 1.0, so that grid would end at x = 1
    for command in ("eval", "certify"):
        assert main([command, "--input", uniform_file, "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert "eps" in captured.err and captured.out == ""


def test_certify_exit_codes(uniform_file, violated_file, zero_file, tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--input", uniform_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "certified"

    assert main(["certify", "--input", violated_file, "--out", str(out)]) == 1
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "violated"
    assert abs(cert["worst_x"] - 0.5) < 0.05
    assert cert["input"]["weights"] == [1.0, 0.01, 1.0]

    assert main(["certify", "--input", zero_file, "--out", str(out)]) == 4
    assert json.loads(out.read_text())["verdict"] == "degenerate-zero"


def test_certify_continuous_input(tmp_path):
    path = tmp_path / "cont.json"
    path.write_text(
        json.dumps({"M": 3.0, "knots": [0.0, 1.5, 3.0], "log_alpha": [0.0, 0.4, "-inf"]})
    )
    out = tmp_path / "cert.json"
    assert main(["certify", "--input", str(path), "--grid-points", "256", "--out", str(out)]) == 0


def test_eval_large_order_continuous_input(tmp_path):
    # an M = 200 mixture whose f'' cancels near x = 0.98: its Gauss-Kronrod
    # gap is judged on the scale of the posterior variance, M^2, not of |f''|
    path = tmp_path / "m200.json"
    path.write_text(json.dumps({
        "M": 200.0,
        "knots": [0.0, 13.03789872, 38.76826494, 71.07771893, 189.3584576, 200.0],
        "log_alpha": [0.0, -1.57565692, -12.19499155, -27.76329719, -92.08051285, -101.54966575],
    }))
    out = tmp_path / "eval.csv"
    assert main(["eval", "--input", str(path), "--out", str(out)]) == 0
    header, rows = _data_rows(out.read_text())
    assert len(rows) == 1024


def _run_continuous(tmp_path, M, command):
    """Run one command on {"M": M, "knots": [0, M], "log_alpha": [0, 0]} in a fresh interpreter."""
    path = tmp_path / "huge-order.json"
    path.write_text(json.dumps({"M": M, "knots": [0, M], "log_alpha": [0, 0]}))
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    return subprocess.run(
        [sys.executable, "-m", "betamix.cli", command, "--input", str(path), "--grid-points", "16"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )


@pytest.mark.parametrize("command", ["eval", "certify"])
def test_continuous_order_past_the_square_root_of_the_double_range_is_an_evaluation_failure(command, tmp_path):
    # M^2 overflows at M = 1e300, and the layout would take about 1e303
    # nodes: the process fails evaluation (exit 3), not with a traceback and
    # exit 1
    proc = _run_continuous(tmp_path, 1e300, command)
    assert proc.returncode == 3
    assert "betamix: evaluation failure" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("M", [1e18, 1e19])
@pytest.mark.parametrize("command", ["eval", "certify"])
def test_continuous_order_past_the_node_limit_is_an_evaluation_failure(command, M, tmp_path):
    # one panel per unit of s would lay out 21 M nodes, past
    # quadrature.MAX_NODES; the count is checked as a float (a cast to int
    # is invalid past M = 9.2e18) before anything is allocated
    proc = _run_continuous(tmp_path, M, command)
    assert proc.returncode == 3
    assert "quadrature nodes exceed the limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_lemmas_pass_and_row_count(tmp_path):
    out = tmp_path / "lemmas.csv"
    code = main(["lemmas", "--M", "5", "--n", "4", "--out", str(out)])
    assert code == 0
    _, rows = _data_rows(out.read_text())
    # discrete sweep rows: M in 2..5, n in 0..2M-2, k in -1..floor((n+1)/2),
    # three inequalities each, skipping empty ranges; continuous adds 3 per draw
    expected = 0
    for M in range(2, 6):
        for n in range(0, 2 * M - 1):
            for k in range(-1, (n + 1) // 2 + 1):
                for which in ("ineq2p1", "ineq2p2", "ineq2p3"):
                    hi = n - k + 1 if which == "ineq2p2" else n - k
                    if hi >= k:
                        expected += 1
    expected += 3 * 4
    assert len(rows) == expected
    assert all(row.endswith(",1") for row in rows)


def test_lemmas_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["lemmas", "--M", "4", "--n", "6", "--seed", "3", "--out", str(a)])
    main(["lemmas", "--M", "4", "--n", "6", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_lemmas_negate_self_test(tmp_path, monkeypatch):
    # a sweep whose every case fails must make the command exit 1
    def failing(sweep):
        return lambda *args, **kw: [case._replace(holds=False) for case in sweep(*args, **kw)]

    for name in ("discrete_lemma_sweep", "continuous_lemma_sweep"):
        monkeypatch.setattr(betamix.cli, name, failing(getattr(betamix.cli, name)))
    out = tmp_path / "neg.csv"
    assert main(["lemmas", "--M", "3", "--n", "2", "--out", str(out)]) == 1
    _, rows = _data_rows(out.read_text())
    assert rows and all(row.endswith(",0") for row in rows)


def test_demo_sharpness(capsys):
    assert main(["demo", "--M", "10", "--r", "2"]) == 0
    text = capsys.readouterr().out
    assert "sharpness" in text
    worst = float(text.rsplit("max_abs_margin=", 1)[1].split()[0])
    assert worst <= 1e-8


def test_demo_sharpness_above_ratio_one_at_a_high_order(capsys):
    # r^i overflowed from i = 309 at r = 10; the weights now peak at 1
    assert main(["demo", "--M", "400", "--r", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(captured.out.rsplit("max_abs_margin=", 1)[1].split()[0]) <= 1e-8


def test_demo_kernel_failure(capsys):
    assert main(["demo", "--M", "2", "--s", "-0.5"]) == 0
    text = capsys.readouterr().out
    assert "kernel-failure" in text
    x = float(text.rsplit("x=", 1)[1].split()[0])
    curv = float(text.rsplit("log_curvature=", 1)[1].split()[0])
    assert 0.0 < x < 1.0
    assert curv > 0.0


def test_demo_no_failure_inside_support(capsys):
    assert main(["demo", "--M", "2", "--s", "1"]) == 2
    assert "no kernel failure" in capsys.readouterr().err


def test_demo_needs_parameters(capsys):
    assert main(["demo", "--M", "3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["lemmas", "--M", "-3", "--n", "-2"],
        ["lemmas", "--M", "1"],
        ["lemmas", "--n", "-1"],
        ["demo", "--M", "10", "--r", "2", "--grid-points", "0"],
        ["demo", "--M", "10", "--r", "2", "--grid-points", "1"],
    ],
)
def test_vacuous_sweeps_and_sharpness_grids_exit_2(argv, tmp_path, capsys):
    # a sweep over no order or a negative count of draws, and a sharpness
    # grid certify would refuse, used to exit 0 on a header-only table or a
    # margin read at one point or none
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("betamix: invalid input:") and "Traceback" not in captured.err
    assert not out.exists()


def test_sample_deterministic_and_degenerate(uniform_file, zero_file, tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["sample", "--input", uniform_file, "--n", "200", "--seed", "11", "--out", str(a)]) == 0
    assert main(["sample", "--input", uniform_file, "--n", "200", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    draws = [float(l) for l in a.read_text().splitlines() if not l.startswith("#")]
    assert len(draws) == 200
    assert all(0.0 < d < 1.0 for d in draws)
    assert main(["sample", "--input", zero_file, "--n", "10"]) == 4
    capsys.readouterr()
    # --grid-points is parsed and read by nothing: any value writes the same bytes
    for grid_points in ("1", "0", "16"):
        assert main(["sample", "--input", uniform_file, "--n", "200", "--seed", "11",
                     "--grid-points", grid_points, "--out", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()


def test_sample_ks_downstream(uniform_file, tmp_path):
    out = tmp_path / "draws.txt"
    assert main(["sample", "--input", uniform_file, "--n", "100000", "--seed", "0", "--out", str(out)]) == 0
    draws = np.array([float(l) for l in out.read_text().splitlines() if not l.startswith("#")])
    xs = np.sort(draws)
    n = xs.size
    dist = max(
        float(np.max(np.arange(1, n + 1) / n - xs)), float(np.max(xs - np.arange(0, n) / n))
    )
    assert dist <= 0.01


@pytest.mark.parametrize("n", [1, betamix.cli._CHUNK, betamix.cli._CHUNK + 1])
def test_sample_streamed_in_chunks_writes_the_single_join_bytes(uniform_file, n, tmp_path, capsys):
    out = tmp_path / "draws.txt"
    argv = ["sample", "--input", uniform_file, "--n", str(n), "--grid-points", "64", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    header = data.decode().splitlines()[:3]
    draws = betamix.sample(betamix.DiscreteMixture(2, [1.0, 1.0, 1.0]), n, seed=3)
    joined = "\n".join([*header, *map("{:.17g}".format, draws.tolist())]) + "\n"
    assert all(line.startswith("# ") for line in header)
    assert data == joined.encode()
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == data


def _csv_cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    return v if isinstance(v, str) else "{:.17g}".format(v)


def _assert_csv_is_the_single_join(argv, tmp_path, capsys):
    # the rows of the JSON table, written as CSV in one join, against the
    # chunked CSV writer, both to a file and to stdout
    json_out = tmp_path / "table.json"
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    table = json.loads(json_out.read_text())
    csv_out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(csv_out)]) == 0
    data = csv_out.read_bytes()
    header = data.decode().splitlines()[:3]
    assert all(line.startswith("# ") for line in header)
    rows = [",".join(map(_csv_cell, row)) for row in table["rows"]]
    assert data == ("\n".join([*header, ",".join(table["columns"]), *rows]) + "\n").encode()
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == data
    return table


@pytest.mark.parametrize("grid", [betamix.cli._CHUNK - 1, betamix.cli._CHUNK, betamix.cli._CHUNK + 1])
def test_eval_csv_streamed_in_chunks_writes_the_single_join_bytes(geometric_file, grid, tmp_path, capsys):
    table = _assert_csv_is_the_single_join(["eval", "--input", geometric_file, "--grid-points", str(grid)],
                                           tmp_path, capsys)
    assert len(table["rows"]) == grid


def test_lemmas_csv_streamed_writes_the_single_join_bytes(tmp_path, capsys):
    table = _assert_csv_is_the_single_join(["lemmas", "--M", "4", "--n", "3"], tmp_path, capsys)
    assert {row[-1] for row in table["rows"]} == {True}


def test_lemmas_writes_every_number_as_a_double(tmp_path):
    # the exact integer sides of a discrete case are written as their nearest
    # doubles, in JSON as floats (2.0, not 2) even past 2^63: C(68, 34) is
    # about 2.8e19; the CSV of the same run holds their %.17g text
    argv = ["lemmas", "--M", "35", "--n", "0"]
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "l.json")]) == 0
    assert main(argv + ["--out", str(tmp_path / "l.csv")]) == 0
    rows = json.loads((tmp_path / "l.json").read_text())["rows"]
    _, csv_rows = _data_rows((tmp_path / "l.csv").read_text())
    cases = betamix.lemmas.discrete_lemma_sweep(max_M=35)
    assert len(rows) == len(csv_rows) == len(cases)
    assert max(c.lhs for c in cases) > 2**63
    for j, (row, csv_row, case) in enumerate(zip(rows, csv_rows, cases)):
        if j % 101 == 0:
            assert betamix.lemmas.lemma2_discrete(case.M, case.n, case.window, case.which) == case
        numbers = [row[i] for i in (0, 1, 2, 4, 5, 6)]
        assert all(type(v) is float for v in numbers), row
        assert numbers == [float(case[i]) for i in (0, 1, 2, 4, 5, 6)]
        assert row[3] == case.which and row[7] is True
        assert csv_row == ",".join(["%.17g" % v for v in numbers[:3]] + [case.which]
                                   + ["%.17g" % v for v in numbers[3:]] + ["1"])


# the writers against json.dumps and a per-cell {:.17g} join, on columns of
# every cell type: floats at the edges of the double range, bools, ints and
# strings with JSON escapes, % and commas
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.0]
_EDGE_STRINGS = ['"', "\\", "%", "%s", "%%d", ",", "a,b", "", " ", "\n", "\t", "\x01", "\u00e9", "\u2211",
                 "\U0001f600", 'q"u\\o%t,e\u00e9']
_META = {"tool_version": betamix.__version__, "command": "eval", "flags": "--x=\u00e9", "input_sha256": "-"}


def _edge_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    # every bit pattern, so nan payloads, infinities and subnormals too
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    bits[: min(n, len(_EDGE_FLOATS))] = _EDGE_FLOATS[:n]
    scaled = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    return {
        "bits": bits,
        "scaled": scaled.tolist(),
        "flag": rng.random(n) < 0.5,
        "count": rng.integers(-2**62, 2**62, n),
        "name": [_EDGE_STRINGS[i % len(_EDGE_STRINGS)] for i in range(n)],
    }


def _reference_table(fmt, meta, columns):
    # the whole table as one string, one cell at a time
    values = [np.asarray(col).tolist() for col in columns.values()]
    if fmt == "json":
        rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in zip(*values)]
        payload = {"meta": meta, "columns": list(columns), "rows": rows}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    header = ["# betamix " + meta["tool_version"], f"# command: {meta['command']} {meta['flags']}",
              "# input-sha256: " + meta["input_sha256"], ",".join(columns)]
    return "\n".join([*header, *(",".join(map(_csv_cell, row)) for row in zip(*values))]) + "\n"


def _written_table(fmt, meta, columns, out=None):
    args = argparse.Namespace(format=fmt, out=out)
    if out:
        betamix.cli._write_table(args, meta, columns)
        with open(out, "rb") as fh:
            return fh.read().decode("utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        betamix.cli._write_table(args, meta, columns)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, betamix.cli._CHUNK - 1, betamix.cli._CHUNK, betamix.cli._CHUNK + 1])
def test_table_writers_write_the_one_string_bytes(fmt, n, tmp_path):
    columns = _edge_columns(n)
    expected = _reference_table(fmt, _META, columns)
    assert _written_table(fmt, _META, columns, str(tmp_path / "table")).encode() == expected.encode()
    assert _written_table(fmt, _META, columns) == expected


_CELLS = st.tuples(
    st.floats(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.lists(_CELLS, max_size=12))
def test_table_writers_match_the_references_on_any_cells(rows):
    names = ["f", "b", "i", "s"]
    columns = {name: [row[k] for row in rows] for k, name in enumerate(names)}
    for fmt in ("csv", "json"):
        assert _written_table(fmt, _META, columns) == _reference_table(fmt, _META, columns)


def _csv_numbers(values):
    # the data lines of a one-column CSV table, written by _write_rows
    args = argparse.Namespace(format="csv", out=None)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        betamix.cli._write_rows(args, _META, [values])
    return buf.getvalue().splitlines()[3:]


def _assert_g17(values):
    # every cell is the %.17g text of its value as a double
    expected = ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]
    assert _csv_numbers(values) == expected


def _around(values):
    # each double, its neighbours either way, and the negatives of all three
    v = np.asarray(values, dtype=float)
    near = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
    return np.concatenate([near, -near])


def test_digit_path_at_powers_of_ten():
    # decimal text (10^k) and the double nearest it by float arithmetic
    # (10.0^k), 1e-5 to 1e17, where log10 may miss the exponent by one
    powers = [float(f"1e{k}") for k in range(-5, 18)] + [10.0**k for k in range(-5, 18)]
    _assert_g17(_around(powers))


def test_digit_path_around_two_to_the_53():
    k = np.arange(-64, 65, dtype=float)
    _assert_g17(_around(2.0**53 + k))
    _assert_g17(2.0**53 + 2.0 * k)


def test_digit_path_edges_of_fixed_notation():
    # ties on the 17th digit round half to even; 1e-4 is the first value in
    # fixed notation and the double below it is not; 9999999999999999 and
    # the doubles up to 1e16 are the last
    cells = [1e15 + 0.25, 1e15 + 1.25, 1e15 + 0.75, 1e-4, np.nextafter(1e-4, 0.0), 9999999999999999.0,
             9999999999999998.0, 1e16, 0.1, 0.5, 0.25, 123.456, 1.0, 99999999999999999e-20]
    assert _csv_numbers([1e15 + 0.25, 1e15 + 1.25]) == ["1000000000000000.2", "1000000000000001.2"]
    _assert_g17(cells + [-c for c in cells])


def test_digit_path_zeros_subnormals_and_ints():
    # signed zeros, subnormals, non-finite values and int64 columns, which
    # %.17g writes as the double nearest each int
    _assert_g17([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.nan, math.inf, -math.inf])
    ints = np.array([0, 1, -1, 7, 10**15, 10**16 - 1, 10**16, 2**53 + 1, 2**62 + 3, -(2**63), 2**63 - 1])
    assert _csv_numbers(ints) == ["%.17g" % v for v in ints.tolist()]


_FIXED = st.floats(1e-4, 1e16, exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(_FIXED, _FIXED.map(lambda v: -v)), min_size=1, max_size=20))
def test_digit_path_matches_g17_on_fixed_notation(values):
    _assert_g17(values)


def test_digit_path_matches_g17_on_a_million_doubles():
    # random bit patterns and log-uniform magnitudes from 1e-6 to 1e18, in
    # chunks of 4096 rows
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    magnitudes = 10.0 ** rng.uniform(-6.0, 18.0, 800_000) * rng.choice([-1.0, 1.0], 800_000)
    _assert_g17(np.concatenate([bits, magnitudes]))


@pytest.mark.parametrize("command", ["lemmas", "eval"])
def test_json_tables_are_the_json_dumps_bytes(command, geometric_file, tmp_path, capsys):
    # a JSON table parses back to a payload whose json.dumps gives its bytes;
    # lemmas rows mix strings, floats and bools
    argv = {"lemmas": ["lemmas", "--M", "4", "--n", "3"],
            "eval": ["eval", "--input", geometric_file, "--grid-points", "5"]}[command] + ["--format", "json"]
    out = tmp_path / "table.json"
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    payload = json.loads(data)
    assert data == (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
    if command == "lemmas":
        assert {type(v) for v in payload["rows"][0]} == {float, str, bool}
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == data


class _GoneReader(io.StringIO):
    # an in-process stdout, with no fd, whose reader has gone
    def writelines(self, lines):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_ends_the_output_quietly(tmp_path, monkeypatch, capsys):
    # the reader reads one line and goes away: no message, exit 0
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"M": 2, "weights": [1.0, 2.0, 1.0]}))
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _GoneReader())
        assert main(["sample", "--input", str(path), "--n", "10"]) == 0
    assert capsys.readouterr().err == ""
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    with subprocess.Popen(
        [sys.executable, "-m", "betamix.cli", "sample", "--input", str(path), "--n", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        assert proc.stdout.readline().startswith(b"# betamix ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 0
    assert err == b""


def test_repeated_runs_identical(violated_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["certify", "--input", violated_file, "--seed", "7", "--out", str(a)]) == 1
    assert main(["certify", "--input", violated_file, "--seed", "7", "--out", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


def test_parser_built_once_per_process(geometric_file, tmp_path, monkeypatch, capsys):
    # main() parses with one parser for the whole process: two calls write
    # the same bytes without building another, and a bad flag still exits 2
    built = []
    monkeypatch.setattr(betamix.cli, "build_parser", lambda: built.append(1) or build_parser())
    betamix.cli._parser.cache_clear()
    try:
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["eval", "--input", geometric_file, "--grid-points", "7", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", geometric_file, "--grid", "7"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err
        assert main(["lemmas", "--M", "2", "--n", "1"]) == 0
        assert len(built) == 1
    finally:
        betamix.cli._parser.cache_clear()


@pytest.mark.parametrize("flag", ["--q", "--k", "--quad-nodes", "--grid"])
def test_removed_window_flags_rejected(uniform_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--input", uniform_file, flag, "1"])
    assert exc.value.code == 2


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_command_accepts_exactly_the_flags_it_reads():
    commands = _subparsers(build_parser())
    assert set(commands) == set(COMMAND_FLAGS)
    accepted = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert accepted == {name: set(flags) for name, flags in COMMAND_FLAGS.items()}
    assert sum(map(len, accepted.values())) == 26


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--input", "f", "--format", "json"],
        ["certify", "--input", "f", "--format", "csv"],
        ["demo", "--M", "10", "--r", "2", "--eps", "1e-3"],
        ["eval", "--input", "f", "--tol", "1"],
        ["lemmas", "--input", "f"],
        ["sample", "--input", "f", "--n", "2.5"],
        ["lemmas", "--n", "1.5"],
        ["lemmas", "--M", "2.9"],
        ["eval"],
        ["demo", "--r", "2"],
    ],
    ids=" ".join,
)
def test_flags_outside_the_command_and_fractional_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: betamix" in capsys.readouterr().err


def _recorded_flags(text):
    (line,) = [l for l in text.splitlines() if l.startswith("# command: ")]
    name, *flags = line[len("# command: "):].split(" ")
    return name, flags


def test_header_and_meta_list_exactly_the_command_flags(uniform_file, tmp_path):
    out = tmp_path / "out"
    runs = {
        "eval": ["--input", uniform_file, "--grid-points", "3"],
        "certify": ["--input", uniform_file, "--grid-points", "8"],
        "lemmas": ["--M", "2", "--n", "1"],
        "demo": ["--M", "2", "--s", "-0.5"],
        "sample": ["--input", uniform_file, "--n", "4", "--grid-points", "16"],
    }
    for name, argv in runs.items():
        assert main([name, *argv, "--out", str(out)]) == 0
        text = out.read_text()
        if name == "certify":
            flags = json.loads(text)["meta"]["flags"].split(" ")
        else:
            recorded, flags = _recorded_flags(text)
            assert recorded == name
        # every flag the command reads but --out, defaults included; demo's
        # unset --r and sample's unread --grid-points are left out
        unset = {("demo", "--r"), ("sample", "--grid-points")}
        expected = [f for f in COMMAND_FLAGS[name] if f != "--out" and (name, f) not in unset]
        assert [f.split("=")[0] for f in flags] == expected
    for name, argv in (("eval", runs["eval"]), ("lemmas", runs["lemmas"])):
        assert main([name, *argv, "--format", "json", "--out", str(out)]) == 0
        meta_flags = json.loads(out.read_text())["meta"]["flags"].split(" ")
        assert [f.split("=")[0] for f in meta_flags] == [f for f in COMMAND_FLAGS[name] if f != "--out"]

    main(["lemmas", "--M", "2", "--n", "1", "--out", str(out)])
    assert "# command: lemmas --M=2 --n=1 --seed=0 --format=csv\n" in out.read_text()
    main(["sample", "--input", uniform_file, "--n", "4", "--out", str(out)])
    expected = f"# command: sample --input={uniform_file} --n=4 --seed=0\n"
    assert expected in out.read_text()


def _documented_flags(entries, pattern):
    """{command: [(flag, default as written, or None)]} from (command, text) pairs.

    pattern captures a flag and the text of the bracket after it, if any;
    the default is that text up to its first comma or semicolon.
    """
    return {
        name: [(flag, re.split("[,;]", inside)[0] or None) for flag, inside in re.findall(pattern, text)]
        for name, text in entries
    }


def test_docs_list_exactly_the_command_table():
    # README's command-line table and the module docstring name, per command,
    # the same flags in the same order as COMMANDS, with the same defaults
    with open(os.path.join(os.path.dirname(PERFBENCH), "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", fh.read(), flags=re.M)
    doc = betamix.cli.__doc__
    block = doc[doc.index("Each command accepts") : doc.index("\n\n", doc.index("    eval"))]
    entries = re.findall(r"^    (\w+) +(.*(?:\n {13}.*)*)", block, flags=re.M)
    documented = (
        _documented_flags(rows, r"`--([\w-]+)`(?: \(([^)]*)\))?"),
        _documented_flags(entries, r"--([\w-]+)(?: [\[(]([^\])]*)[\])])?"),
    )
    for listed in documented:
        assert list(listed) == list(betamix.cli.COMMANDS)
        for name, command in betamix.cli.COMMANDS.items():
            assert [flag for flag, _ in listed[name]] == list(command.flags), name
            for flag, text in listed[name]:
                kind, default = command.flags[flag]
                if default is betamix.cli.UNREAD:
                    assert text == "ignored", (name, flag)
                elif default is betamix.cli.REQUIRED or default is None:
                    assert text == ("required" if default is betamix.cli.REQUIRED else None), (name, flag)
                else:
                    assert (str if isinstance(kind, tuple) else kind)(text) == default, (name, flag)


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # every argv the benchmark's cli-batch and probe operations run must parse,
    # so no benchmark operation can start exiting 2
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    parsed = []
    monkeypatch.setattr(betamix.cli, "main", lambda argv: parsed.append(build_parser().parse_args(argv)))
    paths = {"discrete": "discrete.json", "continuous": "continuous.json"}
    ops = workloads.cli_script(paths, str(tmp_path), 1) + workloads.probe_ops(str(tmp_path / "probe"))
    for op in ops:
        op.call()
    assert len(parsed) == len(ops) == 11
    assert {args.command for args in parsed} == set(COMMAND_FLAGS)


def test_input_read_once_and_digest_names_parsed_bytes(geometric_file, tmp_path, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "eval.json"
    assert main(["eval", "--input", geometric_file, "--grid-points", "3", "--format", "json",
                 "--out", str(out)]) == 0
    assert opened.count(geometric_file) == 1
    with real_open(geometric_file, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert json.loads(out.read_text())["meta"]["input_sha256"] == digest
    for command in (["sample", "--n", "5"], ["certify", "--grid-points", "8"]):
        opened.clear()
        assert main([command[0], "--input", geometric_file, *command[1:], "--out", str(out)]) == 0
        assert opened.count(geometric_file) == 1
        assert digest in out.read_text()


def test_demo_sharpness_needs_integer_order(capsys):
    assert main(["demo", "--M", "10.7", "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert "integer --M" in captured.err
    assert captured.out == ""
    # the kernel-failure demo keeps the real order
    assert main(["demo", "--M", "10.7", "--s", "-0.5"]) == 0
    assert "kernel-failure M=10.699999999999999 s=-0.5 " in capsys.readouterr().out
