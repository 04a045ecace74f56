import json

import numpy as np
import pytest

from betamix.cli import main


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


def test_lemmas_negate_self_test(tmp_path):
    out = tmp_path / "neg.csv"
    assert main(["lemmas", "--M", "3", "--n", "2", "--negate", "--out", str(out)]) == 1


def test_demo_sharpness(capsys):
    assert main(["demo", "--M", "10", "--r", "2"]) == 0
    text = capsys.readouterr().out
    assert "sharpness" in text
    worst = float(text.rsplit("max_abs_margin=", 1)[1].split()[0])
    assert worst <= 1e-8


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


def test_repeated_runs_identical(violated_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["certify", "--input", violated_file, "--seed", "7", "--out", str(a)]) == 1
    assert main(["certify", "--input", violated_file, "--seed", "7", "--out", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag", ["--q", "--k", "--quad-nodes", "--grid"])
def test_removed_window_flags_rejected(uniform_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--input", uniform_file, flag, "1"])
    assert exc.value.code == 2
