"""Command-line front end: evaluate, certify, sweep lemmas, demo, sample.

All commands share one flat flag namespace. Data goes to stdout (or --out);
diagnostics go to stderr. Every output file starts with header comments
carrying the tool version, the full flag set and a digest of the input, so
runs are reproducible byte for byte given the same input, flags and seed.

Exit codes: 0 success/certified, 1 violated or failed sweep cases,
2 malformed input or arguments, 3 evaluation/quadrature failure,
4 degenerate (identically zero) mixture.
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .certify import certify, find_kernel_failure, kernel_log_curvature, sharpness_check
from .lemmas import continuous_lemma_sweep, discrete_lemma_sweep
from .mixtures import (
    ContinuousEvaluator,
    DegenerateMixtureError,
    DiscreteMixture,
    QuadratureError,
    discrete_derivs_grid,
    load_mixture,
    mixture_to_json,
    sample,
)
from .quadrature import QuadratureConfig
from .special import DomainError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_EVAL = 3
EXIT_DEGENERATE = 4

_FMT = "{:.17g}"


def _fmt(v) -> str:
    if v is None:
        return "nan"
    return _FMT.format(float(v))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betamix",
        description="Evaluate, certify and stress-test log-concavity of Beta mixtures.",
    )
    parser.add_argument("--version", action="version", version=f"betamix {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path to a mixture JSON file")
    common.add_argument("--M", type=float, default=None, help="order / sweep bound")
    common.add_argument("--r", type=float, default=None, help="geometric weight ratio (demo)")
    common.add_argument("--s", type=float, default=None, help="kernel index (demo)")
    common.add_argument("--n", type=float, default=None, help="count (lemmas draws, sample size)")
    common.add_argument("--grid-points", type=int, default=None, help="evaluation grid size")
    common.add_argument("--eps", type=float, default=1e-6, help="grid endpoint inset")
    common.add_argument("--tol", type=float, default=1e-9, help="certification tolerance")
    common.add_argument("--quad-panels", type=int, default=8, help="quadrature panels per unit")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    common.add_argument("--out", help="output path (default: stdout)")

    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "eval": "tabulate f, f', f'' over a grid",
        "certify": "emit a log-concavity certificate",
        "lemmas": "run the inequality sweeps",
        "demo": "sharpness and kernel-failure demos",
        "sample": "draw from the normalized density",
    }
    # allow_abbrev=False: a prefix of a flag is an error, not that flag
    parsers = {
        name: sub.add_parser(name, parents=[common], allow_abbrev=False, help=text)
        for name, text in commands.items()
    }
    parsers["lemmas"].add_argument(
        "--negate",
        action="store_true",
        help="debug: flip every inequality direction (harness self-test; must exit 1)",
    )
    return parser


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(panels_per_unit=args.quad_panels)


def _flag_string(args) -> str:
    # --out names the destination, not the computation; leaving it out keeps
    # outputs byte-identical wherever they are written
    skip = {"command", "out"}
    parts = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        parts.append(flag if value is True else f"{flag}={value}")
    return " ".join(parts)


def _input_digest(path) -> str:
    if not path:
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _header_lines(args) -> list[str]:
    return [
        f"# betamix {__version__}",
        f"# command: {args.command} {_flag_string(args)}",
        f"# input-sha256: {_input_digest(args.input)}",
    ]


def _meta(args) -> dict:
    return {
        "tool_version": __version__,
        "command": args.command,
        "flags": _flag_string(args),
        "input_sha256": _input_digest(args.input),
    }


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_input(args):
    if not args.input:
        raise ValueError("--input is required for this command")
    return load_mixture(args.input)


def _grid(args, default: int) -> np.ndarray:
    n = args.grid_points if args.grid_points is not None else default
    if n < 2:
        raise ValueError("--grid-points must be at least 2")
    return np.linspace(args.eps, 1.0 - args.eps, n)


def cmd_eval(args) -> int:
    mix = _load_input(args)
    xs = _grid(args, 1024)
    quad = _quad_config(args)
    if isinstance(mix, DiscreteMixture):
        f, d1, d2 = discrete_derivs_grid(mix, xs)
    else:
        f, d1, d2 = ContinuousEvaluator(mix, quad).derivs(xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.where(f > 0.0, np.log(np.where(f > 0.0, f, 1.0)), -np.inf)
        log_d2 = np.where(f > 0.0, (f * d2 - d1 * d1) / (f * f), math.nan)
    rows = list(zip(xs, f, d1, d2, log_f, log_d2))
    if args.format == "json":
        payload = {
            "meta": _meta(args),
            "columns": ["x", "f", "d1", "d2", "log_f", "log_d2"],
            "rows": [[float(v) for v in row] for row in rows],
        }
        _write(args, json.dumps(payload, indent=2, allow_nan=True) + "\n")
    else:
        lines = _header_lines(args)
        lines.append("x,f,d1,d2,log_f,log_d2")
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    mix = _load_input(args)
    cert = certify(
        mix,
        grid_points=args.grid_points if args.grid_points is not None else 1024,
        eps=args.eps,
        tol=args.tol,
        quad=_quad_config(args),
        seed=args.seed,
    )
    payload = cert.to_json(input_echo=mixture_to_json(mix))
    payload["meta"] = _meta(args)
    _write(args, json.dumps(payload, indent=2) + "\n")
    if cert.verdict == "certified":
        return EXIT_OK
    if cert.verdict == "degenerate-zero":
        return EXIT_DEGENERATE
    return EXIT_VIOLATED


def cmd_lemmas(args) -> int:
    max_m = int(args.M) if args.M is not None else 12
    count = int(args.n) if args.n is not None else 50
    quad = _quad_config(args)
    cases = discrete_lemma_sweep(max_M=max_m)
    tols = [0.0] * len(cases)
    cont = continuous_lemma_sweep(count=count, seed=args.seed, quad=quad)
    cases.extend(cont)
    tols.extend([1e-7] * len(cont))
    rows = []
    all_pass = True
    for case, tol in zip(cases, tols):
        ok = case.holds(tol)
        if args.negate:
            ok = not ok
        all_pass &= ok
        rows.append((case, ok))
    if args.format == "json":
        payload = {
            "meta": _meta(args),
            "columns": ["M", "n", "window", "which", "lhs", "rhs", "margin", "pass"],
            "rows": [
                [float(c.M), float(c.n), float(c.window), c.which,
                 float(c.lhs), float(c.rhs), float(c.margin), ok]
                for c, ok in rows
            ],
        }
        _write(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = _header_lines(args)
        lines.append("M,n,window,which,lhs,rhs,margin,pass")
        for c, ok in rows:
            lines.append(
                ",".join(
                    [_fmt(c.M), _fmt(c.n), _fmt(c.window), c.which,
                     _fmt(c.lhs), _fmt(c.rhs), _fmt(c.margin), "1" if ok else "0"]
                )
            )
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_pass else EXIT_VIOLATED


def cmd_demo(args) -> int:
    if args.r is None and args.s is None:
        raise ValueError("demo needs --r (sharpness) and/or --s (kernel failure), plus --M")
    if args.M is None:
        raise ValueError("demo needs --M")
    lines = _header_lines(args)
    if args.r is not None:
        grid = args.grid_points if args.grid_points is not None else 1024
        worst = sharpness_check(int(args.M), args.r, grid_points=grid)
        lines.append(f"sharpness M={_fmt(args.M)} r={_fmt(args.r)} max_abs_margin={_fmt(worst)}")
    if args.s is not None:
        witness = find_kernel_failure(args.M, args.s)
        if witness is None:
            print(
                f"no kernel failure exists for s={args.s} in [0, M] (M={args.M})",
                file=sys.stderr,
            )
            return EXIT_INPUT
        curv = kernel_log_curvature(args.M, args.s, witness)
        lines.append(
            f"kernel-failure M={_fmt(args.M)} s={_fmt(args.s)} "
            f"x={_fmt(witness)} log_curvature={_fmt(curv)}"
        )
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    mix = _load_input(args)
    count = int(args.n) if args.n is not None else 100000
    grid = args.grid_points if args.grid_points is not None else 4096
    draws = sample(mix, count, seed=args.seed, grid_points=grid, quad=_quad_config(args))
    lines = _header_lines(args)
    lines.extend(_fmt(v) for v in draws)
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "certify": cmd_certify,
    "lemmas": cmd_lemmas,
    "demo": cmd_demo,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DegenerateMixtureError as exc:
        print(f"betamix: degenerate mixture: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except QuadratureError as exc:
        print(f"betamix: evaluation failure: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except (DomainError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"betamix: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
