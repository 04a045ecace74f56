"""Command-line front end: evaluate, certify, sweep lemmas, demo, sample.

Each command accepts only the flags it reads, with one exception: sample
still accepts --grid-points, which nothing reads (its draws are exact and
use no grid) and its header leaves out. Defaults are in brackets, and --out
defaults to stdout:

    eval     --input (required), --grid-points [1024], --eps [1e-6],
             --format [csv], --out
    certify  --input (required), --grid-points [1024], --eps [1e-6],
             --tol [1e-9], --seed [0], --out
    lemmas   --M [12], --n [50], --seed [0], --format [csv], --out
    demo     --M (required), --r, --s, --grid-points [1024], --out
    sample   --input (required), --n [100000], --grid-points (ignored),
             --seed [0], --out

Data goes to stdout (or --out); diagnostics go to stderr. Every output file
starts with header comments carrying the tool version, the command's flags
with their values (--out aside) and a digest of the input, so runs are
reproducible byte for byte given the same input, flags and seed. A CSV
number is the %.17g text of its double; where that text is fixed notation
(1e-4 <= |v| < 1e16) it is formed from the exact 17-digit integer of v
(_g17_cells) instead of one decimal conversion per cell.

Exit codes: 0 success/certified, 1 violated or failed sweep cases,
2 malformed input or arguments, 3 evaluation/quadrature failure,
4 degenerate (identically zero) mixture.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .certify import VERDICT_DEGENERATE, check_eps, certify, find_kernel_failure, kernel_log_curvature, sharpness_check
from .lemmas import continuous_lemma_sweep, discrete_lemma_sweep
from .mixtures import (
    ContinuousEvaluator,
    DegenerateMixtureError,
    DiscreteMixture,
    discrete_derivs_grid,
    mixture_from_json,
    mixture_to_json,
    sample,
)
from .quadrature import QuadratureError
from .special import DomainError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_EVAL = 3
EXIT_DEGENERATE = 4

_FMT = "{:.17g}"
# rows per write of text output
_CHUNK = 4096
# CSV cell format by numpy dtype kind; any other kind is a number, %.17g
_CSV_SPEC = {"b": "%d", "U": "%s"}

# the exact doubles 10^0 .. 10^22 and their high halves in Veltkamp's
# split (by 2^27 + 1) for Dekker's two-product; int64 10^0 .. 10^17
_SPLITTER = 134217729.0
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_INT10 = 10 ** np.arange(18, dtype=np.int64)
# a number cell's text, by the kind of its 17 significant digits: an
# integer (%d of the integer part), a number below 1 (0. and -X-1 zeros,
# then %d of the digits; X is the decimal exponent), or an integer part and
# fraction digits (%d.%d, or %d.%0fd where the fraction starts with zeros)
_G17_KINDS = ("%d", "0.%d", "0.0%d", "0.00%d", "0.000%d", "%d.%d", *(f"%d.%0{f}d" for f in range(2, 17)))
# the CSV cell templates of a number column, ended by a comma or a newline:
# index 0 is %.17g itself, for the cells _g17_cells leaves to it, then the
# kinds above, then the kinds after a minus sign
_G17_TEMPLATES = {
    sep: np.array(["%.17g" + sep, *(sign + kind + sep for sign in ("", "-") for kind in _G17_KINDS)], dtype=object)
    for sep in ",\n"
}
# templates that take a second integer, the fraction digits
_G17_TWO_ARGS = np.array([t.count("%") == 2 for t in _G17_TEMPLATES[","]])


def _fmt(v) -> str:
    return _FMT.format(float(v))


def _header_lines(meta) -> list[str]:
    return [
        f"# betamix {meta['tool_version']}",
        f"# command: {meta['command']} {meta['flags']}",
        f"# input-sha256: {meta['input_sha256']}",
    ]


def _write(args, chunks) -> None:
    """Write an iterable of text chunks, in order, to --out or to stdout.

    If the reader of stdout goes away (`betamix sample ... | head`), the
    output ends there, quietly: stdout's fd, if it has one, is pointed at
    os.devnull so the interpreter's flush at exit cannot fail again, and the
    command returns its own exit code.
    """
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation: an in-process stream
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _chunks(arrays, cells):
    """Yield, for each _CHUNK rows of equal-length arrays, the row count and
    the row-major tuple of the rows' cells, where cells(part) gives the cells
    of one array's part."""
    for lo in range(0, len(arrays[0]), _CHUNK):
        parts = [a[lo : lo + _CHUNK] for a in arrays]
        yield len(parts[0]), tuple(chain.from_iterable(zip(*map(cells, parts))))


def _times_pow10(a, p):
    """(hi, lo) with hi = fl(a * 10^p) and hi + lo = a * 10^p exactly (Dekker's two-product)."""
    b, b_hi = _POW10[p], _POW10_HI[p]
    b_lo = b - b_hi
    hi = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _g17_cells(v):
    """The %.17g text of each double of v, as template indices into _G17_TEMPLATES and two int64 arguments.

    For 1e-4 <= |v| < 1e16, %.17g writes v's 17 significant digits D,
    correctly rounded (half to even), in fixed notation with trailing
    zeros dropped. With X = floor(log10 |v|) and p = 16 - X, in [1, 20],
    10^p is an exact double (10^22 is the last), so the two-product gives
    |v| * 10^p = hi + lo exactly; hi >= 10^16 > 2^53 is an even integer,
    so D = hi + rint(lo) is exact in int64 (rint rounds half to even).
    log10 may miss X by one next to a power of ten; those cells are
    redone with the X that puts hi + lo in [10^16, 10^17). D cannot round
    up to 10^17: that needs a double within 5e-18 (relative) below a
    power of ten, and in this range the closest lies 8.3e-17 below. Any
    other double (zero, non-finite, or out of that range) gets index 0,
    %.17g itself.
    """
    a = np.abs(v)
    plain = ~((a >= 1e-4) & (a < 1e16))
    a[plain] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, 16 - x)
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        h, l = hi[edge], lo[edge]
        x[edge] += ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64) - ((h < 1e16) | ((h == 1e16) & (l < 0)))
        hi[edge], lo[edge] = _times_pow10(a[edge], 16 - x[edge])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # decimal places of the 17 digits (1 to 20); below, those of the
    # fraction once its trailing zeros are dropped (0 for an integer)
    places = 16 - x
    unit = _INT10[np.minimum(places, 17)]
    whole = digits // unit
    frac = digits - whole * unit
    # drop the fraction's trailing zeros: one test on every cell, then
    # 8, 4, 2 and 1 more on the cells that end in a zero
    tenth = frac // 10
    ends0 = np.flatnonzero((tenth * 10 == frac) & (frac != 0))
    places[frac == 0] = 0
    if ends0.size:
        q, zeros = tenth[ends0], np.ones(ends0.size, dtype=np.int64)
        for k in (8, 4, 2, 1):
            d = q // _INT10[k]
            hit = d * _INT10[k] == q
            q = np.where(hit, d, q)
            zeros += k * hit
        frac[ends0] = q
        places[ends0] -= zeros
    below1 = x < 0
    kind = np.where(below1, -x, np.where(frac >= _INT10[np.clip(places - 1, 0, 16)], 5, 4 + places))
    kind[places == 0] = 0
    index = 1 + kind + len(_G17_KINDS) * np.signbit(v)
    index[plain] = 0
    return index, np.where(below1, frac, whole), frac


def _csv_chunk(parts, seps) -> str:
    """The CSV text of one chunk of rows, given as column parts, each cell ended by its column's separator.

    One % operation on the cells' templates: a number cell's template and
    its one or two integers come from _g17_cells, and a cell left to %.17g
    passes its float; a bool passes itself to %d, a string to %s. Each
    cell has two argument slots, of which the template uses the first or
    both; the floats and strings replace their slot's placeholder in the
    flat argument list.
    """
    rows, width = len(parts[0]), 2 * len(parts)
    templates = np.empty((rows, len(parts)), dtype=object)
    args = np.zeros((rows, width), dtype=np.int64)
    used = np.zeros((rows, width), dtype=bool)
    used[:, ::2] = True
    objects = []
    for j, (part, sep) in enumerate(zip(parts, seps)):
        if part.dtype.kind == "f":
            index, args[:, 2 * j], args[:, 2 * j + 1] = _g17_cells(part)
            templates[:, j] = _G17_TEMPLATES[sep][index]
            used[:, 2 * j + 1] = _G17_TWO_ARGS[index]
            plain = np.flatnonzero(index == 0)
            if plain.size:
                objects.append((plain, j, part[plain]))
        else:
            templates[:, j] = _CSV_SPEC[part.dtype.kind] + sep
            objects.append((slice(None), j, part))
    cells = args[used].tolist()
    if objects:
        at = (np.cumsum(used) - 1).reshape(used.shape)
        for rows_at, j, values in objects:
            for i, value in zip(at[rows_at, 2 * j].tolist(), values.tolist()):
                cells[i] = value
    return "".join(templates.ravel().tolist()) % tuple(cells)


def _write_rows(args, meta, columns, names=None) -> None:
    """Write the header comments, the `names` line if given, then one line per row of equal-length columns.

    Rows are formatted and written _CHUNK at a time, never as one string,
    each chunk by one % operation (_csv_chunk). Cells are bools as 1/0
    (%d), strings as they are (%s) and numbers, ints included, as the
    %.17g text of their double, joined by commas. A number's text is built
    from its exact 17 significant digits as integers (_g17_cells) where
    %.17g writes it in fixed notation, which is the same text without one
    decimal conversion per cell.
    """
    arrays = [np.asarray(col) for col in columns]
    arrays = [a if a.dtype.kind in _CSV_SPEC else a.astype(float, copy=False) for a in arrays]
    seps = [","] * (len(arrays) - 1) + ["\n"]

    def chunks():
        yield "\n".join([*_header_lines(meta), *([",".join(names)] if names else [])]) + "\n"
        for lo in range(0, len(arrays[0]), _CHUNK):
            yield _csv_chunk([a[lo : lo + _CHUNK] for a in arrays], seps)

    _write(args, chunks())


def _json_texts(part) -> list:
    """The JSON text of each cell of a column chunk, as json.dumps writes it.

    A finite float is float.__repr__ (json's own float text), a non-finite
    one null; bools, ints and strings go through json.dumps.
    """
    values = part.tolist()
    if part.dtype.kind != "f":
        return list(map(json.dumps, values))
    texts = list(map(float.__repr__, values))
    for i in np.flatnonzero(~np.isfinite(part)).tolist():
        texts[i] = "null"
    return texts


def _write_table(args, meta, columns: dict) -> None:
    """Write equal-length columns, keyed by name, as a CSV (_write_rows) or JSON table.

    JSON rows keep each value's own type, with a non-finite number as null.
    The bytes are json.dumps(payload, indent=2) and a newline, but only the
    rest of the document is one json.dumps (of the payload with no rows):
    the rows are streamed _CHUNK at a time, one % operation per chunk.
    """
    if args.format != "json":
        _write_rows(args, meta, list(columns.values()), names=list(columns))
        return
    arrays = [np.asarray(col) for col in columns.values()]
    empty = {"meta": meta, "columns": list(columns), "rows": []}
    head, tail = json.dumps(empty, indent=2, allow_nan=False).rsplit("[]", 1)
    row = "    [\n      " + ",\n      ".join(["%s"] * len(arrays)) + "\n    ]"

    def chunks():
        yield head
        sep = "[\n"
        for n, cells in _chunks(arrays, _json_texts):
            yield sep + ",\n".join([row] * n) % cells
            sep = ",\n"
        yield ("[]" if sep == "[\n" else "\n  ]") + tail + "\n"

    _write(args, chunks())


def _read_mixture(path):
    """The mixture in `path` and the SHA-256 of the very bytes it was parsed from."""
    with open(path, "rb") as fh:
        data = fh.read()
    return mixture_from_json(json.loads(data.decode("utf-8"))), hashlib.sha256(data).hexdigest()


def cmd_eval(args, mix, meta) -> int:
    if args.grid_points < 2:
        raise ValueError("--grid-points must be at least 2")
    check_eps(args.eps)
    xs = np.linspace(args.eps, 1.0 - args.eps, args.grid_points)
    forms = discrete_derivs_grid(mix, xs) if isinstance(mix, DiscreteMixture) else ContinuousEvaluator(mix).forms(xs)
    _write_table(args, meta, {"x": xs, "f": forms.f, "d1": forms.d1, "d2": forms.d2,
                              "log_f": forms.log_f, "log_d2": forms.log_d2})
    return EXIT_OK


def cmd_certify(args, mix, meta) -> int:
    cert = certify(mix, grid_points=args.grid_points, eps=args.eps, tol=args.tol, seed=args.seed)
    payload = cert.to_json(input_echo=mixture_to_json(mix))
    payload["meta"] = meta
    _write(args, [json.dumps(payload, indent=2) + "\n"])
    if cert.certified:
        return EXIT_OK
    return EXIT_DEGENERATE if cert.verdict == VERDICT_DEGENERATE else EXIT_VIOLATED


def cmd_lemmas(args, mix, meta) -> int:
    """Write one row per case of both sweeps, discrete first; exit 1 unless every case holds.

    Each case carries its own verdict (LemmaCase.holds). The number
    columns are float64, so a discrete side beyond 2^53 is written as its
    nearest double, in CSV and JSON alike.
    """
    cases = discrete_lemma_sweep(max_M=args.M) + continuous_lemma_sweep(count=args.n, seed=args.seed)
    M, n, window, which, lhs, rhs, margin, ok, _ = zip(*cases)
    M, n, window, lhs, rhs, margin = np.array([M, n, window, lhs, rhs, margin], dtype=float)
    _write_table(args, meta, {
        "M": M, "n": n, "window": window, "which": which, "lhs": lhs, "rhs": rhs, "margin": margin, "pass": ok,
    })
    return EXIT_OK if all(ok) else EXIT_VIOLATED


def cmd_demo(args, mix, meta) -> int:
    if args.r is None and args.s is None:
        raise ValueError("demo needs --r (sharpness) and/or --s (kernel failure)")
    lines = []
    if args.r is not None:
        # the geometric weights w_i = r^i need an integer order
        if not args.M.is_integer():
            raise ValueError(f"demo --r needs an integer --M, got {args.M}")
        M = int(args.M)
        worst = sharpness_check(M, args.r, grid_points=args.grid_points)
        lines.append(f"sharpness M={_fmt(M)} r={_fmt(args.r)} max_abs_margin={_fmt(worst)}")
    if args.s is not None:
        witness = find_kernel_failure(args.M, args.s)
        if witness is None:
            print(f"no kernel failure exists for s={args.s} in [0, M] (M={args.M})", file=sys.stderr)
            return EXIT_INPUT
        curv = kernel_log_curvature(args.M, args.s, witness)
        lines.append(
            f"kernel-failure M={_fmt(args.M)} s={_fmt(args.s)} "
            f"x={_fmt(witness)} log_curvature={_fmt(curv)}"
        )
    _write_rows(args, meta, [lines])
    return EXIT_OK


def cmd_sample(args, mix, meta) -> int:
    _write_rows(args, meta, [sample(mix, args.n, seed=args.seed)])
    return EXIT_OK


class Command(NamedTuple):
    handler: Callable[..., int]
    help: str
    # flag -> (type, or a tuple of choices; default, or REQUIRED or UNREAD)
    flags: dict


REQUIRED = object()
# a flag that is parsed and ignored, so that scripts passing it still run
UNREAD = object()

_HELP = {
    "input": "path to a mixture JSON file",
    "M": "order (demo) / sweep bound (lemmas)",
    "r": "geometric weight ratio (sharpness demo)",
    "s": "kernel index (kernel-failure demo)",
    "n": "count (continuous lemma draws, sample size)",
    "grid-points": "evaluation grid size",
    "eps": "grid endpoint inset",
    "tol": "certification tolerance",
    "seed": "random seed",
    "format": "output format",
    "out": "output path (default: stdout)",
}
_FORMATS = ("csv", "json")

COMMANDS = {
    "eval": Command(cmd_eval, "tabulate f, f', f'' over a grid", {
        "input": (str, REQUIRED), "grid-points": (int, 1024), "eps": (float, 1e-6),
        "format": (_FORMATS, "csv"), "out": (str, None),
    }),
    "certify": Command(cmd_certify, "emit a log-concavity certificate", {
        "input": (str, REQUIRED), "grid-points": (int, 1024), "eps": (float, 1e-6),
        "tol": (float, 1e-9), "seed": (int, 0), "out": (str, None),
    }),
    "lemmas": Command(cmd_lemmas, "run the inequality sweeps", {
        "M": (int, 12), "n": (int, 50), "seed": (int, 0), "format": (_FORMATS, "csv"),
        "out": (str, None),
    }),
    "demo": Command(cmd_demo, "sharpness and kernel-failure demos", {
        "M": (float, REQUIRED), "r": (float, None), "s": (float, None),
        "grid-points": (int, 1024), "out": (str, None),
    }),
    "sample": Command(cmd_sample, "draw from the normalized density", {
        "input": (str, REQUIRED), "n": (int, 100000), "grid-points": (int, UNREAD),
        "seed": (int, 0), "out": (str, None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betamix",
        description="Evaluate, certify and stress-test log-concavity of Beta mixtures.",
    )
    parser.add_argument("--version", action="version", version=f"betamix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # allow_abbrev=False: a prefix of a flag is an error, not that flag
        cmd_parser = sub.add_parser(name, allow_abbrev=False, help=command.help)
        for flag, (kind, default) in command.flags.items():
            spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            spec["help"] = _HELP[flag]
            if default is REQUIRED:
                spec["required"] = True
            elif default is UNREAD:
                spec["help"] = "accepted and ignored: nothing reads it"
            else:
                spec["default"] = default
            cmd_parser.add_argument("--" + flag, **spec)
    return parser


def _flag_string(args, flags) -> str:
    # --out names the destination, not the computation, and an UNREAD flag
    # changes nothing; leaving them out keeps outputs byte-identical
    # wherever they are written and whether or not the flag is passed
    values = [(flag, getattr(args, flag.replace("-", "_")))
              for flag, (_, default) in flags.items() if flag != "out" and default is not UNREAD]
    return " ".join(f"--{flag}={value}" for flag, value in values if value is not None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main() call and kept for the rest of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        mix, digest = _read_mixture(args.input) if "input" in command.flags else (None, "-")
        meta = {
            "tool_version": __version__,
            "command": args.command,
            "flags": _flag_string(args, command.flags),
            "input_sha256": digest,
        }
        return command.handler(args, mix, meta)
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
