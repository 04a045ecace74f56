"""Print the SHA-256 of every benchmark output, so two versions of the program can be compared byte for byte.

    python tools/output_digests.py WORKDIR

For seeds 1-3 this runs the seven cli-batch commands of perfbench/workloads.py,
writing their files under WORKDIR/seed-N, and certifies every input of the
discrete-certify and continuous-certify workloads, hashing each certificate's
to_json as json.dumps(..., indent=2). Then it runs the outputs that
cli-batch never writes (EXTRA, under WORKDIR/extra): the JSON table of
cli-batch's sweep, and the CSV and JSON of an exhaustive sweep to M = 35,
whose exact sides pass 2^63, and 10^5 draws from each of two mixtures of
order 2000 (large_order_inputs). One line per output, "<sha256>  <name>",
then one digest of all those lines. The CLI headers hold the flags, the input
path among them, so compare two versions on the same WORKDIR. The program is
imported from ./src and the workloads from ./perfbench, which is only read.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEEDS = (1, 2, 3)
EXTRA = [
    ("lemmas-json", ["lemmas", "--M", str(workloads.CLI_LEMMAS_M), "--n", str(workloads.CLI_LEMMAS_N),
                     "--format", "json"], "lemmas.json"),
    ("lemmas-M35-csv", ["lemmas", "--M", "35", "--n", "0"], "lemmas-M35.csv"),
    ("lemmas-M35-json", ["lemmas", "--M", "35", "--n", "0", "--format", "json"], "lemmas-M35.json"),
    # {extra} is WORKDIR/extra, where large_order_inputs writes the inputs
    ("sample-discrete-M2000", ["sample", "--input", "{extra}/discrete-M2000.json", "--seed", "1"],
     "sample-discrete-M2000.txt"),
    ("sample-continuous-M2000", ["sample", "--input", "{extra}/continuous-M2000.json", "--seed", "1"],
     "sample-continuous-M2000.txt"),
]


def large_order_inputs(workdir: Path) -> None:
    """Write the two order-2000 mixtures that EXTRA samples under workdir.

    Discrete: log w = cumsum(cumsum(-U(1/M, 4/M))) from default_rng(1),
    the weights below the smallest normal double set to 0. Continuous: 9
    equally spaced knots with log alpha = -3((s - 0.4M)/(0.3M))^2.
    """
    M = 2000
    steps = np.random.default_rng(1).uniform(1.0 / M, 4.0 / M, M)
    log_w = np.concatenate([[0.0], np.cumsum(np.cumsum(-steps))])
    w = np.exp(log_w - np.max(log_w))
    w[w < np.finfo(float).tiny] = 0.0
    knots = np.linspace(0.0, M, 9)
    log_alpha = -3.0 * ((knots - 0.4 * M) / (0.3 * M)) ** 2
    for name, obj in (("discrete", {"M": M, "weights": w.tolist()}),
                      ("continuous", {"M": float(M), "knots": knots.tolist(), "log_alpha": log_alpha.tolist()})):
        (workdir / f"{name}-M2000.json").write_text(json.dumps(obj))


def digests(workdir: Path):
    """(name, sha256) of every output, in a fixed order."""
    for seed in SEEDS:
        for op in workloads.cli_batch(seed, str(workdir / f"seed-{seed}")).ops:
            yield f"seed-{seed}/{op.name}", op.record(op.call())["sha256"]
        for build in (workloads.discrete_certify, workloads.continuous_certify):
            for op in build(seed, None).ops:
                text = json.dumps(op.call().to_json(), indent=2)
                yield f"seed-{seed}/{op.name}", hashlib.sha256(text.encode()).hexdigest()
    extra = workdir / "extra"
    extra.mkdir(parents=True, exist_ok=True)
    large_order_inputs(extra)
    script = [(name, [a.format(extra=extra) for a in argv], out) for name, argv, out in EXTRA]
    for op in workloads._cli_ops(script, str(extra)):
        yield f"extra/{op.name}", op.record(op.call())["sha256"]


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/output_digests.py WORKDIR")
    lines = [f"{sha}  {name}" for name, sha in digests(Path(sys.argv[1]).resolve())]
    print("\n".join(lines))
    print(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  all {len(lines)} outputs")


if __name__ == "__main__":
    main()
