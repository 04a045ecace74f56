"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--sets 2]

Runs the benchmark once per seed (one set), or twice over (two sets, the
second with the seeds shifted by 100), and for each end-to-end metric in
BENCHMARK.json prints the median, the quartile spread (q3 - q1) / median,
and the bound, and then the median and spread of the unscaled figures
(see reference.py). With two sets it also prints how much worse the second
median is than the first, and whether the failed share matched exactly.
With --trace 1 it runs the traced mode twice on the same seeds and checks
that every per-layer count repeats exactly for each seed. Raw results go to
perfbench/results/spread-NAME.json. Exits 1 when a spread (other than
setup_s) exceeds its bound, a median moved by more than its bound, the
failed shares differ, or a traced count did not repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload, seeds, seconds, trace):
    results = []
    for seed in seeds:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        t0 = time.perf_counter()
        out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        wall = time.perf_counter() - t0
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# unscaled "):
                result["unscaled"] = json.loads(line[len("# unscaled "):])
        print(f"  seed {seed} ({wall:.0f} s): "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        results.append(result)
    return results


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    sets = []
    n_sets = 2 if args.trace else args.sets
    for k in range(n_sets):
        print(f"set {k + 1}", flush=True)
        shift = 0 if args.trace else 100 * k
        sets.append(run_set(args.workload, [s + shift for s in seeds], spec["run_seconds"], args.trace))
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    (BENCH_DIR / "results" / f"spread-{args.workload}.json").write_text(json.dumps(sets, indent=1))

    ok = True
    shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
    if len(set().union(*shares)) != 1:
        ok = False
        print(f"failed share differs between runs: {shares}")
    if args.trace:
        def counts(result):
            return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")}

        for seed, a, b in zip(seeds, *sets):
            if counts(a) != counts(b):
                ok = False
                print(f"seed {seed}: per-layer counts differ between the two runs")
        varying = sorted(k for k in counts(sets[0][0]) if len({counts(r)[k] for r in sets[0]}) > 1)
        print("per-layer counts " + ("repeat exactly" if ok else "DO NOT repeat") + " for each seed")
        print("counts that depend on the seed: " + (", ".join(varying) or "none"))
        return 0 if ok else 1
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for results in sets:
            med, spread = summarize([r["metrics"][name]["value"] for r in results])
            medians.append(med)
            flag = "" if spread <= bound / 3 else (" (above bound/3)" if spread <= bound else " (ABOVE BOUND)")
            if spread > bound and name != "setup_s":
                ok = False
            print(f"{name:14s} {med:12.6g} {spread:8.2%} {bound:6.0%}{flag}")
        if len(medians) == 2:
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            ok &= worse <= bound
            print(f"{'':14s} second set worse by {worse:+.2%} (bound {bound:.0%})")
    # the same figures as the clock read them, before scaling to the reference speed
    for name in ("ops_per_s", "setup_s"):
        for results in sets:
            med, spread = summarize([r["unscaled"][name] for r in results])
            print(f"{name + ' unscaled':22s} {med:12.6g} {spread:8.2%}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
