"""Benchmark of betamix: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The program is imported from ./src (it need
not be installed). Each workload runs a fixed, seeded list of operations
for a whole number of passes; the pass count follows from --seconds and the
nominal pass times below, never from the clock, so every run with the same
--seconds does the same work. Timings are scaled to the machine's reference
speed by a kernel timed between operations (reference.py), so that the host
changing speed does not move them. After timing, the outputs are checked against
computations made apart from the program. The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics, or with --trace 1 the per-layer metrics).
"""

import os

# one thread for every BLAS and OpenMP pool, set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

NAMES = ("discrete-certify", "continuous-certify", "cli-batch")

# seconds one pass takes on the reference machine (see README)
NOMINAL_PASS_S = {"discrete-certify": 3.4, "continuous-certify": 2.8, "cli-batch": 1.15}
MIN_PASSES = 3
# fresh interpreter starts per run, spread over the passes; setup_s is their median
SETUP_STARTS = 7
# reference kernel runs on each side of a fresh start
SETUP_REF_KERNELS = 3
# a traced run alternates untraced and traced passes this many times
TRACED_PAIRS = 2


def import_program():
    """Import betamix from ./src, refusing any other copy."""
    init = SRC / "betamix" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no program source at {init}")
    sys.path.insert(0, str(SRC))
    import betamix

    if Path(betamix.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported betamix from {betamix.__file__}, expected {init}")


def passes_for(name, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]))


def workdir_for(name, seed, suffix=""):
    return str(RESULTS / f"{name}-seed{seed}{suffix}")


def fresh_start(name, seed):
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed (exit {rc}, said {line!r})")
    return elapsed


def run_pass(ops, ref_times=None):
    """Run every operation once. Returns (seconds per op, records, failed flags).

    With a list for ref_times, the reference kernel is timed before the
    first operation and after each one, and its times are appended there.
    """
    import reference

    times, records, failed = [], [], []
    if ref_times is not None:
        ref_times.append(reference.timed_kernel())
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed one, and the run goes on
            times.append(perf_counter() - t0)
            records.append({"error": repr(exc)})
            failed.append(True)
        else:
            times.append(perf_counter() - t0)
            record = op.record(result)
            records.append(record)
            failed.append(bool(op.failed(record)))
        if ref_times is not None:
            ref_times.append(reference.timed_kernel())
    return times, records, failed


def at_reference_speed(seconds, ref_before, ref_after):
    """A time scaled to the machine's reference speed, by the reference
    kernel's mean time just before and just after it."""
    import reference

    return seconds * reference.REFERENCE_S / (0.5 * (ref_before + ref_after))


def tail(samples_ms):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    n = len(samples_ms)
    for per_mille in (999, 990, 900):
        if n * (1000 - per_mille) >= 10 * 1000:
            cut = statistics.quantiles(samples_ms, n=1000, method="inclusive")[per_mille - 1]
            return {"quantile": per_mille / 1000, "value_ms": cut, "samples": n,
                    "beyond": sum(s > cut for s in samples_ms)}
    return None


def versions():
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def check(workload, pass_records, pass_failed):
    import checks

    errors = []
    first = [repr(r) for r in pass_records[0]]
    for p, recs in enumerate(pass_records[1:], start=2):
        for op, a, b in zip(workload.ops, first, recs):
            if a != repr(b):
                errors.append(f"{op.name}: pass {p} gave another result than pass 1")
    last, failed = pass_records[-1], pass_failed[-1]
    fn = {
        "discrete-certify": checks.check_discrete_certify,
        "continuous-certify": checks.check_continuous_certify,
        "cli-batch": checks.check_cli_batch,
    }[workload.name]
    return errors + fn(workload, last, failed)


def timed_passes(wl, passes, start):
    """End-to-end metrics from `passes` untraced passes over the workload.

    The SETUP_STARTS fresh starts (`start()`) are spread between the passes,
    so that set-up is sampled across the run like the operations are. Every
    operation and every fresh start is timed between two runs of the
    reference kernel and scaled to the reference speed (see reference.py);
    the unscaled figures go into the record.
    """
    import reference

    starts_before = [0] * passes
    for k in range(SETUP_STARTS):
        starts_before[round(k * (passes - 1) / (SETUP_STARTS - 1))] += 1
    setup_raw, setup_scaled, runs, pass_refs = [], [], [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for n_starts in starts_before:
        for _ in range(n_starts):
            # a start is noisier than an operation, so median the kernel on each side
            ref_before = statistics.median(reference.timed_kernel() for _ in range(SETUP_REF_KERNELS))
            elapsed = start()
            ref_after = statistics.median(reference.timed_kernel() for _ in range(SETUP_REF_KERNELS))
            setup_raw.append(elapsed)
            setup_scaled.append(at_reference_speed(elapsed, ref_before, ref_after))
        refs = []
        runs.append(run_pass(wl.ops, refs))
        pass_refs.append(refs)
    after = resource.getrusage(resource.RUSAGE_SELF)
    pass_times = [times for times, _, _ in runs]
    scaled_times = [[at_reference_speed(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]
                    for times, refs in zip(pass_times, pass_refs)]
    n_ops = len(wl.ops)
    per_op_ms = [1000.0 * statistics.median(col) for col in zip(*scaled_times)]
    all_refs = [r for refs in pass_refs for r in refs]
    metrics = {
        "ops_per_s": {"value": statistics.median(n_ops / sum(t) for t in scaled_times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": after.ru_maxrss / 1024.0, "unit": "MB"},
    }
    extra = {
        # the same figures unscaled, as the clock read them
        "unscaled": {"ops_per_s": statistics.median(n_ops / sum(t) for t in pass_times),
                     "setup_s": statistics.median(setup_raw)},
        "reference_kernel_ms": {"median": 1000.0 * statistics.median(all_refs),
                                "min": 1000.0 * min(all_refs), "max": 1000.0 * max(all_refs),
                                "nominal": 1000.0 * reference.REFERENCE_S},
        "setup_starts_s": setup_scaled,
        "setup_starts_unscaled_s": setup_raw,
        # reference figures, not bounded metrics (see README)
        "op_p50_ms": statistics.median(per_op_ms),
        "tail": tail([1000.0 * t for times in scaled_times for t in times]),
        "per_op_median_ms": dict(zip((op.name for op in wl.ops), per_op_ms)),
        "pass_op_seconds_scaled": scaled_times,
        "pass_reference_seconds": pass_refs,
        # where the timed passes went: user or kernel time, and page faults
        "passes_cpu": {"user_s": after.ru_utime - before.ru_utime,
                       "sys_s": after.ru_stime - before.ru_stime,
                       "minor_faults": after.ru_minflt - before.ru_minflt},
    }
    return runs, metrics, extra


def traced_passes(wl, probe, spans_path):
    """Per-layer metrics: untraced and traced passes alternate TRACED_PAIRS times.

    The layer probe runs once, traced, before the first traced pass.
    """
    import spans

    tracer = spans.Tracer()
    runs, untraced, traced = [], [], []
    for rep in range(TRACED_PAIRS):
        runs.append(run_pass(wl.ops))
        untraced.append(sum(runs[-1][0]))
        with tracer.installed():
            if rep == 0:
                _, probe_recs, probe_failed = run_pass(probe)
                if any(probe_failed):
                    sys.exit(f"perfbench: layer probe failed: {probe_recs}")
            runs.append(run_pass(wl.ops))
        traced.append(sum(runs[-1][0]))
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = {"value": (sum(traced) - sum(untraced)) / TRACED_PAIRS, "unit": "s"}
    tracer.write(spans_path)
    return runs, metrics, {"untraced_pass_s": untraced, "traced_pass_s": traced}


def run_workload(args):
    import workloads

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "versions": versions(),
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}"
    if args.trace:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir_for(args.workload, args.seed))
        probe = workloads.probe_ops(workdir_for(args.workload, args.seed, "-probe"))
        runs, metrics, extra = traced_passes(wl, probe, f"{stem}-spans.jsonl")
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir_for(args.workload, args.seed))
        runs, metrics, extra = timed_passes(wl, passes_for(args.workload, args.seconds),
                                            lambda: fresh_start(args.workload, args.seed))
    pass_times, pass_records, pass_failed = zip(*runs)
    meta["passes"], meta["ops_per_pass"] = len(runs), len(wl.ops)

    errors = check(wl, pass_records, pass_failed)
    failed = sum(sum(f) for f in pass_failed)
    failed_names = sorted({op.name for flags in pass_failed for op, f in zip(wl.ops, flags) if f})
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta=meta, metrics=metrics, errors=errors, failed_ops=failed_names,
                       pass_op_seconds=pass_times, **extra), fh, indent=1)
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print("# meta " + json.dumps(meta))
    if "unscaled" in extra:
        print("# unscaled " + json.dumps(extra["unscaled"]))
        print("# reference_kernel_ms " + json.dumps(extra["reference_kernel_ms"]))
    if extra.get("tail"):
        print("# tail " + json.dumps(extra["tail"]))
    if failed_names:
        print("# failed " + " ".join(failed_names))
    return {"correct": not errors, "attempted": len(wl.ops) * len(runs), "failed": failed, "metrics": metrics}


def run_all(args):
    """Run every workload in its own process and print a table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
            summary["metrics"][f"{name}.{key}"] = m
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_program()
    if args.setup_probe:
        # a fresh start: the import above plus the workload's own preparation
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, workdir_for(args.workload, args.seed, "-setup"))
        print("ready", flush=True)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
