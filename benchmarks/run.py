"""Benchmark of netmanifold: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload consistency-k12 --seed 0 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src, never from
an installed copy. With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with --trace 1 it
carries the per-layer metrics instead, and the spans are written to
.bench_out/traces/. See benchmarks/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up and the import are each repeated this many times per run, and the
# sum of their medians is reported.
SETUP_REPEATS = 5


IMPORT = "import netmanifold.pipeline"


def import_package():
    """Import the package from ./src; returns the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import netmanifold.pipeline  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import netmanifold from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    location = os.path.abspath(sys.modules["netmanifold"].__file__)
    if not location.startswith(SRC + os.sep):
        raise SystemExit(f"netmanifold was imported from {location}, not from {SRC}")
    return elapsed


def fresh_import_seconds():
    """Seconds the same import takes in a new interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"{IMPORT}; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def metric_table(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args):
    import_s = import_package()
    # numpy and scipy.stats come in with the checks, after the timed import.
    import checks
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}"
        )
    table = metric_table(args.trace)
    work_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = tracing.Tracer() if args.trace else None
    correct = True
    try:
        # The benchmark's own input files are written untimed: no change to
        # the program can move that time, and file writes vary the most.
        workload.write_inputs()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.install()
        rates = []
        attempted = failed = 0
        cpu_s = 0.0
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < args.seconds:
            fn, fn_args, fn_kwargs = workload.prepare(r)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                result = fn(*fn_args, **fn_kwargs)
            else:
                result = tracer.call(fn, *fn_args, **fn_kwargs)
            elapsed = time.perf_counter() - t0
            cpu_s += time.process_time() - cpu0
            rates.append(workload.ops_per_round / elapsed)
            attempted += workload.ops_per_round
            failed += workload.failed(result)
            try:
                workload.check(r, result)
            except checks.CheckFailure as exc:
                correct = False
                print(f"check failed in round {r}: {exc}", file=sys.stderr)
            r += 1
        try:
            workload.finish()
        except checks.CheckFailure as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    values = {
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(imports) + statistics.median(setups),
    }
    print(
        f"{args.workload}: {r} rounds at {['%.4g' % x for x in rates]} ops/s, "
        f"set-up {['%.3f' % s for s in setups]} s, import {['%.3f' % s for s in imports]} s",
        file=sys.stderr,
    )
    if tracer is not None:
        values = tracing.layer_metrics(tracer.spans, tracer.counts)
        values["pipeline.cpu_s"] = cpu_s
        values["trace.ops_per_s"] = statistics.median(rates)
        values["trace.overhead_s"] = tracing.wrapper_cost() * values["trace.spans"]
        tracer.dump(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
