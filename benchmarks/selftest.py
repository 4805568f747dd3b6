"""Self-test of the benchmark: its checks catch corrupted outputs, and tracing
leaves the program's outputs byte-identical.

    python3 benchmarks/selftest.py

Runs small versions of the workloads (well under a minute on two
cores). Every check must pass on the real outputs and fail on each
corruption listed here; the traced and untraced runs must write the same
bytes and return equal records. Exits 0 when all of that holds.
"""

import dataclasses
import filecmp
import os
import shutil
import sys

import run

run.import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from netmanifold import pipeline  # noqa: E402

WORK = os.path.join(run.OUT, f"selftest-{os.getpid()}")
FAILURES = []


def expect_pass(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailure as exc:
        FAILURES.append(f"{label}: check failed on good output: {exc}")
    else:
        print(f"ok    {label}")


def expect_fail(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailure as exc:
        print(f"ok    {label}: caught ({exc})")
    else:
        FAILURES.append(f"{label}: corruption went unnoticed")


def with_cell(rows, index, column, value):
    rows = [dict(r) for r in rows]
    rows[index][column] = value
    return rows


def csv_outputs(out_dir):
    rows = workloads.read_rows(os.path.join(out_dir, "replicates.csv"))
    summary = workloads.read_rows(os.path.join(out_dir, "summary.csv"))
    return rows, summary


def same_files(left, right):
    names = sorted(os.listdir(left))
    if names != sorted(os.listdir(right)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(left, right, names, shallow=False)
    return not mismatch and not errors


def traced_and_plain(label, fn, out_arg, **kwargs):
    """Run fn untraced and traced into two directories; compare the outputs."""
    plain_dir = os.path.join(WORK, label, "plain")
    traced_dir = os.path.join(WORK, label, "traced")
    plain = fn(**kwargs, **{out_arg: plain_dir})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.call(fn, **kwargs, **{out_arg: traced_dir})
    finally:
        tracer.uninstall()
    if not tracer.spans or not same_files(plain_dir, traced_dir):
        FAILURES.append(f"{label}: traced outputs differ from untraced ones")
    else:
        print(f"ok    {label}: {len(tracer.spans)} spans, outputs byte-identical")
    return plain, traced, plain_dir


def consistency():
    config = pipeline.consistency_reduced_config(k_values=(1, 2), mc_replicates=2)
    plain, traced, out_dir = traced_and_plain(
        "consistency", pipeline.run_consistency_experiment, "out_dir", config=config, threads=2
    )
    if plain.records != traced.records:
        FAILURES.append("consistency: traced records differ")
    rows, summary = csv_outputs(out_dir)
    expect_pass("consistency replicates", checks.check_replicates, rows, config)
    expect_pass("consistency summary", checks.check_summary, rows, summary, config)
    gaps = [float(r["sq_gap"]) for r in rows]
    bound = checks.SQ_GAP_MEDIAN_BOUND["consistency-midsize"]
    expect_pass("consistency sq_gap median", checks.check_sq_gap_median, gaps, bound)
    seed = str(int(rows[1]["seed"]) ^ 1)
    expect_fail("seed off by one bit", checks.check_replicates, with_cell(rows, 1, "seed", seed), config)
    expect_fail("missing replicate row", checks.check_replicates, rows[:-1], config)
    median = repr(float(summary[0]["median_sq_gap"]) * (1 + 1e-6))
    expect_fail(
        "perturbed summary median",
        checks.check_summary,
        rows,
        with_cell(summary, 0, "median_sq_gap", median),
        config,
    )
    expect_fail("non-finite sq_gap", checks.check_sq_gap_median, gaps[:-1] + [float("inf")], bound)
    expect_fail("sq_gap median over the bound", checks.check_sq_gap_median, [bound] * len(gaps), bound)


class SmallIngest(workloads.AnalyzeIngest):
    SERIES = 300
    POSITIONS = 1
    LABELED = 80
    WARM_SERIES = 60


def ingest():
    workload = SmallIngest(0, os.path.join(WORK, "ingest"))
    workload.write_inputs()
    workload.setup()
    kwargs = dict(
        manifest_path=workload.manifest,
        position=1,
        d=workload.D,
        radius=workload.RADIUS,
        level=workload.LEVEL,
        percentile=workload.PERCENTILE,
        local_linear=True,
        bandwidth=workload.BANDWIDTH,
    )
    report, traced, out_dir = traced_and_plain(
        "ingest", pipeline.analyze_real_dataset, "out_dir", **kwargs
    )
    if not np.array_equal(report.embedding, traced.embedding):
        FAILURES.append("ingest: traced embedding differs")
    references = workload.references(1)
    censored = workload.censored(1)
    expect_pass("censored matrices", checks.check_censored, censored, references)
    expect_pass("analysis report", checks.check_analysis, report, references, workload.ts, workload.LEVEL)
    (row,) = workloads.read_rows(os.path.join(out_dir, "test_report.csv"))
    expect_pass("test_report.csv", checks.check_report_csv, row, report)
    flipped = [a.copy() for a in censored]
    i, j = np.argwhere(np.triu(flipped[7], 1) == 1)[0]
    flipped[7][i, j] = flipped[7][j, i] = 0.0
    expect_fail("one flipped edge", checks.check_censored, flipped, references)
    lax = [a.copy() for a in references]
    lax[3] = checks.censor_reference(workload.NODES, *workload.arcs[3, 0], 10.0)
    expect_fail("censored at the 10th percentile", checks.check_censored, censored, lax)
    bad = dataclasses.replace(report, sparsity=report.sparsity * (1 + 1e-9))
    expect_fail("perturbed sparsity", checks.check_analysis, bad, references, workload.ts, workload.LEVEL)
    shuffled = np.random.default_rng(0).permutation(report.embedding)
    bad = dataclasses.replace(report, embedding=shuffled)
    expect_fail("shuffled embedding", checks.check_analysis, bad, references, workload.ts, workload.LEVEL)
    test = dataclasses.replace(report.test, critical_value=report.test.critical_value + 1e-6)
    bad = dataclasses.replace(report, test=test)
    expect_fail("perturbed critical value", checks.check_analysis, bad, references, workload.ts, workload.LEVEL)
    bad = dataclasses.replace(report, test=dataclasses.replace(report.test, reject=False))
    expect_fail("F-test not rejecting", checks.check_analysis, bad, references, workload.ts, workload.LEVEL)
    f_value = repr(report.test.f_value * (1 + 1e-12))
    expect_fail("test_report.csv f_value", checks.check_report_csv, dict(row, f_value=f_value), report)


def main():
    try:
        consistency()
        ingest()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for failure in FAILURES:
        print(f"FAIL  {failure}")
    print("self-test " + ("failed" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
