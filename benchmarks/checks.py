"""Output checks, computed apart from the program.

Each check takes the program's outputs as plain data (CSV rows read back from
disk, report fields, matrices) together with the inputs the benchmark made,
recomputes what it can with numpy or scipy.stats, and raises CheckFailure on
the first disagreement. None compares against a stored copy of an earlier
output. selftest.py shows that each check fails on a corrupted output.
"""

import math

import numpy as np
from scipy import stats

# Acceptance criteria 2-3 make the embedding-based prediction consistent for
# the oracle one: the squared gap shrinks as n and N grow. A predictor that
# ignores the networks misses by beta^2 Var(t) = 25 * 0.75^2 / 12 ~ 1.17 on
# average. Over seeds 0-9 single gaps reached 2.5e-5 at K=12 and 0.011 at
# K=2-3, with medians near 5e-6 and 3e-4; over 96 replicates at K=1 of the
# reduced schedule they reached 0.024 with a median of 1e-3. The bounds sit
# 30-40x above the medians.
SQ_GAP_MEDIAN_BOUND = {
    "consistency-k12": 2e-4,
    "consistency-midsize": 1e-2,
    "consistency-pool": 3e-2,
}

# The 1-D embedding of the ingested series must order them by latent t.
RANK_CORRELATION_BOUND = 0.9

REL_TOL = 1e-9


class CheckFailure(Exception):
    """An output disagrees with its independent recomputation."""


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def replicate_seed(base_seed, k, j):
    """The seed column of replicate (K, j), by the README's derivation."""
    child = np.random.SeedSequence(base_seed, spawn_key=(k, j)).spawn(2)[1]
    return int(child.generate_state(1, dtype=np.uint64)[0])


def schedule(config, k):
    n_graphs = config.graphs_base + config.graphs_step * (k - 1)
    return dict(
        n=config.nodes_base + config.nodes_step * (k - 1),
        N=n_graphs,
        n_star=int(math.floor(n_graphs**config.isomap_exponent)),
        radius=config.lambda_base * config.lambda_decay ** (k - 1),
    )


def check_replicates(rows, config):
    """Row set, schedule columns and seed column of replicates.csv."""
    expected = [(k, j) for k in config.k_values for j in range(config.mc_replicates)]
    got = [(int(r["K"]), int(r["replicate"])) for r in rows]
    if got != expected:
        raise CheckFailure(f"replicate rows {got[:4]}... are not {expected[:4]}...")
    for r in rows:
        k, j = int(r["K"]), int(r["replicate"])
        entry = schedule(config, k)
        if int(r["seed"]) != replicate_seed(config.base_seed, k, j):
            raise CheckFailure(f"K={k} replicate {j}: seed {r['seed']} is not derived")
        for column, key in (("n", "n"), ("N", "N"), ("n_star", "n_star")):
            if int(r[column]) != entry[key]:
                raise CheckFailure(f"K={k} replicate {j}: {column}={r[column]}")
        if not _close(float(r["lambda"]), entry["radius"]):
            raise CheckFailure(f"K={k} replicate {j}: lambda={r['lambda']}")
        if r["valid"] == "true" and not math.isfinite(float(r["sq_gap"])):
            raise CheckFailure(f"K={k} replicate {j}: sq_gap {r['sq_gap']} not finite")


def check_summary(rows, summary_rows, config):
    """summary.csv medians, means and counts, recomputed from the records."""
    if [int(s["K"]) for s in summary_rows] != list(config.k_values):
        raise CheckFailure("summary.csv does not list every K once, in order")
    for s in summary_rows:
        k = int(s["K"])
        mine = [r for r in rows if int(r["K"]) == k]
        gaps = np.array([float(r["sq_gap"]) for r in mine if r["valid"] == "true"])
        if int(s["n_valid"]) != gaps.size or int(s["n_failed"]) != len(mine) - gaps.size:
            raise CheckFailure(f"K={k}: summary counts disagree with the records")
        if gaps.size == 0:
            continue
        for column, value in (
            ("median_sq_gap", float(np.median(gaps))),
            ("mean_sq_gap", float(gaps.mean())),
        ):
            if not _close(float(s[column]), value):
                raise CheckFailure(f"K={k}: {column} {s[column]} != recomputed {value!r}")


def check_sq_gap_median(gaps, bound):
    """Every squared gap is finite and their median lies under the bound."""
    gaps = np.asarray(gaps, dtype=float)
    if gaps.size == 0 or not np.isfinite(gaps).all():
        raise CheckFailure("a squared prediction gap is missing or not finite")
    median = float(np.median(gaps))
    if not median < bound:
        raise CheckFailure(f"median squared gap {median:.3g} is not under {bound}")


def censor_reference(n, src, dst, weight, percentile):
    """The censor rule on one weighted digraph, in numpy.

    Threshold: the percentile (linear interpolation) of the absolute nonzero
    arc weights. Reciprocal arcs merge by the larger absolute weight; an edge
    is kept iff that exceeds the threshold strictly.
    """
    magnitude = np.abs(weight)
    threshold = np.percentile(magnitude[magnitude != 0.0], percentile)
    merged = np.zeros((n, n))
    np.maximum.at(merged, (src, dst), magnitude)
    merged = np.maximum(merged, merged.T)
    np.fill_diagonal(merged, 0.0)
    return (merged > threshold).astype(float)


def check_censored(matrices, references):
    """Every censored matrix equals its numpy recomputation."""
    if len(matrices) != len(references):
        raise CheckFailure(f"{len(matrices)} censored matrices for {len(references)} graphs")
    for i, (got, want) in enumerate(zip(matrices, references)):
        if got.shape != want.shape or not np.array_equal(got, want):
            diff = int((np.asarray(got) != want).sum()) if got.shape == want.shape else -1
            raise CheckFailure(f"series {i}: censored matrix differs in {diff} entries")


def check_analysis(report, references, latent_t, level):
    """Sparsity, latent ordering and the slope F-test of one analysis."""
    n = references[0].shape[0]
    edges = sum(int(np.triu(a, 1).sum()) for a in references)
    density = edges / (len(references) * n * (n - 1) / 2)
    if not _close(report.sparsity, density, rel=1e-12):
        raise CheckFailure(f"sparsity {report.sparsity!r} != density {density!r}")
    z = np.asarray(report.embedding, dtype=float)
    rho = abs(float(stats.spearmanr(z, latent_t[: z.size]).statistic))
    if not rho >= RANK_CORRELATION_BOUND:
        raise CheckFailure(
            f"embedding ranks the series by t with |rho|={rho:.3f} < {RANK_CORRELATION_BOUND}"
        )
    df2 = report.labeled_count - 2
    critical = float(stats.f.ppf(1.0 - level, 1, df2))
    if tuple(report.test.df) != (1, df2):
        raise CheckFailure(f"F-test degrees of freedom {report.test.df} != (1, {df2})")
    if not _close(report.test.critical_value, critical, rel=1e-8):
        raise CheckFailure(
            f"critical value {report.test.critical_value!r} != scipy {critical!r}"
        )
    if not (report.test.reject and report.test.f_value > critical):
        raise CheckFailure(f"the slope F-test does not reject (F={report.test.f_value:.4g})")


def check_report_csv(row, report):
    """test_report.csv carries the report's numbers, bit for bit."""
    for column, value in (
        ("f_value", report.test.f_value),
        ("critical_value", report.test.critical_value),
        ("sparsity", report.sparsity),
        ("slope", report.fit.slope),
    ):
        if float(row[column]) != value:
            raise CheckFailure(f"test_report.csv {column}={row[column]} != {value!r}")
