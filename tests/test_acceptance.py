"""End-to-end acceptance gate.

Each test checks one acceptance criterion at its stated tolerance and runtime
budget and prints a single PASS/FAIL line (visible even under pytest capture).
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from netmanifold import (
    cmds_embed,
    f_quantile,
    f_test,
    isomap_1d,
    load_manifest,
    noiseless_collection,
    pred_graph_resp,
    predict_from_embeddings,
    raw_stress,
    run_consistency_experiment,
    run_power_experiment,
    sample_collection,
    smacof_minimize,
    sparse_mase,
)
from netmanifold.eigen import top_eigenpairs
from netmanifold.graphs import CURVE_A_DIAG_SCALE, CURVE_A_OFFDIAG_SCALE
from netmanifold.io import censor_binarize, load_weighted_edge_list
from netmanifold.manifold import point_distances
from netmanifold.mase import joint_subspace, project_scores, scaled_score_points
from netmanifold.pipeline import (
    analyze_real_dataset,
    consistency_reduced_config,
    power_full_config,
)


def _verdict(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label} [{detail}]")
    assert ok, f"criterion {number}: {label} [{detail}]"


def test_criterion_1_noiseless_pipeline_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.25, 1.0, 60)
    ys = 2.0 + 5.0 * ts[:5]
    collection = noiseless_collection(ts, 400, "curve-A", responses=ys)
    prediction, _ = pred_graph_resp(
        collection, d=2, radius=2.0, l=6, n_star=60, r=6, sparsity=1.0
    )
    gap = abs(prediction - predict_from_embeddings(ts, ys, 6))
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        1,
        "noiseless pipeline matches the true-regressor oracle",
        gap < 1e-3 and elapsed < 30.0,
        f"|gap|={gap:.3g} (<1e-3), {elapsed:.1f}s (<30s)",
    )


def _score_distance_error(seed):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.25, 1.0, 30)
    collection = sample_collection(ts, 800, "curve-A", seed)
    scores, _ = sparse_mase(collection, 2, sparsity=1.0)
    estimated = point_distances(scaled_score_points(scores[:6], 800).reshape(6, -1))
    truth = np.abs(ts[:6, None] - ts[None, :6]) / 2.0
    return float(np.abs(estimated - truth).max())


def test_criterion_2_score_distance_consistency(capsys):
    start = time.perf_counter()
    seeds = range(1000, 1020)
    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = list(pool.map(_score_distance_error, seeds))
    hits = sum(err < 0.02 for err in errors)
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        2,
        "estimated score-point distances track the truth",
        hits >= 18 and elapsed < 120.0,
        f"{hits}/20 seeds under 0.02 (max err {max(errors):.4f}), "
        f"{elapsed:.1f}s (<120s)",
    )


def test_criterion_3_consistency_experiment_convergence(capsys):
    start = time.perf_counter()
    result = run_consistency_experiment(consistency_reduced_config(), threads=4)
    medians = {s.k_index: s.median_sq_gap for s in result.summaries}
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        3,
        "median squared prediction gap shrinks along the reduced schedule",
        medians[6] < 0.5 * medians[1] and elapsed < 900.0,
        f"median@K6={medians[6]:.3g} < 0.5*median@K1={0.5 * medians[1]:.3g}, "
        f"{elapsed:.1f}s (<900s)",
    )


def test_criterion_4_power_gap_convergence(capsys):
    start = time.perf_counter()
    config = power_full_config(k_values=(1, 10, 20))
    result = run_power_experiment(config, threads=4)
    gaps = [s.abs_power_gap for s in result.summaries]
    slacks = [
        max(a.se_true, a.se_hat, b.se_true, b.se_hat)
        for a, b in zip(result.summaries, result.summaries[1:])
    ]
    monotone = all(
        later <= earlier + slack
        for earlier, later, slack in zip(gaps, gaps[1:], slacks)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        4,
        "rejection-rate gap closes and decays across the schedule",
        gaps[-1] <= 0.10 and monotone and elapsed < 600.0,
        f"gaps={[round(g, 3) for g in gaps]} (last <=0.10, "
        f"slacks={[round(s, 3) for s in slacks]}), {elapsed:.1f}s (<600s)",
    )


def test_criterion_5_geodesic_fidelity(capsys):
    start = time.perf_counter()
    direction = np.array(
        [
            1.0 / CURVE_A_DIAG_SCALE,
            1.0 / CURVE_A_OFFDIAG_SCALE,
            1.0 / CURVE_A_OFFDIAG_SCALE,
            1.0 / CURVE_A_DIAG_SCALE,
        ]
    )
    ts = np.concatenate([np.linspace(0.25, 1.0, 6), np.linspace(0.25, 1.0, 194)])
    points = ts[:, None] * direction
    z, _, delta = isomap_1d(points, radius=0.05, l=6)
    truth = np.abs(ts[:6, None] - ts[None, :6])
    within_band = bool(
        np.all(delta <= 1.05 * truth + 1e-12)
        and np.all(delta >= 0.95 * truth - 1e-12)
    )
    embed_err = float(np.abs(np.abs(z[:, None] - z[None, :]) - truth).max())
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        5,
        "shortest paths and embedding reproduce arc length",
        within_band and embed_err < 0.01 and elapsed < 5.0,
        f"band ok={within_band}, embed err={embed_err:.2e} (<0.01), "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_6_stress_monotonicity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    all_monotone = True
    all_improved = True
    for _ in range(100):
        l = int(rng.integers(2, 21))
        half = np.triu(rng.uniform(0.1, 3.0, (l, l)), 1)
        delta = half + half.T
        z0 = cmds_embed(delta)
        _, trace = smacof_minimize(delta, z0)
        values = np.array(trace.values)
        all_monotone &= bool(np.all(np.diff(values) <= 0.0))
        all_improved &= values[-1] <= values[0]
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        6,
        "stress traces never increase and beat the initializer",
        all_monotone and all_improved and elapsed < 5.0,
        f"monotone={all_monotone}, improved={all_improved}, "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_7_f_test_size(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    rejects = 0
    reps = 2000
    for _ in range(reps):
        ts = rng.uniform(0.25, 1.0, 30)
        ys = 2.0 + rng.normal(0.0, 0.1, 30)
        rejects += f_test(ts, ys, level=0.05).reject
    rate = rejects / reps
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        7,
        "slope test holds its size under the null",
        0.03 <= rate <= 0.08 and elapsed < 10.0,
        f"rate={rate:.4f} in [0.03, 0.08], {elapsed:.1f}s (<10s)",
    )


def test_criterion_8_f_critical_value(capsys):
    reference = 10.127964486013928  # frozen from an independent implementation
    value = f_quantile(0.95, 1, 3)
    gap = abs(value - reference)
    _verdict(
        capsys,
        8,
        "upper-0.05 quantile of F(1,3) is reproduced",
        gap < 1e-3,
        f"value={value:.9f}, |gap|={gap:.2e} (<1e-3)",
    )


def test_criterion_9_ingestion_and_censoring(capsys, weighted_dataset, tmp_path):
    manifest_path, _ = weighted_dataset
    manifest = load_manifest(manifest_path)
    clean = True
    monotone = True
    for i in range(manifest.n_series):
        graph = load_weighted_edge_list(
            manifest.graph_path(i, 1), manifest.node_count
        )
        lower = censor_binarize(graph, 25.0)
        higher = censor_binarize(graph, 60.0)
        for dense in (lower, higher):
            clean &= bool(
                np.array_equal(dense, dense.T)
                and np.all(np.diag(dense) == 0.0)
                and np.isin(dense, (0.0, 1.0)).all()
            )
        monotone &= bool(np.all(lower - higher >= 0.0))
    kwargs = dict(position=1, d=2, radius=8.0, local_linear=True, bandwidth=0.5)
    first = analyze_real_dataset(
        manifest_path, out_dir=str(tmp_path / "a"), **kwargs
    )
    second = analyze_real_dataset(
        manifest_path, out_dir=str(tmp_path / "b"), **kwargs
    )
    identical = all(
        (tmp_path / "a" / f"{name}.csv").read_bytes()
        == (tmp_path / "b" / f"{name}.csv").read_bytes()
        for name in ("embeddings", "correlations", "test_report", "local_fit")
    )
    identical &= len(first.csv_paths) == len(second.csv_paths) == 4
    _verdict(
        capsys,
        9,
        "censoring invariants hold and reruns are byte-identical",
        clean and monotone and identical,
        f"clean={clean}, monotone={monotone}, identical={identical}",
    )


def test_criterion_10_invariance_suite(capsys):
    rng = np.random.default_rng(1010)
    # prediction is invariant under affine maps of the embedding, flips included
    z = rng.standard_normal(10)
    ys = rng.standard_normal(6)
    base = predict_from_embeddings(z, ys, 9)
    affine_err = max(
        abs(predict_from_embeddings(c * z + m, ys, 9) - base)
        for c, m in ((3.7, -2.2), (-0.9, 5.0), (1e-4, 0.0))
    )
    affine_ok = affine_err <= 1e-10 * max(1.0, abs(base))
    # pairwise score distances are invariant under basis rotation
    ts = rng.uniform(0.25, 1.0, 8)
    collection = sample_collection(ts, 100, "curve-A", 321)
    basis = joint_subspace(
        [top_eigenpairs(a, 2)[1] for a in collection.graphs], 2
    )
    w, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    plain = point_distances(
        scaled_score_points(project_scores(collection.graphs, basis, 1.0), 100).reshape(8, -1)
    )
    rotated = point_distances(
        scaled_score_points(project_scores(collection.graphs, basis @ w, 1.0), 100).reshape(8, -1)
    )
    rotation_err = float(np.abs(plain - rotated).max())
    # raw stress is exactly blind to a global sign flip
    half = np.triu(rng.uniform(0.1, 2.0, (7, 7)), 1)
    delta = half + half.T
    z7 = rng.standard_normal(7)
    gauge_ok = raw_stress(z7, delta) == raw_stress(-z7, delta)
    _verdict(
        capsys,
        10,
        "prediction, distances, and stress respect their gauge freedoms",
        affine_ok and rotation_err < 1e-8 and gauge_ok,
        f"affine err={affine_err:.1e} (<=1e-10 rel), "
        f"rotation err={rotation_err:.1e} (<1e-8), sign-flip exact={gauge_ok}",
    )
