import contextlib
import dataclasses
import logging
import math
import pathlib
import threading

import numpy as np
import pytest

from netmanifold import (
    DegenerateDesignError,
    GraphCollection,
    ValidationError,
    analyze_real_dataset,
    collection_from_manifest,
    coords_matrix,
    experiment_config_from_json,
    experiment_config_to_json,
    f_test,
    isomap_1d,
    load_manifest,
    load_replicate_records,
    noiseless_collection,
    pred_graph_resp,
    predict_from_embeddings,
    run_consistency_experiment,
    run_power_experiment,
    sample_collection,
    scaled_score_points,
    sparse_mase,
)
from netmanifold import blas, eigen, graphs, pipeline
from netmanifold.pipeline import (
    consistency_full_config,
    consistency_reduced_config,
    power_full_config,
)


def _tiny_consistency(**overrides):
    base = dict(
        k_values=(1, 2),
        nodes_base=40,
        nodes_step=10,
        graphs_base=10,
        graphs_step=1,
        isomap_exponent=1.0,  # keep n_star >= l at these tiny graph counts
        mc_replicates=3,
        base_seed=4242,
    )
    base.update(overrides)
    return consistency_full_config(**base)


def _tiny_power(**overrides):
    base = dict(k_values=(1, 2), mc_replicates=3, base_seed=4242)
    base.update(overrides)
    return power_full_config(**base)


def _predict_noiseless(**overrides):
    """pred_graph_resp on 8 noiseless graphs, 5 labeled, with keyword overrides."""
    ts = np.linspace(0.3, 0.9, 8)
    coll = noiseless_collection(ts, 20, "curve-A", responses=2.0 + 5.0 * ts[:5])
    config = dict(d=2, radius=2.0, l=6, n_star=7, r=6, sparsity=1.0)
    return pred_graph_resp(coll, **{**config, **overrides})


def test_predict_config_validation():
    """The stages behind pred_graph_resp reject each bad keyword."""
    prediction, _ = _predict_noiseless()
    assert math.isfinite(prediction)
    for overrides in [dict(d=0), dict(radius=0.0), dict(l=8), dict(r=7), dict(n_star=-1)]:
        with pytest.raises(ValidationError):
            _predict_noiseless(**overrides)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_predict_config_rejects_non_finite_radius(radius):
    with pytest.raises(ValidationError, match="finite"):
        _predict_noiseless(radius=radius)


def test_predict_from_embeddings_affine_invariance():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(8)
    ys = rng.standard_normal(5)
    base = predict_from_embeddings(z, ys, 7)
    for c, m in [(2.0, 3.0), (-0.5, 10.0), (1e-3, -4.0)]:
        moved = predict_from_embeddings(c * z + m, ys, 7)
        assert moved == pytest.approx(base, rel=1e-10)


def test_predict_from_embeddings_validation():
    with pytest.raises(ValidationError):
        predict_from_embeddings(np.zeros(3), [1.0, 2.0, 3.0, 4.0], 1)
    with pytest.raises(ValidationError):
        predict_from_embeddings(np.arange(3.0), [1.0, 2.0], 4)


def test_oracle_prediction_exact_line():
    ts = np.array([0.3, 0.5, 0.7, 0.9, 0.4, 0.8])
    ys = 2.0 + 5.0 * ts[:5]
    assert predict_from_embeddings(ts, ys, 6) == pytest.approx(2.0 + 5.0 * 0.8, rel=1e-12)


def test_oracle_prediction_hand_ols():
    # fit on (0,0), (1,0), (2,3): line -0.5 + 1.5 t, evaluated at t_4 = 4
    value = predict_from_embeddings([0.0, 1.0, 2.0, 4.0], [0.0, 0.0, 3.0], 4)
    assert value == pytest.approx(-0.5 + 1.5 * 4.0, abs=1e-12)
    with pytest.raises(ValidationError):
        predict_from_embeddings([0.0, 1.0], [0.0, 1.0], 3)


def test_noiseless_pipeline_matches_oracle():
    """A := P, sigma_eps = 0: prediction equals the true-regressor oracle."""
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.25, 1.0, 20)
    ys = 2.0 + 5.0 * ts[:5]
    coll = noiseless_collection(ts, 60, "curve-A", responses=ys)
    prediction, diagnostics = pred_graph_resp(
        coll, d=2, radius=2.0, l=6, n_star=20, r=6, sparsity=1.0
    )
    oracle = predict_from_embeddings(ts, ys, 6)
    assert abs(prediction - oracle) < 1e-6
    assert diagnostics.sparsity == 1.0
    assert diagnostics.stress.converged


def test_pred_graph_resp_validation():
    coll = noiseless_collection([0.4, 0.6, 0.8], 10, "curve-A", responses=[1.0])
    with pytest.raises(ValidationError, match="two responses"):
        pred_graph_resp(coll, d=2, radius=2.0, l=3, n_star=3, r=3)
    coll5 = noiseless_collection(
        np.linspace(0.3, 0.9, 5), 10, "curve-A", responses=np.ones(5)
    )
    with pytest.raises(ValidationError, match="exceed"):
        pred_graph_resp(coll5, d=2, radius=2.0, l=3, n_star=5, r=3)
    with pytest.raises(ValidationError, match="n_star"):
        pred_graph_resp(coll5, d=2, radius=2.0, l=5, n_star=9, r=5)


def test_schedule_formulas():
    config = consistency_full_config()
    first = config.schedule(1)
    assert (first.n, first.n_graphs, first.n_star) == (500, 15, 7)
    assert first.radius == 2.0
    sixth = config.schedule(6)
    assert (sixth.n, sixth.n_graphs) == (1250, 20)
    assert sixth.n_star == int(math.floor(20**0.75))
    assert sixth.radius == pytest.approx(2.0 * 0.99**5, rel=1e-15)
    power = power_full_config()
    assert power.schedule(20).n == 92
    assert power.schedule(20).n_graphs == 31
    assert power.schedule(20).n_star == int(math.floor(31**0.85))


def test_reduced_schedule_matches_stated_formulas():
    config = consistency_reduced_config()
    assert config.k_values == (1, 2, 3, 4, 5, 6)
    assert [config.schedule(k).n for k in config.k_values] == [
        200, 300, 400, 500, 600, 700,
    ]
    assert [config.schedule(k).n_graphs for k in config.k_values] == [
        15, 16, 17, 18, 19, 20,
    ]
    assert config.mc_replicates == 30
    assert (config.s, config.l, config.r, config.d) == (5, 6, 6, 2)
    assert (config.alpha, config.beta, config.sigma_eps) == (2.0, 5.0, 0.01)


def test_experiment_config_validation():
    with pytest.raises(ValidationError, match="even"):
        _tiny_consistency(nodes_base=41)
    with pytest.raises(ValidationError, match="below l"):
        _tiny_consistency(graphs_base=5, isomap_exponent=0.75)
    with pytest.raises(ValidationError, match="r"):
        consistency_full_config(r=None)
    with pytest.raises(ValidationError, match="kind"):
        dataclasses.replace(_tiny_consistency(), kind="sweep")
    with pytest.raises(ValidationError):
        _tiny_consistency(s=7)  # s > l = 6
    with pytest.raises(ValidationError):
        _tiny_consistency(lambda_decay=1.5)


@pytest.mark.parametrize(
    "key, value",
    [
        ("lambda_base", math.nan),
        ("lambda_base", math.inf),
        ("sigma_eps", math.nan),
        ("sigma_eps", math.inf),
        ("alpha", math.nan),
        ("beta", -math.inf),
    ],
)
def test_experiment_config_rejects_non_finite_numbers(key, value):
    with pytest.raises(ValidationError, match=key):
        _tiny_consistency(**{key: value})


def test_experiment_config_rejects_repeated_k():
    """A repeated K would run its replicates twice and write each row twice."""
    with pytest.raises(ValidationError, match="k_values must not repeat"):
        _tiny_consistency(k_values=(1, 2, 1))


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(d=0), r"d=0 must lie in \[1, node count 16\]"),
        (dict(d=-1), "d=-1"),
        (dict(s=2), "s must be >= 3 on a power run"),
        (dict(level=1e-17), "1 - level below 1"),
        (dict(k_values=(1, 2), lambda_base=5e-324, lambda_decay=0.5), "K=2: the radius"),
    ],
    ids=["d-zero", "d-negative", "s-two", "level-rounds-away", "radius-underflows"],
)
def test_power_config_rejects_at_load_what_fails_after_sampling(overrides, message):
    """Each of these would pass the config and fail in the first replicate's
    embedding or F-test, after its graphs were sampled."""
    with pytest.raises(ValidationError, match=message):
        power_full_config(**{"k_values": (1,), "mc_replicates": 1, **overrides})


def test_consistency_config_accepts_two_labeled_graphs():
    """Only the F-test needs a third labeled point; a line fit takes two."""
    assert _tiny_consistency(s=2).s == 2


@pytest.mark.parametrize("kind", ["consistency", "power"])
def test_replicate_record_follows_the_public_path(kind):
    """A K=1 replicate of a preset, recomputed from the documented seed
    derivation through the exported entry points, equals its record bit for
    bit: pred_graph_resp against the latent-route prediction for the
    consistency gap, the slope F-test on t and on the embedding for power."""
    if kind == "consistency":
        config = consistency_reduced_config(k_values=(1,), mc_replicates=1)
        (record,) = run_consistency_experiment(config).records
    else:
        config = power_full_config(k_values=(1,), mc_replicates=1)
        (record,) = run_power_experiment(config).records
    entry = config.schedule(1)
    draw_child, graph_child = np.random.SeedSequence(
        config.base_seed, spawn_key=(1, 0)
    ).spawn(2)
    seed = int(graph_child.generate_state(1, dtype=np.uint64)[0])
    rng = np.random.Generator(np.random.Philox(draw_child))
    ts = rng.uniform(0.25, 1.0, entry.n_graphs)
    eps = rng.normal(0.0, config.sigma_eps, config.s)
    ys = config.alpha + config.beta * ts[: config.s] + eps
    coll = sample_collection(ts, entry.n, config.variant, seed, responses=ys)
    assert record.valid and record.seed == seed
    if kind == "consistency":
        prediction, _ = pred_graph_resp(
            coll, d=config.d, radius=entry.radius, l=config.l, n_star=entry.n_star,
            r=config.r,
        )
        assert record.sq_gap == (prediction - predict_from_embeddings(ts, ys, config.r)) ** 2
        return
    scores, _ = sparse_mase(coll, config.d)
    x = coords_matrix(scaled_score_points(scores, entry.n))
    z, _, _ = isomap_1d(x[: entry.n_star], entry.radius, config.l)
    true, hat = (f_test(v[: config.s], coll.responses, config.level) for v in (ts, z))
    fitted = [t.fit.intercept + t.fit.slope * v[: config.s] for t, v in ((true, ts), (hat, z))]
    assert record.sq_gap == float(((fitted[1] - fitted[0]) ** 2).mean())
    assert (record.f_true, record.f_hat) == (true.f_value, hat.f_value)
    assert (record.reject_true, record.reject_hat) == (true.reject, hat.reject)


def test_config_json_round_trip(tmp_path):
    config = _tiny_power()
    path = tmp_path / "config.json"
    experiment_config_to_json(config, path)
    assert experiment_config_from_json(path) == config
    consistency = _tiny_consistency()
    experiment_config_to_json(consistency, path)
    assert experiment_config_from_json(path) == consistency


@pytest.mark.parametrize(
    "factory, name",
    [
        (consistency_full_config, "consistency_full.json"),
        (consistency_reduced_config, "consistency_reduced.json"),
        (power_full_config, "power_full.json"),
    ],
)
def test_presets_serialize_to_shipped_configs(tmp_path, factory, name):
    shipped = pathlib.Path(pipeline.__file__).parent / "presets" / name
    path = tmp_path / name
    experiment_config_to_json(factory(), path)
    assert path.read_bytes() == shipped.read_bytes()
    assert experiment_config_from_json(shipped) == factory()


def test_config_json_errors(tmp_path):
    path = tmp_path / "config.json"
    experiment_config_to_json(_tiny_consistency(), path)
    import json

    doc = json.loads(path.read_text())
    doc["typo_key"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="unknown config keys"):
        experiment_config_from_json(path)
    del doc["typo_key"]
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="format_version"):
        experiment_config_from_json(path)
    doc["format_version"] = 1
    del doc["s"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="missing config keys"):
        experiment_config_from_json(path)


def test_consistency_experiment_records_and_summaries(tmp_path):
    config = _tiny_consistency()
    result = run_consistency_experiment(config, out_dir=str(tmp_path / "out"))
    assert len(result.records) == 6
    for record in result.records:
        assert record.valid
        assert record.sq_gap >= 0.0
    # summaries must be recomputable from the raw records
    for summary in result.summaries:
        gaps = [
            r.sq_gap
            for r in result.records
            if r.k_index == summary.k_index and r.valid
        ]
        assert summary.n_valid == len(gaps)
        assert summary.mean_sq_gap == pytest.approx(np.mean(gaps), rel=1e-12)
        assert summary.median_sq_gap == pytest.approx(np.median(gaps), rel=1e-12)
    reloaded = load_replicate_records(str(tmp_path / "out" / "replicates.csv"))
    assert reloaded == list(result.records)


def test_experiment_thread_determinism():
    config = _tiny_consistency()
    serial = run_consistency_experiment(config, threads=1)
    threaded = run_consistency_experiment(config, threads=4)
    assert serial.records == threaded.records
    assert serial.summaries == threaded.summaries


def test_experiment_thread_determinism_above_dense_crossover():
    """The warm-started eigensolver keeps replicates thread-independent."""
    config = _tiny_consistency(k_values=(1,), nodes_base=eigen.DENSE_MAX_N + 10)
    serial = run_consistency_experiment(config, threads=1)
    threaded = run_consistency_experiment(config, threads=3)
    assert all(r.valid for r in serial.records)
    assert serial.records == threaded.records


def test_experiment_thread_determinism_on_dense_route(monkeypatch, two_blas_threads):
    """n=150 eigh differs between one and two BLAS threads; the pin hides it."""
    monkeypatch.setattr(eigen, "PARTIAL_MIN_N", 151)
    config = _tiny_consistency(k_values=(1,), nodes_base=150)
    assert config.schedule(1).n < eigen.PARTIAL_MIN_N
    serial = run_consistency_experiment(config, threads=1)
    pooled = run_consistency_experiment(config, threads=2)
    assert all(r.valid for r in serial.records)
    assert serial.records == pooled.records


def test_experiment_thread_determinism_on_partial_route(
    monkeypatch, tmp_path, two_blas_threads
):
    """Every n=150 graph takes the ctypes partial solve. With both OpenBLAS
    copies at two threads, serial and pooled runs write the same CSV bytes as
    a run with both at one thread."""
    config = _tiny_consistency(k_values=(1,), nodes_base=150)
    assert eigen.PARTIAL_MIN_N <= config.schedule(1).n <= eigen.DENSE_MAX_N
    solves, partial = [], eigen._partial_eigenpairs

    def counting_partial(a, k, signed=False):
        solves.append(k)
        return partial(a, k, signed)

    monkeypatch.setattr(eigen, "_partial_eigenpairs", counting_partial)
    runs = []
    for threads, blas_threads in [(1, 2), (2, 2), (1, 1)]:
        for _, put in two_blas_threads:
            put(blas_threads)
        out = tmp_path / f"threads{threads}-blas{blas_threads}"
        result = run_consistency_experiment(config, threads=threads, out_dir=str(out))
        csvs = [(out / name).read_bytes() for name in ("replicates.csv", "summary.csv")]
        runs.append((result.records, csvs))
    assert len(solves) == 3 * config.mc_replicates * config.schedule(1).n_graphs
    assert all(r.valid for r in runs[0][0])
    assert runs[0] == runs[1] == runs[2]


def _record_threads(monkeypatch):
    """Thread idents of every sparse_mase call, every graph sampled and every
    eigensolve, in call order."""
    callers, samplers, solvers = [], [], []
    mase, sample, solve = pipeline.sparse_mase, graphs._sample_upper, eigen.top_eigenpairs

    def recording(record, fn):
        def call(*args, **kwargs):
            record.append(threading.get_ident())
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(pipeline, "sparse_mase", recording(callers, mase))
    monkeypatch.setattr(graphs, "_sample_upper", recording(samplers, sample))
    monkeypatch.setattr(eigen, "top_eigenpairs", recording(solvers, solve))
    return callers, samplers, solvers


def test_single_replicate_spreads_its_graphs(monkeypatch, tmp_path, two_blas_threads):
    """One replicate takes no pool of its own, whatever --threads says: it runs
    serially, and its n=650 graphs are sampled, and all but graph 0 solved, on
    worker threads, at most one per BLAS thread, with the CSV bytes of a
    serial run."""
    config = consistency_full_config(k_values=(2,), mc_replicates=1)
    n_graphs = config.schedule(2).n_graphs
    assert config.schedule(2).n > graphs.SPREAD_MIN_N
    records = _record_threads(monkeypatch)
    csvs = []
    for threads in (1, 3):
        for record in records:
            record.clear()
        out = tmp_path / f"threads{threads}"
        run_consistency_experiment(config, threads=threads, out_dir=str(out))
        csvs.append([(out / name).read_bytes() for name in ("replicates.csv", "summary.csv")])
        callers, samplers, solvers = records
        assert callers == [threading.get_ident()]
        assert len(samplers) == n_graphs and threading.get_ident() not in samplers
        workers = {t for t in solvers if t != threading.get_ident()}
        assert sum(t in workers for t in solvers) == n_graphs - 1
        assert len(set(samplers)) <= 2 and len(workers) <= 2
    assert csvs[0] == csvs[1]


def test_paper_scale_replicate_is_thread_independent(tmp_path, two_blas_threads):
    """The K=12 replicate (n=2150, N=26) of base seed 20241817 wrote sq_gap
    9.151155001372354e-06 with its products on two BLAS threads and
    ...369667e-06 on one. --threads 1 and 2 and a run under an outer pin now
    all write the pinned bytes."""
    config = consistency_full_config(
        k_values=(12,), mc_replicates=1, base_seed=20241817
    )
    runs = []
    for threads, pinned in [(1, False), (2, False), (1, True)]:
        out = tmp_path / f"threads{threads}-pinned{pinned}"
        with blas.single_thread() if pinned else contextlib.nullcontext():
            result = run_consistency_experiment(config, threads=threads, out_dir=str(out))
        csvs = [(out / name).read_bytes() for name in ("replicates.csv", "summary.csv")]
        runs.append((result.records, csvs))
    assert runs[0][0][0].valid
    assert runs[0] == runs[1] == runs[2]


def test_experiment_thread_determinism_on_fallback_route(monkeypatch, two_blas_threads):
    """n=300 curve-A graphs near the noise bulk stall in the block iteration
    and take the partial tridiagonal solve, whose scipy LAPACK calls differ
    between one and two threads of scipy's own OpenBLAS. With both OpenBLAS
    copies at two threads, serial and pooled runs match a run with both at
    one thread."""
    config = _tiny_consistency(k_values=(1,), nodes_base=300)
    fallbacks, partial = [], eigen._partial_eigenpairs

    def counting_partial(a, k, signed=False):
        fallbacks.append(k)
        return partial(a, k, signed)

    monkeypatch.setattr(eigen, "_partial_eigenpairs", counting_partial)
    serial = run_consistency_experiment(config, threads=1)
    assert fallbacks
    pooled = run_consistency_experiment(config, threads=2)
    for _, put in two_blas_threads:
        put(1)
    one_thread = run_consistency_experiment(config, threads=1)
    assert all(r.valid for r in serial.records)
    assert serial.records == pooled.records == one_thread.records


def test_replicate_pool_pins_blas_and_restores(monkeypatch, caplog, two_blas_threads):
    config = _tiny_consistency(k_values=(1,))
    seen, sample = [], pipeline.sample_collection

    def recording_sample(*args, **kwargs):
        seen.append(blas.thread_count())
        return sample(*args, **kwargs)

    def failing_sample(*args, **kwargs):
        raise RuntimeError("replicate crashed")

    monkeypatch.setattr(pipeline, "sample_collection", recording_sample)
    with caplog.at_level(logging.INFO, logger="netmanifold.pipeline"):
        run_consistency_experiment(config, threads=2)
    assert seen == [1, 1, 1]
    assert blas.thread_count() == 2
    assert "2 replicate threads, 1 BLAS threads" in caplog.text
    monkeypatch.setattr(pipeline, "sample_collection", failing_sample)
    with pytest.raises(RuntimeError, match="replicate crashed"):
        run_consistency_experiment(config, threads=2)
    assert blas.thread_count() == 2


def test_experiment_byte_identical_reruns(tmp_path):
    config = _tiny_power()
    run_power_experiment(config, out_dir=str(tmp_path / "a"))
    run_power_experiment(config, threads=3, out_dir=str(tmp_path / "b"))
    for name in ("replicates.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_replicates_are_seed_isolated():
    """Extending the replicate count must not disturb earlier replicates."""
    short = run_consistency_experiment(_tiny_consistency(k_values=(1,)))
    longer = run_consistency_experiment(
        _tiny_consistency(k_values=(1,), mc_replicates=5)
    )
    assert longer.records[:3] == short.records


def test_power_experiment_fields():
    result = run_power_experiment(_tiny_power())
    for record in result.records:
        assert record.f_true is not None
        assert record.reject_true in (True, False)
    for summary in result.summaries:
        assert 0.0 <= summary.pi_true <= 1.0
        assert 0.0 <= summary.pi_hat <= 1.0
        assert summary.abs_power_gap == pytest.approx(
            abs(summary.pi_hat - summary.pi_true), abs=1e-15
        )


def test_power_null_size_near_level():
    """beta = 0 variant: both rejection rates near the nominal 0.05 level."""
    config = _tiny_power(beta=0.0, mc_replicates=60, k_values=(3,))
    result = run_power_experiment(config, threads=4)
    summary = result.summaries[0]
    assert summary.pi_true < 0.25
    assert summary.pi_hat < 0.25


def test_failed_replicates_are_recorded_not_raised(tmp_path):
    # a microscopic radius disconnects every localization graph
    config = _tiny_consistency(k_values=(1,), lambda_base=1e-9)
    result = run_consistency_experiment(config, out_dir=str(tmp_path))
    assert all(not r.valid for r in result.records)
    assert all(math.isnan(r.sq_gap) for r in result.records)
    summary = result.summaries[0]
    assert summary.n_valid == 0
    assert summary.n_failed == 3
    assert math.isnan(summary.mean_sq_gap)
    reloaded = load_replicate_records(str(tmp_path / "replicates.csv"))
    assert [r.valid for r in reloaded] == [False, False, False]


def test_kind_mismatch_rejected():
    with pytest.raises(ValidationError):
        run_power_experiment(_tiny_consistency())
    with pytest.raises(ValidationError):
        run_consistency_experiment(_tiny_power())


def test_analyze_real_dataset_end_to_end(tmp_path, weighted_dataset):
    manifest_path, ts = weighted_dataset
    report = analyze_real_dataset(
        manifest_path,
        position=1,
        d=2,
        radius=8.0,
        local_linear=True,
        bandwidth=0.5,
        out_dir=str(tmp_path / "report"),
    )
    assert report.n_series == 10
    assert report.labeled_count == 5
    assert math.isfinite(report.test.p_value)
    assert report.correlations.shape == (3, 3)  # d*(d+1)/2 upper-triangle entries
    assert len(report.embedding) == 10
    assert report.local_fit is not None and len(report.local_fit) == 10
    assert report.local_pseudo_r2 is not None
    for key in ("embeddings", "correlations", "test_report", "local_fit"):
        assert key in report.csv_paths
    from netmanifold.io import read_csv_rows

    _, rows = read_csv_rows(report.csv_paths["embeddings"])
    responses = [float(row["response"]) if row["response"] else None for row in rows]
    assert [float(row["z_hat"]) for row in rows] == [float(z) for z in report.embedding]
    assert responses[:5] == list(report.responses)
    assert responses[5:] == [None] * 5


def test_analyze_position_out_of_range(weighted_dataset):
    manifest_path, _ = weighted_dataset
    with pytest.raises(ValidationError, match="position"):
        analyze_real_dataset(manifest_path, position=2, d=2, radius=8.0)


def test_analyze_single_series_degenerate(tmp_path):
    from conftest import build_weighted_dataset

    manifest_path, _ = build_weighted_dataset(
        tmp_path, n_series=1, labeled=1, n=30
    )
    with pytest.raises(DegenerateDesignError):
        analyze_real_dataset(manifest_path, position=1, d=2, radius=8.0)


def test_collection_from_manifest_prefix_cap(weighted_dataset):
    manifest_path, _ = weighted_dataset
    manifest = load_manifest(manifest_path)
    coll = collection_from_manifest(manifest, 1, s=3)
    assert isinstance(coll, GraphCollection)
    assert coll.n_labeled == 3
    assert coll.n_graphs == 10
    with pytest.raises(ValidationError, match="exceeds"):
        collection_from_manifest(manifest, 1, s=6)
    with pytest.raises(ValidationError, match="negative"):
        collection_from_manifest(manifest, 1, s=-1)  # would slice from the end


@pytest.mark.parametrize("percentile", [101.0, float("nan")])
def test_pooled_threshold_rejects_percentile_out_of_range(weighted_dataset, percentile):
    manifest = load_manifest(weighted_dataset[0])
    with pytest.raises(ValidationError, match="percentile"):
        collection_from_manifest(
            manifest, 1, percentile=percentile, pooled_threshold=True
        )


def test_analyze_one_dimensional_scores(weighted_dataset, tmp_path):
    """d=1 has one score coordinate: its correlation matrix is 1 x 1."""
    report = analyze_real_dataset(
        weighted_dataset[0], 1, d=1, radius=8.0, out_dir=str(tmp_path)
    )
    assert report.correlations.shape == (1, 1)
    assert (tmp_path / "correlations.csv").read_bytes() == b"q_00\n1.0\n"
