import dataclasses
import logging
import math
import pathlib

import numpy as np
import pytest

from netmanifold import (
    DegenerateDesignError,
    GraphCollection,
    PredictConfig,
    ValidationError,
    analyze_real_dataset,
    collection_from_manifest,
    experiment_config_from_json,
    experiment_config_to_json,
    load_manifest,
    load_replicate_records,
    noiseless_collection,
    oracle_prediction,
    pred_graph_resp,
    predict_from_embeddings,
    run_consistency_experiment,
    run_power_experiment,
)
from netmanifold import blas, mase, pipeline
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


def test_predict_config_validation():
    PredictConfig(d=2, radius=1.0, l=6, n_star=7, r=6)
    with pytest.raises(ValidationError):
        PredictConfig(d=0, radius=1.0, l=6, n_star=7, r=6)
    with pytest.raises(ValidationError):
        PredictConfig(d=2, radius=0.0, l=6, n_star=7, r=6)
    with pytest.raises(ValidationError):
        PredictConfig(d=2, radius=1.0, l=8, n_star=7, r=6)
    with pytest.raises(ValidationError):
        PredictConfig(d=2, radius=1.0, l=6, n_star=7, r=7)


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
    assert oracle_prediction(ts, ys, 6) == pytest.approx(2.0 + 5.0 * 0.8, rel=1e-12)


def test_oracle_prediction_hand_ols():
    # fit on (0,0), (1,0), (2,3): line -0.5 + 1.5 t, evaluated at t_4 = 4
    value = oracle_prediction([0.0, 1.0, 2.0, 4.0], [0.0, 0.0, 3.0], 4)
    assert value == pytest.approx(-0.5 + 1.5 * 4.0, abs=1e-12)
    with pytest.raises(ValidationError):
        oracle_prediction([0.0, 1.0], [0.0, 1.0], 3)


def test_noiseless_pipeline_matches_oracle():
    """A := P, sigma_eps = 0: prediction equals the true-regressor oracle."""
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.25, 1.0, 20)
    ys = 2.0 + 5.0 * ts[:5]
    coll = noiseless_collection(ts, 60, "curve-A", responses=ys)
    config = PredictConfig(d=2, radius=2.0, l=6, n_star=20, r=6, sparsity=1.0)
    prediction, diagnostics = pred_graph_resp(coll, config)
    oracle = oracle_prediction(ts, ys, 6)
    assert abs(prediction - oracle) < 1e-6
    assert diagnostics.sparsity == 1.0
    assert diagnostics.stress.converged


def test_pred_graph_resp_validation():
    coll = noiseless_collection([0.4, 0.6, 0.8], 10, "curve-A", responses=[1.0])
    with pytest.raises(ValidationError, match="two responses"):
        pred_graph_resp(coll, PredictConfig(d=2, radius=2.0, l=3, n_star=3, r=3))
    coll5 = noiseless_collection(
        np.linspace(0.3, 0.9, 5), 10, "curve-A", responses=np.ones(5)
    )
    with pytest.raises(ValidationError, match="exceed"):
        pred_graph_resp(coll5, PredictConfig(d=2, radius=2.0, l=3, n_star=5, r=3))
    with pytest.raises(ValidationError, match="n_star"):
        pred_graph_resp(coll5, PredictConfig(d=2, radius=2.0, l=5, n_star=9, r=5))


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
    shipped = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
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
    config = _tiny_consistency(k_values=(1,), nodes_base=mase.DENSE_MAX_N + 10)
    serial = run_consistency_experiment(config, threads=1)
    threaded = run_consistency_experiment(config, threads=3)
    assert all(r.valid for r in serial.records)
    assert serial.records == threaded.records


def test_experiment_thread_determinism_on_dense_route(two_blas_threads):
    """n=150 eigh differs between one and two BLAS threads; the pin hides it."""
    config = _tiny_consistency(k_values=(1,), nodes_base=150)
    assert config.schedule(1).n <= mase.DENSE_MAX_N
    serial = run_consistency_experiment(config, threads=1)
    pooled = run_consistency_experiment(config, threads=2)
    assert all(r.valid for r in serial.records)
    assert serial.records == pooled.records


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
    from netmanifold.io import load_embeddings_csv

    embedding, responses = load_embeddings_csv(report.csv_paths["embeddings"])
    assert embedding == [float(z) for z in report.embedding]
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
