"""End-to-end response prediction and the Monte Carlo experiment harness.

The prediction pipeline chains the stages: score-matrix estimation over all
N graphs, scaled-score vectorization, 1-D isomap over the first N* points,
simple linear regression of the s labeled responses on their embeddings,
and evaluation of the fitted line at the target index r (counted from 1).
pred_graph_resp runs the chain with its settings as keywords; each stage
checks its own.

Experiment runners reproduce the two convergence studies across a growing
schedule. Each replicate samples its collection and embeds it once, then
scores by kind: the squared gap between the predictions from the embedding
and from the true regressors t (predict_from_embeddings on either), or the
slope F-test on each of the two. Replicates are independent, seeded tasks;
records are immutable and aggregation is deterministic regardless of thread
count.

Seeding: replicate (K, j) derives its streams from
SeedSequence(base_seed, spawn_key=(K, j)), spawned into a draw stream (t and
epsilon) and a graph seed (reduced to uint64, recorded in the CSV seed
column). Changing the replicate count or the K grid never alters other
replicates' records.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blas, io
from .errors import DegenerateDesignError, NumericalError, ValidationError
from .graphs import VARIANTS, GraphCollection, sample_collection
from .io import KSummary, ReplicateRecord
from .manifold import StressTrace, isomap_1d
from .mase import coords_matrix, scaled_score_points, sparse_mase
from .regression import (
    TestReport,
    f_test,
    fit_local_linear,
    fit_slr,
    predict_slr,
)

logger = logging.getLogger(__name__)

DEFAULT_BASE_SEED = 20240817

EXPERIMENT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PredictDiagnostics:
    """Side products of a pipeline run, for inspection and logging."""

    sparsity: float
    stress: StressTrace


def _embed_collection(
    collection, d, radius, l, n_star, sparsity=None, upper_triangle=False
):
    """Scores, scaled-score points and the 1-D embedding of the first n_star.

    Returns (embedding, PredictDiagnostics, (N, D) points of every graph).
    """
    if n_star > collection.n_graphs:
        raise ValidationError(
            f"n_star={n_star} exceeds the number of graphs {collection.n_graphs}"
        )
    if n_star < 1:  # a negative one would slice from the end
        raise ValidationError(f"n_star={n_star} must be >= 1")
    scores, rho = sparse_mase(collection, d, sparsity=sparsity)
    stack = scaled_score_points(scores, collection.node_count)
    x = coords_matrix(stack, upper_triangle=upper_triangle)
    z, trace, _ = isomap_1d(x[:n_star], radius, l)
    return z, PredictDiagnostics(sparsity=rho, stress=trace), x


def predict_from_embeddings(embedding, responses, r):
    """Fit the labeled prefix and evaluate the line at index r (1-based).

    The returned prediction is invariant to affine maps of the embedding:
    replacing z by c*z + m (c != 0) gives the identical value.
    """
    z = np.asarray(embedding, dtype=float)
    s = len(responses)
    if s > z.size:
        raise ValidationError("more responses than embedded points")
    if not 1 <= r <= z.size:
        raise ValidationError(f"target index r={r} outside [1, {z.size}]")
    fit = fit_slr(z[:s], responses)
    return predict_slr(fit, float(z[r - 1]))


def pred_graph_resp(collection, *, d, radius, l, n_star, r, sparsity=None):
    """Predict the response of the r-th graph from the whole collection.

    Embeds the first n_star graphs with isomap over l shortest-path sources
    (radius is the localization-graph neighborhood parameter) from d-dimensional
    scores, then fits the labeled responses and evaluates the line at the
    1-based target index r. The sparsity override exists for noiseless
    collections (see sparse_mase). Returns (prediction, PredictDiagnostics).
    The collection must carry at least two responses on its leading graphs
    and s <= l must hold; the later stages check the other arguments.
    """
    s = collection.n_labeled
    if s < 2:
        raise ValidationError("the collection must carry at least two responses")
    if s > l:
        raise ValidationError(f"s={s} labeled graphs exceed l={l}")
    z, diagnostics, _ = _embed_collection(
        collection, d, radius, l, n_star, sparsity=sparsity
    )
    return predict_from_embeddings(z, collection.responses, r), diagnostics


@dataclass(frozen=True)
class ScheduleEntry:
    n: int
    n_graphs: int
    n_star: int
    radius: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Parametric schedule shared by both Monte Carlo experiments.

    At step K: n = nodes_base + nodes_step*(K-1) nodes,
    N = graphs_base + graphs_step*(K-1) graphs,
    N* = floor(N ** isomap_exponent), radius = lambda_base * lambda_decay**(K-1).
    """

    kind: str
    k_values: tuple
    nodes_base: int
    nodes_step: int
    graphs_base: int
    graphs_step: int
    isomap_exponent: float
    lambda_base: float
    lambda_decay: float
    s: int
    l: int
    alpha: float
    beta: float
    sigma_eps: float
    variant: str
    r: int = None
    d: int = 2
    level: float = 0.05
    mc_replicates: int = 100
    base_seed: int = DEFAULT_BASE_SEED

    def __post_init__(self):
        if self.kind not in ("consistency", "power"):
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        for f in dataclasses.fields(self):
            # False for NaN, infinities and JSON integers beyond the float range
            if f.type == "float" and not abs(getattr(self, f.name)) <= sys.float_info.max:
                raise ValidationError(f"{f.name} must be a finite number")
        if not self.k_values:
            raise ValidationError("k_values must be non-empty")
        if any(int(k) != k or not 1 <= k < io.COUNT_LIMIT for k in self.k_values):
            raise ValidationError("k_values must be integers in [1, 2^30)")
        if len(set(self.k_values)) != len(self.k_values):
            raise ValidationError("k_values must not repeat")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        min_s = 3 if self.kind == "power" else 2  # the F-test needs s - 2 >= 1
        if self.s < min_s:
            raise ValidationError(f"s must be >= {min_s} on a {self.kind} run")
        if self.s > self.l:
            raise ValidationError(f"s={self.s} must not exceed l={self.l}")
        if self.kind == "consistency":
            if self.r is None or not 1 <= self.r <= self.l:
                raise ValidationError("consistency runs need 1 <= r <= l")
        if not 0.0 < 1.0 - self.level < 1.0:  # the F-test's quantile is 1 - level
            raise ValidationError("level must lie in (0, 1), with 1 - level below 1")
        if self.mc_replicates < 1:
            raise ValidationError("mc_replicates must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ValidationError("base_seed must lie in [0, 2^64)")
        if not self.lambda_base > 0.0 or not 0.0 < self.lambda_decay <= 1.0:
            raise ValidationError("need lambda_base > 0 and lambda_decay in (0, 1]")
        if not 0.0 < self.isomap_exponent <= 1.0:
            raise ValidationError("isomap_exponent must lie in (0, 1]")
        if self.sigma_eps < 0.0:
            raise ValidationError("sigma_eps must be non-negative")
        for k in self.k_values:
            # a graph count below 1 has no real n_star (N ** exponent)
            if not 1 <= self.graphs_base + self.graphs_step * (k - 1) < io.COUNT_LIMIT:
                raise ValidationError(f"K={k}: the graph count must lie in [1, 2^30)")
            entry = self.schedule(k)
            if not 2 <= entry.n < io.COUNT_LIMIT or entry.n % 2 != 0:
                raise ValidationError(f"K={k}: the node count must be even and in [2, 2^30)")
            if not 1 <= self.d <= entry.n:
                raise ValidationError(f"K={k}: d={self.d} must lie in [1, node count {entry.n}]")
            if not entry.radius > 0.0:  # lambda_decay ** (K - 1) may underflow
                raise ValidationError(f"K={k}: the radius underflows to 0")
            if entry.n_star < self.l:
                raise ValidationError(
                    f"K={k}: n_star={entry.n_star} is below l={self.l}"
                )

    def schedule(self, k):
        n_graphs = self.graphs_base + self.graphs_step * (k - 1)
        return ScheduleEntry(
            n=self.nodes_base + self.nodes_step * (k - 1),
            n_graphs=n_graphs,
            n_star=int(math.floor(n_graphs**self.isomap_exponent)),
            radius=self.lambda_base * self.lambda_decay ** (k - 1),
        )


def _preset_path(kind, name):
    """The packaged JSON file of the built-in schedule `name` of experiment `kind`."""
    return os.path.join(os.path.dirname(__file__), "presets", f"{kind}_{name}.json")


def consistency_full_config(**overrides):
    """Full-scale squared-gap experiment schedule (K = 1..12)."""
    config = experiment_config_from_json(_preset_path("consistency", "full"))
    return dataclasses.replace(config, **overrides)


def consistency_reduced_config(**overrides):
    """Desk-scale squared-gap schedule (K = 1..6, smaller graphs)."""
    config = experiment_config_from_json(_preset_path("consistency", "reduced"))
    return dataclasses.replace(config, **overrides)


def power_full_config(**overrides):
    """Full-scale power-agreement schedule (K = 1..20, curve-B)."""
    config = experiment_config_from_json(_preset_path("power", "full"))
    return dataclasses.replace(config, **overrides)


def _json_key(name):
    return "experiment" if name == "kind" else name


def _json_type_ok(value, kind):
    """JSON value check for one ExperimentConfig field type; no field is a bool."""
    if isinstance(value, bool):
        return False
    if kind is tuple:
        return isinstance(value, list) and all(_json_type_ok(v, int) for v in value)
    return isinstance(value, (int, float) if kind is float else kind)


def experiment_config_from_json(path):
    """Load an ExperimentConfig from its JSON form (strict keys and types).

    Keys are the ExperimentConfig fields, with kind stored as "experiment".
    Float fields accept JSON integers as they are.
    """
    doc = io.load_json_object(path)
    fields = {_json_key(f.name): f for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(doc) - set(fields) - {"format_version"}
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
    if doc.get("format_version") != EXPERIMENT_FORMAT_VERSION:
        raise ValidationError(
            f"{path}: format_version must be {EXPERIMENT_FORMAT_VERSION}"
        )
    missing = {
        key for key, f in fields.items() if f.default is dataclasses.MISSING
    } - set(doc)
    if missing:
        raise ValidationError(f"{path}: missing config keys {sorted(missing)}")
    types = typing.get_type_hints(ExperimentConfig)
    kwargs = {}
    for key, f in fields.items():
        if key not in doc:
            continue
        value, kind = doc[key], types[f.name]
        nullable = f.default is None
        if not (_json_type_ok(value, kind) or (nullable and value is None)):
            expected = "list of int" if kind is tuple else kind.__name__
            raise ValidationError(
                f"{path}: config key {key!r} must be {expected}, got {value!r}"
            )
        kwargs[f.name] = tuple(value) if kind is tuple else value
    return ExperimentConfig(**kwargs)


def experiment_config_to_json(config, path):
    """Write the JSON form accepted by experiment_config_from_json."""
    doc = {"format_version": EXPERIMENT_FORMAT_VERSION}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is not None:
            doc[_json_key(f.name)] = list(value) if isinstance(value, tuple) else value
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple
    summaries: tuple
    csv_paths: dict = field(compare=False, default_factory=dict)


def _consistency_scores(config, ts, ys, z):
    """Squared gap between the predictions from the embedding z and from t."""
    gap = predict_from_embeddings(z, ys, config.r) - predict_from_embeddings(ts, ys, config.r)
    return dict(sq_gap=gap**2)


def _power_scores(config, ts, ys, z):
    """Slope F-tests on the true regressors and on the embedding z."""
    xs = (ts[: config.s], z[: config.s])
    reports = [f_test(x, ys, config.level) for x in xs]
    fitted = [r.fit.intercept + r.fit.slope * x for r, x in zip(reports, xs)]
    return dict(
        sq_gap=float(((fitted[1] - fitted[0]) ** 2).mean()),
        f_true=reports[0].f_value,
        f_hat=reports[1].f_value,
        reject_true=reports[0].reject,
        reject_hat=reports[1].reject,
    )


_SCORES = {"consistency": _consistency_scores, "power": _power_scores}


def _replicate(config, k_index, replicate):
    """One seeded replicate: draw t and responses, sample, embed, score by kind."""
    entry = config.schedule(k_index)
    seq = np.random.SeedSequence(config.base_seed, spawn_key=(k_index, replicate))
    draw_child, graph_child = seq.spawn(2)
    graph_seed = int(graph_child.generate_state(1, dtype=np.uint64)[0])
    rng = np.random.Generator(np.random.Philox(draw_child))
    ts = rng.uniform(0.25, 1.0, entry.n_graphs)
    eps = rng.normal(0.0, config.sigma_eps, config.s)
    ys = config.alpha + config.beta * ts[: config.s] + eps
    common = dict(
        k_index=k_index, replicate=replicate, seed=graph_seed, **dataclasses.asdict(entry)
    )
    try:
        collection = sample_collection(ts, entry.n, config.variant, graph_seed)
        z, _, _ = _embed_collection(
            collection, config.d, entry.radius, config.l, entry.n_star
        )
        scores = _SCORES[config.kind](config, ts, ys, z)
        return ReplicateRecord(valid=True, **common, **scores)
    except NumericalError as exc:
        logger.debug("K=%d replicate %d failed: %s", k_index, replicate, exc)
        return ReplicateRecord(sq_gap=float("nan"), valid=False, **common)


def _summarize(config, records):
    summaries = []
    for k in config.k_values:
        entry = config.schedule(k)
        mine = [r for r in records if r.k_index == k]
        valid = [r for r in mine if r.valid]
        m = len(valid)
        gaps = np.array([r.sq_gap for r in valid])
        nan = float("nan")
        extras = {}
        if config.kind == "power":
            pi_true = sum(r.reject_true for r in valid) / m if m else nan
            pi_hat = sum(r.reject_hat for r in valid) / m if m else nan
            extras = dict(
                pi_true=pi_true,
                pi_hat=pi_hat,
                abs_power_gap=abs(pi_hat - pi_true),
                se_true=math.sqrt(pi_true * (1.0 - pi_true) / m) if m else nan,
                se_hat=math.sqrt(pi_hat * (1.0 - pi_hat) / m) if m else nan,
            )
        summaries.append(
            KSummary(
                k_index=k,
                **dataclasses.asdict(entry),
                n_valid=m,
                n_failed=len(mine) - m,
                mean_sq_gap=float(gaps.mean()) if m else nan,
                median_sq_gap=float(np.median(gaps)) if m else nan,
                **extras,
            )
        )
    return summaries


def _run_experiment(config, kind, threads, out_dir):
    if config.kind != kind:
        raise ValidationError(f"config.kind must be {kind!r}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    start = time.perf_counter()
    tasks = [(k, j) for k in config.k_values for j in range(config.mc_replicates)]
    # A pool of one would pin BLAS for nothing: serial replicates spread their
    # large graphs over the BLAS threads instead (blas.map_pinned).
    workers = min(threads, len(tasks))
    if workers > 1:
        # Replicate threads would multiply with BLAS threads: one BLAS thread
        # per worker, restored once the pool has drained.
        with blas.single_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            blas_threads = blas.thread_count()
            records = list(pool.map(lambda t: _replicate(config, *t), tasks))
    else:
        blas_threads = blas.thread_count()
        records = [_replicate(config, k, j) for k, j in tasks]
    records.sort(key=lambda r: (r.k_index, r.replicate))
    summaries = _summarize(config, records)
    csv_paths = {}
    if out_dir is not None:
        power = kind == "power"
        os.makedirs(out_dir, exist_ok=True)
        replicate_path = os.path.join(out_dir, "replicates.csv")
        summary_path = os.path.join(out_dir, "summary.csv")
        io.write_replicate_records(records, replicate_path, power=power)
        io.emit_records(summaries, summary_path, KSummary, power)
        csv_paths = {"replicates": replicate_path, "summary": summary_path}
    elapsed = time.perf_counter() - start
    failed = sum(1 for r in records if not r.valid)
    logger.info(
        "%s experiment: %d replicates over %d K values, %d failed, %.1fs, "
        "%d replicate threads, %s BLAS threads",
        config.kind,
        len(records),
        len(config.k_values),
        failed,
        elapsed,
        workers,
        "unknown" if blas_threads is None else blas_threads,
    )
    return ExperimentResult(
        config=config,
        records=tuple(records),
        summaries=tuple(summaries),
        csv_paths=csv_paths,
    )


def run_consistency_experiment(config, threads=1, out_dir=None):
    """Monte Carlo squared-gap experiment; emits CSVs when out_dir is set."""
    return _run_experiment(config, "consistency", threads, out_dir)


def run_power_experiment(config, threads=1, out_dir=None):
    """Monte Carlo power-agreement experiment; emits CSVs when out_dir is set."""
    return _run_experiment(config, "power", threads, out_dir)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the real-data workflow produces."""

    n_series: int
    node_count: int
    labeled_count: int
    position: int
    sparsity: float
    correlations: np.ndarray
    embedding: np.ndarray
    responses: tuple
    test: TestReport
    stress: StressTrace
    local_fit: np.ndarray = None
    local_pseudo_r2: float = None
    csv_paths: dict = field(default_factory=dict)

    @property
    def fit(self):
        """The slope fit, `test.fit`; the benchmark checks still read this name."""
        return self.test.fit


def _upper_triangle_labels(d):
    rows, cols = np.triu_indices(d)
    return [f"q_{i}{j}" for i, j in zip(rows, cols)]


def analyze_real_dataset(
    manifest_path,
    position,
    d=3,
    radius=1.0,
    level=0.05,
    l=None,
    n_star=None,
    percentile=25.0,
    symmetrize="max",
    pooled_threshold=False,
    local_linear=False,
    bandwidth=0.03,
    out_dir=None,
):
    """Run the ingestion-to-test workflow on a manifest of weighted digraphs.

    Selects the position-th graph (1-based) of every series, censors and
    binarizes it, estimates score matrices with the given d, embeds the
    upper-triangle scaled-score vectors with 1-D isomap, regresses the
    labeled responses on the embeddings, and runs the slope F-test. The
    optional local-linear pass evaluates a Gaussian-kernel local fit at
    every embedding and reports a pseudo-R² computed from global residuals
    at the labeled points (a convention; no standard local-fit R² exists).

    Thresholds are per-graph percentiles of the absolute nonzero directed
    weights unless pooled_threshold pools them across the collection.
    """
    manifest = io.load_manifest(manifest_path)
    collection = collection_from_manifest(
        manifest, position, percentile, symmetrize, pooled_threshold=pooled_threshold
    )
    labeled = collection.n_labeled
    if labeled < 3:
        raise DegenerateDesignError(
            "the F-test needs at least three labeled series"
        )
    n_graphs = collection.n_graphs
    l = n_graphs if l is None else l
    n_star = n_graphs if n_star is None else n_star
    if labeled > l:
        raise ValidationError(f"labeled count {labeled} exceeds l={l}")
    z, diagnostics, upper = _embed_collection(
        collection, d, radius, l, n_star, upper_triangle=True
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        # one coordinate (d=1) gives a 0-d array; the CSV wants a 1 x 1 matrix
        correlations = np.atleast_2d(np.corrcoef(upper, rowvar=False))
    ys = np.asarray(collection.responses, dtype=float)
    test = f_test(z[:labeled], ys, level)
    local_fit = None
    pseudo_r2 = None
    if local_linear:
        local_fit = np.array(
            [fit_local_linear(z[:labeled], ys, bandwidth, q) for q in z]
        )
        sse = float(((ys - local_fit[:labeled]) ** 2).sum())
        sst = float(((ys - ys.mean()) ** 2).sum())
        pseudo_r2 = 1.0 - sse / sst if sst > 0.0 else float("nan")
    csv_paths = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        embeddings_path = os.path.join(out_dir, "embeddings.csv")
        io.write_embeddings_csv(embeddings_path, z, list(collection.responses))
        labels = _upper_triangle_labels(d)
        corr_path = os.path.join(out_dir, "correlations.csv")
        io.emit_csv(correlations, corr_path, labels)
        report_path = os.path.join(out_dir, "test_report.csv")
        report = {
            "f_value": test.f_value,
            "df1": test.df[0],
            "df2": test.df[1],
            "critical_value": test.critical_value,
            "p_value": test.p_value,
            "reject": test.reject,
            "level": test.level,
            "intercept": test.fit.intercept,
            "slope": test.fit.slope,
            "sample_size": test.fit.sample_size,
            "sparsity": diagnostics.sparsity,
        }
        io.emit_csv([report.values()], report_path, list(report))
        csv_paths = {
            "embeddings": embeddings_path,
            "correlations": corr_path,
            "test_report": report_path,
        }
        if local_linear:
            local_path = os.path.join(out_dir, "local_fit.csv")
            rows = zip(range(len(z)), z, local_fit)
            io.emit_csv(rows, local_path, ("index", "z_hat", "local_fit"))
            csv_paths["local_fit"] = local_path
    return AnalysisReport(
        n_series=manifest.n_series,
        node_count=manifest.node_count,
        labeled_count=labeled,
        position=position,
        sparsity=diagnostics.sparsity,
        correlations=correlations,
        embedding=z,
        responses=collection.responses,
        test=test,
        stress=diagnostics.stress,
        local_fit=local_fit,
        local_pseudo_r2=pseudo_r2,
        csv_paths=csv_paths,
    )


def collection_from_manifest(
    manifest, position, percentile=25.0, symmetrize="max", s=None,
    pooled_threshold=False,
):
    """Ingest the position-th graph of every series into a GraphCollection.

    s caps the labeled prefix (defaults to every labeled series); use it to
    leave later series unlabeled for prediction targets. Thresholds are
    per-graph percentiles unless pooled_threshold pools the absolute nonzero
    weights of every graph into one.
    """
    graphs = [
        io.load_weighted_edge_list(
            manifest.graph_path(i, position), manifest.node_count
        )
        for i in range(manifest.n_series)
    ]
    threshold = None
    if pooled_threshold:
        pooled = np.concatenate([io.nonzero_weight_magnitudes(g) for g in graphs])
        if not pooled.size:
            raise ValidationError("no nonzero weights anywhere in the collection")
        if not 0.0 <= percentile <= 100.0:
            raise ValidationError("percentile must lie in [0, 100]")
        threshold = io.linear_percentile(pooled, percentile)
    adjacency = tuple(
        io.censor_binarize(g, percentile, rule=symmetrize, threshold=threshold)
        for g in graphs
    )
    labeled = manifest.labeled_count if s is None else s
    if not 0 <= labeled <= manifest.labeled_count:
        raise ValidationError(
            f"requested s={labeled} is negative or exceeds the "
            f"{manifest.labeled_count} labeled series"
        )
    return GraphCollection(graphs=adjacency, responses=manifest.responses[:labeled])


__all__ = [
    "AnalysisReport",
    "DEFAULT_BASE_SEED",
    "ExperimentConfig",
    "ExperimentResult",
    "KSummary",
    "PredictDiagnostics",
    "ReplicateRecord",
    "ScheduleEntry",
    "analyze_real_dataset",
    "collection_from_manifest",
    "consistency_full_config",
    "consistency_reduced_config",
    "experiment_config_from_json",
    "experiment_config_to_json",
    "power_full_config",
    "pred_graph_resp",
    "predict_from_embeddings",
    "run_consistency_experiment",
    "run_power_experiment",
]
