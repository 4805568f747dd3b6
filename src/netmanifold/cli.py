"""Command-line front end.

Subcommands: simulate (consistency | power), predict, analyze, mase.
Exit codes: 0 on success, 2 for validation problems (bad flags, malformed
configs or manifests), 3 for numerical failures such as a disconnected
localization graph.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import io, pipeline
from .errors import NumericalError, ValidationError
from .mase import sparse_mase


def _dataset_flags():
    """Flags of the subcommands that ingest a manifest of weighted digraphs."""
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--manifest", required=True, help="dataset manifest JSON")
    dataset.add_argument("--percentile", type=float, default=25.0,
                         help="censoring percentile for weighted graphs (default 25)")
    dataset.add_argument(
        "--symmetrize", choices=io.SYMMETRIZE_RULES, default="max",
        help="rule merging the two directed weights of a node pair",
    )
    return dataset


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netmanifold",
        description="Response prediction on multiple-network data via "
        "score-matrix embeddings",
    )
    dataset = _dataset_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a Monte Carlo convergence experiment")
    simulate_sub = simulate.add_subparsers(dest="experiment", required=True)
    for name, presets in (("consistency", ("full", "reduced")), ("power", ("full",))):
        p = simulate_sub.add_parser(name, help=f"{name} experiment")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="experiment config JSON")
        source.add_argument("--preset", choices=presets, help="built-in schedule")
        p.add_argument(
            "--replicates", type=int, help="override the config's Monte Carlo replicate count"
        )
        p.add_argument("--seed", type=int, help="override the config's base_seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads for replicates")
        p.add_argument("--out", required=True, help="output directory for CSVs")
        p.set_defaults(func=_cmd_simulate)

    predict = sub.add_parser(
        "predict",
        parents=[dataset],
        help="predict the response of one graph in an ingested collection",
    )
    predict.add_argument(
        "--position", type=int, required=True, help="graph position within each series (1-based)"
    )
    predict.add_argument("--d", type=int, required=True, help="embedding dimension")
    predict.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="localization-graph neighborhood radius")
    predict.add_argument("--l", type=int, required=True, help="number of shortest-path sources")
    predict.add_argument("--nstar", type=int, required=True, help="number of points embedded")
    predict.add_argument("--r", type=int, required=True, help="target graph index (1-based)")
    predict.add_argument(
        "--s", type=int, help="use only the first s responses (default: all labeled series)"
    )
    predict.set_defaults(func=_cmd_predict)

    analyze = sub.add_parser(
        "analyze",
        parents=[dataset],
        help="embed a real collection, fit the responses, run the slope F-test",
    )
    analyze.add_argument(
        "--position", type=int, required=True, help="graph position within each series (1-based)"
    )
    analyze.add_argument("--d", type=int, default=3, help="embedding dimension")
    analyze.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="localization-graph neighborhood radius")
    analyze.add_argument("--level", type=float, default=0.05, help="F-test level")
    analyze.add_argument(
        "--l", type=int, default=None, help="shortest-path sources (default: all graphs)"
    )
    analyze.add_argument(
        "--nstar", type=int, default=None, help="points embedded (default: all graphs)"
    )
    analyze.add_argument("--pooled-threshold", action="store_true",
                         help="censor with one percentile threshold pooled across all graphs")
    analyze.add_argument("--local-linear", action="store_true",
                         help="also fit a Gaussian-kernel local-linear curve on the embeddings")
    analyze.add_argument("--bandwidth", type=float, default=0.03, help="local-linear bandwidth")
    analyze.add_argument("--out", default=None, help="output directory for CSVs")
    analyze.set_defaults(func=_cmd_analyze)

    mase = sub.add_parser(
        "mase",
        parents=[dataset],
        help="estimate score matrices only, written as a long-format CSV",
    )
    mase.add_argument("--d", type=int, required=True, help="embedding dimension")
    mase.add_argument("--out", required=True, help="output CSV path")
    mase.add_argument(
        "--position", type=int, default=1, help="graph position within each series (1-based)"
    )
    mase.set_defaults(func=_cmd_mase)

    return parser


def _cmd_simulate(args):
    path = args.config
    if path is None:
        path = pipeline._preset_path(args.experiment, args.preset)
    config = pipeline.experiment_config_from_json(path)
    if config.kind != args.experiment:
        raise ValidationError(
            f"{path} describes a {config.kind} experiment, not {args.experiment}"
        )
    overrides = dict(mc_replicates=args.replicates, base_seed=args.seed)
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    runner = (
        pipeline.run_consistency_experiment
        if args.experiment == "consistency"
        else pipeline.run_power_experiment
    )
    result = runner(config, threads=args.threads, out_dir=args.out)
    for s in result.summaries:
        line = (
            f"K={s.k_index:>2} n={s.n} N={s.n_graphs} n_star={s.n_star} "
            f"lambda={s.radius:.6g} valid={s.n_valid}/{s.n_valid + s.n_failed} "
            f"median_sq_gap={s.median_sq_gap:.6g} mean_sq_gap={s.mean_sq_gap:.6g}"
        )
        if config.kind == "power":
            line += (
                f" pi_true={s.pi_true:.4f} pi_hat={s.pi_hat:.4f}"
                f" gap={s.abs_power_gap:.4f}"
            )
        print(line)
    for name in ("replicates", "summary"):
        print(f"wrote {result.csv_paths[name]}")
    return 0


def _dataset_collection(args, s=None):
    """The --position graph of every --manifest series, censored and binarized."""
    return pipeline.collection_from_manifest(
        io.load_manifest(args.manifest),
        args.position,
        percentile=args.percentile,
        symmetrize=args.symmetrize,
        s=s,
    )


def _cmd_predict(args):
    collection = _dataset_collection(args, s=args.s)
    prediction, diagnostics = pipeline.pred_graph_resp(
        collection, d=args.d, radius=args.lam, l=args.l, n_star=args.nstar, r=args.r
    )
    print(f"prediction: {prediction!r}")
    print(f"sparsity: {diagnostics.sparsity!r}")
    trace = diagnostics.stress
    print(
        f"stress: {trace.final!r} after {trace.iterations} iterations "
        f"(converged={str(trace.converged).lower()})"
    )
    return 0


def _cmd_analyze(args):
    report = pipeline.analyze_real_dataset(
        args.manifest,
        args.position,
        d=args.d,
        radius=args.lam,
        level=args.level,
        l=args.l,
        n_star=args.nstar,
        percentile=args.percentile,
        symmetrize=args.symmetrize,
        pooled_threshold=args.pooled_threshold,
        local_linear=args.local_linear,
        bandwidth=args.bandwidth,
        out_dir=args.out,
    )
    print(
        f"series: {report.n_series} nodes: {report.node_count} "
        f"labeled: {report.labeled_count} position: {report.position}"
    )
    print(f"sparsity: {report.sparsity!r}")
    t = report.test
    print(f"fit: intercept={t.fit.intercept!r} slope={t.fit.slope!r}")
    print(
        f"F({t.df[0]},{t.df[1]})={t.f_value!r} critical={t.critical_value!r} "
        f"p={t.p_value!r} reject={str(t.reject).lower()} level={t.level:g}"
    )
    if report.local_pseudo_r2 is not None:
        print(f"local_pseudo_r2: {report.local_pseudo_r2!r}")
    for name in sorted(report.csv_paths):
        print(f"wrote {report.csv_paths[name]}")
    return 0


def _cmd_mase(args):
    scores, sparsity = sparse_mase(_dataset_collection(args), args.d)
    rows = (
        (k, i, j, float(scores[k][i, j]))
        for k in range(len(scores))
        for i in range(args.d)
        for j in range(args.d)
    )
    io.emit_csv(rows, args.out, ("graph", "row", "col", "value"))
    print(f"sparsity: {sparsity!r}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, NumericalError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
