"""The four workloads: their inputs, one round of operations, and its checks.

A round is a fixed set of operations, so every run attempts whole rounds and
its failed share does not depend on the run length. An operation is one Monte
Carlo replicate or one analyze_real_dataset call. Round r of a run with seed
s uses base seed BASE_SEED + 1000 * s + r, so rounds differ within a run and
the same seed always gives the same inputs.
"""

import csv
import dataclasses
import json
import math
import os
import shutil

import numpy as np

import checks
from netmanifold import io as nm_io
from netmanifold import pipeline
from netmanifold.errors import NumericalError

BASE_SEED = 20240817

# curve-A block probabilities: t / a within a block, t / b across, with
# a = sqrt(2) / sin(1) and b = sqrt(2) / cos(1) (see the package's graphs.py).
CURVE_A_DIAG = math.sqrt(2.0) / math.sin(1.0)
CURVE_A_OFFDIAG = math.sqrt(2.0) / math.cos(1.0)


def round_seed(seed, r):
    return BASE_SEED + 1000 * seed + r


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class ConsistencyWorkload:
    """Replicates of one consistency schedule, CSVs written every round."""

    threads = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.out_dir = os.path.join(work_dir, "round")
        self.warm_dir = os.path.join(work_dir, "warm")
        self.gaps = []

    @property
    def ops_per_round(self):
        return len(self.config.k_values) * self.config.mc_replicates

    def round_config(self, r):
        return dataclasses.replace(self.config, base_seed=round_seed(self.seed, r))

    def write_inputs(self):
        """The replicates draw their own inputs from the round's base seed."""

    def setup(self):
        shutil.rmtree(self.warm_dir, ignore_errors=True)
        pipeline.run_consistency_experiment(
            self.warm_config, threads=self.threads, out_dir=self.warm_dir
        )

    def prepare(self, r):
        config = self.round_config(r)
        return (
            pipeline.run_consistency_experiment,
            (config,),
            dict(threads=self.threads, out_dir=self.out_dir),
        )

    def failed(self, result):
        return sum(1 for record in result.records if not record.valid)

    def check(self, r, result):
        config = self.round_config(r)
        rows = read_rows(os.path.join(self.out_dir, "replicates.csv"))
        summary = read_rows(os.path.join(self.out_dir, "summary.csv"))
        checks.check_replicates(rows, config)
        checks.check_summary(rows, summary, config)
        self.gaps.extend(float(row["sq_gap"]) for row in rows)

    def finish(self):
        checks.check_sq_gap_median(self.gaps, checks.SQ_GAP_MEDIAN_BOUND[self.name])


class ConsistencyK12(ConsistencyWorkload):
    name = "consistency-k12"
    config = pipeline.consistency_full_config(k_values=(12,), mc_replicates=1)
    # One step just above the dense crossover: both eigensolver routes run.
    warm_config = pipeline.consistency_full_config(
        k_values=(1,), nodes_base=210, mc_replicates=1
    )


class ConsistencyMidsize(ConsistencyWorkload):
    name = "consistency-midsize"
    config = pipeline.consistency_reduced_config(k_values=(2, 3), mc_replicates=3)
    warm_config = pipeline.consistency_reduced_config(
        k_values=(1,), nodes_base=210, mc_replicates=1
    )


class ConsistencyPool(ConsistencyWorkload):
    name = "consistency-pool"
    # n=200 and N=15: every per-graph basis is a dense eigh of a small graph.
    config = pipeline.consistency_reduced_config(k_values=(1,), mc_replicates=8)
    warm_config = pipeline.consistency_reduced_config(k_values=(1,), mc_replicates=2)

    @property
    def threads(self):
        """One replicate thread per usable core."""
        return len(os.sched_getaffinity(0))


class AnalyzeIngest:
    """analyze_real_dataset on weighted edge lists the benchmark writes.

    Series i has latent t_i ~ U(0.25, 1). Each of its graphs is drawn from
    the curve-A two-block model at t_i; every edge becomes one arc in a random
    direction or, with probability 1/2, two reciprocal arcs, each with its own
    weight of random sign and magnitude U(0.05, 1) rounded to 4 decimals. The
    first LABELED series carry responses 2 + 5 t + N(0, 0.1^2). Round r reads
    position 1 + r mod POSITIONS of every series.
    """

    name = "analyze-ingest"
    ops_per_round = 1
    SERIES = 1000
    NODES = 40
    POSITIONS = 2
    LABELED = 250
    D = 2
    RADIUS = 0.25
    BANDWIDTH = 0.03
    LEVEL = 0.05
    PERCENTILE = 25.0
    WARM_SERIES = 100

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.data_dir = os.path.join(work_dir, "dataset")
        self.out_dir = os.path.join(work_dir, "round")
        self.warm_dir = os.path.join(work_dir, "warm")
        self.manifest = os.path.join(self.data_dir, "manifest.json")
        self.warm_manifest = os.path.join(self.data_dir, "warm.json")
        self.verified = {}

    def _file(self, i, p):
        return f"s{i}_p{p}.csv"

    def make_inputs(self):
        """Draw every series' latent t, responses and weighted arcs."""
        rng = np.random.Generator(np.random.Philox(round_seed(self.seed, 0)))
        n = self.NODES
        ts = rng.uniform(0.25, 1.0, self.SERIES)
        ys = 2.0 + 5.0 * ts[: self.LABELED] + rng.normal(0.0, 0.1, self.LABELED)
        rows, cols = np.triu_indices(n, k=1)
        same = (rows < n // 2) == (cols < n // 2)
        arcs = {}
        for i, t in enumerate(ts):
            prob = np.where(same, t / CURVE_A_DIAG, t / CURVE_A_OFFDIAG)
            for p in range(self.POSITIONS):
                edge = rng.random(prob.size) < prob
                u, v = rows[edge], cols[edge]
                forward = rng.random(u.size) < 0.5
                both = rng.random(u.size) < 0.5
                src = np.where(forward, u, v)
                dst = np.where(forward, v, u)
                src, dst = np.concatenate([src, dst[both]]), np.concatenate([dst, src[both]])
                sign = np.where(rng.random(src.size) < 0.5, -1.0, 1.0)
                weight = sign * np.round(rng.uniform(0.05, 1.0, src.size), 4)
                arcs[i, p] = (src, dst, weight)
        return ts, ys, arcs

    def write_inputs(self):
        """Draw the inputs and write the dataset the program reads."""
        self.ts, ys, self.arcs = self.make_inputs()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(self.data_dir)
        for (i, p), (src, dst, weight) in self.arcs.items():
            lines = ["src,dst,weight"]
            lines.extend(
                f"{s},{d},{w!r}"
                for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist())
            )
            with open(os.path.join(self.data_dir, self._file(i, p)), "w") as fh:
                fh.write("\n".join(lines) + "\n")
        series = [
            {
                "graphs": [self._file(i, p) for p in range(self.POSITIONS)],
                "response": float(ys[i]) if i < self.LABELED else None,
            }
            for i in range(self.SERIES)
        ]
        for path, listed in ((self.manifest, series), (self.warm_manifest, series[: self.WARM_SERIES])):
            with open(path, "w") as fh:
                json.dump({"format_version": 1, "node_count": self.NODES, "series": listed}, fh)

    def setup(self):
        """A small warm-up call of the entry point on the written dataset."""
        shutil.rmtree(self.warm_dir, ignore_errors=True)
        pipeline.analyze_real_dataset(
            self.warm_manifest,
            1,
            d=self.D,
            radius=10 * self.RADIUS,
            level=self.LEVEL,
            local_linear=True,
            bandwidth=self.BANDWIDTH,
            out_dir=self.warm_dir,
        )

    def position(self, r):
        return 1 + r % self.POSITIONS

    def analyze(self, position):
        try:
            return pipeline.analyze_real_dataset(
                self.manifest,
                position,
                d=self.D,
                radius=self.RADIUS,
                level=self.LEVEL,
                percentile=self.PERCENTILE,
                local_linear=True,
                bandwidth=self.BANDWIDTH,
                out_dir=self.out_dir,
            )
        except NumericalError:
            return None

    def prepare(self, r):
        return self.analyze, (self.position(r),), {}

    def failed(self, result):
        return int(result is None)

    def references(self, position):
        return [
            checks.censor_reference(self.NODES, *self.arcs[i, position - 1], self.PERCENTILE)
            for i in range(self.SERIES)
        ]

    def censored(self, position):
        """The program's censored matrices, through its public io functions."""
        manifest = nm_io.load_manifest(self.manifest)
        return [
            nm_io.censor_binarize(
                nm_io.load_weighted_edge_list(manifest.graph_path(i, position), self.NODES),
                self.PERCENTILE,
            )
            for i in range(self.SERIES)
        ]

    def check(self, r, result):
        if result is None:
            return
        position = self.position(r)
        if position not in self.verified:
            references = self.references(position)
            checks.check_censored(self.censored(position), references)
            self.verified[position] = references
        checks.check_analysis(result, self.verified[position], self.ts, self.LEVEL)
        (row,) = read_rows(os.path.join(self.out_dir, "test_report.csv"))
        checks.check_report_csv(row, result)

    def finish(self):
        pass


WORKLOADS = {
    w.name: w for w in (ConsistencyK12, ConsistencyMidsize, ConsistencyPool, AnalyzeIngest)
}
