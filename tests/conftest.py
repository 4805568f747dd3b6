"""Shared fixtures: synthetic weighted-digraph datasets on disk, BLAS threads."""

import json
import os

import numpy as np
import pytest

from netmanifold import blas, sample_collection


def build_weighted_dataset(
    root,
    n_series=10,
    n=60,
    labeled=5,
    series_length=1,
    seed=7,
    variant="curve-B",
    alpha=2.0,
    beta=5.0,
):
    """Write a manifest plus edge-list files under `root`.

    Each series holds `series_length` graphs sampled from the balanced
    2-block model at a shared t; every undirected edge becomes two directed
    arcs with independent positive weights, so censoring at the default
    percentile recovers the binary structure. Responses are alpha + beta*t
    on the first `labeled` series. Returns (manifest_path, ts).
    """
    root = str(root)
    os.makedirs(os.path.join(root, "graphs"), exist_ok=True)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.25, 1.0, n_series)
    series = []
    for k in range(n_series):
        paths = []
        for pos in range(series_length):
            coll = sample_collection([ts[k]], n, variant, (seed + 1) * 1000 + k * 10 + pos)
            a = coll.graphs[0]
            rel = f"graphs/s{k}_p{pos}.csv"
            paths.append(rel)
            lines = ["src,dst,weight"]
            iu = np.triu_indices(n, 1)
            for i, j in zip(*iu):
                if a[i, j] > 0:
                    w1, w2 = (float(x) for x in rng.uniform(0.5, 2.0, 2))
                    lines.append(f"{i},{j},{w1!r}")
                    lines.append(f"{j},{i},{w2!r}")
            with open(os.path.join(root, rel), "w", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        response = float(alpha + beta * ts[k]) if k < labeled else None
        series.append({"graphs": paths, "response": response})
    manifest_path = os.path.join(root, "manifest.json")
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(
            {"format_version": 1, "node_count": n, "series": series},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return manifest_path, ts


@pytest.fixture(scope="session")
def weighted_dataset(tmp_path_factory):
    """(manifest_path, ts) for a 10-series single-position dataset."""
    root = tmp_path_factory.mktemp("dataset")
    return build_weighted_dataset(root)


@pytest.fixture
def two_blas_threads():
    """Hold every mapped OpenBLAS at two threads, so serial runs are not pinned already.

    numpy and scipy each map their own copy; the fixture yields the (get, set)
    pairs of all of them.
    """
    libs = blas._openblas()
    if not libs:
        pytest.skip("no OpenBLAS found in the process")
    previous = [get() for get, _ in libs]
    for _, put in libs:
        put(2)
    yield libs
    for (_, put), count in zip(libs, previous):
        put(count)
