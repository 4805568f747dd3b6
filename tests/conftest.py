"""Shared fixtures: synthetic weighted-digraph datasets on disk, edge-list texts, BLAS threads."""

import json
import os

import numpy as np
import pytest
from hypothesis import strategies as st

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


# Edge-list texts for hypothesis: plain rows (ASCII-digit ids, decimal weights,
# LF ends) and the perturbations that the plain pass of load_weighted_edge_list
# must leave to its row parser.
_PLAIN_WEIGHTS = st.one_of(
    st.floats(-1.0, 1.0).map(lambda w: repr(round(w, 4))),
    st.integers(-(10**15), 10**15).map(str),
    st.sampled_from(["0", "0.0", "5.", ".5", "-.5", "-0.5", "0.000001", "123456789.012345"]),
)
_PLAIN_ROWS = st.tuples(st.integers(0, 19), st.integers(0, 19), _PLAIN_WEIGHTS).map(
    lambda row: "{},{},{}".format(*row)
)
_ODD_IDS = st.sampled_from([
    str(2**31), str(2**53), str(2**53 + 1), "99999999999999999999", "007",
    " 1 ", "+1", "-0", "-1", "1_0", "1.0", "-", "",
])
_ODD_WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1.0, 1.0).map(repr),  # mostly 16 or 17 digits, no exponent
    st.sampled_from([
        "-0", "-0.0", "-.0", "5e-324", "-2.225e-308", "1e-05", "0.0000000000000000000001", "0.00000000000000000000001",
        "9007199254740993", "99999999999999999999", "-9223372036854775808",
        "1_0.5", "inf", "-inf", "1e500", "nan", "-", ".", "-.", "1.2.3", "1-2", "--1", " 0.5 ",
    ]),
)
_ODD_ROWS = st.one_of(
    st.tuples(_ODD_IDS, st.integers(0, 9).map(str), _PLAIN_WEIGHTS).map(",".join),
    st.tuples(st.integers(0, 9).map(str), _ODD_IDS, _PLAIN_WEIGHTS).map(",".join),
    st.tuples(st.integers(0, 9), st.integers(0, 9), _ODD_WEIGHTS).map(
        lambda row: "{},{},{}".format(*row)
    ),
    st.sampled_from(["", "0,1", "0,1,1.0,2", '"0",1,1.0']),
)


@st.composite
def edge_list_texts(draw):
    """Plain rows, at times with one odd row, header, line end or final newline."""
    rows = draw(st.lists(_PLAIN_ROWS, max_size=12))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(_ODD_ROWS))
    header = draw(st.sampled_from(["src,dst,weight"] * 6 + [" src , dst , weight"]))
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n"]))
    final = draw(st.sampled_from([end] * 6 + [""]))
    return header + "".join(end + row for row in rows) + final


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
