import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edge_list_texts
from netmanifold import io as nm_io
from netmanifold import (
    DegenerateInputError,
    ValidationError,
    censor_binarize,
    load_manifest,
    load_replicate_records,
    load_weighted_edge_list,
    write_replicate_records,
)
from netmanifold.io import (
    EMBEDDING_COLUMNS,
    SYMMETRIZE_RULES,
    WeightedDigraph,
    emit_csv,
    read_csv_rows,
    write_embeddings_csv,
)
from netmanifold.pipeline import ReplicateRecord


def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return str(path)


def test_edge_list_parses(tmp_path):
    path = _write(
        tmp_path / "g.csv", "src,dst,weight\n0,1,2.5\n1,0,-0.5\n2,0,1.0\n"
    )
    graph = load_weighted_edge_list(path)
    assert graph.node_count == 3
    assert graph.edges.tolist() == [[0, 1, 2.5], [1, 0, -0.5], [2, 0, 1.0]]
    dense = graph.dense_weights()
    assert dense[0, 1] == 2.5 and dense[1, 0] == -0.5


def test_edge_list_empty_section(tmp_path):
    path = _write(tmp_path / "g.csv", "src,dst,weight\n")
    graph = load_weighted_edge_list(path, node_count=4)
    assert graph.node_count == 4
    assert graph.edges.shape == (0, 3)


def test_edge_list_drops_self_loops_and_logs(tmp_path, caplog):
    path = _write(tmp_path / "g.csv", "src,dst,weight\n0,0,9.0\n0,1,1.0\n")
    with caplog.at_level(logging.INFO, logger="netmanifold.io"):
        graph = load_weighted_edge_list(path)
    assert graph.edges.tolist() == [[0, 1, 1.0]]
    assert "1 self-loop" in caplog.text


def test_edge_list_errors_name_lines(tmp_path):
    bad_header = _write(tmp_path / "a.csv", "source,dest,w\n")
    with pytest.raises(ValidationError, match="expected header"):
        load_weighted_edge_list(bad_header)
    bad_float = _write(tmp_path / "b.csv", "src,dst,weight\n0,1,1.0\n1,2,abc\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_weighted_edge_list(bad_float)
    dup = _write(tmp_path / "c.csv", "src,dst,weight\n0,1,1.0\n0,1,2.0\n")
    with pytest.raises(ValidationError, match="duplicate arc"):
        load_weighted_edge_list(dup)
    neg = _write(tmp_path / "d.csv", "src,dst,weight\n-1,1,1.0\n")
    with pytest.raises(ValidationError, match="negative"):
        load_weighted_edge_list(neg)
    inf = _write(tmp_path / "e.csv", "src,dst,weight\n0,1,inf\n")
    with pytest.raises(ValidationError, match="not finite"):
        load_weighted_edge_list(inf)
    overflow = _write(tmp_path / "f.csv", "src,dst,weight\n0,9,1.0\n")
    with pytest.raises(ValidationError, match="exceeds node_count"):
        load_weighted_edge_list(overflow, node_count=5)
    short_row = _write(tmp_path / "g.csv", "src,dst,weight\n0,1\n")
    with pytest.raises(ValidationError, match="expected 3 fields"):
        load_weighted_edge_list(short_row)


_EDGE_LIST_TOKEN_RULES = {
    # ids are whatever int() reads, weights whatever float() reads
    "spaced id": ("src,dst,weight\n 1 ,2,1.5\n", [[1, 2, 1.5]]),
    "plus id": ("src,dst,weight\n+1,2,1.5\n", [[1, 2, 1.5]]),
    "underscore id": ("src,dst,weight\n1_0,2,1.5\n", [[10, 2, 1.5]]),
    "arabic-indic id": ("src,dst,weight\n١,2,1.5\n", [[1, 2, 1.5]]),
    "minus zero id": ("src,dst,weight\n-0,2,1.5\n", [[0, 2, 1.5]]),
    "quoted id": ('src,dst,weight\n"0",2,1.5\n', [[0, 2, 1.5]]),
    "underscore weight": ("src,dst,weight\n0,2,1_0.5\n", [[0, 2, 10.5]]),
    "spaced header": (" src , dst , weight\n0,2,1.5\n", [[0, 2, 1.5]]),
    "crlf": ("src,dst,weight\r\n0,2,1.5\r\n", [[0, 2, 1.5]]),
    "cr": ("src,dst,weight\r0,2,1.5\r", [[0, 2, 1.5]]),
    "no final newline": ("src,dst,weight\n0,2,1.5", [[0, 2, 1.5]]),
    "decimal id": ("src,dst,weight\n1.0,2,1.5\n", "invalid literal for int()"),
    "overflowing weight": ("src,dst,weight\n0,2,1e500\n", "weight not finite"),
    "blank line": ("src,dst,weight\n0,2,1.5\n\n0,1,1.0\n", "line 3: expected 3 fields"),
}


@pytest.mark.parametrize(
    "text, expected", _EDGE_LIST_TOKEN_RULES.values(), ids=_EDGE_LIST_TOKEN_RULES
)
def test_edge_list_token_rules(tmp_path, text, expected):
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(ValidationError, match=re.escape(expected)):
            load_weighted_edge_list(path)
    else:
        assert load_weighted_edge_list(path).edges.tolist() == expected


def _benchmark_shaped_edge_list(rng, n=40, self_loops=3):
    """Text of a random arc list like the benchmark's: 4-decimal signed weights."""
    src, dst = np.triu_indices(n, 1)
    keep = rng.random(src.size) < 0.3
    src, dst = src[keep], dst[keep]
    flip = rng.random(src.size) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    loops = rng.integers(0, n, self_loops)
    src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    weights = np.round(rng.uniform(-1.0, 1.0, src.size), 4)
    rows = [f"{s},{d},{w!r}" for s, d, w in zip(src.tolist(), dst.tolist(), weights.tolist())]
    return "src,dst,weight\n" + "".join(row + "\n" for row in rows)


def test_plain_edge_lists_skip_the_row_parser(tmp_path, monkeypatch, caplog):
    """A plain file never reaches csv.reader; CRLF and duplicates still do."""
    plain = _write(tmp_path / "plain.csv", _benchmark_shaped_edge_list(np.random.default_rng(5)))
    expected = nm_io._parse_edge_list_rows(plain, 40)

    def no_rows(*args, **kwargs):
        raise AssertionError("row parser reached")

    monkeypatch.setattr(nm_io.csv, "reader", no_rows)
    with caplog.at_level(logging.INFO, logger="netmanifold.io"):
        graph = load_weighted_edge_list(plain, 40)
    assert graph.edges.tobytes() == expected.edges.tobytes()
    assert "dropped 3 self-loop row(s)" in caplog.text
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"src,dst,weight\r\n0,1,1.0\r\n")
    duplicate = _write(tmp_path / "dup.csv", "src,dst,weight\n0,1,1.0\n0,1,2.0\n")
    for path in (crlf, duplicate):
        with pytest.raises(AssertionError, match="row parser reached"):
            load_weighted_edge_list(path)


def _parse_outcome(parse, path, node_count, caplog):
    caplog.clear()
    try:
        graph = parse(path, node_count)
    except ValidationError as exc:
        return "error", str(exc), caplog.text
    return graph.node_count, graph.edges.shape, graph.edges.tobytes(), caplog.text


def test_plain_pass_matches_row_parser(tmp_path, caplog):
    """Accept or reject, node_count, edge bytes, error text and log line agree."""
    path = str(tmp_path / "g.csv")

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts(), st.one_of(st.none(), st.integers(1, 24)))
    @example("src,dst,weight\n0,1,-0.0\n", None)
    @example("src,dst,weight\n0,1,-\n", None)
    @example("src,dst,weight\n0,1,0.9452706955539223\n", None)  # mantissa above 2**53
    @example("src,dst,weight\n0,1,-0.9452706955539223\n", None)
    @example("src,dst,weight\n0,1,0.00000000000000000000001\n", None)  # 23 decimals
    def run(text, node_count):
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        with caplog.at_level(logging.INFO, logger="netmanifold.io"):
            got = _parse_outcome(load_weighted_edge_list, path, node_count, caplog)
            want = _parse_outcome(nm_io._parse_edge_list_rows, path, node_count, caplog)
        assert got == want, text

    run()


def _cycle_graph(weights):
    n = len(weights)
    edges = tuple((i, (i + 1) % n, float(w)) for i, w in enumerate(weights))
    return WeightedDigraph(node_count=n, edges=edges)


def test_censor_hand_percentile():
    """|w| in {1,2,3,4}, percentile 25 -> threshold 1.75; three edges survive."""
    graph = _cycle_graph([1.0, -2.0, 3.0, 4.0])
    adjacency = censor_binarize(graph, percentile=25.0)
    surviving = {(i, j) for i, j in zip(*np.nonzero(adjacency)) if i < j}
    assert surviving == {(1, 2), (2, 3), (0, 3)}
    assert np.array_equal(adjacency, adjacency.T)
    assert np.array_equal(np.diag(adjacency), np.zeros(4))
    assert set(np.unique(adjacency)) <= {0.0, 1.0}


_PERCENTILES = st.one_of(
    st.sampled_from([0.0, 100.0, 25.0, 50.0, 75.0]),
    st.integers(0, 100).map(float),
    st.floats(0.0, 100.0),
)


@settings(max_examples=400, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=400),
        st.lists(st.integers(1, 10**4).map(lambda w: w / 1e4), min_size=1, max_size=400),
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=50),
    ),
    percentile=_PERCENTILES,
)
@example(values=[3.0], percentile=0.0)
@example(values=[3.0], percentile=100.0)
@example(values=[1.0, 2.0, 3.0, 4.0], percentile=25.0)
def test_linear_percentile_matches_numpy_bytes(values, percentile):
    """The censoring threshold is np.percentile's value to the last bit."""
    values = np.array(values)
    expected = np.float64(np.percentile(values, percentile)).tobytes()
    assert np.float64(nm_io.linear_percentile(values, percentile)).tobytes() == expected


def test_censor_reciprocal_arcs_max_rule():
    # (i->j, 5) and (j->i, -1) merge to 5 under max; 5 > 2 keeps the edge
    graph = WeightedDigraph(node_count=2, edges=((0, 1, 5.0), (1, 0, -1.0)))
    adjacency = censor_binarize(graph, threshold=2.0)
    assert adjacency[0, 1] == 1.0
    mean_rule = censor_binarize(graph, threshold=2.0, rule="mean")
    assert mean_rule[0, 1] == 1.0  # (5 + 1)/2 = 3 > 2
    assert censor_binarize(graph, threshold=6.5, rule="sum")[0, 1] == 0.0


def test_censor_validation():
    graph = _cycle_graph([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        censor_binarize(graph)
    ok = _cycle_graph([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        censor_binarize(ok, rule="min")
    with pytest.raises(ValidationError):
        censor_binarize(ok, percentile=101.0)


def test_censor_rejects_self_loops_and_repeated_arcs():
    loop = WeightedDigraph(2, ((0, 0, 5.0), (0, 1, 5.0)))
    with pytest.raises(ValidationError, match="self-loop or repeated arc"):
        censor_binarize(loop, threshold=1.0)
    repeated = WeightedDigraph(2, ((0, 1, 5.0), (0, 1, 0.5)))
    with pytest.raises(ValidationError, match="self-loop or repeated arc"):
        censor_binarize(repeated, threshold=1.0)


@pytest.mark.parametrize(
    "arc", [(0, -1, 5.0), (0, 3, 5.0), (0.5, 1, 5.0), (float("nan"), 1, 5.0)]
)
def test_weighted_digraph_rejects_bad_node_ids(arc):
    # a -1 would wrap onto node 2 and join nodes 0 and 2 when censored
    with pytest.raises(ValidationError, match=r"node ids must be integers in \[0, 3\)"):
        WeightedDigraph(3, [arc])


def _censor_by_pairs(n, edges, percentile, rule, threshold):
    """censor_binarize spelled out one node pair at a time."""
    if threshold is None:
        magnitudes = [abs(w) for _, _, w in edges if w != 0.0]
        threshold = float(np.percentile(magnitudes, percentile))
    merged = {}
    for src, dst, weight in edges:
        merged.setdefault((min(src, dst), max(src, dst)), []).append(abs(weight))
    adjacency = np.zeros((n, n))
    for (i, j), mags in merged.items():
        if rule == "max":
            value = max(mags)
        elif rule == "sum":
            value = sum(mags)
        else:
            value = sum(mags) / len(mags)
        if value > threshold:
            adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-4.0, 4.0)


@settings(max_examples=150, deadline=None)
@given(
    arcs=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda a: a[0] != a[1]),
        _WEIGHTS,
        min_size=1,
    ),
    rule=st.sampled_from(SYMMETRIZE_RULES),
    percentile=st.floats(0.0, 100.0),
    threshold=st.none() | st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(0.0, 3.0),
)
def test_censor_matches_per_pair_merge(arcs, rule, percentile, threshold):
    """One-way, reciprocal, zero and negative arcs merge as pair by pair."""
    edges = [(src, dst, w) for (src, dst), w in arcs.items()]
    if threshold is None and not any(w != 0.0 for _, _, w in edges):
        return  # no threshold basis; covered by test_censor_validation
    graph = WeightedDigraph(6, edges)
    adjacency = censor_binarize(graph, percentile, rule=rule, threshold=threshold)
    expected = _censor_by_pairs(6, edges, percentile, rule, threshold)
    assert np.array_equal(adjacency, expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    low=st.floats(min_value=0.0, max_value=50.0),
    bump=st.floats(min_value=0.0, max_value=50.0),
)
def test_censor_monotone_thinning(seed, low, bump):
    """Raising the percentile never adds an edge."""
    rng = np.random.default_rng(seed)
    n = 8
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                edges.append((i, j, float(rng.normal(0.0, 3.0))))
    graph = WeightedDigraph(node_count=n, edges=tuple(edges))
    try:
        sparse = censor_binarize(graph, percentile=min(low + bump, 100.0))
        dense = censor_binarize(graph, percentile=low)
    except DegenerateInputError:
        return  # no nonzero weights drawn
    assert (dense - sparse >= 0.0).all()


def test_manifest_minimal(tmp_path):
    _write(tmp_path / "m.json", json.dumps({
        "format_version": 1,
        "node_count": 3,
        "series": [{"graphs": ["g.csv"], "response": 1.5}],
    }))
    manifest = load_manifest(tmp_path / "m.json")
    assert manifest.n_series == 1
    assert manifest.series_length == 1
    assert manifest.labeled_count == 1
    assert manifest.responses == (1.5,)
    assert manifest.graph_path(0, 1) == str(tmp_path / "g.csv")


def test_manifest_position_range(tmp_path):
    _write(tmp_path / "m.json", json.dumps({
        "format_version": 1,
        "node_count": 3,
        "series": [{"graphs": ["a.csv", "b.csv"], "response": None}],
    }))
    manifest = load_manifest(tmp_path / "m.json")
    assert manifest.graph_path(0, 2).endswith("b.csv")
    with pytest.raises(ValidationError, match="position"):
        manifest.graph_path(0, 0)
    with pytest.raises(ValidationError, match="position"):
        manifest.graph_path(0, 3)


def test_manifest_errors(tmp_path):
    def check(doc, fragment):
        path = _write(tmp_path / "bad.json", json.dumps(doc))
        with pytest.raises(ValidationError, match=fragment):
            load_manifest(path)

    check({"format_version": 2, "node_count": 3, "series": []}, "format_version")
    check({"format_version": 1, "node_count": 0, "series": []}, "node_count")
    check({"format_version": 1, "node_count": 3, "series": []}, "series")
    check(
        {"format_version": 1, "node_count": 3,
         "series": [{"graphs": [], "response": 1.0}]},
        r"series\[0\].graphs",
    )
    check(
        {"format_version": 1, "node_count": 3, "series": [{"graphs": ["a.csv"]}]},
        "response",
    )
    check(
        {"format_version": 1, "node_count": 3,
         "series": [{"graphs": ["a.csv"], "response": True}]},
        "number or null",
    )
    # mismatched series lengths
    check(
        {"format_version": 1, "node_count": 3, "series": [
            {"graphs": ["a.csv", "b.csv"], "response": 1.0},
            {"graphs": ["c.csv"], "response": 2.0},
        ]},
        "length",
    )
    # labeled series must come first
    check(
        {"format_version": 1, "node_count": 3, "series": [
            {"graphs": ["a.csv"], "response": None},
            {"graphs": ["b.csv"], "response": 2.0},
        ]},
        "precede",
    )
    _write(tmp_path / "bad.json", "{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_manifest(tmp_path / "bad.json")


def test_emit_csv_deterministic_bytes(tmp_path):
    rows = [(math.pi, True, None, 3), (-0.1, False, "x", -7)]
    path = tmp_path / "t.csv"
    emit_csv(rows, path, ("a", "b", "c", "d"))
    content = path.read_bytes()
    assert content == (
        b"a,b,c,d\n3.141592653589793,true,,3\n-0.1,false,x,-7\n"
    )
    header, parsed = read_csv_rows(path)
    assert header == ("a", "b", "c", "d")
    assert float(parsed[0]["a"]) == math.pi  # repr round-trips exactly


def test_emit_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path, ("x", "y"))
    assert path.read_bytes() == b"x,y\n"
    header, rows = read_csv_rows(path)
    assert header == ("x", "y")
    assert rows == []


def test_emit_csv_rejects_rows_of_another_length(tmp_path):
    for row in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=f"{len(row)} values for 3 columns"):
            emit_csv([(1, 2, 3), row], tmp_path / "t.csv", ("a", "b", "c"))


# the replicates.csv headers, as README "Output CSVs" lists them
REPLICATE_HEADER = tuple("K,replicate,seed,n,N,n_star,lambda,sq_gap,valid".split(","))
POWER_REPLICATE_HEADER = tuple(
    "K,replicate,seed,n,N,n_star,lambda,sq_gap,f_true,f_hat,reject_true,reject_hat,valid"
    .split(",")
)


def _record(j, **overrides):
    base = dict(
        k_index=1 + j % 3,
        replicate=j,
        seed=10**18 + j,
        n=200,
        n_graphs=15,
        n_star=7,
        radius=2.0 * 0.99**j,
        sq_gap=0.001 * (j + 1),
        valid=True,
    )
    base.update(overrides)
    return ReplicateRecord(**base)


def test_replicate_records_round_trip(tmp_path):
    records = [_record(j) for j in range(100)]
    path = tmp_path / "r.csv"
    write_replicate_records(records, path, power=False)
    header, _ = read_csv_rows(path)
    assert header == REPLICATE_HEADER
    again = load_replicate_records(path)
    assert again == records
    mean = np.mean([r.sq_gap for r in records])
    assert np.mean([r.sq_gap for r in again]) == mean


def test_replicate_records_single_row(tmp_path):
    path = tmp_path / "one.csv"
    write_replicate_records([_record(0)], path, power=False)
    assert len(path.read_bytes().splitlines()) == 2
    assert load_replicate_records(path) == [_record(0)]


def test_power_records_round_trip_with_failures(tmp_path):
    ok = _record(0, f_true=12.5, f_hat=9.0, reject_true=True, reject_hat=False)
    failed = _record(1, sq_gap=float("nan"), valid=False)
    path = tmp_path / "p.csv"
    write_replicate_records([ok, failed], path, power=True)
    header, _ = read_csv_rows(path)
    assert header == POWER_REPLICATE_HEADER
    again = load_replicate_records(path)
    assert again[0] == ok
    assert again[1].valid is False
    assert math.isnan(again[1].sq_gap)
    assert again[1].f_hat is None and again[1].reject_hat is None


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda data: data + b"\xff", "not valid UTF-8"),
        (lambda data: data + b"1,0,5\n", "line 4: expected 13 fields, got 3"),
        (lambda data: data.replace(b"\n1,", b"\nx,", 1), "line 2, column K: "),
    ],
    ids=["non-utf8", "short-row", "bad-int-cell"],
)
def test_load_replicate_records_rejects_malformed_files(tmp_path, corrupt, message):
    ok = _record(0, f_true=12.5, f_hat=9.0, reject_true=True, reject_hat=False)
    failed = _record(1, sq_gap=float("nan"), valid=False)
    path = tmp_path / "replicates.csv"
    write_replicate_records([ok, failed], path, power=True)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValidationError, match=message) as excinfo:
        load_replicate_records(path)
    assert str(path) in str(excinfo.value)


def test_power_schema_pinned_when_all_failed(tmp_path):
    failed = _record(0, sq_gap=float("nan"), valid=False)
    path = tmp_path / "allfail.csv"
    write_replicate_records([failed], path, power=True)
    header, _ = read_csv_rows(path)
    assert header == POWER_REPLICATE_HEADER


def test_embeddings_csv_round_trip(tmp_path):
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, np.array([0.5, -0.25, 1.0]), [7.0, 8.0])
    header, rows = read_csv_rows(path)
    assert header == EMBEDDING_COLUMNS
    assert [r["index"] for r in rows] == ["0", "1", "2"]
    assert [float(r["z_hat"]) for r in rows] == [0.5, -0.25, 1.0]
    assert [r["response"] for r in rows] == ["7.0", "8.0", ""]
