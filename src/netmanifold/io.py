"""File formats: weighted edge lists, dataset manifests, and experiment records.

Edge lists are CSV files with header ``src,dst,weight`` and zero-based
integer node ids. Manifests are JSON documents listing per-series graph
paths (relative to the manifest's directory) and a scalar response per
series. All writers emit deterministic bytes: fixed column orders, LF line
endings, repr-formatted floats that round-trip exactly, and no timestamps.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import re
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError

logger = logging.getLogger(__name__)

MANIFEST_FORMAT_VERSION = 1

# Node counts, and the experiments' K values and graph counts, lie below this
# bound: below it numpy can describe every (n, n) matrix of 8-byte words; one
# that does not fit in memory ends in a MemoryError.
COUNT_LIMIT = 2**30

# CSV names of the record fields whose column is not named after the field.
COLUMN_NAMES = {"k_index": "K", "n_graphs": "N", "radius": "lambda"}
EMBEDDING_COLUMNS = ("index", "z_hat", "response")

SYMMETRIZE_RULES = ("max", "sum", "mean")


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Directed weighted graph; parallel arcs are disallowed at parse time.

    Node ids must be integers in [0, node_count): numpy indexing would wrap
    a negative id onto another node.
    """

    node_count: int
    edges: np.ndarray  # (m, 3) float rows (src, dst, weight); sequences converted

    def __post_init__(self):
        edges = np.asarray(self.edges, float).reshape(-1, 3)
        ids = edges[:, :2]
        if ids.size and not (
            ids.min() >= 0  # False for NaN
            and ids.max() < self.node_count
            and (ids == ids.astype(np.intp)).all()
        ):
            raise ValidationError(
                f"node ids must be integers in [0, {self.node_count})"
            )
        object.__setattr__(self, "edges", edges)

    def dense_weights(self):
        src, dst = self.edges[:, :2].astype(np.intp).T
        w = np.zeros((self.node_count, self.node_count))
        w[src, dst] = self.edges[:, 2]
        return w


@dataclass(frozen=True)
class DatasetManifest:
    """Series of graph paths plus one response per series.

    Unlabeled series (response null) are allowed only after every labeled
    one, mirroring "responses attached to the first s graphs".
    """

    node_count: int
    series_paths: tuple  # tuple of tuples of relative paths
    responses: tuple  # floats, possibly followed by Nones
    base_dir: str

    @property
    def n_series(self):
        return len(self.series_paths)

    @property
    def series_length(self):
        return len(self.series_paths[0])

    @property
    def labeled_count(self):
        return sum(1 for y in self.responses if y is not None)

    def graph_path(self, series, position):
        """Absolute path of one graph; position counted from 1."""
        if not 1 <= position <= self.series_length:
            raise ValidationError(
                f"position {position} outside the series range "
                f"[1, {self.series_length}]"
            )
        return os.path.join(self.base_dir, self.series_paths[series][position - 1])


@contextlib.contextmanager
def open_text(path, **kwargs):
    """open() a UTF-8 text file for reading; a decode error names the file."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 text: {exc}") from exc


def load_weighted_edge_list(path, node_count=None):
    """Parse a ``src,dst,weight`` CSV file into a WeightedDigraph.

    Self-loop rows are dropped (their count is logged). Duplicate arcs,
    malformed rows, and ids outside [0, node_count) are errors; the reported
    line numbers count the header as line 1. When node_count is None it is
    inferred as max id + 1.

    A plain file is read in one vectorized pass; any other file, and every
    file with an error, goes through the row parser, which alone defines
    what is accepted and what each error says.
    """
    parsed = _parse_plain_edge_list(path, node_count)
    if parsed is None:
        return _parse_edge_list_rows(path, node_count)
    return _edge_list_graph(path, *parsed)


# A plain edge list is the exact header, then rows of two ids and a weight,
# each row ending in LF. The ids are ASCII digits; the weight is ASCII digits
# with at most one '.' and an optional leading '-'.
_PLAIN_HEADER = b"src,dst,weight\n"
_NEGATIVE_ZERO_WEIGHT = re.compile(rb",-[.0]*\n")
_POWERS_OF_TEN = 10.0 ** np.arange(23)  # each exact in float64
# Ids below this keep the arc keys src * _PLAIN_ID_BOUND + dst within int64.
_PLAIN_ID_BOUND = 2**31


def _parse_plain_edge_list(path, node_count):
    """(node_count, edges, dropped) of a plain, valid edge list, else None.

    Every token is read as an integer, with the weights' '.' deleted. A
    weight is then its digits m over 10**k, k the digits after its '.'. For
    |m| < 2**53 and k <= 22 both are exact in float64, so the one rounding
    of the division gives float()'s correctly rounded value (the fast path of
    Clinger 1990, "How to read floating point numbers accurately"). Whatever
    this pass cannot read exactly so, or finds invalid, it leaves to the rows.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_PLAIN_HEADER):
        return None
    body = data[len(_PLAIN_HEADER):]
    rows = body.count(b"\n")
    # With its digits deleted, every row must read ",,\n", ",,-\n", ",,.\n" or
    # ",,-.\n": ids are bare digits, and a weight holds at most one '-' and
    # one '.'. fromstring refuses a '-' that does not open its token.
    frame = body.translate(None, b"0123456789")
    if frame.replace(b",,-", b",,").replace(b".\n", b"\n") != b",,\n" * rows:
        return None
    tokens = body.replace(b".", b"").replace(b"\n", b",")
    try:
        ints = np.fromstring(tokens, np.int64, sep=",")
    except ValueError:  # an empty token, or a '-' inside one
        return None
    if ints.size != 3 * rows:  # a read that stopped short of the end
        return None
    ints = ints.reshape(rows, 3)
    chars = np.frombuffer(body, np.uint8)
    row_ends = np.flatnonzero(chars == ord("\n"))
    dots = np.flatnonzero(chars == ord("."))
    dot_rows = np.searchsorted(row_ends, dots)
    scale = np.zeros(rows, np.intp)
    scale[dot_rows] = row_ends[dot_rows] - dots - 1
    mantissas = ints[:, 2]
    if rows and not (
        scale.max() <= 22
        and -(2**53) < mantissas.min()
        and mantissas.max() < 2**53
        and ints[:, :2].max() < _PLAIN_ID_BOUND  # int64 overflow reads as 2**63 - 1
    ):
        return None
    # A zero mantissa cannot carry the sign of "-0" (-0.0), and a weight of "-"
    # or "-." reads as 0 where float() refuses it.
    if not mantissas.all() and _NEGATIVE_ZERO_WEIGHT.search(body):
        return None
    edges = ints.astype(float)
    edges[:, 2] /= _POWERS_OF_TEN[scale]
    kept = ints[:, 0] != ints[:, 1]
    dropped = rows - int(np.count_nonzero(kept))
    if dropped:
        ints, edges = ints[kept], edges[kept]
    arcs = ints[:, 0] * _PLAIN_ID_BOUND + ints[:, 1]
    arcs.sort()
    if (arcs[1:] == arcs[:-1]).any():  # a duplicate arc
        return None
    max_id = int(ints[:, :2].max()) if len(ints) else -1
    if node_count is None:
        node_count = max_id + 1
    elif max_id >= node_count:
        return None
    return node_count, edges, dropped


def _edge_list_graph(path, node_count, edges, dropped):
    if dropped:
        logger.info("%s: dropped %d self-loop row(s)", path, dropped)
    return WeightedDigraph(int(node_count), edges)


def _parse_edge_list_rows(path, node_count):
    """The row-by-row parser of load_weighted_edge_list, for any file."""
    values = []
    seen = set()
    max_id = -1
    dropped = 0
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["src", "dst", "weight"]:
            raise ValidationError(f"{path}: expected header 'src,dst,weight'")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValidationError(f"{path}: line {line_no}: expected 3 fields")
            try:
                src = int(row[0])
                dst = int(row[1])
                weight = float(row[2])
            except ValueError as exc:
                raise ValidationError(f"{path}: line {line_no}: {exc}") from exc
            if not math.isfinite(weight):
                raise ValidationError(f"{path}: line {line_no}: weight not finite")
            if src < 0 or dst < 0:
                raise ValidationError(f"{path}: line {line_no}: negative node id")
            if src == dst:
                dropped += 1
                continue
            if (src, dst) in seen:
                raise ValidationError(
                    f"{path}: line {line_no}: duplicate arc ({src}, {dst})"
                )
            seen.add((src, dst))
            values += (src, dst, weight)
            max_id = max(max_id, src, dst)
    if node_count is None:
        node_count = max_id + 1
    elif max_id >= node_count:
        raise ValidationError(
            f"{path}: node id {max_id} exceeds node_count {node_count}"
        )
    return _edge_list_graph(path, node_count, np.array(values, dtype=float), dropped)


def nonzero_weight_magnitudes(graph):
    """Absolute values of the nonzero directed weights (threshold basis)."""
    magnitudes = np.abs(graph.edges[:, 2])
    return magnitudes[magnitudes != 0.0]


def linear_percentile(values, percentile):
    """np.percentile(values, percentile) of a non-empty 1-D float array, bit
    for bit, with percentile in [0, 100].

    numpy's default linear rule: the virtual index (n-1)*(percentile/100)
    between the order statistics a and b at its floor and ceiling, fraction t,
    gives a + (b-a)*t, or b - (b-a)*(1-t) for t >= 0.5; at or past the last
    index both are the maximum, and t is that index plus one. Only a and b are
    partitioned into place, where np.percentile costs ten times more.
    """
    last = values.size - 1
    virtual = last * (percentile / 100)
    if virtual >= last:
        low = high = last
        t = virtual + 1
    else:
        low = math.floor(virtual)
        high, t = low + 1, virtual - low
    a, b = np.partition(values, (low, high))[[low, high]]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def censor_binarize(graph, percentile=25.0, rule="max", threshold=None):
    """Censor a weighted digraph into a hollow symmetric binary matrix.

    The threshold is the given percentile (linear interpolation) of the
    absolute nonzero directed weights of this graph, unless an explicit
    threshold is supplied (pooled-collection workflows). Reciprocal arcs are
    merged by `rule` over their absolute weights (max by default; mean
    counts zero-weight arcs), and an undirected edge survives iff the merged
    weight strictly exceeds the threshold. Self-loop or repeated arcs raise.
    """
    if rule not in SYMMETRIZE_RULES:
        raise ValidationError(f"unknown symmetrize rule {rule!r}")
    if not 0.0 <= percentile <= 100.0:
        raise ValidationError("percentile must lie in [0, 100]")
    n = graph.node_count
    src, dst = graph.edges[:, :2].astype(np.intp).T
    arcs = np.zeros((n, n), dtype=np.int8)
    arcs[src, dst] = 1
    if arcs.trace() or arcs.sum() != len(src):
        raise ValidationError("self-loop or repeated arc in a graph to censor")
    if threshold is None:
        magnitudes = nonzero_weight_magnitudes(graph)
        if not magnitudes.size:
            raise DegenerateInputError("every edge weight is zero; nothing to censor")
        threshold = linear_percentile(magnitudes, percentile)
    weights = np.abs(graph.dense_weights())
    count = arcs + arcs.T
    merged = np.maximum(weights, weights.T) if rule == "max" else weights + weights.T
    if rule == "mean":
        merged /= np.maximum(count, 1)
    return ((count > 0) & (merged > threshold)).astype(float)


def _manifest_error(json_path, message):
    return ValidationError(f"manifest {json_path}: {message}")


def load_json_object(path):
    """Read a UTF-8 JSON document whose top level must be an object."""
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad syntax, or an integer of over 4300 digits
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return doc


def load_manifest(path):
    """Load and validate a dataset manifest (JSON)."""
    doc = load_json_object(path)
    version = doc.get("format_version")
    if version != MANIFEST_FORMAT_VERSION:
        raise _manifest_error(
            "format_version", f"expected {MANIFEST_FORMAT_VERSION}, got {version!r}"
        )
    node_count = doc.get("node_count")
    if type(node_count) is not int or not 1 <= node_count < COUNT_LIMIT:  # no bools
        raise _manifest_error("node_count", "must be a positive integer below 2^30")
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        raise _manifest_error("series", "must be a non-empty list")
    paths = []
    responses = []
    for idx, entry in enumerate(series):
        where = f"series[{idx}]"
        if not isinstance(entry, dict):
            raise _manifest_error(where, "must be an object")
        graphs = entry.get("graphs")
        if not isinstance(graphs, list) or not graphs:
            raise _manifest_error(f"{where}.graphs", "must be a non-empty list")
        if not all(isinstance(g, str) and "\0" not in g for g in graphs):
            raise _manifest_error(f"{where}.graphs", "entries must be strings without NUL")
        if "response" not in entry:
            raise _manifest_error(f"{where}.response", "missing")
        response = entry["response"]
        if response is not None:
            if not isinstance(response, (int, float)) or isinstance(response, bool):
                raise _manifest_error(f"{where}.response", "must be a number or null")
            if not abs(response) <= sys.float_info.max:  # NaN, inf, ints beyond floats
                raise _manifest_error(f"{where}.response", "must be finite")
            response = float(response)
        paths.append(tuple(graphs))
        responses.append(response)
    length = len(paths[0])
    for idx, p in enumerate(paths):
        if len(p) != length:
            raise _manifest_error(
                f"series[{idx}].graphs",
                f"length {len(p)} differs from series[0] length {length}",
            )
    seen_null = False
    for idx, y in enumerate(responses):
        if y is None:
            seen_null = True
        elif seen_null:
            raise _manifest_error(
                f"series[{idx}].response",
                "labeled series must precede unlabeled ones",
            )
    return DatasetManifest(
        node_count=node_count,
        series_paths=tuple(paths),
        responses=tuple(responses),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def _format_cell(value):
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows, path, columns):
    """Write rows of values, each in column order, with LF endings.

    Floats are repr-formatted so a reload reproduces them bit for bit; an
    empty row list yields a header-only file. A row whose length differs
    from the header's raises ValueError.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = [_format_cell(value) for value in row]
            if len(cells) != len(columns):
                raise ValueError(f"{len(cells)} values for {len(columns)} columns")
            writer.writerow(cells)


def _parse_bool(text):
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValidationError(f"expected 'true' or 'false', got {text!r}")


def _parse_cell(path, line, column, parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        raise ValidationError(f"{path}: line {line}, column {column}: {exc}") from exc


def read_csv_rows(path):
    """Read a CSV written by emit_csv back into a list of dicts (strings).

    Every row must have as many fields as the header.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            rows.append(dict(zip(header, row)))
        return tuple(header), rows


@dataclass(frozen=True, kw_only=True)
class ReplicateRecord:
    """One immutable Monte Carlo replicate outcome.

    The field order is the column order of replicates.csv (record_columns);
    the slope-test fields, None by default, are written by power runs only.
    """

    k_index: int
    replicate: int
    seed: int
    n: int
    n_graphs: int
    n_star: int
    radius: float
    sq_gap: float
    f_true: float = None
    f_hat: float = None
    reject_true: bool = None
    reject_hat: bool = None
    valid: bool


@dataclass(frozen=True)
class KSummary:
    """Per-K aggregate over the valid replicates; fields in summary.csv order."""

    k_index: int
    n: int
    n_graphs: int
    n_star: int
    radius: float
    n_valid: int
    n_failed: int
    mean_sq_gap: float
    median_sq_gap: float
    pi_true: float = None
    pi_hat: float = None
    abs_power_gap: float = None
    se_true: float = None
    se_hat: float = None


def record_columns(cls, power):
    """CSV columns and the fields they hold of a record dataclass, in field order.

    Fields defaulting to None hold slope-test results: power runs only.
    """
    fields = [f for f in dataclasses.fields(cls) if power or f.default is not None]
    return tuple(COLUMN_NAMES.get(f.name, f.name) for f in fields), fields


def emit_records(records, path, cls, power):
    """Write one row per record, in the columns of record_columns(cls, power)."""
    columns, fields = record_columns(cls, power)
    emit_csv(([getattr(r, f.name) for f in fields] for r in records), path, columns)


def write_replicate_records(records, path, power):
    """Emit per-replicate records; power runs add the F-test columns.

    The schema follows the experiment kind, not the records: a power run
    whose replicates all failed before their F-test keeps the F columns.
    """
    emit_records(records, path, ReplicateRecord, power)


def load_replicate_records(path):
    """Inverse of write_replicate_records; empty F-test cells come back as None."""
    header, rows = read_csv_rows(path)
    schemas = dict(record_columns(ReplicateRecord, power) for power in (False, True))
    fields = schemas.get(header)
    if fields is None:
        raise ValidationError(f"{path}: unexpected header {header}")
    types = typing.get_type_hints(ReplicateRecord)
    parsers = {int: int, float: float, bool: _parse_bool}

    def parse(line, text, column, f):
        if f.default is None and not text:
            return None
        return _parse_cell(path, line, column, parsers[types[f.name]], text)

    # emit_csv writes one record per line, after the header on line 1
    return [
        ReplicateRecord(
            **{f.name: parse(line, row[c], c, f) for c, f in zip(header, fields)}
        )
        for line, row in enumerate(rows, start=2)
    ]


def write_embeddings_csv(path, embedding, responses):
    """Embedding table ``index,z_hat,response``; index counts from 0."""
    rows = (
        (idx, float(z), responses[idx] if idx < len(responses) else None)
        for idx, z in enumerate(embedding)
    )
    emit_csv(rows, path, EMBEDDING_COLUMNS)

