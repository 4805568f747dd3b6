"""File formats: weighted edge lists, dataset manifests, and record CSVs.

Edge lists are CSV files with header ``src,dst,weight`` and zero-based
integer node ids. Manifests are JSON documents listing per-series graph
paths (relative to the manifest's directory) and a scalar response per
series. All writers emit deterministic bytes: fixed column orders, LF line
endings, repr-formatted floats that round-trip exactly, and no timestamps.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError

logger = logging.getLogger(__name__)

MANIFEST_FORMAT_VERSION = 1

# (CSV column, ReplicateRecord field); power runs insert the F-test columns
# before valid.
REPLICATE_FIELDS = (
    ("K", "k_index"),
    ("replicate", "replicate"),
    ("seed", "seed"),
    ("n", "n"),
    ("N", "n_graphs"),
    ("n_star", "n_star"),
    ("lambda", "radius"),
    ("sq_gap", "sq_gap"),
    ("valid", "valid"),
)
_F_TEST_FIELDS = tuple(
    (name, name) for name in ("f_true", "f_hat", "reject_true", "reject_hat")
)
POWER_REPLICATE_FIELDS = REPLICATE_FIELDS[:-1] + _F_TEST_FIELDS + REPLICATE_FIELDS[-1:]
REPLICATE_COLUMNS = tuple(column for column, _ in REPLICATE_FIELDS)
POWER_REPLICATE_COLUMNS = tuple(column for column, _ in POWER_REPLICATE_FIELDS)
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
    format_version: int = MANIFEST_FORMAT_VERSION

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
    """
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
    if dropped:
        logger.info("%s: dropped %d self-loop row(s)", path, dropped)
    return WeightedDigraph(int(node_count), np.array(values, dtype=float))


def nonzero_weight_magnitudes(graph):
    """Absolute values of the nonzero directed weights (threshold basis)."""
    magnitudes = np.abs(graph.edges[:, 2])
    return magnitudes[magnitudes != 0.0]


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
        threshold = float(np.percentile(magnitudes, percentile))
    weights = np.abs(graph.dense_weights())
    count = arcs + arcs.T
    merged = np.maximum(weights, weights.T) if rule == "max" else weights + weights.T
    if rule == "mean":
        merged /= np.maximum(count, 1)
    return ((count > 0) & (merged > threshold)).astype(float)


def _manifest_error(json_path, message):
    return ValidationError(f"manifest {json_path}: {message}")


def load_manifest(path):
    """Load and validate a dataset manifest (JSON)."""
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _manifest_error("$", "top level must be an object")
    version = doc.get("format_version")
    if version != MANIFEST_FORMAT_VERSION:
        raise _manifest_error(
            "format_version", f"expected {MANIFEST_FORMAT_VERSION}, got {version!r}"
        )
    node_count = doc.get("node_count")
    if type(node_count) is not int or node_count < 1:  # bools are rejected
        raise _manifest_error("node_count", "must be a positive integer")
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
        if not all(isinstance(g, str) for g in graphs):
            raise _manifest_error(f"{where}.graphs", "entries must be strings")
        if "response" not in entry:
            raise _manifest_error(f"{where}.response", "missing")
        response = entry["response"]
        if response is not None:
            if not isinstance(response, (int, float)) or isinstance(response, bool):
                raise _manifest_error(f"{where}.response", "must be a number or null")
            response = float(response)
            if not math.isfinite(response):
                raise _manifest_error(f"{where}.response", "must be finite")
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


def save_manifest(manifest, path):
    """Write a manifest back to JSON (paths stay relative)."""
    doc = {
        "format_version": manifest.format_version,
        "node_count": manifest.node_count,
        "series": [
            {"graphs": list(graphs), "response": response}
            for graphs, response in zip(manifest.series_paths, manifest.responses)
        ],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    """Write dict rows in a fixed column order with LF endings.

    Floats are repr-formatted so a reload reproduces them bit for bit; an
    empty row list yields a header-only file.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _parse_bool(text):
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValidationError(f"expected 'true' or 'false', got {text!r}")


def read_csv_rows(path, expected_columns=None):
    """Read a CSV written by emit_csv back into a list of dicts (strings).

    Every row must have as many fields as the header.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if expected_columns is not None and tuple(header) != tuple(expected_columns):
            raise ValidationError(f"{path}: unexpected header {header}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            rows.append(dict(zip(header, row)))
        return tuple(header), rows


def emit_records(records, path, fields):
    """Write one row per record; fields pairs each column with an attribute."""
    rows = [{column: getattr(r, attr) for column, attr in fields} for r in records]
    emit_csv(rows, path, [column for column, _ in fields])


def write_replicate_records(records, path, power):
    """Emit per-replicate records; power runs add the F-test columns.

    The schema follows the experiment kind, not the records: a power run
    whose replicates all failed before their F-test keeps the F columns.
    """
    emit_records(records, path, POWER_REPLICATE_FIELDS if power else REPLICATE_FIELDS)


def load_replicate_records(path):
    """Inverse of write_replicate_records; empty F-test cells come back as None."""
    from .pipeline import ReplicateRecord  # local import to avoid a cycle

    header, rows = read_csv_rows(path)
    schemas = {
        REPLICATE_COLUMNS: REPLICATE_FIELDS,
        POWER_REPLICATE_COLUMNS: POWER_REPLICATE_FIELDS,
    }
    if header not in schemas:
        raise ValidationError(f"{path}: unexpected header {header}")
    types = typing.get_type_hints(ReplicateRecord)
    optional = {attr for _, attr in _F_TEST_FIELDS}
    parsers = {int: int, float: float, bool: _parse_bool}

    def parse(line, column, attr, text):
        if attr in optional and not text:
            return None
        try:
            return parsers[types[attr]](text)
        except ValueError as exc:
            message = f"{path}: line {line}, column {column}: {exc}"
            raise ValidationError(message) from exc

    # emit_csv writes one record per line, after the header on line 1
    return [
        ReplicateRecord(
            **{
                attr: parse(line, column, attr, row[column])
                for column, attr in schemas[header]
            }
        )
        for line, row in enumerate(rows, start=2)
    ]


def write_embeddings_csv(path, embedding, responses):
    """Embedding table ``index,z_hat,response``; index counts from 0."""
    rows = []
    for idx, z in enumerate(embedding):
        response = responses[idx] if idx < len(responses) else None
        rows.append({"index": idx, "z_hat": float(z), "response": response})
    emit_csv(rows, path, EMBEDDING_COLUMNS)


def load_embeddings_csv(path):
    """Inverse of write_embeddings_csv; absent responses come back as None."""
    _, rows = read_csv_rows(path, EMBEDDING_COLUMNS)
    embedding = []
    responses = []
    for row in rows:
        embedding.append(float(row["z_hat"]))
        responses.append(float(row["response"]) if row["response"] != "" else None)
    return embedding, responses
