"""The standard command set reproduces the outputs kept in tests/golden/.

Each case runs one CLI command in-process and compares every file it writes,
and its standard output without the `wrote` lines, with tests/golden/<case>/
cell by cell: CSV cells, and the tokens of a stdout line split at blanks and
at `=/(),:`. Integers (seeds, schedule columns, counts), the `lambda` column,
flags and words must match exactly. Floats must agree within 1e-6 relative;
the summary lines `simulate` prints round to 4 or 6 digits, so theirs may
also differ by one unit in the last printed digit. Kernel-level drift on
another machine passes; seed, order and index defects, which move values by
O(1), fail. None of the commands may emit a warning.

After a change that moves outputs on purpose, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py

and state the drift in CHANGES.md.
"""

import contextlib
import csv
import decimal
import io
import math
import pathlib
import re
import shutil
import tempfile
import warnings

import pytest

from conftest import build_weighted_dataset
from netmanifold import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# "{out}" is the case's output directory, "{manifest}" the dataset's manifest
CASES = {
    "consistency": "simulate consistency --preset reduced --replicates 2 --threads 2 --out {out}",
    "power": "simulate power --preset full --replicates 3 --out {out}",
    "analyze": "analyze --manifest {manifest} --position 1 --d 2 --lambda 8.0 --out {out}",
    "analyze-local": (
        "analyze --manifest {manifest} --position 2 --d 2 --lambda 8.0"
        " --local-linear --bandwidth 0.5 --out {out}"
    ),
    "predict": (
        "predict --manifest {manifest} --position 1 --d 2 --lambda 8.0"
        " --l 12 --nstar 30 --r 12 --s 8"
    ),
    "mase": "mase --manifest {manifest} --d 2 --out {out}/scores.csv",
}

_EXACT_COLUMNS = {"lambda"}
_INTEGER = re.compile(r"[+-]?\d+")
_TOKEN_SEPARATORS = re.compile(r"[\s=/(),:]+")


def build_dataset(root):
    """The manifest every dataset case reads: 40 series of two 60-node graphs."""
    manifest, _ = build_weighted_dataset(root, n_series=40, n=60, labeled=10, series_length=2)
    return manifest


def run_case(name, manifest, out):
    """{file name: text} of what one case writes, stdout.txt included."""
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    argv = [a.format(out=out, manifest=manifest) for a in CASES[name].split()]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    lines = [line for line in stdout.getvalue().splitlines() if not line.startswith("wrote ")]
    files = {"stdout.txt": "".join(f"{line}\n" for line in lines)}
    for path in sorted(out.iterdir()):
        files[path.name] = path.read_text(encoding="utf-8")
    return files


def _rows(name, text):
    if name.endswith(".csv"):
        return list(csv.reader(text.splitlines()))
    return [_TOKEN_SEPARATORS.split(line) for line in text.splitlines()]


def _agrees(expected, got, rounded):
    """One float cell against its golden; anything else must be equal."""
    if _INTEGER.fullmatch(expected):
        return got == expected
    try:
        want, value = float(expected), float(got)
    except ValueError:
        return got == expected
    if not math.isfinite(want):
        return got == expected
    slack = 10.0 ** decimal.Decimal(expected).as_tuple().exponent if rounded else 0.0
    return abs(value - want) <= max(1e-6 * max(abs(want), abs(value)), slack)


def mismatches(name, expected, got, rounded=False):
    """Cells of file `name` that differ from the golden, as readable strings.

    rounded: the golden's floats are printed to fixed precision.
    """
    want, have = _rows(name, expected), _rows(name, got)
    if len(want) != len(have):
        return [f"{name}: {len(have)} lines, golden has {len(want)}"]
    header = want[0] if name.endswith(".csv") else []
    found = []
    for line, (row, other) in enumerate(zip(want, have), start=1):
        if len(row) != len(other):
            found.append(f"{name}:{line}: {other!r}, golden {row!r}")
            continue
        for column, (cell, value) in enumerate(zip(row, other)):
            exact = column < len(header) and header[column] in _EXACT_COLUMNS
            if not (value == cell if exact else _agrees(cell, value, rounded)):
                found.append(f"{name}:{line} cell {column + 1}: {value!r}, golden {cell!r}")
    return found


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return build_dataset(tmp_path_factory.mktemp("golden-dataset"))


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_goldens(name, manifest, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        files = run_case(name, manifest, tmp_path / "out")
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    golden = GOLDEN / name
    assert sorted(files) == sorted(p.name for p in golden.iterdir())
    found = []
    for file_name, text in files.items():
        expected = (golden / file_name).read_text(encoding="utf-8")
        rounded = file_name == "stdout.txt" and CASES[name].startswith("simulate")
        found += mismatches(file_name, expected, text, rounded)
    assert found == []


def main():
    """Rewrite tests/golden/ from the current code."""
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        manifest = build_dataset(root / "dataset")
        for name in CASES:
            files = run_case(name, manifest, root / name)
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file_name, text in files.items():
                (target / file_name).write_text(text, encoding="utf-8", newline="\n")
            print(f"wrote {target}")


if __name__ == "__main__":
    main()
