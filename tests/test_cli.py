import contextlib
import dataclasses
import io
import json
import math
import os
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edge_list_texts
from netmanifold import experiment_config_to_json
from netmanifold.cli import main
from netmanifold.io import read_csv_rows
from netmanifold.pipeline import consistency_full_config, power_full_config


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    config = consistency_full_config(
        k_values=(1, 2),
        nodes_base=40,
        nodes_step=10,
        graphs_base=10,
        graphs_step=1,
        isomap_exponent=1.0,  # keep n_star >= l at these tiny graph counts
        mc_replicates=2,
        base_seed=777,
    )
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    experiment_config_to_json(config, path)
    return str(path)


def test_simulate_consistency_tiny(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "consistency",
            "--config",
            tiny_config_path,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 2
    assert "K= 1" in stdout and "K= 2" in stdout
    assert "np.float64" not in stdout
    header, rows = read_csv_rows(out / "replicates.csv")
    assert header == (
        "K", "replicate", "seed", "n", "N", "n_star", "lambda", "sq_gap", "valid",
    )
    assert len(rows) == 4
    assert {row["K"] for row in rows} == {"1", "2"}
    header, _ = read_csv_rows(out / "summary.csv")
    assert header == tuple(
        "K,n,N,n_star,lambda,n_valid,n_failed,mean_sq_gap,median_sq_gap".split(",")
    )


def test_simulate_deterministic_across_runs_and_threads(
    tiny_config_path, tmp_path, capsys
):
    args = ["simulate", "consistency", "--config", tiny_config_path]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--threads", "3", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("replicates.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_simulate_seed_and_replicate_overrides(
    tiny_config_path, tmp_path, capsys
):
    args = [
        "simulate", "consistency", "--config", tiny_config_path,
        "--replicates", "3", "--seed", "12345",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    _, rows = read_csv_rows(tmp_path / "a" / "replicates.csv")
    assert len(rows) == 6  # 2 K values x 3 replicates
    assert (tmp_path / "a" / "replicates.csv").read_bytes() == (
        tmp_path / "b" / "replicates.csv"
    ).read_bytes()
    # the seed override must actually change the draws
    assert main(
        ["simulate", "consistency", "--config", tiny_config_path,
         "--replicates", "3", "--seed", "54321", "--out", str(tmp_path / "c")]
    ) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "replicates.csv").read_bytes() != (
        tmp_path / "c" / "replicates.csv"
    ).read_bytes()


def test_simulate_power_tiny(tmp_path, capsys):
    config = power_full_config(k_values=(1,), mc_replicates=2, base_seed=9)
    path = tmp_path / "power.json"
    experiment_config_to_json(config, path)
    code = main(
        ["simulate", "power", "--config", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pi_true=" in stdout and "pi_hat=" in stdout
    header, _ = read_csv_rows(tmp_path / "o" / "replicates.csv")
    assert "f_true" in header and "reject_hat" in header
    header, _ = read_csv_rows(tmp_path / "o" / "summary.csv")
    assert header == tuple(
        "K,n,N,n_star,lambda,n_valid,n_failed,mean_sq_gap,median_sq_gap,"
        "pi_true,pi_hat,abs_power_gap,se_true,se_hat".split(",")
    )


def test_simulate_overflowing_responses_exit_0(tmp_path, capsys):
    """A power config whose drawn responses overflow runs to the end: its one
    replicate is written invalid, the exit code is 0 and no warning is shown."""
    config = power_full_config(k_values=(1,), mc_replicates=1, alpha=1e308, beta=1e308)
    path = tmp_path / "power.json"
    experiment_config_to_json(config, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "power", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert "valid=0/1" in capsys.readouterr().out
    _, rows = read_csv_rows(tmp_path / "o" / "replicates.csv")
    assert [row["valid"] for row in rows] == ["false"]


def test_simulate_kind_mismatch_exits_2(tiny_config_path, tmp_path, capsys):
    code = main(
        ["simulate", "power", "--config", tiny_config_path,
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "consistency" in err


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1}))
    code = main(
        ["simulate", "consistency", "--config", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "missing config keys" in capsys.readouterr().err


def test_simulate_flag_conflicts_exit_2(tiny_config_path, tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(
            ["simulate", "consistency", "--config", tiny_config_path,
             "--preset", "full", "--out", str(tmp_path / "o")]
        )
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "consistency", "--preset", "full"])  # --out missing
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(
            ["simulate", "consistency", "--preset", "full", "--seed", "-1",
             "--out", str(tmp_path / "o")]
        )
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mase", "--d", "2", "--out", "m.csv"],
        ["predict", "--position", "1", "--d", "2", "--lambda", "8.0",
         "--l", "6", "--nstar", "10", "--r", "6"],
        ["analyze", "--position", "1", "--d", "2", "--lambda", "8.0"],
    ],
    ids=["mase", "predict", "analyze"],
)
def test_threads_flag_only_on_simulate(weighted_dataset, capsys, argv):
    """Only simulate runs replicates; elsewhere --threads is a usage error."""
    manifest_path, _ = weighted_dataset
    with pytest.raises(SystemExit) as exc_info:  # rejected before any output
        main(argv + ["--manifest", manifest_path, "--threads", "0"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --threads 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["predict", "--position", "1", "--d", "2", "--lambda", "8.0",
          "--l", "6", "--nstar", "10", "--r", "6", "--manifest", "m.json"], "--seed 1"),
        (["analyze", "--position", "1", "--lambda", "8.0", "--manifest", "m.json"],
         "--seed 1"),
        (["mase", "--d", "2", "--out", "m.csv", "--manifest", "m.json"], "--seed 1"),
        (["simulate", "consistency", "--config", "c.json", "--out", "o"],
         "--percentile 30"),
        (["simulate", "power", "--config", "c.json", "--out", "o"], "--percentile 30"),
    ],
    ids=["predict-seed", "analyze-seed", "mase-seed", "consistency-percentile",
         "power-percentile"],
)
def test_flags_exist_only_where_read(capsys, argv, flag):
    """--seed belongs to simulate, --percentile to the manifest subcommands."""
    with pytest.raises(SystemExit) as exc_info:  # rejected before any work
        main(argv + flag.split())
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_predict_happy_path(weighted_dataset, capsys):
    manifest_path, ts = weighted_dataset
    code = main(
        [
            "predict",
            "--manifest", manifest_path,
            "--position", "1",
            "--d", "2",
            "--lambda", "8.0",
            "--l", "6",
            "--nstar", "10",
            "--r", "6",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "np.float64" not in stdout
    lines = dict(
        line.split(": ", 1) for line in stdout.strip().splitlines()
    )
    prediction = float(lines["prediction"])
    # true response for graph 6 is 2 + 5 * ts[5]; noisy ingestion, loose band
    truth = 2.0 + 5.0 * ts[5]
    assert abs(prediction - truth) < 2.5
    assert 0.0 < float(lines["sparsity"]) <= 1.0
    assert lines["stress"].endswith(("converged=true)", "converged=false)"))


def test_predict_disconnected_exits_3(weighted_dataset, capsys):
    manifest_path, _ = weighted_dataset
    code = main(
        [
            "predict",
            "--manifest", manifest_path,
            "--position", "1",
            "--d", "2",
            "--lambda", "1e-9",
            "--l", "6",
            "--nstar", "10",
            "--r", "6",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "disconnected" in err and "1e-09" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("d", "0"), ("d", "-1"), ("d", "61"),
        ("lambda", "0"), ("lambda", "nan"), ("lambda", "inf"), ("lambda", "-1"),
        ("l", "0"), ("l", "11"),
        ("nstar", "0"), ("nstar", "11"), ("nstar", "-1"),
        ("r", "0"), ("r", "7"),
    ],
)
def test_predict_bad_values_exit_2(weighted_dataset, capsys, flag, value):
    """Each out-of-range value is caught by a stage of the prediction (10
    series of 60 nodes, 5 labeled, otherwise --l 6 --nstar 10 --r 6)."""
    manifest_path, _ = weighted_dataset
    values = {"d": "2", "lambda": "8.0", "l": "6", "nstar": "10", "r": "6", flag: value}
    argv = ["predict", "--manifest", manifest_path, "--position", "1"]
    assert main(argv + [f"--{k}={v}" for k, v in values.items()]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_predict_missing_manifest_exits_2(tmp_path, capsys):
    code = main(
        [
            "predict",
            "--manifest", str(tmp_path / "nope.json"),
            "--position", "1",
            "--d", "2",
            "--lambda", "1.0",
            "--l", "3",
            "--nstar", "4",
            "--r", "4",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_happy_path(weighted_dataset, tmp_path, capsys):
    manifest_path, _ = weighted_dataset
    out = tmp_path / "report"
    code = main(
        [
            "analyze",
            "--manifest", manifest_path,
            "--position", "1",
            "--d", "2",
            "--lambda", "8.0",
            "--local-linear",
            "--bandwidth", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "series: 10 nodes: 60 labeled: 5 position: 1" in stdout
    assert "F(1,3)=" in stdout
    assert "local_pseudo_r2:" in stdout
    assert "np.float64" not in stdout
    for name in ("embeddings", "correlations", "test_report", "local_fit"):
        assert (out / f"{name}.csv").is_file()
    header, rows = read_csv_rows(out / "test_report.csv")
    assert "f_value" in header and "p_value" in header
    assert len(rows) == 1
    # every cell is a plain number, except the reject flag and absent responses
    for name in ("embeddings", "correlations", "test_report", "local_fit"):
        _, rows = read_csv_rows(out / f"{name}.csv")
        for row in rows:
            for column, cell in row.items():
                if column == "reject":
                    assert cell in ("true", "false")
                elif not (column == "response" and cell == ""):
                    float(cell)


def test_analyze_position_out_of_range_exits_2(weighted_dataset, capsys):
    manifest_path, _ = weighted_dataset
    code = main(
        [
            "analyze",
            "--manifest", manifest_path,
            "--position", "3",
            "--lambda", "8.0",
        ]
    )
    assert code == 2
    assert "position" in capsys.readouterr().err


def test_mase_long_format_csv(weighted_dataset, tmp_path, capsys):
    manifest_path, _ = weighted_dataset
    out = tmp_path / "scores.csv"
    code = main(
        ["mase", "--manifest", manifest_path, "--d", "2", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "sparsity:" in stdout
    header, rows = read_csv_rows(out)
    assert header == ("graph", "row", "col", "value")
    assert len(rows) == 10 * 2 * 2
    assert rows[0]["graph"] == "0" and rows[0]["row"] == "0"
    assert {row["graph"] for row in rows} == {str(k) for k in range(10)}
    # score matrices are symmetric: (row, col) and (col, row) agree
    by_key = {(r["graph"], r["row"], r["col"]): r["value"] for r in rows}
    assert by_key[("3", "0", "1")] == by_key[("3", "1", "0")]


@pytest.mark.parametrize(
    "key, value",
    [
        ("k_values", 3),
        ("k_values", [1, True]),
        ("s", "3"),
        ("s", True),
        ("level", "x"),
        ("variant", 1),
        ("base_seed", -1),
    ],
)
def test_simulate_config_wrong_type_exits_2(
    tiny_config_path, tmp_path, capsys, key, value
):
    with open(tiny_config_path) as fh:
        doc = json.load(fh)
    doc[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code = main(
        ["simulate", "consistency", "--config", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def test_analyze_nstar_above_series_count_exits_2(weighted_dataset, capsys):
    manifest_path, _ = weighted_dataset
    code = main(
        [
            "analyze",
            "--manifest", manifest_path,
            "--position", "1",
            "--d", "2",
            "--lambda", "8.0",
            "--nstar", "11",
        ]
    )
    assert code == 2
    assert "n_star=11 exceeds the number of graphs 10" in capsys.readouterr().err



@pytest.mark.parametrize(
    "case",
    [
        "non-utf8-manifest",
        "non-utf8-edge-list",
        "non-utf8-config",
        "long-integer-config",
        "bool-node-count",
        "zero-threads",
        "negative-threads",
    ],
)
def test_bad_inputs_exit_2_without_traceback(
    weighted_dataset, tiny_config_path, tmp_path, capsys, case
):
    manifest_path, _ = weighted_dataset
    with open(manifest_path) as fh:
        doc = json.load(fh)
    base = os.path.dirname(manifest_path)
    for entry in doc["series"]:
        entry["graphs"] = [os.path.join(base, g) for g in entry["graphs"]]
    bad = tmp_path / "bad.json"
    analyze = ["analyze", "--manifest", str(bad), "--position", "1",
               "--d", "2", "--lambda", "8.0"]
    argv = ["simulate", "consistency", "--config", str(bad),
            "--out", str(tmp_path / "o")]
    expected = "bad.json"
    if case == "non-utf8-manifest":
        argv = analyze
        bad.write_bytes(b'{"format_version": 1, "\xff": 0}')
    elif case == "non-utf8-edge-list":
        argv, expected = analyze, "bad.csv"
        (tmp_path / "bad.csv").write_bytes(b"src,dst,weight\n0,1,1.0\xff\n")
        doc["series"][0]["graphs"] = [str(tmp_path / "bad.csv")]
        bad.write_text(json.dumps(doc))
    elif case == "non-utf8-config":
        bad.write_bytes(b'{"format_version": 1, "s": "\xe9"}')
    elif case == "long-integer-config":  # past Python's 4300-digit int parsing limit
        bad.write_text('{"format_version": 1, "alpha": ' + "9" * 5000 + "}")
    elif case == "bool-node-count":
        argv, expected = analyze, "node_count: must be a positive integer"
        doc["node_count"] = True
        bad.write_text(json.dumps(doc))
    else:
        argv[3], expected = tiny_config_path, "threads must be >= 1"
        argv += ["--threads", "0" if case == "zero-threads" else "-3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err


def _flag(name, typical, wild, required=True):
    """One --name=value argument: typical three times in four, else drawn from wild.

    An optional flag may also be left out (None).
    """
    value = st.integers(0, 3).flatmap(lambda i: wild if i == 0 else st.just(typical))
    arg = value.map(lambda v: f"--{name}={v}")
    return arg if required else st.none() | arg


_INTS = st.integers(-2, 12) | st.integers(-10**6, 10**6)
_REALS = st.floats()
_DATASET = {
    "percentile": _flag("percentile", 25.0, _REALS, required=False),
    "symmetrize": _flag(
        "symmetrize", "max", st.sampled_from(["sum", "mean", "min"]), required=False
    ),
}
_SUBCOMMANDS = {  # flags of each subcommand but its manifest, config and output
    "simulate": {
        "replicates": _flag("replicates", 2, st.integers(-1, 2), required=False),
        "seed": _flag("seed", 1, st.integers(-1, 2**64), required=False),
        "threads": _flag("threads", 1, st.integers(-1, 2), required=False),
    },
    "predict": dict(
        _DATASET,
        position=_flag("position", 1, _INTS),
        d=_flag("d", 2, _INTS),
        lam=_flag("lambda", 8.0, _REALS),
        l=_flag("l", 6, _INTS),
        nstar=_flag("nstar", 10, _INTS),
        r=_flag("r", 6, _INTS),
        s=_flag("s", 5, _INTS, required=False),
    ),
    "analyze": dict(
        _DATASET,
        position=_flag("position", 1, _INTS),
        lam=_flag("lambda", 8.0, _REALS),
        d=_flag("d", 2, _INTS, required=False),
        l=_flag("l", 10, _INTS, required=False),
        nstar=_flag("nstar", 10, _INTS, required=False),
        level=_flag("level", 0.05, _REALS, required=False),
        pooled=st.sampled_from([None, "--pooled-threshold"]),
        local=st.sampled_from([None, "--local-linear"]),
        bandwidth=_flag("bandwidth", 0.5, _REALS, required=False),
    ),
    "mase": dict(
        _DATASET,
        d=_flag("d", 2, _INTS),
        position=_flag("position", 1, _INTS, required=False),
    ),
}


@pytest.fixture(scope="module")
def tiny_power_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "power.json"
    experiment_config_to_json(power_full_config(k_values=(1,), mc_replicates=2), path)
    return str(path)


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_cli_exit_codes_under_fuzzed_flags(
    weighted_dataset, tiny_config_path, tiny_power_config_path, tmp_path_factory, command
):
    """Any flag values end in exit 0, 2 or 3, never in another exception."""
    manifest_path, _ = weighted_dataset
    out = str(tmp_path_factory.mktemp("fuzz") / "out")
    heads = {
        "simulate": st.sampled_from([
            ["simulate", "consistency", "--config", tiny_config_path, "--out", out],
            ["simulate", "power", "--config", tiny_power_config_path, "--out", out],
        ]),
        "predict": st.just(["predict", "--manifest", manifest_path]),
        "analyze": st.just(["analyze", "--manifest", manifest_path, "--out", out]),
        "mase": st.just(["mase", "--manifest", manifest_path, "--out", out + ".csv"]),
    }

    @settings(max_examples=40, deadline=None)
    @given(heads[command], st.fixed_dictionaries(_SUBCOMMANDS[command]))
    def run(head, flags):
        argv = head + [arg for arg in flags.values() if arg is not None]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 2, 3), (argv, sink.getvalue())

    run()


# Every flag of one valid predict and analyze command line; analyze adds --local-linear.
_TYPICAL = {
    "predict": {"position": 1, "d": 2, "lambda": 8.0, "l": 6, "nstar": 10, "r": 6},
    "analyze": {"position": 1, "d": 2, "lambda": 8.0, "bandwidth": 0.5},
}
_RADIUS_OR_BANDWIDTH = [
    ("predict", "lambda"), ("analyze", "lambda"), ("analyze", "bandwidth")
]


def _typical_argv(command, manifest_path, flag, value):
    """The typical command line with one flag set to value."""
    flags = dict(_TYPICAL[command], **{flag: value})
    argv = [command, "--manifest", manifest_path]
    argv += [f"--{name}={v}" for name, v in flags.items()]
    return argv + (["--local-linear"] if command == "analyze" else [])


def _exit_code(argv):
    """main's exit code and everything it printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    return code, sink.getvalue()


@pytest.mark.parametrize(
    "key, value",
    [("lambda_base", math.nan), ("sigma_eps", math.inf), ("alpha", math.nan)],
)
def test_simulate_config_non_finite_number_exits_2(
    tiny_config_path, tmp_path, capsys, key, value
):
    with open(tiny_config_path) as fh:
        doc = json.load(fh)
    doc[key] = value  # written as NaN or Infinity, which json.load accepts
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    code = main(
        ["simulate", "consistency", "--config", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", _RADIUS_OR_BANDWIDTH)
def test_cli_bad_radius_or_bandwidth_exits_2_under_fuzz(
    weighted_dataset, command, flag
):
    """One NaN, infinite or non-positive --lambda or --bandwidth exits 2, not 0 or 3."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(max_value=0.0))
    @example(math.nan)
    @example(math.inf)
    def run(value):
        argv = _typical_argv(command, weighted_dataset[0], flag, value)
        code, output = _exit_code(argv)
        assert code == 2, (argv, output)
        assert output.startswith("error:") and "finite and positive" in output

    run()


def test_cli_exit_codes_under_fuzzed_edge_lists(tmp_path_factory):
    """Any edge-list contents end analyze and mase in exit 0, 2 or 3, never a traceback."""
    root = tmp_path_factory.mktemp("content")
    manifest_path = str(root / "manifest.json")
    out = str(root / "out")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(edge_list_texts(), min_size=2, max_size=3))
    def run(texts):
        for k, text in enumerate(texts):
            (root / f"g{k}.csv").write_bytes(text.encode("utf-8"))
        series = [{"graphs": [f"g{k}.csv"], "response": float(k)} for k in range(len(texts))]
        with open(manifest_path, "w") as fh:
            json.dump({"format_version": 1, "node_count": 20, "series": series}, fh)
        for argv in (
            ["analyze", "--manifest", manifest_path, "--position", "1", "--lambda", "8.0",
             "--d", "1", "--out", out],
            ["mase", "--manifest", manifest_path, "--d", "1", "--out", out + ".csv"],
        ):
            code, output = _exit_code(argv)
            assert code in (0, 2, 3), (argv, texts, output)
            assert "Traceback" not in output

    run()


_JUNK = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=2)
    | st.just([]) | st.just({})
)
# Wrong types, out-of-range and non-finite numbers, and graph paths that do
# not resolve: a missing file, the manifest's directory, a NUL byte.
_PATHS = st.sampled_from(["missing.csv", "", ".", "a\x00b", "..", 7])
_WILD_VALUES = {
    "format_version": st.sampled_from([0, 2, 1.0, "1"]),
    "node_count": st.sampled_from([0, -1, 59, 61, 120, 2**29, 2**30, 2**63, 10**400]),
    "series": st.sampled_from([[], [{}], [[]], [None]]),
    "graphs": _PATHS.map(lambda g: [g]) | st.lists(_PATHS, max_size=2),
    "response": st.sampled_from(
        [math.nan, math.inf, -math.inf, 0, -1e300, 1e308, 10**400, -(10**400)]
    ),
}


@st.composite
def _mutated_manifests(draw, doc):
    """doc after one to three edits, each a value replaced (half of them by a
    wild value of the key), a key dropped or an unknown key added; one edit in
    three is to the top level, the others to one series."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        series = doc.get("series")
        entries = [e for e in series if isinstance(e, dict)] if isinstance(series, list) else []
        if entries and draw(st.integers(0, 2)):
            target = draw(st.sampled_from(entries))
            key = draw(st.sampled_from(["graphs", "response"]))
        else:
            target = doc
            key = draw(st.sampled_from(["format_version", "node_count", "node_count", "series"]))
        edit = draw(st.sampled_from(["wild"] * 3 + ["junk", "drop", "extra"]))
        if edit == "drop":
            target.pop(key, None)
        elif edit == "extra":
            target[draw(st.sampled_from(["extra", "Series", ""]))] = draw(_JUNK)
        else:
            target[key] = draw(_WILD_VALUES[key] if edit == "wild" else _JUNK)
    return doc


def test_cli_exit_codes_under_fuzzed_manifests(weighted_dataset, tmp_path_factory):
    """Any manifest contents end analyze, mase and predict in exit 0, 2 or 3,
    never in a traceback, and a run that finishes reports no NaN statistic.
    The examples are the defects this test found: a node_count numpy cannot
    allocate or describe, a NUL byte in a graph path, a response integer
    beyond the float range, and a response whose square overflows."""
    manifest_path, _ = weighted_dataset
    with open(manifest_path) as fh:
        doc = json.load(fh)
    base = os.path.dirname(manifest_path)
    for entry in doc["series"]:
        entry["graphs"] = [os.path.join(base, g) for g in entry["graphs"]]
    root = tmp_path_factory.mktemp("manifests")
    path = str(root / "manifest.json")
    commands = [
        _typical_argv("analyze", path, "position", 1),
        _typical_argv("predict", path, "position", 1),
        ["mase", "--manifest", path, "--d", "2", "--out", str(root / "scores.csv")],
    ]

    @settings(max_examples=60, deadline=None)
    @given(_mutated_manifests(doc), st.sampled_from(commands))
    @example({**doc, "node_count": 2**32}, commands[2])
    @example({**doc, "node_count": 2**29}, commands[2])
    @example({**doc, "series": [{"graphs": ["a\x00b"], "response": 1.0}]}, commands[2])
    @example({**doc, "series": [{"graphs": ["x.csv"], "response": 10**400}]}, commands[2])
    @example({**doc, "series": [{**doc["series"][0], "response": 1e308}] + doc["series"][1:]},
             commands[0])
    def run(manifest, argv):
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        code, output = _exit_code(argv)
        assert code in (0, 2, 3), (argv, manifest, output)
        assert "Traceback" not in output
        assert "=nan" not in output

    run()


# Config values that are wrong in kind or range, or too large for numpy or
# for floats. None of them, in any combination with the base configs, is an
# accepted schedule with more than 100 nodes, 15 graphs or 2 replicates:
# accepted large counts would really be allocated and run.
_HUGE = [2**70, 10**400, -(10**400)]
_WILD_CONFIG_VALUES = {
    "experiment": st.sampled_from(["power", "consistency", "sweep"]),
    "format_version": st.sampled_from([0, 2, 1.0]),
    "k_values": st.sampled_from([[], [0], [1, 1], [2], [1, 2], [2**30], [2**70], [1.0]]),
    "nodes_base": st.sampled_from([0, -2, 3, 2, 2**30, *_HUGE, 1e3]),
    "nodes_step": st.sampled_from([-4, -100, 0, 1, 2**70, 10**400]),
    "graphs_base": st.sampled_from([0, -5, 1, 2**30, *_HUGE]),
    "graphs_step": st.sampled_from([-1, -100, 0, 2**70]),
    "mc_replicates": st.sampled_from([0, -1, 2, 1.5]),
    "base_seed": st.sampled_from([-1, 2**64, 2**64 - 1, 2**70]),
    "d": st.sampled_from([0, -1, 1, 3, 2**70]),
    "s": st.sampled_from([0, 2, 3, 7, 2**70]),
    "l": st.sampled_from([0, 2, 3, 11, 2**70]),
    "r": st.sampled_from([0, 1, 7, 2**70]),
    "variant": st.sampled_from(["curve-A", "curve-B", "curve-C"]),
}
for _key in (
    "alpha", "beta", "sigma_eps", "lambda_base", "lambda_decay", "isomap_exponent", "level"
):
    _WILD_CONFIG_VALUES[_key] = st.sampled_from(
        [math.nan, math.inf, -math.inf, 0, -1, 1, 5e-324, 1e-300, 0.5, 1e308, -1e308, *_HUGE]
    )


@st.composite
def _mutated_configs(draw, doc):
    """doc after one to three edits, each a value replaced (three in four by a
    wild value of the key, else by junk), a key dropped or an unknown key added."""
    doc = dict(doc)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(_WILD_CONFIG_VALUES)))
        edit = draw(st.sampled_from(["wild"] * 6 + ["junk", "junk", "drop", "extra"]))
        if edit == "drop":
            doc.pop(key, None)
        elif edit == "extra":
            doc[draw(st.sampled_from(["extra", "Alpha", "kind"]))] = draw(_JUNK)
        else:
            doc[key] = draw(_WILD_CONFIG_VALUES[key] if edit == "wild" else _JUNK)
    return doc


def _config_doc(config):
    return {
        "experiment" if f.name == "kind" else f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if getattr(config, f.name) is not None
    } | {"format_version": 1}


# K=1 of the power preset (16 nodes, 12 graphs) and a consistency schedule of
# 40 nodes and 10 graphs at K=1, one replicate each.
_POWER_DOC = _config_doc(power_full_config(k_values=(1,), mc_replicates=1))
_CONSISTENCY_DOC = _config_doc(
    consistency_full_config(
        k_values=(1,), nodes_base=40, nodes_step=10, graphs_base=10, graphs_step=1,
        isomap_exponent=1.0, mc_replicates=1,
    )
)


def test_cli_exit_codes_under_fuzzed_configs(tmp_path_factory):
    """Any --config contents end simulate in exit 0, 2 or 3, never in a
    traceback; a statistic prints as nan only for a K without valid replicates.
    The examples are the defects this test found: float fields given integers
    beyond the float range, node and graph counts numpy cannot allocate or
    describe, a negative graph count (complex n_star), a repeated K, and
    responses whose mean overflows the line fit (a valid sq_gap of NaN); and
    configs that failed only in their first replicate, after sampling: d = 0,
    s = 2 on a power run, a level with 1 - level == 1, a radius underflowing
    to 0 at K = 2."""
    root = tmp_path_factory.mktemp("configs")
    path = str(root / "config.json")
    power = ["simulate", "power", "--config", path, "--out", str(root / "out")]
    consistency = ["simulate", "consistency", "--config", path, "--out", str(root / "out")]

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(_POWER_DOC, power), (_CONSISTENCY_DOC, consistency)]).flatmap(
            lambda pair: st.tuples(_mutated_configs(pair[0]), st.just(pair[1]))
        )
    )
    @example(({**_POWER_DOC, "alpha": 10**400}, power))
    @example(({**_POWER_DOC, "sigma_eps": 10**400}, power))
    @example(({**_CONSISTENCY_DOC, "lambda_base": 10**400}, consistency))
    @example(({**_POWER_DOC, "nodes_base": 2**70}, power))
    @example(({**_POWER_DOC, "graphs_base": 2**70}, power))
    @example(({**_POWER_DOC, "k_values": [2**70]}, power))
    @example(({**_POWER_DOC, "graphs_base": -5}, power))
    @example(({**_CONSISTENCY_DOC, "k_values": [1, 1]}, consistency))
    @example(({**_CONSISTENCY_DOC, "alpha": 1e308}, consistency))
    @example(({**_POWER_DOC, "d": 0}, power))
    @example(({**_POWER_DOC, "s": 2}, power))
    @example(({**_POWER_DOC, "level": 1e-17}, power))
    @example(
        ({**_POWER_DOC, "k_values": [1, 2], "lambda_base": 5e-324, "lambda_decay": 0.5}, power)
    )
    def run(case):
        doc, argv = case
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, output = _exit_code(argv)
        assert code in (0, 2, 3), (doc, output)
        assert "Traceback" not in output
        if code == 0:
            assert output.count("valid=") == len(doc["k_values"]), (doc, output)
        assert all("valid=0/" in line for line in output.splitlines() if "=nan" in line), (
            doc, output,
        )

    run()
