"""The benchmark tracer must find every function it wraps, on the call path.

benchmarks/tracer.py replaces package functions at the module attributes
their callers look up. A refactor that renames one of them, or stops calling
it through that attribute, breaks traced benchmark runs; these tests catch
that in the regular suite.
"""

import importlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import tracer  # noqa: E402

from netmanifold import (  # noqa: E402
    analyze_real_dataset,
    consistency_full_config,
    run_consistency_experiment,
)


def _attribute(module, attr):
    return getattr(importlib.import_module(f"netmanifold.{module}"), attr)


def test_tracer_installs_and_uninstalls():
    originals = {
        (module, attr): _attribute(module, attr) for _, module, attr, _ in tracer.TRACED
    }
    probe = tracer.Tracer()
    probe.install()
    try:
        for (module, attr), original in originals.items():
            wrapped = _attribute(module, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        probe.uninstall()
    for (module, attr), original in originals.items():
        assert _attribute(module, attr) is original


def test_every_traced_function_is_called(tmp_path, weighted_dataset):
    manifest_path, _ = weighted_dataset
    config = consistency_full_config(
        k_values=(1,), nodes_base=40, graphs_base=10, isomap_exponent=1.0,
        mc_replicates=2, base_seed=4242,
    )
    probe = tracer.Tracer()
    probe.install()
    try:
        probe.call(run_consistency_experiment, config, out_dir=str(tmp_path / "sim"))
        probe.call(
            analyze_real_dataset, manifest_path, 1, d=2, radius=8.0,
            local_linear=True, bandwidth=0.5, out_dir=str(tmp_path / "analyze"),
        )
    finally:
        probe.uninstall()
    seen = {span.name for span in probe.spans}
    assert {name for name, _, _, _ in tracer.TRACED} <= seen
