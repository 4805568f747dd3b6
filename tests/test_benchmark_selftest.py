"""The benchmark's self-test, run as part of the regular suite.

benchmarks/selftest.py checks the censored matrices against the benchmark's
own numpy censor rule and checks that tracing leaves every output
byte-identical, so a regression in ingestion or in a traced stage fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
