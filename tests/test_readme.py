"""The README's library quick start runs as written."""

import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert math.isfinite(namespace["prediction"])
