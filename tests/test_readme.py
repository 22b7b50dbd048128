"""The README's quick start runs as printed."""

import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert math.isfinite(scope["fit"].rate)
