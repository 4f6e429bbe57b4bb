"""The README's library quick start runs as printed, with warnings as errors."""

import contextlib
import io
import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no library quick start block"
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(block.group(1), str(README), "exec"), {})
    # z_min_rms_x, z_min_rms_y and astigmatism_mm of the bent element
    assert [float(v) for v in out.getvalue().split()] == pytest.approx([85.75, 86.05, 0.3], abs=1e-9)
