"""Every ```python block of README.md runs to completion.

Each block runs in a fresh interpreter, in a temporary directory, with
``RuntimeWarning`` and ``DeprecationWarning`` raised as errors, as
``pyproject.toml`` sets them for the suite, so the tour keeps working as the
library under it changes.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import threshold_lab

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(tmp_path, code):
    src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-c", code],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
