"""Every ```python block of README.md runs to completion, and so does every
``threshold-lab`` command of its ```sh blocks.

Each block runs in a fresh interpreter, in a temporary directory, with
``RuntimeWarning`` and ``DeprecationWarning`` raised as errors, as
``pyproject.toml`` sets them for the suite, so the tour keeps working as the
library under it changes.  The commands run through ``cli.main``, also in a
temporary directory, so the CLI examples keep exiting 0.
"""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import threshold_lab
from threshold_lab import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    " ".join(line.split()[1:])
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("threshold-lab ")
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 7


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


@pytest.mark.parametrize("command", COMMANDS, ids=COMMANDS)
def test_readme_command_exits_zero(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)) == 0, capsys.readouterr().err
