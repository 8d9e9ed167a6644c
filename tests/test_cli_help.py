"""Each CLI's ``--help`` names its ``python -m`` command and keeps the
usage examples of its docstring.

The CLIs pass their module docstring to argparse as the description; a
formatter that reflows it would run the ``Usage::`` commands together
into one paragraph.  Run as ``python -m``, a CLI module must not be
imported by its own package first: runpy then warns with a
RuntimeWarning, which ``-W error`` turns into exit status 1.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CLIS = [
    "repro.characterization.__main__",
    "repro.reliability.__main__",
    "repro.substrate.__main__",
    "repro.analysis.report",
]

#: The ``python -m`` name of every CLI.
COMMANDS = [
    "repro.characterization",
    "repro.reliability",
    "repro.substrate",
    "repro.analysis.report",
    "repro.staticcheck",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_python_m_help_runs_without_a_runtime_warning(command):
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", command, "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: python -m {command} "), done.stdout[:200]


@pytest.mark.parametrize("name", CLIS)
def test_help_prints_each_example_on_its_own_line(name, capsys):
    module = importlib.import_module(name)
    examples = [
        line.strip()
        for line in module.__doc__.splitlines()
        if line.strip().startswith("python -m ")
    ]
    assert examples
    # Reflow can leave an example on a line of its own by chance, but it
    # joins the heading to the sentence above it.
    examples.append("Usage::")
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--help"])
    assert exit_info.value.code == 0
    printed = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for example in examples:
        assert example in printed
