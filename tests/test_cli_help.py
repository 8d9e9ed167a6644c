"""Each CLI's ``--help`` keeps the usage examples of its docstring.

The CLIs pass their module docstring to argparse as the description; a
formatter that reflows it would run the ``Usage::`` commands together
into one paragraph.
"""

from __future__ import annotations

import importlib

import pytest

CLIS = [
    "repro.characterization.__main__",
    "repro.reliability.__main__",
    "repro.substrate.__main__",
    "repro.analysis.report",
]


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
