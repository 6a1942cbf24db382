"""Golden outputs of the subcommands: the exit code and stdout, byte for
byte, in both formats, as recorded in golden_cli.json.

The file imports nothing beyond pytest, json and the CLI, so it also runs on
an install without numpy, which no subcommand loads.
"""

import json

import pytest

from wignerfriend import cli

with open(__file__.replace("test_cli_golden.py", "golden_cli.json"), encoding="utf-8") as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_the_golden_copy(case, capsys):
    code = cli.main(case["argv"])
    out = capsys.readouterr()
    assert code == case["exit"]
    assert out.out == case["stdout"]
    assert out.err == ""
