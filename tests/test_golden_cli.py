"""Byte-for-byte CLI output: stdout and exit code of fixed commands, text and
JSON, against `golden_cli.json`.

An output change must be deliberate: regenerate the file with
`PYTHONPATH=src python tests/test_golden_cli.py` and state the change.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gcdmat import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    ("analyze", "330812181", "551353635", "7501410", "2976750", "5512500000", "18750000000"),
    ("analyze", "2", "3", "4"),
    ("analyze", "6", "10"),
    ("analyze", "1", "2", "3", "12"),
    ("analyze", "7"),
    ("divide", "2", "6", "12", "--verify"),
    ("divide", "2", "6", "12"),
    ("divide", "2", "3", "4"),
    ("divide", "2", "3", "4", "--verify"),
    ("divide", "2", "3", "--verify"),
    ("divide", "1", "2", "3", "12"),
    ("divide", "1", "2", "3", "12", "--verify"),
    ("invert", "2", "6", "12"),
    ("invert", "2", "3", "4"),
    ("invert", "4", "6"),
    ("order", "81", "4000", "600", "6000", "54"),
    ("order", "6", "10", "15"),
    ("power-divide", "2", "6", "12", "--power", "3"),
    ("generate", "--pattern", "pascal", "--n", "4", "--primes", "2,3,5,7"),
    ("generate", "--pattern", "random", "--n", "5", "--seed", "42"),
    ("generate", "--pattern", "vandermonde", "--bases", "1,2,3"),
    ("search", "--size", "4", "--bound", "300", "--budget", "100000"),
    ("search", "--size", "3", "--bound", "15", "--budget", "100"),
    ("gcd-matrix", "2", "6", "12"),
    ("lcm-matrix", "2", "6", "12"),
    ("pow", "4000", "6000", "600", "54", "81"),
]

CASES = [(*argv, "--format", fmt) for argv in COMMANDS for fmt in ("text", "json")]


def replay(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids="_".join)
def test_output_matches_golden(golden, argv):
    assert replay(argv) == golden[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(argv) for argv in CASES], indent=1) + "\n")
