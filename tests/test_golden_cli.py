"""Byte-for-byte CLI output: stdout and exit code of fixed commands, text and
JSON, against `golden_cli.json`.

An output change must be deliberate: regenerate the file with
`PYTHONPATH=src python tests/test_golden_cli.py` and state the change.

`golden_cli_v1.json` keeps, byte for byte, the 26 cases that output schema
v2 changed, as schema v1 printed them. Schema v2 dropped `side` (always
"Both") from `divide` and `power-divide`, printed every matrix as its bare
grid in place of {"rows", "cols", "entries"}, and left `invert`'s dense
tridiagonal inverse out (`inverse: null`), since `sub_super` and `diagonal`
define it. Re-expanding each v2 case must give the v1 bytes back, so only
the shape changed, never a value.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gcdmat import cli
from gcdmat.tncore import TridiagonalInverse

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_V1 = Path(__file__).with_name("golden_cli_v1.json")

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


def v1_document(verb: str, doc: dict) -> dict:
    """A schema v2 report re-expanded to schema v1: the same values in v1's
    shape."""

    def matrix(grid):
        return {"rows": len(grid), "cols": len(grid[0]), "entries": grid}

    if verb in ("gcd-matrix", "lcm-matrix"):
        return matrix(doc["entries"])
    if verb == "invert":
        if doc["method"] == "tridiagonal":
            assert doc["inverse"] is None
            tri = TridiagonalInverse(
                tuple(map(Fraction, doc["sub_super"])), tuple(map(Fraction, doc["diagonal"]))
            )
            return {**doc, "inverse": matrix(cli._json(tri.as_matrix()))}
        return {**doc, "inverse": matrix(doc["inverse"])}
    assert verb in ("divide", "power-divide") and "side" not in doc
    return {"divides": doc["divides"], "side": "Both", **doc}


@pytest.mark.parametrize(
    "v1", json.loads(GOLDEN_V1.read_text()), ids=lambda entry: "_".join(entry["argv"])
)
def test_schema_v2_reexpands_to_v1(golden, v1):
    argv = tuple(v1["argv"])
    v2 = golden[argv]
    assert v2["exit"] == v1["exit"] and v2["stdout"] != v1["stdout"]
    doc = json.loads(golden[(*argv[:-1], "json")]["stdout"])
    if argv[-1] == "text":
        assert cli.render_text(doc) + "\n" == v2["stdout"]
        assert cli.render_text(v1_document(argv[0], doc)) + "\n" == v1["stdout"]
    else:
        assert json.dumps(v1_document(argv[0], doc), indent=2) + "\n" == v1["stdout"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(argv) for argv in CASES], indent=1) + "\n")
