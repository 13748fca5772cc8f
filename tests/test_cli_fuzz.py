"""Fuzzed CLI calls: whatever the argv or the --input document, the command
ends with an exit code in {0, 1, 2, 3} and never with a traceback.

Sizes stay small (at most 8 elements, --bound <= 50, --n <= 8) so the suite
runs in seconds; Neville elimination and the closed forms are exercised at
those sizes, not timed.
"""

import contextlib
import io
import json
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gcdmat import cli
from gcdmat.errors import InvalidSetError, excerpt
from gcdmat.setmodel import OrderedSet

SET_VERBS = ("analyze", "gcd-matrix", "lcm-matrix", "pow", "order", "invert", "divide",
             "power-divide")

elements = st.one_of(st.integers(1, 1000), st.integers(1, 2**64))
element_lists = st.one_of(
    st.lists(elements, min_size=1, max_size=8, unique=True),
    st.lists(st.one_of(elements, st.integers(-2, 0)), max_size=8),
)
small = st.integers(-2, 8)
json_entries = st.one_of(elements, elements.map(str), st.booleans(), st.floats(), st.text(max_size=3))

text_documents = element_lists.map(lambda xs: " ".join(map(str, xs)).encode())
json_documents = st.one_of(
    st.fixed_dictionaries({"elements": st.lists(json_entries, max_size=8)}),
    st.fixed_dictionaries({
        "primes": st.lists(st.one_of(st.integers(-2, 50), json_entries), max_size=4),
        "exponents": st.lists(st.lists(st.one_of(small, json_entries), max_size=4), max_size=8),
    }),
    st.dictionaries(st.text(max_size=8), json_entries, max_size=3),
).map(lambda doc: json.dumps(doc).encode())
documents = st.one_of(text_documents, json_documents, st.binary(max_size=64))


def int_list(values) -> str:
    return ",".join(map(str, values))


@st.composite
def set_commands(draw):
    argv = [draw(st.sampled_from(SET_VERBS))]
    document = None
    if draw(st.booleans()):
        argv += [str(x) for x in draw(element_lists)]
    else:
        argv += ["--input", "-"]
        document = draw(documents)
    if argv[0] == "divide" and draw(st.booleans()):
        argv.append("--verify")
    if argv[0] == "power-divide":
        argv += ["--power", str(draw(st.integers(-1, 3)))]
    return argv, document


GENERATE_FLAGS = {
    "--n": small.map(str),
    "--bases": st.lists(st.integers(-1, 5), max_size=4).map(int_list),
    "--primes": st.lists(st.integers(-2, 40), max_size=4).map(int_list),
    "--seed": st.integers(-(2**70), 2**70).map(str),
    "--max-exp": st.integers(-1, 6).map(str),
    "--max-primes": st.integers(-1, 6).map(str),
}
# the flags each pattern reads, the one it needs first
PATTERN_FLAGS = {
    "pascal": ("--n", "--primes"),
    "vandermonde": ("--bases", "--primes"),
    "random": ("--n", "--seed", "--max-exp", "--max-primes"),
}


@st.composite
def generate_commands(draw):
    """The pattern's own flags, its needed one always, and now and then one it
    does not read, which it refuses."""
    pattern = draw(st.sampled_from(tuple(PATTERN_FLAGS)))
    needed, *optional = PATTERN_FLAGS[pattern]
    flags = [needed, *(flag for flag in optional if draw(st.booleans()))]
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(
            [flag for flag in GENERATE_FLAGS if flag not in PATTERN_FLAGS[pattern]])))
    argv = ["generate", "--pattern", pattern]
    for flag in flags:
        argv += [flag, draw(GENERATE_FLAGS[flag])]
    return argv, None


@st.composite
def search_commands(draw):
    argv = ["search"]
    for flag, values in (("--size", small), ("--bound", st.integers(-5, 50)),
                         ("--budget", st.integers(-2, 200))):
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv, None


VOCABULARY = (*SET_VERBS, "generate", "search", "--format", "json", "text", "--input",
              "--verify", "--power", "--pattern", "pascal", "--n", "--size", "--bound", "x", "")

free_commands = st.lists(
    st.one_of(st.sampled_from(VOCABULARY), small.map(str)), max_size=6
).map(lambda argv: (argv, None))

commands = st.tuples(
    st.one_of(set_commands(), generate_commands(), search_commands(), free_commands),
    st.sampled_from(([], ["--format", "json"])),
)


def run(argv, document):
    stdin = io.TextIOWrapper(io.BytesIO(document or b""), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands)
def test_exit_code_contract(command):
    (argv, document), fmt = command
    code, err = run(argv + fmt, document)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err


def test_deeply_nested_json_is_bad_input():
    """JSON nested past the decoder's recursion limit is bad input (exit 2),
    not a traceback that exits 1, the code of a negative verdict."""
    deep = "[" * 100_000 + "]" * 100_000
    for document in (f'{{"elements": {deep}}}', f'{{"primes": ["2"], "exponents": {deep}}}'):
        for verb in ("divide", "pow"):
            code, err = run([verb, "--input", "-"], document.encode())
            assert code == 2, (verb, document[:30], err[-200:])
            assert err.startswith("error: bad JSON input") and "Traceback" not in err


LONG = 100_000
LONG_VALUES = [
    (["divide", "--input", "-"], json.dumps({"elements": ["2", "x" * LONG]}),
     'bad "elements" entry'),
    (["divide", "--input", "-"], "2 " + "y" * LONG, "not a decimal integer"),
    (["divide", "--input", "-"], "-" + "9" * 5000, "is not positive"),
    (["divide", "--input", "-"], f"{'9' * 5000} 2 {'9' * 5000}", "not pairwise distinct"),
    (["divide", "--input", "-"], " ".join(map(str, [*range(2, LONG), 3])), "distinct: 3 repeats"),
    (["pow", "--input", "-"], json.dumps({"primes": ["2"], "exponents": [["9" * LONG]]}),
     "bad exponent"),
    (["pow", "--input", "-"], json.dumps({"primes": [2, 3], "exponents": [[1, 2] * LONG]}),
     f"row 1 has {2 * LONG} entries, not 2"),
    (["pow", "--input", "-"], json.dumps({"primes": [2], "exponents": [[1]] * LONG}),
     "duplicate exponent rows: [1]"),
    (["pow", "--input", "-"], json.dumps({"primes": ["9" * 5000, 2], "exponents": [[1, 1]]}),
     "primes not strictly increasing"),
    (["generate", "--pattern", "vandermonde", "--bases", "1,2," + "z" * LONG], None,
     "bad --bases value"),
    (["generate", "--pattern", "vandermonde", "--bases", ",".join(["0"] * LONG)], None,
     "bases must be positive"),
    (["divide", "2", "x" * LONG], None, "not a decimal integer: 'xxx"),
    (["search", "--size", "x" * LONG], None, "argument --size: invalid int value: 'xxx"),
]


@pytest.mark.parametrize("argv, document, message", LONG_VALUES, ids=lambda v: str(v)[:24])
def test_input_errors_quote_an_excerpt(argv, document, message):
    """A rejected value is quoted in about 80 characters, and a long integer
    by its bit length, never converted to decimal, whatever its size."""
    code, err = run(argv, document and document.encode())
    assert code == 2 and message in err, err[:300]
    assert len(err) < 200, err[:300]


def test_a_long_negative_element_is_refused_before_conversion():
    """CPython's str -> int is quadratic in the length (a 1,000,000-digit
    token took seconds), so a long token starting with "-" is refused by its
    text; a short one is still converted and named as a number."""
    negative = "-" + "9" * 10**6
    for document in (f"2 {negative}", json.dumps({"elements": [2, negative]})):
        start = time.perf_counter()
        code, err = run(["divide", "--input", "-"], document.encode())
        assert time.perf_counter() - start < 0.5
        assert code == 2 and "is not positive" in err and len(err) < 1000, err[:300]
    assert run(["divide", "--input", "-"], b"2 -5") == (2, "error: element -5 is not positive\n")


def test_excerpt_names_a_long_integer_without_converting_it():
    # outside the CLI Python's int/str digit limit stands, so str() would raise
    with pytest.raises(InvalidSetError, match=r"element <negative integer of 16610 bits>"):
        OrderedSet([-(10**5000)])
    text = excerpt([10**5000, "a" * 200, [1]])
    assert text.startswith("[<integer of 16610 bits>, 'aaa") and text.endswith("a...")
    assert len(text) == 83
    assert excerpt(([1], {"a": 1}, "b", ())) == "([...], {...}, 'b', (...))"
