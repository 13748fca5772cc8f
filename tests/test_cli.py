import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gcdmat
from gcdmat import cli, divisibility, numtheory, setmodel, tncore
from gcdmat.exactmatrix import ExactMatrix, gcd_matrix
from gcdmat.generate import SplitMix64, random_monotone_set

SIX_ELEMENT = "330812181 551353635 7501410 2976750 5512500000 18750000000"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestDivideVerb:
    def test_divide_true_with_witness(self, capsys, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("2 6 12\n")
        code, doc, _ = run_json(capsys, "divide", "--input", str(path))
        assert code == 0
        assert doc["divides"] is True
        assert doc["witness"] == [["0", "0", "1"], ["3", "-1", "1"], ["6", "0", "0"]]
        assert doc["method"] == "closed-form"

    def test_divide_false_exits_one(self, capsys):
        code, doc, _ = run_json(capsys, "divide", "1", "2", "3", "12")
        assert code == 1
        assert doc["divides"] is False
        assert doc["violation"] == [2, 1, "3/4"]
        assert doc["method"] == "oracle"

    def test_two_elements_use_closed_form(self, capsys):
        code, doc, _ = run_json(capsys, "divide", "2", "3", "--verify")
        assert code == 0
        assert doc["method"] == "closed-form"
        assert doc["witness"] == [["0", "2"], ["3", "0"]]
        assert doc["verified"] is True

    def test_verify_flag_passes(self, capsys):
        code, doc, _ = run_json(capsys, "divide", "2", "6", "12", "--verify")
        assert code == 0
        assert doc["verified"] is True

    def test_verify_corrupted_closed_form_exits_three(self, capsys, monkeypatch):
        """A closed-form witness one entry off fails its product check."""
        true_quotient = cli.divisibility.quotient_closed_form

        def off_by_one(s):
            rows = [list(row) for row in true_quotient(s)]
            rows[0][0] += 1
            return ExactMatrix(rows)

        monkeypatch.setattr(cli.divisibility, "quotient_closed_form", off_by_one)
        code, out, err = run(capsys, "divide", "2", "6", "12", "--verify")
        assert code == 3
        assert "witness * gcd != lcm" in err

    def test_verify_needs_no_oracle_on_a_tn_set(self, capsys, monkeypatch):
        def no_oracle(s):
            raise AssertionError("the oracle was consulted")

        monkeypatch.setattr(cli.divisibility, "divide_oracle", no_oracle)
        code, doc, _ = run_json(capsys, "divide", "2", "6", "12", "--verify")
        assert code == 0
        assert doc["verified"] is True
        assert doc["method"] == "closed-form"

    def test_verify_sixty_element_tn_set_is_fast(self, capsys):
        """The product check reads the closed form's sparse rows in O(n^2).
        The exact solve, `divide_oracle`, took 8.6 s on this set (elements up
        to 299 bits; Python 3.11), so a `--verify` that solves fails the
        bound. With the default max_primes the draw has two primes and 65-bit
        elements, on which the solve took only 0.6 s."""
        s = random_monotone_set(SplitMix64(60), 60, max_exp=40, max_primes=5)
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "divide", *map(str, s), "--verify")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert doc["verified"] is True

    def test_verify_checks_an_oracle_witness(self, capsys, monkeypatch):
        from gcdmat.divisibility import DivisibilityReport

        monkeypatch.setattr(
            cli.divisibility,
            "divide_oracle",
            lambda s: DivisibilityReport(True, witness=ExactMatrix.identity(len(s))),
        )
        code, out, err = run(capsys, "divide", "2", "3", "4", "--verify")  # not TN
        assert code == 3
        assert "lcm" in err

    @pytest.mark.parametrize(
        "witness",
        [ExactMatrix.identity(2), ExactMatrix([[Fraction(1, 2)] * 3] * 3)],
        ids=["wrong-shape", "non-integral"],
    )
    def test_verify_refuses_a_malformed_witness(self, capsys, monkeypatch, witness):
        """A witness of the wrong shape, or with a non-integral entry, fails
        --verify before any product is formed."""
        monkeypatch.setattr(cli.divisibility, "divide",
                            lambda s: divisibility.DivisibilityReport(True, witness=witness))
        code, out, err = run(capsys, "divide", "2", "6", "12", "--verify")
        assert code == 3 and out == ""
        assert err.startswith("cross-check failure: witness * gcd != lcm")

    def test_verify_leaves_a_nondivisor_unverified(self, capsys):
        code, doc, _ = run_json(capsys, "divide", "1", "2", "3", "12", "--verify")
        assert code == 1
        assert doc["verified"] is False


class TestAnalyzeVerb:
    def test_six_element_report(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", *SIX_ELEMENT.split())
        assert code == 0
        assert doc["gcd_closed"] is False
        assert doc["coprime_chains"] is None
        assert doc["column_monotone"] is True
        assert doc["tn"]["is_tn"] is True
        assert doc["minors_nonnegative"] is True
        assert doc["monotone_order"] == [1, 2, 3, 4, 5, 6]

    def test_minor_cap_skips_large_confirmation(self, capsys):
        """No cap: Neville elimination confirms TN at every n."""
        elems = [str(2**k) for k in range(9)]
        code, doc, _ = run_json(capsys, "analyze", *elems)
        assert code == 0
        assert doc["minors_nonnegative"] is True
        elems[4], elems[5] = elems[5], elems[4]
        code, doc, _ = run_json(capsys, "analyze", *elems)
        assert code == 0
        assert doc["minors_nonnegative"] is False

    def test_thirty_prime_element_is_fast(self, capsys):
        """The primorial has 2^30 divisors; the factor-closed check stops at
        the divisor count instead of listing them."""
        primorial = 31610054640417607788145206291543662493274686990
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "analyze", "1", str(primorial))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["factor_closed"] is False

    def test_factorizes_each_element_once(self, capsys):
        """The exponent matrix is built once, for the column-monotone report
        (the order search reads gcds only); is_factor_closed factorizes the
        first two elements again (the second already has more divisors than
        the set has members)."""
        chain = [2**i * 3 ** (300 - i) for i in range(301)]
        numtheory.factorize.cache_clear()
        code, doc, _ = run_json(capsys, "analyze", *map(str, chain))
        assert code == 0
        assert doc["minors_nonnegative"] is True
        assert numtheory.factorize.cache_info().misses <= 303

    def test_coprime_chains_rendering(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "2", "4", "3", "9")
        assert doc["coprime_chains"] == [["2", "4"], ["3", "9"]]


class TestMatrixVerbs:
    def test_gcd_matrix(self, capsys):
        code, doc, _ = run_json(capsys, "gcd-matrix", "2", "6", "12")
        assert code == 0
        assert doc == {"entries": [["2", "2", "2"], ["2", "6", "6"], ["2", "6", "12"]]}

    def test_lcm_matrix(self, capsys):
        code, doc, _ = run_json(capsys, "lcm-matrix", "2", "6", "12")
        assert doc["entries"] == [["2", "6", "12"], ["6", "6", "12"], ["12", "12", "12"]]

    def test_pow(self, capsys):
        code, doc, _ = run_json(capsys, "pow", "4000", "6000", "600", "54", "81")
        assert doc == {
            "primes": ["2", "3", "5"],
            "exponents": [[5, 0, 3], [4, 1, 3], [3, 1, 2], [1, 3, 0], [0, 4, 0]],
        }


class TestOrderVerb:
    def test_orderable(self, capsys):
        code, doc, _ = run_json(capsys, "order", "81", "4000", "600", "6000", "54")
        assert code == 0
        assert doc["orderable"] is True
        assert doc["image"] == [1, 5, 3, 4, 2]
        assert doc["reordered"] == ["81", "54", "600", "6000", "4000"]

    def test_not_orderable_exits_one(self, capsys):
        code, doc, _ = run_json(capsys, "order", "6", "10", "15")
        assert code == 1
        assert doc == {"orderable": False, "image": None, "reordered": None}


def tridiagonal_from(doc) -> ExactMatrix:
    """The dense inverse that invert's printed coefficients determine."""
    return tncore.TridiagonalInverse(
        tuple(map(Fraction, doc["sub_super"])), tuple(map(Fraction, doc["diagonal"]))
    ).as_matrix()


class TestInvertVerb:
    def test_tridiagonal_path(self, capsys):
        code, doc, _ = run_json(capsys, "invert", "2", "6", "12")
        assert code == 0
        assert doc["method"] == "tridiagonal"
        assert doc["sub_super"] == ["-1/4", "-1/6"]
        assert doc["diagonal"] == ["3/4", "5/12", "1/6"]
        assert doc["inverse"] is None
        assert tridiagonal_from(doc) * gcd_matrix([2, 6, 12]) == ExactMatrix.identity(3)

    def test_solve_fallback_for_non_tn(self, capsys):
        code, doc, _ = run_json(capsys, "invert", "2", "3", "4")
        assert code == 0
        assert doc["method"] == "solve"
        assert doc["sub_super"] is None and doc["diagonal"] is None
        inverse = ExactMatrix(doc["inverse"])
        assert inverse * gcd_matrix([2, 3, 4]) == ExactMatrix.identity(3)

    def test_tridiagonal_for_two_elements(self, capsys):
        code, doc, _ = run_json(capsys, "invert", "4", "6")
        assert code == 0
        assert doc["method"] == "tridiagonal"
        assert doc["sub_super"] == ["-1/10"]
        assert doc["diagonal"] == ["3/10", "1/5"]
        assert doc["inverse"] is None
        assert tridiagonal_from(doc) * gcd_matrix([4, 6]) == ExactMatrix.identity(2)


class TestPowerDivideVerb:
    def test_cube(self, capsys):
        code, doc, _ = run_json(capsys, "power-divide", "2", "6", "12", "--power", "3")
        assert code == 0
        assert doc["divides"] is True
        assert doc["power_elements"] == ["8", "216", "1728"]


class TestGenerateVerb:
    def test_pascal(self, capsys):
        code, doc, _ = run_json(
            capsys, "generate", "--pattern", "pascal", "--n", "4", "--primes", "2,3,5,7"
        )
        assert code == 0
        assert doc["elements"] == [
            "210",
            "5402250",
            "238338491343750",
            "126233858791143985957031250",
        ]
        assert doc["exponents"][3] == [1, 4, 10, 20]

    def test_random_seed_reproducible(self, capsys):
        _, first, _ = run(capsys, "generate", "--pattern", "random", "--n", "5", "--seed", "99")
        _, second, _ = run(capsys, "generate", "--pattern", "random", "--n", "5", "--seed", "99")
        assert first == second
        _, third, _ = run(capsys, "generate", "--pattern", "random", "--n", "5", "--seed", "100")
        assert first != third

    def test_vandermonde(self, capsys):
        code, doc, _ = run_json(
            capsys, "generate", "--pattern", "vandermonde", "--bases", "1,2,3"
        )
        assert code == 0
        assert doc["elements"] == ["30", "11250", "105468750"]

    def test_missing_pattern_arguments(self, capsys):
        code, out, err = run(capsys, "generate", "--pattern", "pascal")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("random", "--n", "3", "--primes", "101,103"), "--primes"),
            (("random", "--n", "3", "--bases", "9"), "--bases"),
            (("pascal", "--n", "3", "--seed", "0"), "--seed"),
            (("pascal", "--n", "3", "--max-exp", "6"), "--max-exp"),
            (("vandermonde", "--bases", "1,2", "--n", "2"), "--n"),
            (("vandermonde", "--bases", "1,2", "--max-primes", "4"), "--max-primes"),
        ],
    )
    def test_a_flag_the_pattern_does_not_read_is_refused(self, capsys, argv, flag):
        code, out, err = run(capsys, "generate", "--pattern", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --pattern {argv[0]} does not read {flag}\n"

    def test_random_defaults(self, capsys):
        """Seed 0, max_exp 6 and max_primes 4 when the flags are not given."""
        _, implicit, _ = run(capsys, "generate", "--pattern", "random", "--n", "5")
        _, explicit, _ = run(capsys, "generate", "--pattern", "random", "--n", "5", "--seed", "0",
                             "--max-exp", "6", "--max-primes", "4")
        assert implicit == explicit
        code, _, err = run(capsys, "generate", "--pattern", "random", "--n", "26")
        assert code == 2 and "at most 25" in err


class TestSearchVerb:
    def test_finds_witness(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--size", "4", "--bound", "20", "--budget", "100")
        assert code == 0
        assert doc == {"found": True, "elements": ["1", "2", "3", "12"]}

    def test_not_found_exits_one(self, capsys):
        code, doc, _ = run_json(capsys, "search", "--size", "3", "--bound", "15", "--budget", "100")
        assert code == 1
        assert doc == {"found": False, "elements": None}


class TestInputHandling:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n6\n12\n"))
        code, doc, _ = run_json(capsys, "gcd-matrix", "--input", "-")
        assert code == 0
        assert len(doc["entries"]) == 3

    def test_json_set_input(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"elements": ["2", "6", "12"]}))
        code, doc, _ = run_json(capsys, "pow", "--input", str(path))
        assert code == 0
        assert doc["primes"] == ["2", "3"]

    def test_exponent_matrix_input_is_reconstructed(self, capsys, tmp_path):
        path = tmp_path / "pow.json"
        path.write_text(json.dumps({"primes": ["2", "3"], "exponents": [[1, 0], [1, 1], [2, 1]]}))
        code, doc, _ = run_json(capsys, "gcd-matrix", "--input", str(path))
        assert code == 0
        assert doc["entries"][0][0] == "2"  # set is (2, 6, 12)
        assert doc["entries"][2][2] == "12"

    def test_malformed_input_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 six 12")
        code, out, err = run(capsys, "divide", "--input", str(path))
        assert code == 2
        assert "six" in err

    def test_duplicate_elements_exit_two(self, capsys):
        code, out, err = run(capsys, "divide", "2", "2", "6")
        assert code == 2
        assert "distinct" in err

    def test_missing_input_exits_two(self, capsys):
        code, out, err = run(capsys, "divide")
        assert code == 2
        assert "no input" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "divide", "--input", str(tmp_path / "absent.txt"))
        assert code == 2

    def test_undecodable_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "divide", "--input", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_undecodable_stdin_exits_two(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "divide", "--input", "-")
        assert code == 2
        assert err.startswith("error: cannot decode input") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, document",
        [
            (("power-divide", "2", "6", "12", "--power", "0"), None),
            (("search", "--size", "0"), None),
            (("generate", "--pattern", "random", "--n", "-2"), None),
            (("generate", "--pattern", "vandermonde", "--bases", "0,2"), None),
            (("divide",), {"primes": [2, 3], "exponents": 5}),
            (("divide",), {"primes": 5, "exponents": [[1]]}),
            (("search", "--budget", "0"), None),
            (("search", "--budget", "-1"), None),
            (("generate", "--pattern", "random", "--n", "8", "--max-exp", "1",
              "--max-primes", "4"), None),
            (("divide", "2", "3"), {"elements": [2]}),
            (("divide",), {"elements": "2 3"}),
            (("divide",), {"primes": [2]}),
            (("divide",), {"primes": [2], "exponents": [1]}),
            (("divide", "2", "x"), None),
        ],
        ids=["power-0", "size-0", "random-n-negative", "vandermonde-base-0",
             "exponents-not-list", "primes-not-list", "budget-0", "budget-negative",
             "random-n-infeasible", "inline-and-input", "elements-not-list",
             "exponents-missing", "exponents-row-not-list", "inline-not-decimal"],
    )
    def test_invalid_arguments_exit_two(self, capsys, tmp_path, argv, document):
        if document is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(document))
            argv = (*argv, "--input", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestArgvErrors:
    """argparse's own errors keep the input-error contract: exit 2 and one
    `error:` line, with a long value cut to about 80 characters."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--size", "z" * 3000),
            ("z" * 3000,),
            ("generate", "--pattern", "z" * 3000),
            ("divide", "2", "--format", "z" * 3000),
            ("search", *map(str, range(10_000))),
            ("search", "--size", " ".join(["z"] * 3000)),
        ],
        ids=["size", "verb", "pattern", "format", "many-extras", "many-words"],
    )
    def test_one_excerpted_line(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 200, captured.err
        if "z" * 3000 in argv:  # the rejected value, cut as errors.excerpt cuts one
            assert "z" * 79 + "..." in captured.err, captured.err

    def test_short_messages_stay_whole(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frob"])
        err = capsys.readouterr().err
        assert err.startswith("error: argument verb: invalid choice: 'frob'")
        assert err.rstrip().endswith("'search')") or err.rstrip().endswith("search)")

    def test_help_is_argparse_help(self, capsys):
        for argv, shown in ((["--help"], "power-divide"), (["generate", "--help"], "--max-primes")):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: gcdmat") and shown in out


def test_closed_stdout_exits_cleanly():
    """A reader that closes the pipe early (`| head -c 10`) gets a contract
    exit code and no traceback."""
    src = str(Path(gcdmat.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "gcdmat.cli", "gcd-matrix", *map(str, range(1, 301)),
            "--format", "json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no int/str digit limit",
)
class TestBigIntegers:
    """The CLI reads and prints integers past Python's default 4300-digit
    int/str limit, and leaves the limit as it found it."""

    def test_pascal_eight(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, doc, err = run_json(capsys, "generate", "--pattern", "pascal", "--n", "8")
        assert code == 0 and err == ""
        assert max(len(x) for x in doc["elements"]) > 4300
        assert sys.get_int_max_str_digits() == limit

    def test_five_thousand_digit_input(self, capsys, tmp_path):
        zeros = "0" * 4999  # written as text: str() of these ints hits the limit
        three, seven = "3" + zeros, "7" + zeros
        path = tmp_path / "big.txt"
        path.write_text(f"{three}\n{seven}\n")
        code, doc, err = run_json(capsys, "gcd-matrix", "--input", str(path))
        assert code == 0 and err == ""
        assert doc["entries"][0][1] == "1" + zeros
        code, doc, err = run_json(capsys, "gcd-matrix", three, seven)
        assert code == 0 and doc["entries"][1][1] == seven


class TestFormatParity:
    COMMANDS = [
        ("analyze", "2", "6", "12"),
        ("divide", "1", "2", "3", "12"),
        ("gcd-matrix", "2", "6", "12"),
        ("pow", "4000", "6000", "600", "54", "81"),
        ("order", "6", "10", "15"),
        ("invert", "2", "3", "4"),
        ("power-divide", "2", "6", "12", "--power", "2"),
        ("generate", "--pattern", "pascal", "--n", "3"),
        ("search", "--size", "4", "--bound", "20", "--budget", "100"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_text_and_json_carry_identical_information(self, capsys, argv):
        _, text_out, _ = run(capsys, *argv)
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        rerendered = cli.render_text(json.loads(json_out))
        assert rerendered.strip() == text_out.strip()


def test_cli_import_loads_no_dataclasses_or_inspect():
    """`import gcdmat.cli` in a fresh interpreter (environment inherited)
    loads neither `dataclasses` nor `inspect`: both only add start-up time
    to every CLI process."""
    src = str(Path(gcdmat.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import gcdmat.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == []


def _sample_reports():
    """One report of each type, made by the library calls that return them."""
    return [
        (tncore.check_tn_triple([2, 3, 4]), ("is_tn", "method", "witness")),
        (tncore.tridiagonal_inverse([2, 6, 12]), ("sub_super", "diagonal")),
        (setmodel.is_column_monotone(setmodel.pow_matrix([12, 6, 2])),
         ("monotone", "directions")),
        (divisibility.divide([1, 2, 3, 12]),
         ("divides", "witness", "violation", "method")),
    ]


class TestReportTypes:
    """The report types are immutable named tuples with their fields in a
    fixed order; the CLI serializes each as a dict of those fields."""

    @pytest.mark.parametrize("index", range(4))
    def test_fields_immutability_and_json(self, index):
        report, fields = _sample_reports()[index]
        assert tuple(report._asdict()) == fields
        assert tuple(report) == tuple(getattr(report, f) for f in fields)
        with pytest.raises(AttributeError):
            setattr(report, fields[0], None)
        with pytest.raises(AttributeError):
            report.extra = None
        doc = cli._json(report)
        assert isinstance(doc, dict) and tuple(doc) == fields

    def test_truthiness_is_the_verdict(self):
        assert tncore.check_tn_triple([2, 6, 12]) and not tncore.check_tn_triple([2, 3, 4])
        assert setmodel.is_column_monotone(setmodel.pow_matrix([2, 6, 12]))
        assert not setmodel.is_column_monotone(setmodel.pow_matrix([2, 3, 4]))
        assert divisibility.divide([2, 6, 12]) and not divisibility.divide([1, 2, 3, 12])

    def test_keyword_construction(self):
        report = divisibility.DivisibilityReport(False, violation=(1, 2, Fraction(1, 2)))
        assert not report
        assert report == (False, None, (1, 2, Fraction(1, 2)), "oracle")
        assert cli._json(report) == {
            "divides": False, "witness": None, "violation": [1, 2, "1/2"], "method": "oracle",
        }
