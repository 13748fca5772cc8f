"""Command-line front end.

Every verb reads an ordered set (inline integers, a file, or stdin), runs one
analysis, and prints a report as text or JSON carrying the same information;
`_read_document` reads the format that `_json` writes. Exit codes: 0 success,
1 negative verdict on a yes/no question, 2 bad input, 3 cross-check failure
under --verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from . import divisibility, exactmatrix, generate, setmodel, tncore
from .errors import _EXCERPT_CHARS, Error, InvalidSetError, NotTnError, cut, excerpt
from .exactmatrix import ExactMatrix
from .setmodel import ExponentMatrix, OrderedSet

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CROSS_CHECK = 3


class CrossCheckFailure(Exception):
    """A --verify cross-check failed."""


class _Parser(argparse.ArgumentParser):
    """argparse, and through parser_class its subparsers, with argv errors
    held to the input-error contract."""

    def error(self, message: str):
        """Exit 2 with one `error:` line and no usage. argparse quotes a
        rejected value whole, so each word is cut as errors.excerpt cuts a
        value, and the message to 180 characters, which fit the verb choices."""
        words = " ".join(cut(word) for word in message.split(" "))
        self.exit(EXIT_INPUT, f"error: {cut(words, 180)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcdmat",
        description="Exact gcd/lcm matrix analysis: total nonnegativity, "
        "closed-form inverses and quotients, matrix divisibility.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    reads_set = argparse.ArgumentParser(add_help=False)
    reads_set.add_argument("elements", nargs="*", help="inline set elements")
    reads_set.add_argument("--input", metavar="PATH", help="input file, or - for stdin")

    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, help_text in (
        ("analyze", "set-class predicates, TN verdict, order search"),
        ("gcd-matrix", "print the gcd matrix"),
        ("lcm-matrix", "print the lcm matrix"),
        ("pow", "print the prime-exponent matrix"),
        ("order", "search for a column-monotone reordering"),
        ("invert", "invert the gcd matrix (tridiagonal closed form when TN)"),
    ):
        sub.add_parser(verb, parents=[common, reads_set], help=help_text)

    p = sub.add_parser("divide", parents=[common, reads_set],
                       help="decide lcm-matrix divisibility by the gcd matrix")
    p.add_argument("--verify", action="store_true",
                   help="prove a dividing witness by its product witness * gcd = lcm")

    p = sub.add_parser("power-divide", parents=[common, reads_set],
                       help="divide verdict for the elementwise power set")
    p.add_argument("--power", type=int, default=1, metavar="E")

    p = sub.add_parser("generate", parents=[common],
                       help="emit a set from a named exponent pattern")
    p.add_argument("--pattern", choices=("pascal", "vandermonde", "random"), required=True)
    p.add_argument("--n", type=int, help="set size (pascal, random)")
    p.add_argument("--primes", help="comma-separated primes to build on")
    p.add_argument("--bases", help="comma-separated bases (vandermonde)")
    p.add_argument("--seed", type=int, help="64-bit seed (random)")
    p.add_argument("--max-exp", type=int, help="largest exponent (random)")
    p.add_argument("--max-primes", type=int, help="most primes used (random)")

    p = sub.add_parser("search", parents=[common],
                       help="hunt a gcd-closed set whose gcd matrix fails to divide")
    p.add_argument("--size", type=int, default=4, help="set size to search")
    p.add_argument("--bound", type=int, default=300, help="largest element allowed")
    p.add_argument("--budget", type=int, default=100_000, help="max candidate sets tested")

    return parser


def _load_set(args) -> OrderedSet:
    """The inline elements, read like a text document, or the --input document."""
    if args.elements and args.input:
        raise Error("give elements inline or via --input, not both")
    if args.elements:
        return _read_elements(args.elements)
    if not args.input:
        raise Error("no input: pass elements inline or use --input PATH|-")
    try:
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
    except UnicodeDecodeError as exc:
        raise Error(f"cannot decode input: {exc}") from None
    return _read_document(text)


def _cmd_analyze(args) -> tuple[dict, int]:
    s = _load_set(args)
    chains = setmodel.classify_coprime_divisor_chains(s)
    exponents = setmodel.pow_matrix(s)
    monotone = setmodel.is_column_monotone(exponents)
    verdict = tncore.check_tn_triple(s)
    minors_ok = exactmatrix.is_totally_nonnegative(exactmatrix.gcd_matrix(s))
    order = setmodel.find_monotone_order(s)
    report = {
        "elements": s,
        "n": len(s),
        "gcd_closed": setmodel.is_gcd_closed(s),
        "factor_closed": setmodel.is_factor_closed(s),
        "coprime_chains": [OrderedSet(block) for block in chains] if chains else None,
        "column_monotone": monotone.monotone,
        "column_directions": monotone.directions,
        "tn": verdict,
        "minors_nonnegative": minors_ok,
        "monotone_order": order,
    }
    return report, EXIT_OK


def _cmd_gcd_matrix(args) -> tuple[dict, int]:
    return {"entries": exactmatrix.gcd_matrix(_load_set(args))}, EXIT_OK


def _cmd_lcm_matrix(args) -> tuple[dict, int]:
    return {"entries": exactmatrix.lcm_matrix(_load_set(args))}, EXIT_OK


def _cmd_pow(args) -> tuple[ExponentMatrix, int]:
    return setmodel.pow_matrix(_load_set(args)), EXIT_OK


def _cmd_order(args) -> tuple[dict, int]:
    s = _load_set(args)
    image = setmodel.find_monotone_order(s)
    report = {
        "orderable": image is not None,
        "image": image,
        "reordered": s.permute(image) if image else None,
    }
    return report, EXIT_OK if image else EXIT_NEGATIVE


def _cmd_invert(args) -> tuple[dict, int]:
    """The tridiagonal path prints only the 2n - 1 coefficients that define
    the inverse; the solve path prints the dense inverse."""
    s = _load_set(args)
    try:
        tri = tncore.tridiagonal_inverse(s)
    except NotTnError:
        inverse = exactmatrix.solve_right(exactmatrix.gcd_matrix(s), ExactMatrix.identity(len(s)))
        report = {"method": "solve", "sub_super": None, "diagonal": None, "inverse": inverse}
    else:
        report = {"method": "tridiagonal", **tri._asdict(), "inverse": None}
    return report, EXIT_OK


def _witness_holds(s: OrderedSet, witness: ExactMatrix) -> bool:
    """witness * gcd_matrix(s) == lcm_matrix(s), in integers, reading only the
    nonzero entries of each witness row (at most three in the closed form).
    The gcd matrix is symmetric, so its rows serve as its columns."""
    if (witness.rows, witness.cols) != (len(s), len(s)) or not witness.is_integral():
        return False
    g = [[gcd(a, b) for b in s] for a in s]
    for row, a in zip(witness, s):
        terms = [(w, g[k]) for k, w in enumerate(row) if w]
        if any(sum(w * col[j] for w, col in terms) != lcm(a, b) for j, b in enumerate(s)):
            return False
    return True


def _cmd_divide(args) -> tuple[dict, int]:
    """--verify proves a dividing witness by its integer product
    witness * gcd = lcm, whichever path produced it: the gcd matrix is
    nonsingular, so that witness is the unique quotient. A non-divisor has no
    witness to check, so it stays unverified."""
    s = _load_set(args)
    report = divisibility.divide(s)
    verified = args.verify and report.divides
    if verified and not _witness_holds(s, report.witness):
        raise CrossCheckFailure(f"witness * gcd != lcm on {excerpt(list(s.elements))}")
    doc = {**report._asdict(), "verified": verified}
    return doc, EXIT_OK if report.divides else EXIT_NEGATIVE


def _cmd_power_divide(args) -> tuple[dict, int]:
    powered = setmodel.power_set(_load_set(args), args.power)
    report = divisibility.divide(powered)
    doc = {**report._asdict(), "power": args.power, "power_elements": powered}
    return doc, EXIT_OK if report.divides else EXIT_NEGATIVE


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [_read_int(tok, f"{flag} entry") for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise Error(f"bad {flag} value: {excerpt(text)} (want comma-separated integers)") from None


# The argparse dests each generate pattern reads, the one it needs first.
_PATTERN_FLAGS = {
    "pascal": ("n", "primes"),
    "vandermonde": ("bases", "primes"),
    "random": ("n", "seed", "max_exp", "max_primes"),
}


def _cmd_generate(args) -> tuple[dict, int]:
    """The random caps default to random_monotone_exponents' own, the seed to 0."""
    own = _PATTERN_FLAGS[args.pattern]
    for dest in ("n", "primes", "bases", "seed", "max_exp", "max_primes"):
        if getattr(args, dest) is not None and dest not in own:
            raise Error(f"--pattern {args.pattern} does not read --{dest.replace('_', '-')}")
    if not getattr(args, own[0]):
        raise Error(f"--pattern {args.pattern} needs --{own[0]}")
    primes = _parse_int_list(args.primes, "--primes") if args.primes else None
    if args.pattern == "pascal":
        matrix = generate.pascal_matrix(args.n, primes)
    elif args.pattern == "vandermonde":
        matrix = generate.vandermonde_matrix(_parse_int_list(args.bases, "--bases"), primes)
    else:
        caps = {k: getattr(args, k) for k in ("max_exp", "max_primes") if getattr(args, k) is not None}
        rng = generate.SplitMix64(args.seed or 0)
        matrix = generate.random_monotone_exponents(rng, args.n, **caps)
    s = setmodel.reconstruct(matrix)
    return {"pattern": args.pattern, "elements": s, **_json(matrix)}, EXIT_OK


def _cmd_search(args) -> tuple[dict, int]:
    found = divisibility.search_gcd_closed_nondivisor(args.size, args.bound, args.budget)
    return {"found": found is not None, "elements": found}, EXIT_OK if found else EXIT_NEGATIVE


_HANDLERS = {
    "analyze": _cmd_analyze,
    "gcd-matrix": _cmd_gcd_matrix,
    "lcm-matrix": _cmd_lcm_matrix,
    "pow": _cmd_pow,
    "order": _cmd_order,
    "invert": _cmd_invert,
    "divide": _cmd_divide,
    "power-divide": _cmd_power_divide,
    "generate": _cmd_generate,
    "search": _cmd_search,
}


def _json(value):
    """The one output format; the JSON and the text rendering both read it.

    Set elements, primes, matrix entries and fractions become decimal strings
    of any length; counts, indices and exponents stay numbers. A matrix is
    its grid of entries, an exponent matrix {"primes", "exponents"}, and a
    report named tuple its fields in order.
    """
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items()}
    if hasattr(value, "_asdict"):
        return _json(value._asdict())
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, OrderedSet):
        return [str(x) for x in value]
    if isinstance(value, ExactMatrix):
        return [[str(e) for e in row] for row in value]
    if isinstance(value, ExponentMatrix):
        return {"primes": [str(p) for p in value.primes], "exponents": _json(value.exponents)}
    return value


def _read_int(token: object, what: str) -> int:
    """int(token, 10), the CLI's one integer reader: text documents, JSON
    strings, inline elements and --primes/--bases entries all come here.
    A token that is not a decimal string raises ValueError, for the caller to
    word. A negative number longer than an excerpt is refused as it stands:
    none is valid, and CPython's str -> int is quadratic in the length."""
    if not isinstance(token, str):
        raise ValueError(f"{what} is not a string")
    if len(token) > _EXCERPT_CHARS and token.lstrip().startswith("-"):
        raise InvalidSetError(f"{what} {excerpt(token)} is not positive")
    return int(token, 10)


def _read_ints(items, what: str, bad: str) -> list[int]:
    """Each item as an int, a JSON integer as it is; bad quotes a refused one."""
    ints = []
    for item in items:
        try:
            ints.append(item if type(item) is int else _read_int(item, what))
        except ValueError:
            raise InvalidSetError(bad.format(excerpt(item))) from None
    return ints


def _read_elements(tokens: list[str]) -> OrderedSet:
    if not tokens:
        raise InvalidSetError("no integers found in input")
    return OrderedSet(_read_ints(tokens, "element", "not a decimal integer: {}"))


def _read_document(text: str) -> OrderedSet:
    """The set an input document gives, in the format `_json` writes.

    JSON with "primes" is an exponent matrix, reconstructed into its set, and
    JSON with "elements" is the set; their entries are JSON integers or
    decimal strings, and exponents are JSON integers. Anything else is
    whitespace-separated decimal integers.
    """
    if not text.lstrip().startswith("{"):
        return _read_elements(text.split())
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidSetError(f"bad JSON input: {exc}") from None
    if "primes" in doc:
        primes, rows = doc["primes"], doc.get("exponents")
        if not (isinstance(primes, list) and isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise InvalidSetError('"primes" must be a list, and "exponents" a list of lists')
        primes = _read_ints(primes, '"primes" entry', 'bad "primes" entry: {}')
        return setmodel.reconstruct(ExponentMatrix(primes, rows))
    if not isinstance(doc.get("elements"), list):
        raise InvalidSetError('a JSON document needs an "elements" list, or "primes" and "exponents"')
    return OrderedSet(_read_ints(doc["elements"], '"elements" entry', 'bad "elements" entry: {}'))


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def render_text(report: dict) -> str:
    """Deterministic text rendering of a report; same information as the JSON."""
    lines: list[str] = []

    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
            lines.append(f"{pad}{key}:")
            for row in value:
                lines.append(pad + "  " + " ".join(_scalar(e) for e in row))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + (" ".join(_scalar(e) for e in value) if value else "(empty)"))
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")

    for k, v in report.items():
        emit(k, v, 0)
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run one verb and return its exit code.

    Integers of any length are read and printed: Python's limit on int/str
    conversion digits is lifted for the length of the call and restored
    afterwards, so library callers keep the default. (Interpreters before
    3.10.7 have no such limit.)
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _HANDLERS[args.verb](args)
    except CrossCheckFailure as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = _json(report)
    text = json.dumps(report, indent=2) if args.format == "json" else render_text(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point stdout at devnull so
        # the interpreter's own flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
