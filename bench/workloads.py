"""The four workloads: what one op calls, and how its answer is checked.

Ops reach gcdmat only through module attributes (``lib.setmodel.x``), so the
traced run's wrappers, which replace those attributes, see every call.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import checks
import inputs


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int, str], Iterator]  # (seed, "timed" | "warmup") -> inputs
    op: Callable  # (lib, input) -> answer
    check: Callable  # (input, answer) -> None | reason
    warmup_ops: int
    cycle: int  # ops per repetition of the input mix
    calibration: str  # the speed.SLICES entry whose work resembles the ops


# --- tn_reorder_closed_forms -------------------------------------------------

def tn_op(lib, item: inputs.GridSet):
    """The README quick tour: order, permute, decide, then both closed forms
    called without a verdict."""
    image = lib.setmodel.find_monotone_order(item.elements)
    s = lib.setmodel.OrderedSet(item.elements).permute(image)
    verdict = lib.tncore.check_tn_triple(s)
    tri = lib.tncore.tridiagonal_inverse(s)
    quotient = lib.tncore.quotient_closed_form(s)
    return image, verdict, tri, quotient


def tn_check(item: inputs.GridSet, answer) -> str | None:
    image, verdict, tri, quotient = answer
    n = len(item.elements)
    if image is None or sorted(image) != list(range(1, n + 1)):
        return f"order {image} is not a permutation of 1..{n}"
    reason = checks.check_monotone_grid([item.rows[i - 1] for i in image])
    if reason:
        return reason
    if not verdict.is_tn:
        return "a column-monotone set was reported not TN"
    x = [item.elements[i - 1] for i in image]
    g = checks.gcd_table(x)
    return checks.check_tridiagonal_inverse(x, g, tri.sub_super, tri.diagonal) or checks.check_quotient(
        x, g, checks.lcm_table(x, g), quotient.entries
    )


# --- divide_general ----------------------------------------------------------

def divide_op(lib, elements):
    report = lib.divisibility.divide_oracle(elements)
    g = lib.exactmatrix.gcd_matrix(elements)
    return report, lib.exactmatrix.determinant(g), lib.exactmatrix.is_positive_definite(g)


def divide_check(elements, answer) -> str | None:
    report, det, positive_definite = answer
    if positive_definite is not True:
        return "gcd matrix of distinct positive integers reported not positive definite"
    return checks.check_divisibility(elements, report, det)


# --- gcd_closed_census -------------------------------------------------------

def census_op(lib, m: int):
    """The inner loop of search_gcd_closed_nondivisor for one seed m, sizes 3-5."""
    divs = lib.numtheory.divisors(m)
    result = {}
    for size in inputs.CENSUS_SIZES:
        closed, failing = 0, []
        for lower in itertools.combinations(divs[:-1], size - 1):
            candidate = lower + (m,)
            if lib.setmodel.is_gcd_closed(candidate):
                closed += 1
                if not lib.divisibility.divide_oracle(candidate).divides:
                    failing.append(candidate)
        result[size] = (closed, failing)
    return divs, result


def census_check(m: int, answer) -> str | None:
    divs, result = answer
    if divs != checks.divisors(m):
        return f"divisors({m}) wrong"
    expected = checks.census(m, inputs.CENSUS_SIZES)
    if result != expected:
        return f"census of m={m} differs: {result} != {expected}"
    return None


# --- cli_requests ------------------------------------------------------------

@dataclass(frozen=True)
class CliAnswer:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def cli_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def cli_op(lib, request: inputs.CliRequest) -> CliAnswer:
    """One `python -m gcdmat.cli ...` process, waited for with wait4 so its
    own peak RSS is known."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gcdmat.cli", *request.argv],
        env=lib.cli_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliAnswer(proc.returncode, out.decode(), err.decode(), usage.ru_maxrss)


def cli_check(request: inputs.CliRequest, answer: CliAnswer) -> str | None:
    reason = checks.check_cli(request.verb, list(request.argv), answer.code, answer.stdout)
    if reason and answer.stderr:
        reason += f" (stderr: {answer.stderr.strip()[-200:]})"
    return reason


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tn_reorder_closed_forms", inputs.tn_inputs, tn_op, tn_check, 5,
                 len(inputs.TN_SHAPES), "integer"),
        Workload("divide_general", inputs.divide_inputs, divide_op, divide_check, 8,
                 2 * len(inputs.DIVIDE_SIZES), "integer"),
        Workload("gcd_closed_census", inputs.census_inputs, census_op, census_check,
                 inputs.CENSUS_START - 1, inputs.CENSUS_BLOCK, "fraction"),
        Workload("cli_requests", inputs.cli_inputs, cli_op, cli_check, len(inputs.CLI_VERBS),
                 len(inputs.CLI_VERBS), "integer"),
    )
}
