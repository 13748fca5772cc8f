"""Self-tests for the benchmark itself: python3 -m pytest bench/test_bench.py

They check that the answer checks catch a wrong answer, that inputs are a
pure function of the seed, that the traced run leaves no wrapper behind, and
that the benchmark's own census reproduces the published counts.
"""

import dataclasses
from fractions import Fraction
from itertools import islice

import pytest

import checks
import inputs
import run
import spans
from workloads import WORKLOADS

STREAMS = {name: w.stream for name, w in WORKLOADS.items()}


@pytest.fixture(scope="module")
def lib():
    library = run.load_library()
    library.numtheory.small_primes()
    return library


def first(stream, k):
    return list(islice(stream, k))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_inputs_are_a_function_of_the_seed(name):
    stream = STREAMS[name]
    assert first(stream(7, "timed"), 12) == first(stream(7, "timed"), 12)
    if name != "gcd_closed_census":
        assert first(stream(7, "timed"), 12) != first(stream(8, "timed"), 12)
    else:  # census seeds permute fixed blocks of a fixed range
        block = inputs.CENSUS_BLOCK
        assert first(stream(7, "timed"), block) != first(stream(8, "timed"), block)
        assert sorted(first(stream(7, "timed"), block)) == sorted(first(stream(8, "timed"), block))


@pytest.mark.parametrize("name", ["tn_reorder_closed_forms", "divide_general", "gcd_closed_census"])
def test_timed_inputs_are_distinct_and_apart_from_warm_up(name):
    def key(item):
        return getattr(item, "elements", item)

    timed = [key(x) for x in first(STREAMS[name](3, "timed"), 60)]
    warm = {key(x) for x in first(STREAMS[name](3, "warmup"), WORKLOADS[name].warmup_ops)}
    assert len(set(timed)) == len(timed)
    assert not warm & set(timed)


def test_generated_tn_sets_are_column_monotone_in_generation_order():
    rng = inputs.Rng(1)
    rows = inputs.monotone_rows(rng, 40, 6, inputs.TN_MAX_EXP)
    assert len(set(rows)) == 40
    assert checks.check_monotone_grid(rows) is None
    assert inputs.is_tn_triple([inputs.element(inputs.PRIMES[:6], r) for r in rows])


def test_divide_inputs_are_not_tn():
    for elements in first(inputs.divide_inputs(5), 20):
        assert not inputs.is_tn_triple(elements)


def test_own_elimination_on_a_worked_example():
    g = checks.gcd_table([2, 6, 12])
    det, d, (y,) = checks.eliminate(g, [[1, 0, 0]])
    assert det == 48
    assert [Fraction(v, d) for v in y] == [Fraction(3, 4), Fraction(-1, 4), Fraction(0)]
    g = checks.gcd_table([1, 2, 3, 12])
    assert checks.first_violation(g, checks.lcm_table([1, 2, 3, 12], g))[1] == (2, 1, Fraction(3, 4))


def test_corrupted_quotient_is_caught(lib):
    workload = WORKLOADS["tn_reorder_closed_forms"]
    item = next(inputs.tn_inputs(4))
    image, verdict, tri, quotient = workload.op(lib, item)
    assert workload.check(item, (image, verdict, tri, quotient)) is None
    rows = [list(r) for r in quotient.entries]
    rows[1][0] += 1
    corrupted = lib.exactmatrix.ExactMatrix(rows)
    assert workload.check(item, (image, verdict, tri, corrupted)) is not None


def test_a_wrong_answer_makes_failed_ops_ratio_positive(lib, monkeypatch):
    original = lib.tncore.quotient_closed_form

    def off_by_one(s, verdict=None):
        rows = [list(r) for r in original(s, verdict).entries]
        rows[-1][0] += 1
        return lib.exactmatrix.ExactMatrix(rows)

    monkeypatch.setattr(lib.tncore, "quotient_closed_form", off_by_one)
    loop = run.Loop(WORKLOADS["tn_reorder_closed_forms"], lib, seed=2)
    loop.run(0.2)
    assert loop.times and len(loop.failures) == len(loop.times)


def test_wrong_divisibility_answers_are_caught(lib):
    elements = (1, 2, 3, 12)
    report = lib.divisibility.divide_oracle(elements)
    det = lib.exactmatrix.determinant(lib.exactmatrix.gcd_matrix(elements))
    assert checks.check_divisibility(elements, report, det) is None
    assert checks.check_divisibility(elements, report, det + 1) is not None
    moved = type(report)(False, violation=(2, 2, Fraction(3, 4)))
    assert checks.check_divisibility(elements, moved, det) is not None


def test_cli_expectations_reject_a_wrong_exit_code():
    stdout = '{"divides": false, "violation": [2, 1, "3/4"], "witness": null}'
    argv = ["divide", "1", "2", "3", "12"]
    assert checks.check_cli("divide_nondivisor", argv, 1, stdout) is None
    assert checks.check_cli("divide_nondivisor", argv, 0, stdout) is not None
    assert checks.check_cli("order", ["order"], 0, '{"image": [1, 2, 3, 4, 5]}') is not None


def test_traced_run_removes_every_wrapper(lib):
    before = {id(ns): dict(vars(ns)) for ns, *_ in spans.Tracer()._patches}
    tracer = spans.Tracer()
    alternating = dataclasses.replace(WORKLOADS["gcd_closed_census"], cycle=1)
    loop = run.Loop(alternating, lib, seed=1)
    loop.run(0.3, tracer)
    assert loop.traced_times and loop.times and not loop.failures
    assert tracer.leftovers() == []
    for ns, attr, original, _ in tracer._patches:
        assert getattr(ns, attr) is original
        assert before[id(ns)][attr] is original
    names = {span[0] for span in tracer.spans}
    assert {"divisibility.divide_oracle", "exactmatrix.solve_right", run.GLUE} <= names


def test_census_reproduces_the_published_counts():
    closed = {3: 0, 4: 0, 5: 0}
    failing = {3: 0, 4: 0, 5: 0}
    for m in range(1, 301):
        for size, (count, bad) in checks.census(m, inputs.CENSUS_SIZES).items():
            closed[size] += count
            failing[size] += len(bad)
    assert closed == {3: 3099, 4: 5501, 5: 8036}
    assert failing == {3: 0, 4: 980, 5: 3494}
