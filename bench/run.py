"""gcdmat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; gcdmat is imported from the checkout's
``src/`` and nowhere else. Each workload is a closed loop: one caller, one
process, the next op starts when the previous one returns. Every op's answer
is checked outside its timed region by code in this directory. Times are
reported at a fixed reference speed (see speed.py), and --seconds is op time
at that speed: a run stops at the end of the first cycle of its input mix
that ends after it.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the
separate traced run: cycles of the input mix alternate between traced and
untraced (a seeded coin picks which comes first); the per-layer metrics come
from the traced ops, and the two halves' throughputs give the tracing
overhead. Human-readable lines go to stdout first; the last line is the JSON
result. Details (census counts, failures, spans) are written under
``.bench_out/``. Exit status: 0 when every answer checked out, 1 when one did
not, 2 when the run could not start (for example, no ``src/gcdmat`` next to
this file).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import inputs
import spans
from checks import check_cli
from speed import SpeedReference
from workloads import WORKLOADS, cli_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = (5, 4)  # fresh processes before and after the timed loop
CLI_PROBES = 5
CENSUS_REFERENCE_BLOCKS = 4

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gcdmat
gcdmat.numtheory.small_primes()
print(time.perf_counter() - start)
"""
IMPORT_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import gcdmat.cli
print(time.perf_counter() - start)
"""

# Functions reported per traced op: self time (all of them) and calls.
LAYER_FUNCTIONS = (
    "numtheory.factorize", "numtheory.divisors",
    "setmodel.find_monotone_order", "setmodel.pow_matrix", "setmodel.is_gcd_closed",
    "tncore.check_tn_triple", "tncore.tridiagonal_inverse", "tncore.quotient_closed_form",
    "exactmatrix.solve_right", "exactmatrix.determinant", "exactmatrix.is_positive_definite",
    "exactmatrix.gcd_matrix", "exactmatrix.lcm_matrix",
    "divisibility.divide_oracle",
)
LAYER_CALLS = (
    "numtheory.factorize", "setmodel.find_monotone_order", "setmodel.is_gcd_closed",
    "tncore.check_tn_triple", "exactmatrix.solve_right", "divisibility.divide_oracle",
)
GLUE = "bench.op"


def fresh_python(code: str, *args: str) -> float:
    """Run a snippet in a fresh interpreter; it prints one float."""
    out = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         capture_output=True, text=True).stdout
    return float(out.split()[-1])


def wall_of(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True)
    return time.perf_counter() - start


def wall_of_call(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def pin_to_current_cpu() -> None:
    """Keep this process, its children and the calibration slices on one
    core: the host's slow phases differ between cores, so a child on the
    other core would be scaled by the wrong slices."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass  # unpinned runs are noisier, not wrong


def load_library():
    sys.path.insert(0, str(SRC))
    import gcdmat
    import gcdmat.cli

    if not Path(gcdmat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"gcdmat came from {gcdmat.__file__}, not {SRC}")
    names = ("numtheory", "setmodel", "exactmatrix", "tncore", "divisibility", "cli")
    lib = types.SimpleNamespace(**{n: getattr(gcdmat, n) for n in names})
    lib.cli_env = cli_env(str(SRC))
    return lib


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Loop:
    """The timed closed loop over one workload's input stream.

    Ops are recorded as (start, measured seconds); speed.scale() turns them
    into reference-speed seconds once the run is over.
    """

    def __init__(self, workload, lib, seed: int):
        self.workload, self.lib, self.seed = workload, lib, seed
        self.times: list[tuple[float, float]] = []
        self.traced_times: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.results: dict = {}  # census: m -> per-size counts
        self.max_child_rss_kb = 0
        self.speed = SpeedReference(workload.calibration)

    def one(self, item, tracer=None) -> tuple[float, float]:
        wl = self.workload
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = wl.op(self.lib, item)
            else:
                with tracer.span(GLUE):
                    answer = wl.op(self.lib, item)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            error = wl.check(item, answer)
            if wl.name == "gcd_closed_census":
                self.results[item] = {s: (c, len(f)) for s, (c, f) in answer[1].items()}
            if wl.name == "cli_requests":
                self.max_child_rss_kb = max(self.max_child_rss_kb, answer.maxrss_kb)
        if error is not None:
            self.failures.append(f"{item!r:.120}: {error}")
        return start, elapsed

    def warm_up(self) -> list[str]:
        """Checked like timed ops, but kept out of every count."""
        stream = self.workload.stream(self.seed, "warmup")
        for _, item in zip(range(self.workload.warmup_ops), stream):
            self.one(item)
        failures, self.failures, self.results = self.failures, [], {}
        return failures

    def probe(self, fn, *args) -> float:
        """A set-up probe returning seconds, scaled to reference speed."""
        self.speed.sample()
        start = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        self.speed.sample()
        return value * self.speed.factor(start, end)

    def run(self, seconds: float, tracer=None) -> None:
        stream = self.workload.stream(self.seed, "timed")
        coin = inputs.stream_rng(self.seed, self.workload.name, "trace-coin")
        first = coin.below(2)
        busy = scaled = 0.0
        self.speed.sample()
        for i, item in enumerate(stream):
            # Stop on a cycle boundary once `seconds` of reference-speed op
            # time are done, so every run measures the same mix and about the
            # same number of ops whatever the host's state; on a very slow
            # host, after twice `seconds` of measured op time. A traced run
            # also needs a traced and an untraced cycle.
            done = scaled >= seconds or busy >= 2 * seconds
            if i % self.workload.cycle == 0 and done and (
                    tracer is None or (self.times and self.traced_times)):
                break
            # whole cycles alternate, so traced and untraced ops share one input mix
            if tracer is not None and (i // self.workload.cycle + first) % 2:
                tracer.op_id = len(self.traced_times)
                tracer.install()
                try:
                    record = self.one(item, tracer)
                finally:
                    tracer.remove()
                    tracer.op_id = -1
                self.traced_times.append(record)
            else:
                record = self.one(item)
                self.times.append(record)
            busy += record[1]
            scaled += record[1] * self.speed.recent_factor()
            self.speed.sample_if_due()
        self.speed.sample()

    def scaled(self, records) -> list[float]:
        return [self.speed.scale(start, elapsed) for start, elapsed in records]


def census_summary(results: dict) -> dict:
    """Per-size gcd-closed and non-divider counts over the first reference
    blocks (the same m for every seed, so these repeat exactly) and over all
    m run."""

    def total(ms):
        return {s: [sum(results[m][s][0] for m in ms), sum(results[m][s][1] for m in ms)]
                for s in inputs.CENSUS_SIZES}

    reference = [m for b in range(CENSUS_REFERENCE_BLOCKS) for m in inputs.census_block(b)]
    return {
        "reference_blocks": CENSUS_REFERENCE_BLOCKS,
        "reference": total(reference) if all(m in results for m in reference) else None,
        "all_m_run": [min(results), max(results), len(results)] if results else None,
        "all": total(list(results)),
    }


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict]:
    setup = [loop.probe(fresh_python, SETUP_CODE, str(SRC)) for _ in range(SETUP_PROBES[0])]
    loop.run(seconds)
    setup += [loop.probe(fresh_python, SETUP_CODE, str(SRC)) for _ in range(SETUP_PROBES[1])]
    times = sorted(loop.scaled(loop.times))
    p90, beyond = percentile(times, 0.9)
    if loop.workload.name == "cli_requests":
        rss_kb = loop.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [elapsed for _, elapsed in loop.times]
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    extra = {"samples": len(times), "samples_beyond_p90": beyond, "setup_probes_s": setup,
             "calibration_slices": len(loop.speed), "median_slice_s": loop.speed.median_slice_s(),
             "raw_ops_per_s": len(raw) / sum(raw), "raw_op_ms_p50": statistics.median(raw) * 1e3}
    return metrics, extra


def cli_replay(lib, tracer: spans.Tracer, loop: Loop) -> dict:
    """One in-process cli.main call per verb (sieve already built), traced;
    these calls are the traced ops of cli_requests."""
    per_verb = {}
    for verb, argv in inputs.CLI_VERBS:
        argv = list(argv) + (["--seed", "7"] if verb == "generate" else []) + ["--format", "json"]
        tracer.op_id = len(loop.traced_times)
        loop.speed.sample()
        tracer.install()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with tracer.span(GLUE), contextlib.redirect_stdout(out):
                code = lib.cli.main(argv)
        finally:
            elapsed = time.perf_counter() - start
            tracer.remove()
            tracer.op_id = -1
        loop.speed.sample()
        loop.traced_times.append((start, elapsed))
        per_verb[verb] = loop.speed.scale(start, elapsed) * 1e3
        reason = check_cli(verb, argv, code, out.getvalue())
        if reason:
            loop.failures.append(f"in-process {verb}: {reason}")
    return per_verb


def traced(loop: Loop, lib, tracer: spans.Tracer, seconds: float, sieve_s: float) -> tuple[dict, dict]:
    info_before = lib.numtheory.factorize.cache_info()
    loop.run(seconds, tracer)
    info_after = lib.numtheory.factorize.cache_info()
    untraced_rate = len(loop.times) / sum(loop.scaled(loop.times))
    traced_rate = len(loop.traced_times) / sum(loop.scaled(loop.traced_times))
    first_op = 0
    cli_metrics = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    cli_metrics.update({f"cli.main.{verb}.ms": 0.0 for verb, _ in inputs.CLI_VERBS})
    if loop.workload.name == "cli_requests":
        # Tracing here cannot reach the child processes, so the layer spans
        # come from an in-process replay of one verb cycle.
        first_op, tracer.gc_s = len(loop.traced_times), 0.0
        per_verb = cli_replay(lib, tracer, loop)
        interpreter = [loop.probe(wall_of, [sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES)]
        imports = [loop.probe(fresh_python, IMPORT_CODE, str(SRC)) for _ in range(CLI_PROBES)]
        cli_metrics["cli.interpreter_s"] = statistics.median(interpreter)
        cli_metrics["cli.import_s"] = statistics.median(imports)
        cli_metrics.update({f"cli.main.{verb}.ms": ms for verb, ms in per_verb.items()})
    op_records = loop.traced_times[first_op:]
    traced_ops = len(op_records)
    # self times are scaled like the ops that contain them
    scale = sum(loop.scaled(op_records)) / sum(elapsed for _, elapsed in op_records)
    leftovers = tracer.leftovers()
    if leftovers:
        loop.failures.append(f"wrappers left installed: {leftovers}")

    self_s, calls = spans.self_times(tracer.spans, first_op)
    total_self = sum(self_s.values())
    metrics = {"numtheory.small_primes.self_s": (sieve_s, "s")}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / traced_ops, "s/op")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / traced_ops, "calls/op")
    hits = info_after.hits - info_before.hits
    lookups = hits + info_after.misses - info_before.misses
    metrics["numtheory.factorize.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    for name, metric in (("setmodel.is_gcd_closed", "pass_ratio"), ("tncore.check_tn_triple", "tn_ratio")):
        no, yes = tracer.outcomes[name]
        metrics[f"{name}.{metric}"] = (yes / (yes + no) if yes + no else 0.0, "ratio")
    for module in spans.MODULES:
        share = sum(v for name, v in self_s.items() if name.startswith(module + "."))
        metrics[f"{module}.self_share"] = (share / total_self, "ratio")
    metrics["bench.glue.self_share"] = (self_s.get(GLUE, 0.0) / total_self, "ratio")
    for name, value in cli_metrics.items():
        metrics[name] = (value, "ms" if name.endswith(".ms") else "s")
    metrics["python.gc_s"] = (tracer.gc_s / traced_ops, "s/op")
    metrics["trace.op_s"] = (sum(elapsed for _, elapsed in op_records) / traced_ops, "s/op")
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    metrics = {name: (value * scale if unit == "s/op" else value, unit)
               for name, (value, unit) in metrics.items()}
    extra = {
        "scale": scale,
        "traced_ops": traced_ops,
        "untraced_ops": len(loop.times),
        "self_s_per_op": {k: v * scale / traced_ops
                          for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])},
    }
    return metrics, extra


def write_spans(path: Path, tracer: spans.Tracer) -> None:
    with path.open("w") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(f'["{name}",{start!r},{end!r},{parent},{op}]\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gcdmat" / "__init__.py").is_file():
        print(f"error: no gcdmat sources under {SRC}", file=sys.stderr)
        return 2
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"error: cannot import gcdmat: {exc}", file=sys.stderr)
        return 2

    pin_to_current_cpu()
    workload = WORKLOADS[args.workload]
    loop = Loop(workload, lib, args.seed)
    tracer = None
    sieve_s = 0.0
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        sieve_s = loop.probe(wall_of_call, lib.numtheory.small_primes)
        tracer.remove()
    else:
        lib.numtheory.small_primes()
    warm_failures = len(loop.warm_up())

    if args.trace:
        metrics, extra = traced(loop, lib, tracer, args.seconds, sieve_s)
    else:
        metrics, extra = end_to_end(loop, args.seconds)
    attempted = len(loop.times) + len(loop.traced_times)
    failed = len(loop.failures)
    correct = failed == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "attempted": attempted, "failed": failed,
               "warmup_failures": warm_failures, "failures": loop.failures[:20],
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra}
    if workload.name == "gcd_closed_census":
        details["census"] = census_summary(loop.results)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        write_spans(OUT / f"{stem}.spans.jsonl", tracer)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"ops attempted {attempted}, failed {failed} (failed_ops_ratio {failed / max(attempted, 1):.4g})"
          + (f", warm-up failures {warm_failures}" if warm_failures else ""))
    if "samples" in extra:
        print(f"latency samples {extra['samples']}, {extra['samples_beyond_p90']} beyond p90")
    if "census" in details:
        print(f"census {json.dumps(details['census'])}")
    for reason in loop.failures[:5]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct and warm_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and warm_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
