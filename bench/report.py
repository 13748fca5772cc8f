"""Run every workload untraced and traced; print every end-to-end metric.

    python3 bench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Prints one row per workload with each end-to-end metric from BENCHMARK.json
(by name, with its unit), failed_ops_ratio, and the tracing overhead from the
traced run. Exits 1 when any answer check failed and 2 when a run could not
produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return proc.returncode, None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in metrics] + [
        "failed_ops_ratio", "trace.overhead_ratio"]
    print("  ".join(header))
    status = 0
    for workload in args.workload or names:
        row = [workload]
        code, plain = run_once(workload, args.seed, args.seconds, 0)
        _, traced = run_once(workload, args.seed, args.seconds, 1)
        if plain is None or traced is None:
            print(f"{workload}: no result")
            status = max(status, 2)
            continue
        row += [f"{plain['metrics'][m['name']]['value']:.5g}" for m in metrics]
        failed = plain["failed"] + traced["failed"]
        row.append(f"{failed / (plain['attempted'] + traced['attempted']):.4g}")
        row.append(f"{traced['metrics']['trace.overhead_ratio']['value']:.4g}")
        print("  ".join(row))
        if failed or not (plain["correct"] and traced["correct"]):
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
