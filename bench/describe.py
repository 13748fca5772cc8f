"""Measure the input properties each workload relies on.

    python3 bench/describe.py [--seed N]

Prints JSON: size distributions, the TN share, element sizes, the census
range's gcd-closed and TN shares, and the sieve split of the CLI verbs. All
of it is computed with the benchmark's own code; gcdmat is not imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
from collections import Counter

import checks
import inputs

TIMED_OPS = 200  # more ops than any run of the two matrix workloads reaches


def shares(values) -> dict:
    counts = Counter(values)
    return {str(k): round(v / len(values), 4) for k, v in sorted(counts.items())}


def bits(sets) -> dict:
    sizes = [max(s).bit_length() for s in sets]
    return {"median": statistics.median(sizes), "max": max(sizes)}


def describe(seed: int) -> dict:
    tn = list(itertools.islice(inputs.tn_inputs(seed), TIMED_OPS))
    divide = list(itertools.islice(inputs.divide_inputs(seed), TIMED_OPS))
    random_half, grid_half = divide[0::2], divide[1::2]
    census_m = list(inputs.census_inputs(seed))
    closed = tn_closed = 0
    for m in census_m:
        divs = checks.divisors(m)
        for size in inputs.CENSUS_SIZES:
            for lower in itertools.combinations(divs[:-1], size - 1):
                x = lower + (m,)
                if all(math.gcd(a, b) in x for a, b in itertools.combinations(x, 2)):
                    closed += 1
                    tn_closed += inputs.is_tn_triple(x)
    cli = list(itertools.islice(inputs.cli_inputs(seed), 7 * 30))
    return {
        "seed": seed,
        "tn_reorder_closed_forms": {
            "ops_described": len(tn),
            "n_share": shares([len(s.elements) for s in tn]),
            "k_share": shares([len(s.primes) for s in tn]),
            "share_k_at_least_9": round(sum(len(s.primes) >= 9 for s in tn) / len(tn), 4),
            "share_tn_as_shuffled": round(sum(inputs.is_tn_triple(s.elements) for s in tn) / len(tn), 4),
            "element_bits": bits([s.elements for s in tn]),
        },
        "divide_general": {
            "ops_described": len(divide),
            "n_share": shares([len(s) for s in divide]),
            "share_tn": round(sum(inputs.is_tn_triple(s) for s in divide) / len(divide), 4),
            "random_half_element_bits": bits(random_half),
            "grid_half_element_bits": bits(grid_half),
            "random_half_share_gcd_1": round(
                sum(math.gcd(a, b) == 1 for s in random_half for a, b in itertools.combinations(s, 2))
                / sum(len(s) * (len(s) - 1) // 2 for s in random_half), 4),
        },
        "gcd_closed_census": {
            "m_range": [min(census_m), max(census_m)],
            "seeds_m": len(census_m),
            "gcd_closed_candidates": closed,
            "share_tn_among_gcd_closed": round(tn_closed / closed, 4),
            "divisor_count_share": shares([len(checks.divisors(m)) for m in census_m]),
        },
        "cli_requests": {
            "verb_share": shares([r.verb for r in cli]),
            "share_sieve_verbs": round(sum(r.verb in inputs.SIEVE_VERBS for r in cli) / len(cli), 4),
        },
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    print(json.dumps(describe(parser.parse_args(argv).seed), indent=1))


if __name__ == "__main__":
    main()
