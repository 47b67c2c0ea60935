#!/usr/bin/env python
"""Compare replacement policies on a recovery workload (mini Figure 8/9).

Generates a synthetic partial-stripe-error trace for each code, then
replays the recovery request stream against all nine registered policies
(the paper's four baselines, FBF, and the related-work extras) across a
sweep of cache sizes, printing hit ratio and disk-read tables.

Run:  python examples/cache_policy_comparison.py [--code tip] [--p 7]
"""

import argparse

from repro import available_codes, make_code
from repro.cache import available_policies
from repro.engine import PlanCache, XORBackend, simulate_trace
from repro.workloads import ErrorTraceConfig, generate_errors

# smallest size = WORKERS: a cache smaller than the SOR worker count
# cannot be split evenly and the engine rejects the partition
CACHE_BLOCKS = (8, 16, 32, 64, 128, 256)
WORKERS = 8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", default="tip", choices=available_codes())
    parser.add_argument("--p", type=int, default=7)
    parser.add_argument("--errors", type=int, default=120)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    layout = make_code(args.code, args.p)
    errors = generate_errors(
        layout, ErrorTraceConfig(n_errors=args.errors, seed=args.seed)
    )
    plans = PlanCache(XORBackend(layout, "fbf"))
    policies = sorted(available_policies())

    print(f"{layout.name} p={args.p}, {args.errors} partial stripe errors, "
          f"{WORKERS} SOR workers (cache split evenly)\n")

    header = f"{'blocks':>7} " + " ".join(f"{p:>7}" for p in policies)
    print("hit ratio")
    print(header)
    results = {}
    for blocks in CACHE_BLOCKS:
        row = [f"{blocks:>7}"]
        for pol in policies:
            res = simulate_trace(
                plans.backend, errors, policy=pol, capacity_blocks=blocks,
                workers=WORKERS, plan_cache=plans,
            )
            results[(blocks, pol)] = res
            row.append(f"{res.hit_ratio:>7.3f}")
        print(" ".join(row))

    print("\ndisk reads")
    print(header)
    for blocks in CACHE_BLOCKS:
        row = [f"{blocks:>7}"]
        for pol in policies:
            row.append(f"{results[(blocks, pol)].disk_reads:>7d}")
        print(" ".join(row))

    # Summarize FBF's edge over the paper's baselines.
    print("\nmax FBF improvement on hit ratio:")
    for baseline in ("fifo", "lru", "lfu", "arc"):
        best = max(
            (results[(b, "fbf")].hit_ratio - results[(b, baseline)].hit_ratio)
            / max(results[(b, baseline)].hit_ratio, 1e-9)
            for b in CACHE_BLOCKS
            if results[(b, baseline)].hit_ratio > 0
        )
        print(f"  vs {baseline:5s}: {best:7.1%}")


if __name__ == "__main__":
    main()
