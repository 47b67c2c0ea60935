"""Regenerate the committed grid reference digests.

    python3 perfbench/make_reference.py replay-grid 0 31 --jobs 2

For each seed the golden rows come from the per-point path
(``EngineConfig(batch=False)``), and each (code, p) group's simulated
columns are stored as a short SHA-256 digest in
``perfbench/reference/<workload>.json``.  Existing seeds are kept, so
the range can be extended in several runs.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, grids  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=grids.WORKLOADS)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--jobs", type=int, default=1,
                        help="reference processes to run at once")
    args = parser.parse_args(argv)
    common.require_program()
    path = grids.reference_path(args.workload)
    doc = common.read_json(path) if path.is_file() else {
        "format": 1,
        "workload": args.workload,
        "golden_path": "run_grid(points, EngineConfig(batch=False))",
        "digest": "sha256(json rows of SweepPoint.simulated_key(), per group)[:16]",
        "seeds": {},
    }
    todo = [s for s in range(args.first, args.last + 1) if str(s) not in doc["seeds"]]

    def one(seed: int) -> tuple[int, dict | None]:
        out = grids.spawn_child("reference", args.workload, seed, False, 3600.0)
        if out is None:
            return seed, None
        return seed, grids.group_digests(out)

    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        for seed, digests in pool.map(one, todo):
            if digests is None:
                common.log(f"seed {seed}: reference run failed")
                return 1
            doc["seeds"][str(seed)] = digests
            doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
            common.write_json(path, doc)
            common.log(f"seed {seed}: {len(digests)} groups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
