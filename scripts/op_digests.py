#!/usr/bin/env python3
"""Print a digest of every benchmark op's output.

For each seed and workload this builds the benchmark's scenario pool
(``perfbench/workloads.py``), writes its files to a temporary directory,
runs every op once through the benchmark's in-process CLI call, and prints
one line per op: ``seed workload op sha256``, the SHA-256 of the op's
stdout, or the op's failure in place of the digest.  Run it on two
checkouts and diff the output to show that a change leaves every op's
bytes as they were.

Usage:
    python3 scripts/op_digests.py
    python3 scripts/op_digests.py --workload alloc-coupled --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench")]

import workloads  # noqa: E402
from enbcds import cli  # noqa: E402
from harness import DEFAULT_SEED, HELD_OUT_SEED, call_cli  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help=f"benchmark seed, repeatable (default {DEFAULT_SEED} and {HELD_OUT_SEED})")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload, repeatable (default all)")
    args = parser.parse_args(argv)

    for seed in args.seed or (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in args.workload or WORKLOADS:
            pool = workloads.build_pool(workload, seed)
            with tempfile.TemporaryDirectory() as directory:
                paths = pool.write(directory)
                for op in pool.ops:
                    error, out = call_cli(cli.main, op.argv(paths[op.scenario]))
                    print(seed, workload, op.name, error or hashlib.sha256(out).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
