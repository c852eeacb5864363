#!/usr/bin/env python3
"""Print a digest of every benchmark op's output.

For each seed and workload this builds the benchmark's scenario pool
(``perfbench/workloads.py``), writes its files to a temporary directory,
runs every op once through the benchmark's in-process CLI call, and prints
one line per op: ``seed workload op sha256``, the SHA-256 of the op's
stdout, or the op's failure in place of the digest.  Run it on two
checkouts and diff the output to show that a change leaves every op's
bytes as they were.

``--dump FILE`` also writes every op's stdout (or its failure) to FILE as a
JSON map keyed ``seed workload op``.  ``--against FILE`` prints, in place of
the digests, one line for each op whose output differs from such a dump:
the largest relative change of any number in its JSON output and the JSON
path where it occurs (``inf`` where the two differ in shape or in a value
that is not a number), then the signed relative change of the allocation
objective and its path when both outputs carry one (``objective``, or
``allocation.objective`` of ``report``), or the failure.

Exits 1 when any op fails, so that a run can gate on it; output that
merely moved still exits 0.

Usage:
    python3 scripts/op_digests.py
    python3 scripts/op_digests.py --workload alloc-coupled --seed 1
    python3 scripts/op_digests.py --dump before.json   # on the old checkout
    python3 scripts/op_digests.py --against before.json   # on the new one
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench")]

import workloads  # noqa: E402
from enbcds import cli  # noqa: E402
from harness import DEFAULT_SEED, HELD_OUT_SEED, call_cli  # noqa: E402
from run import WORKLOADS  # noqa: E402


def largest_change(old, new, path: str = "") -> tuple[float, str]:
    """Largest relative change ``|new - old| / max(|old|, |new|)`` between
    two parsed JSON documents, with the path of the number where it occurs;
    ``inf`` at the first place where they differ in shape or in a non-number."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = [largest_change(old[k], new[k], f"{path}/{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        parts = [largest_change(a, b, f"{path}/{i}") for i, (a, b) in enumerate(zip(old, new))]
    elif old == new or old != old and new != new:  # equal, or both NaN
        return 0.0, path or "/"
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        scale = max(abs(old), abs(new))
        return (abs(new - old) / scale if math.isfinite(scale) else math.inf), path or "/"
    else:
        return math.inf, path or "/"
    return max(parts, key=lambda part: part[0], default=(0.0, path or "/"))


def _value_at(doc, path: str):
    """The value at a JSON ``path`` such as ``/allocation/objective``, or None."""
    for key in path.split("/")[1:]:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def objective_change(old, new) -> tuple[float, str] | None:
    """Signed relative change ``(new - old) / max(|old|, |new|)`` of the
    allocation objective, with its path: the top-level ``objective``, or
    ``allocation.objective`` of ``report``; None unless both carry it."""
    for path in ("/objective", "/allocation/objective"):
        a, b = _value_at(old, path), _value_at(new, path)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            if a == b:
                return 0.0, path
            scale = max(abs(a), abs(b))
            return ((b - a) / scale if math.isfinite(scale) else math.copysign(math.inf, b - a)), path
    return None


def describe_change(old, new) -> str:
    """How an op's dumped output ``new`` differs from ``old``: each is its
    stdout text or ``{"failed": reason}``.  The largest relative change and
    its path, then, when both carry an allocation objective, its signed
    relative change and path."""
    if isinstance(new, dict):
        return f"failed: {new['failed']}"
    if old is None or isinstance(old, dict):
        return "missing from the dump" if old is None else f"was failed: {old['failed']}"
    try:
        old, new = json.loads(old), json.loads(new)
    except ValueError:
        return "output is not JSON"
    rel, path = largest_change(old, new)
    objective = objective_change(old, new)
    return f"{rel:.3g} {path}" + ("" if objective is None else " {:+.3g} {}".format(*objective))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help=f"benchmark seed, repeatable (default {DEFAULT_SEED} and {HELD_OUT_SEED})")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload, repeatable (default all)")
    parser.add_argument("--dump", metavar="FILE", help="also write every op's output to FILE as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="print how each op's output moved from a --dump FILE, in place of the digests")
    args = parser.parse_args(argv)
    before = None
    if args.against is not None:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)

    outputs = {}
    failed = False
    for seed in args.seed or (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in args.workload or WORKLOADS:
            pool = workloads.build_pool(workload, seed)
            with tempfile.TemporaryDirectory() as directory:
                paths = pool.write(directory)
                for op in pool.ops:
                    error, out = call_cli(cli.main, op.argv(paths[op.scenario]))
                    key = f"{seed} {workload} {op.name}"
                    failed = failed or error is not None
                    outputs[key] = {"failed": error} if error else out.decode("utf-8")
                    if before is None:
                        print(key, error or hashlib.sha256(out).hexdigest())
                    elif before.get(key) != outputs[key]:
                        print(key, describe_change(before.get(key), outputs[key]))
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
