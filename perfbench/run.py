#!/usr/bin/env python3
"""Benchmark for enbcds: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload alloc-separable --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each op is one in-process ``enbcds.cli.main([...])`` call on a scenario file
written during set-up, with stdout captured in memory; the next op starts
when the previous one returns.  The loop replays the workload's pool in a
fixed order and stops at the first pool-cycle boundary after the ops'
summed wall time reaches ``--seconds``, so every run weighs each pool item
equally.  Outputs are checked after the loop, outside the timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    P90_MIN_OPS,
    ROOT,
    SETUP_REPEATS,
    SRC,
    TESTS,
    WORK,
    HarnessError,
    call_cli,
    check_records,
    closed_loop,
    environment,
    has_wrong_output,
    item_times_ms,
    op_latencies_ms,
    ops_per_s,
    percentile,
    print_notes,
    time_import,
    time_parse,
)

WORKLOADS = ("alloc-separable", "alloc-coupled", "sample-mc", "query-mix")


# --------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    sys.path[:0] = [str(SRC), str(TESTS)]
    import_s = time_import(SETUP_REPEATS)

    from enbcds import cli

    import workloads

    pool = workloads.build_pool(workload, seed)
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        paths = pool.write(scratch)
        parse_s, setup_failed = time_parse(paths, SETUP_REPEATS)
        references = {}
        for i, op in enumerate(pool.ops):
            if op.command == "sample":  # the threads=1 run the report must match
                argv = op.argv(paths[op.scenario])
                error, out = call_cli(cli.main, argv[: argv.index("--threads")] + ["--threads", "1"])
                if error is not None:
                    raise HarnessError(f"reference run of {op.name} failed: {error}")
                references[i] = out
        setup_s = statistics.median(import_s) + statistics.median(parse_s)

        print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(traced)}")
        print("env " + json.dumps(environment(seed), sort_keys=True))
        print("inputs " + json.dumps(pool.digests(), sort_keys=True))
        for name, exc in sorted(setup_failed.items()):
            print(f"setup: scenario {name} fails to parse ({exc})")

        if traced:
            import tracing

            result = tracing.traced_run(pool, paths, seconds, cli, references, workload, seed)
        else:
            records, wall = closed_loop(pool.ops, paths, seconds, cli.main)
            failures, notes = check_records(pool, records, references)
            result = summarize(pool, records, wall, failures, setup_s)
            print_notes(notes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def summarize(pool, records, wall: float, failures: dict[int, str], setup_s: float) -> dict:
    attempted = len(records)
    failed = len(failures)
    lat = op_latencies_ms(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "ops_per_s": (ops_per_s(records, failures, len(pool.ops)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<12} {value:>12.4f} {unit}")
    if lat["op_p90_ms"] is None:
        print(f"{'op_p90_ms':<12} {'n/a':>12} ms  ({attempted} ops < {P90_MIN_OPS})")
    else:
        print(f"{'op_p90_ms':<12} {lat['op_p90_ms']:>12.4f} ms")
    print(f"{'fail_share':<12} {failed / attempted:>12.4f} ratio  ({failed} failed of {attempted} attempted)")
    print(f"loop: {attempted} ops in {wall:.3f} s of wall time, {attempted // len(pool.ops)} pool cycles")
    slow = [r.slowdown for r in records]
    print(f"host slowdown: median {statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f} "
          "(times above are at the reference host speed; the item lines give wall time too)")
    wall_ms: dict[int, list[float]] = {}
    for r in records:
        wall_ms.setdefault(r.index, []).append(r.ns / 1e6)
    for i, ms in item_times_ms(records).items():
        print(f"item {pool.ops[i].name:<36} median {percentile(ms, 50):>10.3f} ms "
              f"(wall {percentile(wall_ms[i], 50):>10.3f} ms)")
    reasons: dict[tuple[str, str], int] = {}
    for k, why in failures.items():
        key = (pool.ops[records[k].index].name, why)
        reasons[key] = reasons.get(key, 0) + 1
    for (name, why), count in sorted(reasons.items()):
        print(f"failed: {name} x{count}: {why}")
    return {
        "correct": not has_wrong_output(failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# --------------------------------------------------------------------------
# command line


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum timed loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)
    if not (SRC / "enbcds" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: enbcds sources not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
