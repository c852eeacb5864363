"""Shared machinery of the benchmark: running ops in a closed loop, checking
their outputs, timing set-up, and the statistics every result reports."""
from __future__ import annotations

import bisect
import contextlib
import gc
import io
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20201229  # confirm claims on this seed, never tune on it
SETUP_REPEATS = 15
P90_MIN_OPS = 100
WRONG = "wrong output"  # prefix of the failure reason of an op that failed its check


class HarnessError(Exception):
    """The benchmark itself misbehaved; the run is aborted without a result."""


@dataclass(frozen=True)
class Record:
    """One attempted op: pool index, wall time (less the host-speed samples
    taken inside it), how it ended, and the host slowdown over it."""

    index: int
    ns: int
    error: str | None  # None when main() returned 0
    out: bytes
    slowdown: float = 1.0

    @property
    def ref_ns(self) -> float:
        """The op's wall time at the reference host speed."""
        return self.ns / self.slowdown


# --------------------------------------------------------------------------
# host speed
#
# On a shared host the same op runs up to 2x slower for seconds to minutes
# at a time, and CPU time slows as much as wall time.  Every timing metric
# is therefore reported at a reference host speed.  While the op loop or
# a set-up timing runs, an interval timer interrupts the main thread every SAMPLE_S seconds
# to time one calibration round, a fixed piece of pure-Python work that
# uses nothing of enbcds, in thread CPU time (so that an op's own worker
# threads holding the interpreter lock do not count).  A timed stretch,
# less the rounds that ran inside it, is divided by the host slowdown: the
# mean round time over the stretch, over CAL_REF_NS.


SAMPLE_S = 0.05
MIN_SAMPLES = 3
CAL_REF_NS = 400_000  # one round's CPU time on a quiet 2-vCPU x86_64 VM, Python 3.11


class _Decay:
    __slots__ = ("scale", "rate")

    def __init__(self, scale: float, rate: float):
        self.scale = scale
        self.rate = rate

    def at(self, x: float) -> float:
        return self.scale * math.exp(-self.rate * x)


def _calibration_round() -> float:
    """Interpreter-bound work shaped like the solver's: float arithmetic,
    method calls on small objects, ``math`` calls and a dict."""
    curves = [_Decay(1.0 + 0.01 * i, 0.001 * (i + 1)) for i in range(64)]
    acc, seen = 0.0, {}
    for k in range(40):
        x = 0.5 * k
        for c in curves:
            v = c.at(x)
            acc += v * v / (1.0 + v)
        seen[k] = acc
    return acc


class HostSpeed:
    """Context manager that samples the host speed while it is active.

    Each sample is (wall start, wall ns, CPU ns) of one calibration round.
    One round runs on entry and one on exit, so every stretch timed inside
    has samples on both sides.
    """

    def __init__(self):
        self.samples: list[tuple[int, int, int]] = []
        self._starts: list[int] = []
        self._previous = None
        self._busy = False

    def _round(self, *_) -> None:
        if self._busy:  # the timer fired again inside a round: skip, keeping samples in order
            return
        self._busy = True
        try:
            t0, c0 = time.perf_counter_ns(), time.thread_time_ns()
            _calibration_round()
            c1, t1 = time.thread_time_ns(), time.perf_counter_ns()
            self.samples.append((t0, t1 - t0, c1 - c0))
            self._starts.append(t0)
        except RecursionError:  # the op was near the recursion limit: no sample
            pass
        finally:
            self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._round()
        self._previous = signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._round()

    def stretch(self, t0: int, t1: int) -> tuple[int, float]:
        """For a stretch timed from ``t0`` to ``t1`` (perf_counter_ns):
        its wall ns less the rounds that ran inside it, and the host
        slowdown over it, taken from the rounds inside or, when fewer than
        MIN_SAMPLES ran inside, from the MIN_SAMPLES rounds nearest to it."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        own = (t1 - t0) - sum(wall for _, wall, _ in self.samples[lo:hi])
        while hi - lo < min(MIN_SAMPLES, len(self.samples)):
            before = t0 - self._starts[lo - 1] if lo > 0 else None
            after = self._starts[hi] - t1 if hi < len(self.samples) else None
            if after is None or (before is not None and before <= after):
                lo -= 1
            else:
                hi += 1
        cpu = statistics.fmean(c for _, _, c in self.samples[lo:hi])
        return own, cpu / CAL_REF_NS


# --------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def item_times_ms(records) -> dict[int, list[float]]:
    """Pool index -> wall times of that item's ops, failed ones included
    with their time to failure."""
    by_item: dict[int, list[float]] = {}
    for r in records:
        by_item.setdefault(r.index, []).append(r.ref_ns / 1e6)
    return dict(sorted(by_item.items()))


def op_latencies_ms(records) -> dict[str, float | None]:
    """Op times at the reference host speed.

    ``op_p50_ms``: each pool item's median op time, averaged over the
    pool items.  Every input size weighs the same, and a slow stretch of the
    host that hits a few ops moves no item's median.  (A median pooled over
    all ops sits in the gap between two input sizes, where a few slowed ops
    move it by the width of the gap.)  ``op_p90_ms``: the 90th percentile
    over all attempted ops, only when at least P90_MIN_OPS ops ran.  Failed
    ops count with their time to failure in both."""
    ms = [r.ref_ns / 1e6 for r in records]
    return {
        "op_p50_ms": statistics.fmean(percentile(v, 50) for v in item_times_ms(records).values()),
        "op_p90_ms": percentile(ms, 90) if len(ms) >= P90_MIN_OPS else None,
    }


def ops_per_s(records, failures, pool_size: int) -> float:
    """Ops that passed, per second of op time at the reference host speed,
    taken per pool cycle and the median over the run's cycles.  Every cycle
    weighs each pool item once, and a cycle that the host slowed as a whole
    is outvoted."""
    rates = []
    for start in range(0, len(records), pool_size):
        cycle = range(start, start + pool_size)
        passed = sum(1 for k in cycle if k not in failures)
        rates.append(passed / (sum(records[k].ref_ns for k in cycle) / 1e9))
    return statistics.median(rates)


# --------------------------------------------------------------------------
# running ops


def call_cli(main, argv: list[str]) -> tuple[str | None, bytes]:
    """Run ``main(argv)`` with stdout and stderr captured in memory."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the benchmark's own argv
        raise HarnessError(f"usage error for {argv}: {err.getvalue().strip()}") from exc
    except Exception as exc:  # the program raised: a failed op, not a harness error
        return f"raised {type(exc).__name__}", b""
    out.flush()
    if rc != 0:
        return f"exit {rc}: {err.getvalue().strip()[:200]}", b""
    return None, out.buffer.getvalue()


def closed_loop(ops, paths, seconds: float, main) -> tuple[list[Record], float]:
    """Replay ``ops`` in order until their summed wall time reaches
    ``seconds``, finishing the pool cycle in progress.  Returns the records
    and that summed time.

    Each op starts from a collected heap: a CLI call runs in a fresh
    process, so the garbage of earlier ops and the benchmark's own objects
    must not make its collections slower.  The collection runs outside the
    op's timing.  The host speed is sampled throughout (see HostSpeed).
    """
    gc.collect()
    gc.freeze()  # the pools and records stay out of every later collection
    timed = []
    busy = 0
    with HostSpeed() as host:
        while busy < seconds * 1e9:
            for i, op in enumerate(ops):
                argv = op.argv(paths[op.scenario])
                gc.collect()
                t0 = time.perf_counter_ns()
                error, out = call_cli(main, argv)
                t1 = time.perf_counter_ns()
                busy += t1 - t0
                timed.append((i, t0, t1, error, out))
    gc.unfreeze()
    records = []
    for i, t0, t1, error, out in timed:
        ns, slow = host.stretch(t0, t1)
        records.append(Record(i, ns, error, out, slow))
    return records, busy / 1e9


def has_wrong_output(failures: dict[int, str]) -> bool:
    """True when some op returned a wrong answer (not merely raised)."""
    return any(why.startswith(WRONG) for why in failures.values())


def check_records(pool, records, references) -> tuple[dict[int, str], dict[str, list[str]]]:
    """Check every op output.  Returns record position -> failure reason,
    and op name -> notes on outputs that passed.

    An output byte-identical to one already checked for the same pool item
    shares its verdict, so each distinct output is checked once.
    """
    from checks import CheckFailed, check_output

    verdicts: dict[tuple[int, bytes], str | None] = {}
    failures: dict[int, str] = {}
    notes: dict[str, list[str]] = {}
    for k, r in enumerate(records):
        if r.error is not None:
            failures[k] = r.error
            continue
        key = (r.index, r.out)
        if key not in verdicts:
            op = pool.ops[r.index]
            try:
                found = check_output(op, pool.scenarios[op.scenario].portfolio, r.out, references.get(r.index))
                verdicts[key] = None
                if found:
                    notes.setdefault(op.name, []).extend(found)
            except CheckFailed as exc:
                verdicts[key] = f"{WRONG}: {exc}"
        if verdicts[key] is not None:
            failures[k] = verdicts[key]
    return failures, notes


def print_notes(notes: dict[str, list[str]]) -> None:
    for name, found in sorted(notes.items()):
        for note in found:
            print(f"note: {name}: {note}")


# --------------------------------------------------------------------------
# set-up


def time_import(repeats: int) -> list[float]:
    """Seconds to ``import enbcds`` in fresh interpreters (each waited for),
    at the reference host speed.

    The importing thread's CPU time is taken, not its wall time: the wall
    time of a fresh interpreter's import also holds waits of tens of
    milliseconds that come and go with the host and that the calibration
    rounds, which run on a warm process, do not see.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.thread_time(); "
        "import enbcds; print(time.thread_time() - t)"
    )
    timed = []
    with HostSpeed() as host:
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            done = subprocess.run(
                [sys.executable, "-c", code, str(SRC)],
                cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
            )
            t1 = time.perf_counter_ns()
            if done.returncode != 0:
                raise HarnessError(f"import enbcds failed: {done.stderr.strip()}")
            timed.append((float(done.stdout.strip()), t0, t1))
    return [s / host.stretch(t0, t1)[1] for s, t0, t1 in timed]


def time_parse(paths: dict[str, str], repeats: int) -> tuple[list[float], dict[str, str]]:
    """Seconds to read, parse and validate every scenario file once, per
    repeat, at the reference host speed; scenarios that fail map to the
    exception name."""
    from enbcds.io import parse_scenario

    timed, failed = [], {}
    with HostSpeed() as host:
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for name, path in paths.items():
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                try:
                    parse_scenario(text)
                except Exception as exc:  # counted, like a failed op
                    failed[name] = type(exc).__name__
            timed.append((t0, time.perf_counter_ns()))
    times = []
    for t0, t1 in timed:
        ns, slow = host.stretch(t0, t1)
        times.append(ns / slow / 1e9)
    return times, failed


def environment(seed: int) -> dict:
    import numpy

    from workloads import SAMPLE_THREADS

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "commit": git_commit(),
        "threads": SAMPLE_THREADS,
        "ENBCDS_THREADS": os.environ.get("ENBCDS_THREADS"),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown (git not found)"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]
