"""Traced run: per-layer metrics from spans recorded in the benchmark's own code.

The run has three parts.  An untraced closed loop and a traced closed loop
replay the same ops for half of ``--seconds`` each; the ratio of their
``ops_per_s`` is the tracing overhead.  In the traced loop each op is a
``cli`` span around ``enbcds.cli.main``, and the library entry points that
the CLI module calls (``CLI_BOUNDARY``) are rebound, for the loop only, to
wrappers that open a child span per call; the program's files are not
touched.  Then the layer probes time the benchmark's own direct calls into
the public functions of each module, on the workload's pool where a metric
names it and on a probe kit generated from the seed otherwise.

Spans stay in memory and are written as JSON lines to
``.bench_work/trace-<workload>-seed<seed>.jsonl`` when the run ends.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import statistics
import time

from enbcds.evaluate import EvalContext, enb, enbcds_curve, expected_cyber_cost
from enbcds.io import portfolio_from_dict, portfolio_to_dict
from enbcds.model import restrict_portfolio, validate_portfolio
from enbcds.optimize import allocate, optimal_spend
from enbcds.sensitivity import sample

from checks import actual_spends, kkt_spread
from harness import WORK, check_records, closed_loop, has_wrong_output, ops_per_s, print_notes
from workloads import SAMPLE_THREADS, probe_kit

# names in enbcds.cli -> the layer whose public function they are
CLI_BOUNDARY = {
    "parse_scenario": "io",
    "EvalContext": "evaluate",
    "enb": "evaluate",
    "enbcds_curve": "evaluate",
    "optimal_spend": "optimize",
    "allocate": "optimize",
    "sample": "sensitivity",
}
COUNTED_LAYERS = ("model", "evaluate")  # probes here are timed to failure and counted


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int  # id of the root span of the stack this span belongs to
    name: str
    layer: str
    start_ns: int
    end_ns: int
    error: str | None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        op = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        error = None
        start = time.perf_counter_ns()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, parent, op, name, layer, start, end, error))

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part covered by its direct children
    (spans of one thread nest, so children never overlap)."""
    own = {s.id: s.ns for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.ns
    return own


# --------------------------------------------------------------------------
# traced closed loop


def traced_loop(pool, paths, seconds: float, cli, tracer: Tracer):
    originals = {name: getattr(cli, name) for name in CLI_BOUNDARY if hasattr(cli, name)}

    def main(argv):
        with tracer.span(f"cli.{argv[1]}", "cli"):
            return cli.main(argv)

    try:
        for name, fn in originals.items():
            setattr(cli, name, tracer.wrap(fn, name, CLI_BOUNDARY[name]))
        return closed_loop(pool.ops, paths, seconds, main)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


# --------------------------------------------------------------------------
# layer probes


class Probes:
    """Times direct calls into one layer; each repeat is one span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.na: dict[str, str] = {}
        self.failures = {layer: 0 for layer in COUNTED_LAYERS}

    def time(self, name, layer, fn, *, unit="ms", repeats=3, calls=1, setup=None):
        """Median over ``repeats`` of the per-call time of ``fn``; returns
        the last result.  ``setup()`` runs before each repeat, outside the
        span, and its value is passed to ``fn``.  A probe that raises counts
        one failure of its layer and is timed to failure; outside the
        counted layers its metric becomes n/a."""
        per_call, result, failed = [], None, False
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6}[unit]
        for _ in range(repeats):
            args = (setup(),) if setup else ()
            try:
                with self.tracer.span(name, layer):
                    for _ in range(calls):
                        result = fn(*args)
            except Exception as exc:  # a failed layer call, reported below
                if layer not in COUNTED_LAYERS:
                    self.na[name] = f"raised {type(exc).__name__}"
                    return None
                failed = True
            per_call.append(self.tracer.spans[-1].ns / calls / scale)
        if failed:
            self.failures[layer] += 1
        self.metrics[name] = (statistics.median(per_call), unit)
        return result

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


def _sweep_counts(result, p) -> tuple[int, float]:
    """Sweeps of the kept refinement and the share that raised the objective
    by more than the solver's own tolerance (1e-9 of the summed f(0))."""
    history = result.sweep_objectives
    sweeps = len(history) - 1
    tol = 1e-9 * max(1.0, sum(expected_cyber_cost(x, 0.0) for x in p.gdfs))
    useful = sum(1 for a, b in zip(history, history[1:]) if b - a > tol)
    return sweeps, (useful / sweeps if sweeps else 0.0)


def layer_probes(pool, seed: int, tracer: Tracer) -> Probes:
    kit = probe_kit(seed)
    pr = Probes(tracer)

    # model: breach kernel, lookups, validation of the workload's own pool
    for fam, attack in kit["breach"].items():
        s = 0.25 * attack.baseline_prob * attack.loss
        b, base = attack.breach, attack.baseline_prob
        pr.time(f"model.breach_ns.{fam}", "model", lambda: b.multiplier(s, base),
                unit="ns", repeats=5, calls=20000)
        if fam != "table":  # Table has no analytic slope
            pr.time(f"model.breach_slope_ns.{fam}", "model", lambda: b.multiplier_derivative(s, base),
                    unit="ns", repeats=5, calls=20000)
    portfolios = [sc.portfolio for sc in pool.scenarios.values()]
    per_portfolio = []
    for p in portfolios:
        pr.time("model.validate_ms", "model", lambda: validate_portfolio(p))
        per_portfolio.append(pr.metrics.pop("model.validate_ms")[0])
    pr.put("model.validate_ms", statistics.fmean(per_portfolio), "ms")
    largest = max(portfolios, key=lambda p: len(p.gdfs))
    last = largest.gdfs[-1].id
    pr.time("model.gdf_lookup_us", "model", lambda: largest.gdf(last), unit="us", calls=200)
    pr.time("model.parents_of_us", "model", lambda: largest.parents_of(last), unit="us", calls=200)
    half = largest.ids()[::2]
    pr.time("model.restrict_ms", "model", lambda: restrict_portfolio(largest, half), repeats=5)
    pr.put("model.failed", pr.failures["model"], "count")

    # io: rebuilding a drawn portfolio, as every Monte Carlo draw does
    drawn = portfolio_to_dict(kit["sample"].portfolio)
    pr.time("io.from_dict_ms", "io", lambda: portfolio_from_dict(drawn), repeats=5, calls=10)

    # evaluate: standalone, coupled, fan-in and chain sinks, context builds
    x = kit["standalone"]
    s = 0.3 * expected_cyber_cost(x, 0.0)
    pr.time("evaluate.enb_us", "evaluate", lambda: enb(x, s), unit="us", calls=2000)
    chain = kit["chain-d256"]
    sp = actual_spends(chain)
    pr.time("evaluate.context_ms", "evaluate", lambda: EvalContext(chain, sp), repeats=5)
    for name, key in (
        ("evaluate.coupled_enb_ms", "coupled"),
        ("evaluate.fanin_enb_ms.k8", "star-k8"),
        ("evaluate.fanin_enb_ms.k12", "star-k12"),
        ("evaluate.chain_enb_ms.d256", "chain-d256"),
        ("evaluate.chain_enb_ms.d1024", "chain-d1024"),
    ):
        p = kit[key]
        sink, spends = p.gdfs[-1], actual_spends(p)
        pr.time(name, "evaluate", lambda ctx: enb(sink, spends[sink.id], ctx),
                setup=lambda: EvalContext(p, spends))
    star = kit["star-k8"]
    pr.time("evaluate.curve_ms", "evaluate", lambda ctx: enbcds_curve(star.gdfs[-1], context=ctx),
            setup=lambda: EvalContext(star, actual_spends(star)))
    pr.put("evaluate.failed", pr.failures["evaluate"], "count")

    # optimize: single-GDF peak, water-filling with and without a binding
    # budget, coupled refinement, literal-mode grid
    pr.time("optimize.optimal_spend_ms", "optimize", lambda: optimal_spend(x), repeats=5)
    sep = kit["separable"]
    slack = dataclasses.replace(sep, budget=None)
    pr.time("optimize.allocate_slack_ms", "optimize", lambda: allocate(slack))
    bound = pr.time("optimize.allocate_bind_ms", "optimize", lambda: allocate(sep))
    coupled = kit["coupled"]
    refined = pr.time("optimize.allocate_coupled_ms", "optimize", lambda: allocate(coupled))
    lit = kit["literal"]
    pr.time("optimize.allocate_literal_ms", "optimize", lambda: allocate(lit, mode="literal"))
    if bound is not None:
        pr.put("optimize.dropped", len(bound.dropped), "count")
    if refined is not None:
        sweeps, useful = _sweep_counts(refined, coupled)
        pr.put("optimize.iterations", refined.iterations, "count")
        pr.put("optimize.sweeps", sweeps, "count")
        pr.put("optimize.sweep_useful_ratio", useful, "ratio")
        pr.put("optimize.kkt_spread_rel", kkt_spread(refined.marginal_at_solution, refined.interior), "ratio")

    # sensitivity: per-draw cost of each quantity, and what a second thread buys
    sf = kit["sample"]
    for quantity, draws in (("params", 256), ("enbcds", 32), ("s_star", 8), ("allocation", 8)):
        name = f"sensitivity.draw_{quantity}_ms"
        pr.time(name, "sensitivity", lambda: sample(
            sf.portfolio, sf.uncertainty, draws=draws, seed=0, quantities=(quantity,)))
        if name in pr.metrics:
            pr.put(name, pr.metrics[name][0] / draws, "ms")
    walls = []
    for t in (1, SAMPLE_THREADS):
        name = f"sensitivity.sample_t{t}_ms"
        pr.time(name, "sensitivity", lambda: sample(sf.portfolio, sf.uncertainty, draws=8, seed=0, threads=t))
        walls.append(pr.metrics.pop(name, (None,))[0])
    if None in walls:
        pr.na["sensitivity.thread_ratio"] = "a sample run raised"
    else:
        pr.put("sensitivity.thread_ratio", walls[0] / walls[1], "ratio")
    return pr


# --------------------------------------------------------------------------
# the whole traced run


def traced_run(pool, paths, seconds, cli, references, workload, seed) -> dict:
    half = seconds / 2.0
    plain, _ = closed_loop(pool.ops, paths, half, cli.main)
    tracer = Tracer()
    traced, _ = traced_loop(pool, paths, half, cli, tracer)
    loop_spans = list(tracer.spans)
    probes = layer_probes(pool, seed, tracer)
    checked = [check_records(pool, records, references) for records in (plain, traced)]
    failures = [f for f, _ in checked]

    own = self_times(loop_spans)
    ops = [s for s in loop_spans if s.parent is None]
    per_layer: dict[str, int] = {}
    for s in loop_spans:
        per_layer[s.layer] = per_layer.get(s.layer, 0) + own[s.id]
    self_ms = {layer: ns / len(ops) / 1e6 for layer, ns in per_layer.items()}
    parses = [s.ns / 1e6 for s in loop_spans if s.name == "parse_scenario"]
    if parses:
        probes.put("io.parse_ms", statistics.median(parses), "ms")
    else:
        probes.na["io.parse_ms"] = "no parse_scenario call at the CLI boundary"
    probes.put("cli.overhead_ms", statistics.median(own[s.id] for s in ops) / 1e6, "ms")
    rate = [ops_per_s(records, fail, len(pool.ops)) for records, fail in zip((plain, traced), failures)]
    probes.put("trace.ops_per_s_ratio", rate[1] / rate[0], "ratio")
    for name in sorted(set(CLI_BOUNDARY) - {n for n in CLI_BOUNDARY if hasattr(cli, n)}):
        probes.na[f"span.{name}"] = f"enbcds.cli no longer calls {name}"

    out = WORK / f"trace-{workload}-seed{seed}.jsonl"
    own_all = self_times(tracer.spans)
    with open(out, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"kind": "span", **dataclasses.asdict(s), "self_ns": own_all[s.id]}) + "\n")
        for layer, ms in self_ms.items():
            fh.write(json.dumps({"kind": "self_ms_per_op", "layer": layer, "value": ms}) + "\n")
        for name, (value, unit) in probes.metrics.items():
            fh.write(json.dumps({"kind": "metric", "name": name, "value": value, "unit": unit}) + "\n")
        for name, reason in probes.na.items():
            fh.write(json.dumps({"kind": "n/a", "name": name, "reason": reason}) + "\n")

    print(f"untraced loop: {len(plain)} ops, {rate[0]:.4f} ops/s; traced loop: {len(traced)} ops, {rate[1]:.4f} ops/s")
    for layer, ms in self_ms.items():
        print(f"self_ms_per_op.{layer:<12} {ms:>12.4f} ms")
    for name, (value, unit) in probes.metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    for name, reason in probes.na.items():
        print(f"{name:<32} {'n/a':>14} ({reason})")
    print(f"spans: {out.relative_to(WORK.parent)}")
    print_notes(checked[1][1])
    return {
        "correct": not any(has_wrong_output(f) for f in failures),
        "attempted": len(plain) + len(traced),
        "failed": sum(len(f) for f in failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in probes.metrics.items()},
    }
