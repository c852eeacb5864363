"""Deterministic scenario pools and op lists for the benchmark workloads.

Every pool is a pure function of the benchmark seed: the same seed writes
byte-identical scenario files, whose SHA-256 digests go into each result so
that two commits can be shown to have run the same inputs.  Portfolios are
built with the random-model generators of ``tests/oracles.py`` and written
with this module's own serializer, so the input bytes do not depend on the
library's I/O code.

A generated portfolio takes its structure and values from a structure
seed, and the benchmark seed then scales every GDF's margin (benefit less
direct and non-cyber costs) by a factor within JITTER of 1.  The margin is
a constant offset of a GDF's net-benefit curve: it changes every reported
value and every digest, but not the solver's path.  Independently drawn
portfolios differ up to 2x in solver work, and even a 2 % change of losses
and probabilities moved the coupled refinement between 5 and 7 sweeps,
spreading op times by a quarter between seeds.  Every seed shares the
structure seed STRUCTURE_SEED except the held-out seed, which draws its
structures from HELD_OUT_STRUCTURE_SEED, so that confirming a claim on it
runs structures no change was tuned on.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from enbcds.io import bundled_scenario_names, bundled_scenario_text, parse_scenario
from enbcds.model import (
    DependencyEdge,
    Exponential,
    Gdf,
    GordonLoebI,
    GordonLoebII,
    Portfolio,
    Table,
)
from harness import HELD_OUT_SEED
from oracles import ALL_FAMILIES, PARAMETRIC, oracle_enb, oracle_f, oracle_noncyber, random_gdf

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SAMPLE_THREADS = min(2, os.cpu_count() or 1)
STRUCTURE_SEED = 0
HELD_OUT_STRUCTURE_SEED = 1
JITTER = 0.02


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One scenario file of a pool and the model objects it was written from."""

    name: str
    portfolio: Portfolio
    text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` names the scenario by pool key, not by path."""

    name: str
    command: str
    scenario: str
    args: tuple[str, ...] = ()
    gdf: str | None = None
    mode: str = "additive"

    def argv(self, path: str) -> list[str]:
        head = ["--json", self.command, path]
        if self.gdf is not None:
            head += ["--gdf", self.gdf]
        if self.mode != "additive":
            head += ["--mode", self.mode]
        return head + list(self.args)


@dataclasses.dataclass(frozen=True)
class Pool:
    scenarios: dict[str, Scenario]
    ops: tuple[Op, ...]

    def digests(self) -> dict[str, str]:
        return {name: sc.digest for name, sc in sorted(self.scenarios.items())}

    def write(self, directory: str) -> dict[str, str]:
        """Write every scenario file into ``directory``; return name -> path."""
        paths = {}
        for name, sc in self.scenarios.items():
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(sc.text)
            paths[name] = path
        return paths


# --------------------------------------------------------------------------
# serialization (independent of enbcds.io)


def _breach_doc(b) -> dict:
    if isinstance(b, GordonLoebI):
        return {"family": "gordon-loeb-1", "alpha": b.alpha, "beta": b.beta}
    if isinstance(b, GordonLoebII):
        return {"family": "gordon-loeb-2", "alpha": b.alpha}
    if isinstance(b, Exponential):
        return {"family": "exponential", "kappa": b.kappa}
    if isinstance(b, Table):
        return {"family": "table", "knots": [[s, m] for s, m in b.knots]}
    raise TypeError(f"unknown breach model {b!r}")


def scenario_text(p: Portfolio, uncertainty=(), title: str = "") -> str:
    doc = {
        "schema_version": 1,
        "metadata": {"title": title, "notes": "generated by perfbench"},
        "portfolio": {
            "budget": p.budget,
            "gdfs": [
                {
                    "id": g.id,
                    "name": g.name,
                    "ben": g.ben,
                    "dir_costs": g.dir_costs,
                    "mandatory": g.mandatory,
                    "actual_spend": g.actual_spend,
                    "attacks": [
                        {
                            "id": a.id,
                            "baseline_prob": a.baseline_prob,
                            "loss": a.loss,
                            "breach": _breach_doc(a.breach),
                        }
                        for a in g.attacks
                    ],
                    "adverse": [{"id": e.id, "prob": e.prob, "cost": e.cost} for e in g.adverse],
                }
                for g in p.gdfs
            ],
            "edges": [
                {"source": e.source, "target": e.target, "uplift": dict(sorted(e.uplift.items()))}
                for e in p.edges
            ],
        },
        "uncertainty": [{"target": t, "distribution": d} for t, d in uncertainty],
    }
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def _scenario(name: str, p: Portfolio, uncertainty=()) -> Scenario:
    return Scenario(name, p, scenario_text(p, uncertainty, name))


# --------------------------------------------------------------------------
# generators


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def structure_seed(seed: int) -> int:
    return HELD_OUT_STRUCTURE_SEED if seed == HELD_OUT_SEED else STRUCTURE_SEED


def _draw(build, seed: int, tags: tuple, *args, **kwargs) -> Portfolio:
    """``build(rng, *args, **kwargs)`` with the structure seed, then every
    GDF's margin jittered from the benchmark seed, both keyed by ``tags``."""
    p = build(_rng(structure_seed(seed), *tags), *args, **kwargs)
    rng = _rng(seed, *tags)
    return dataclasses.replace(p, gdfs=tuple(jittered(x, rng, JITTER) for x in p.gdfs))


def standalone_peak(x: Gdf) -> float:
    """Argmax of the standalone additive net benefit by golden section on
    the direct-summation oracle (concave, so the search is exact to ~1e-12)."""
    lo, hi = 0.0, oracle_f(x, 0.0)
    if hi <= 0.0:
        return 0.0
    for _ in range(90):
        a = hi - _GOLDEN * (hi - lo)
        b = lo + _GOLDEN * (hi - lo)
        if oracle_enb(x, a) >= oracle_enb(x, b):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


def half_peak_budget(gdfs) -> float:
    return 0.5 * sum(standalone_peak(x) for x in gdfs)


def _net_negative(x: Gdf) -> Gdf:
    """Benefit below direct costs: an expected loss at every spend."""
    return dataclasses.replace(x, ben=0.5 * x.dir_costs)


def _gdfs(rng, n: int, tag: str, families, n_attacks: int) -> list[Gdf]:
    """``n`` padded GDFs with a fixed attack count, the families assigned
    round-robin."""
    return [
        random_gdf(rng, f"{tag}-{i}", n_attacks=n_attacks, families=(families[i % len(families)],))
        for i in range(n)
    ]


def separable_portfolio(rng, n: int, tag: str, losers: int = 0) -> Portfolio:
    gdfs = _gdfs(rng, n, tag, ALL_FAMILIES, 2)
    for i in rng.choice(n, size=losers, replace=False):
        gdfs[int(i)] = _net_negative(gdfs[int(i)])
    return Portfolio(gdfs=tuple(gdfs), budget=half_peak_budget(gdfs))


def _shape_edges(shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "star":
        return [(i, n - 1) for i in range(n - 1)]
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "diamond":  # 0 -> {1, 2} -> 3, then a tail chain
        head = [(0, 1), (0, 2), (1, 2)] if n == 3 else [(0, 1), (0, 2), (1, 3), (2, 3)]
        return head + [(i, i + 1) for i in range(3, n - 1)]
    raise ValueError(shape)


def jittered(x: Gdf, rng, share: float) -> Gdf:
    """``x`` with its margin, benefit less direct and non-cyber costs,
    scaled by a factor drawn uniformly from [1 - share, 1 + share].  A
    net-negative GDF stays net-negative and a padded one stays padded."""
    margin = x.ben - x.dir_costs - oracle_noncyber(x)
    return dataclasses.replace(x, ben=x.ben + margin * float(rng.uniform(-share, share)))


def coupled_portfolio(
    rng,
    shape: str,
    n: int,
    tag: str,
    n_attacks: int = 2,
    budget: float | None = -1.0,
    spend_share: float | None = None,
) -> Portfolio:
    """Portfolio with dependency ``shape`` over parametric-family GDFs.

    Uplifts are drawn from [1.2, 5].  Every GDF with parents is re-padded
    against its worst-case (all parents compromised) zero-spend loss plus
    the budget, as ``random_portfolio`` does for its star, so no GDF is
    dropped.  ``budget=-1`` means half the summed standalone peaks;
    ``spend_share`` sets every actual spend to that share of ``f(0)``.
    """
    gdfs = _gdfs(rng, n, tag, PARAMETRIC, n_attacks)
    if budget == -1.0:
        budget = half_peak_budget(gdfs)
    edges = []
    for src, dst in _shape_edges(shape, n):
        child = gdfs[dst]
        uplift = {a.id: float(rng.uniform(1.2, 5.0)) for a in child.attacks if rng.uniform() < 0.8}
        if not uplift:
            uplift = {child.attacks[0].id: float(rng.uniform(1.2, 5.0))}
        edges.append(DependencyEdge(source=gdfs[src].id, target=child.id, uplift=uplift))
    for i, child in enumerate(gdfs):
        total = {a.id: 1.0 for a in child.attacks}
        incoming = [e for e in edges if e.target == child.id]
        if not incoming:
            continue
        for e in incoming:
            for aid, u in e.uplift.items():
                total[aid] *= u
        worst_f0 = sum(min(1.0, a.baseline_prob * total[a.id]) * a.loss for a in child.attacks)
        gdfs[i] = dataclasses.replace(
            child, ben=child.dir_costs + oracle_noncyber(child) + 1.1 * worst_f0 + (budget or 0.0)
        )
    if spend_share is not None:
        gdfs = [dataclasses.replace(x, actual_spend=spend_share * oracle_f(x, 0.0)) for x in gdfs]
    return Portfolio(gdfs=tuple(gdfs), edges=tuple(edges), budget=budget)


def _uncertainty(p: Portfolio, rng) -> list[tuple[str, dict]]:
    """Two uncertain parameters per GDF, cycling over all four distribution
    kinds: the first attack's loss and the GDF's benefit, both money fields
    whose support stays positive."""
    kinds = ("point", "uniform", "triangular", "pert")
    out = []
    for i, g in enumerate(p.gdfs):
        for field, value in ((f"attacks/0/loss", g.attacks[0].loss), ("ben", g.ben)):
            kind = kinds[len(out) % 4]
            width = float(rng.uniform(0.1, 0.3))
            lo, hi = value * (1.0 - width), value * (1.0 + width)
            dist = {
                "point": {"kind": "point", "value": value},
                "uniform": {"kind": "uniform", "lo": lo, "hi": hi},
                "triangular": {"kind": "triangular", "lo": lo, "mode": value, "hi": hi},
                "pert": {"kind": "pert", "lo": lo, "mode": value, "hi": hi},
            }[kind]
            out.append((f"/portfolio/gdfs/{i}/{field}", dist))
    return out


# --------------------------------------------------------------------------
# workload pools


# A run replays its pool several times, so that every pool item is timed
# often enough for its median to outvote the host's slow stretches; the
# two allocate pools therefore hold one portfolio per size or shape.


def _alloc_separable(seed: int) -> Pool:
    scenarios, ops = {}, []
    for n in (8, 16, 32, 64):
        name = f"sep-n{n}"
        p = _draw(separable_portfolio, seed, (1, n, 0), n, f"s{n}0", losers=max(1, round(0.1 * n)))
        scenarios[name] = _scenario(name, p)
        ops.append(Op(name, "allocate", name))
    return Pool(scenarios, tuple(ops))


def _alloc_coupled(seed: int) -> Pool:
    """A 2-parent star, a 4-GDF diamond and a 5-GDF chain: each shape and
    each size once."""
    scenarios, ops = {}, []
    shapes = ("star", "chain", "diamond")
    for k in (0, 5, 10):
        shape, n = shapes[k % 3], 3 + k // 4
        name = f"cpl-{shape}-n{n}-{k}"
        p = _draw(coupled_portfolio, seed, (2, k), shape, n, f"c{k}")
        scenarios[name] = _scenario(name, p)
        ops.append(Op(name, "allocate", name))
    return Pool(scenarios, tuple(ops))


def _bundled(name: str) -> Scenario:
    text = bundled_scenario_text(name)
    sf = parse_scenario(text)
    return Scenario(name, sf.portfolio, text)


def _sample_mc(seed: int) -> Pool:
    threads = str(SAMPLE_THREADS)
    p = _draw(separable_portfolio, seed, (3,), 6, "mc")
    scenarios = {
        "three-gdfs-comparison": _bundled("three-gdfs-comparison"),
        "mc-6gdf": _scenario("mc-6gdf", p, _uncertainty(p, _rng(structure_seed(seed), 3, 1))),
    }
    ops = (
        Op("mc-three-gdfs", "sample", "three-gdfs-comparison", ("--draws", "16", "--seed", "0", "--threads", threads)),
        Op("mc-6gdf", "sample", "mc-6gdf", ("--draws", "4", "--seed", "1", "--threads", threads)),
    )
    return Pool(scenarios, ops)


def chain_portfolio(rng, depth: int, tag: str) -> Portfolio:
    return coupled_portfolio(rng, "chain", depth, tag, n_attacks=1, budget=None, spend_share=0.3)


def star_portfolio(rng, parents: int, tag: str) -> Portfolio:
    return coupled_portfolio(rng, "star", parents + 1, tag, budget=None, spend_share=0.3)


def _query_mix(seed: int) -> Pool:
    scenarios, ops = {}, []
    for name in bundled_scenario_names():
        scenarios[name] = _bundled(name)
        ops.append(Op(f"report-{name}", "report", name))
        ops.append(Op(f"literal-{name}", "allocate", name, mode="literal"))
    p = _draw(separable_portfolio, seed, (4, 0), 16, "lit")
    scenarios["literal-n16"] = _scenario("literal-n16", p)
    ops.append(Op("literal-n16", "allocate", "literal-n16", mode="literal"))
    sinks = [(f"star-k{k}", _draw(star_portfolio, seed, (4, 1, k), k, f"k{k}")) for k in (8, 12)] + [
        (f"chain-d{d}", _draw(chain_portfolio, seed, (4, 2, d), d, f"d{d}")) for d in (256, 1024)
    ]
    for name, p in sinks:
        scenarios[name] = _scenario(name, p)
        sink = p.gdfs[-1].id
        ops.append(Op(f"evaluate-{name}", "evaluate", name, gdf=sink))
        ops.append(Op(f"optimize-{name}", "optimize", name, gdf=sink))
        ops.append(Op(f"curve-{name}", "curve", name, gdf=sink))
    return Pool(scenarios, tuple(ops))


_POOL_MAKERS = {
    "alloc-separable": _alloc_separable,
    "alloc-coupled": _alloc_coupled,
    "sample-mc": _sample_mc,
    "query-mix": _query_mix,
}


def build_pool(workload: str, seed: int) -> Pool:
    return _POOL_MAKERS[workload](seed)


def probe_kit(seed: int) -> dict:
    """Inputs of the traced run's layer probes, the same for every workload."""
    return {
        "breach": {
            fam: _gdfs(_rng(structure_seed(seed), 5, i), 1, f"b{fam}", (fam,), 1)[0].attacks[0]
            for i, fam in enumerate(ALL_FAMILIES)
        },
        "standalone": jittered(_gdfs(_rng(structure_seed(seed), 5, 4), 1, "solo", PARAMETRIC, 2)[0],
                               _rng(seed, 5, 4), JITTER),
        "separable": _draw(separable_portfolio, seed, (5, 5), 8, "p8", losers=1),
        "coupled": _draw(coupled_portfolio, seed, (5, 6), "diamond", 4, "pd"),
        "literal": _draw(separable_portfolio, seed, (5, 7), 16, "pl"),
        "star-k8": _draw(star_portfolio, seed, (5, 8), 8, "pk8"),
        "star-k12": _draw(star_portfolio, seed, (5, 9), 12, "pk12"),
        "chain-d256": _draw(chain_portfolio, seed, (5, 10), 256, "pd256"),
        "chain-d1024": _draw(chain_portfolio, seed, (5, 11), 1024, "pd1024"),
        "sample": parse_scenario(bundled_scenario_text("three-gdfs-comparison")),
    }
