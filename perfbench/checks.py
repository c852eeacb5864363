"""Output checks for benchmark ops, against references independent of the
library's evaluation path.

Each check takes the op, its scenario and the bytes the CLI printed, and
raises :class:`CheckFailed` with a reason when the output is wrong.  An
``s_star`` that is not a peak of the reference curve is wrong where that
curve is unimodal.  Golden-section search assumes a unimodal curve, and
the uplift clamp ``min(1, p*u)`` can give a coupled sink's curve a second
peak; there such an ``s_star`` is a defect of the program that is returned
as a note without failing the op.  The references are the direct-summation
and enumeration oracles of ``tests/oracles.py``; dependency chains use :func:`forward_coupled_enb`,
an iterative forward pass, because the recursive oracle overflows the
stack on deep chains.
"""
from __future__ import annotations

import itertools
import json
import math

from enbcds.model import Portfolio
from oracles import oracle_coupled_enb, oracle_noncyber, oracle_total, standalone_prob

SPEND_SLACK = 1e-9  # budget overrun allowed, relative
VALUE_RTOL = 1e-9  # reported values against the oracle, relative
KKT_SPREAD = 1e-4  # interior marginal spread, as in acceptance criterion 5
CURVE_POINTS = 12  # curve samples compared per checked output


class CheckFailed(Exception):
    """The program's output is wrong; the op counts as failed."""


def _close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL):
        raise CheckFailed(f"{what}: reported {got!r}, reference {want!r}")


def restrict(p: Portfolio, keep) -> Portfolio:
    keep = set(keep)
    return Portfolio(
        gdfs=tuple(g for g in p.gdfs if g.id in keep),
        edges=tuple(e for e in p.edges if e.source in keep and e.target in keep),
        budget=p.budget,
    )


def actual_spends(p: Portfolio) -> dict[str, float]:
    return {g.id: g.actual_spend or 0.0 for g in p.gdfs}


def forward_coupled_enb(p: Portfolio, spends: dict, mode: str = "additive") -> dict[str, float]:
    """Coupled net benefit of every GDF, folding compromise probabilities
    along a topological order with enumeration over each GDF's parents."""
    parents = {g.id: [e for e in p.edges if e.target == g.id] for g in p.gdfs}
    children: dict[str, list[str]] = {g.id: [] for g in p.gdfs}
    for e in p.edges:
        children[e.source].append(e.target)
    indegree = {gid: len(es) for gid, es in parents.items()}
    ready = [gid for gid, k in indegree.items() if k == 0]
    by_id = {g.id: g for g in p.gdfs}
    q: dict[str, float] = {}
    out: dict[str, float] = {}
    while ready:
        gid = ready.pop()
        x = by_id[gid]
        s = float(spends.get(gid, 0.0))
        edges = parents[gid]
        qs = [q[e.source] for e in edges]
        miss, f = 1.0, (s if mode == "additive" else 0.0)
        for attack in x.attacks:
            base = standalone_prob(attack, s)
            prob = 0.0
            for states in itertools.product((False, True), repeat=len(edges)):
                weight, uplift = 1.0, 1.0
                for edge, qe, hit in zip(edges, qs, states):
                    weight *= qe if hit else 1.0 - qe
                    if hit:
                        uplift *= edge.uplift.get(attack.id, 1.0)
                prob += weight * min(1.0, base * uplift)
            miss *= 1.0 - prob
            f += prob * (attack.loss + (s if mode == "literal" else 0.0))
        q[gid] = 1.0 - miss
        out[gid] = x.ben - x.dir_costs - oracle_noncyber(x) - f
        for child in children[gid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if len(out) != len(p.gdfs):
        raise ValueError("dependency graph has a cycle")
    return out


def _reference(p: Portfolio, mode: str = "additive"):
    """``value(gdf, spends)``: the oracle for shallow graphs, the forward
    pass for deep ones."""
    deep = len(p.edges) > 16

    def value(x, spends: dict) -> float:
        if deep:
            return forward_coupled_enb(p, spends, mode)[x.id]
        return oracle_coupled_enb(p, x, spends, mode)

    return value


def _load(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def kkt_spread(marginals: dict, interior: dict) -> float:
    """Relative spread of the marginals of the interior GDFs."""
    inner = [marginals[i] for i, ok in interior.items() if ok]
    if len(inner) < 2:
        return 0.0
    lo, hi = min(inner), max(inner)
    return (hi - lo) / max(abs(hi), abs(lo), 1e-300)


def check_allocation(p: Portfolio, budget: float | None, mode: str, alloc: dict) -> None:
    spends = alloc["spends"]
    if set(spends) != set(p.ids()):
        raise CheckFailed("spends do not cover exactly the portfolio's GDFs")
    for gid, s in spends.items():
        if not (math.isfinite(s) and s >= 0.0):
            raise CheckFailed(f"spend for {gid} is {s!r}")
    total = sum(spends.values())
    if budget is not None and total > budget * (1.0 + SPEND_SLACK):
        raise CheckFailed(f"spends sum to {total!r}, over the budget {budget!r}")
    kept = [g.id for g in p.gdfs if g.id not in set(alloc["dropped"])]
    sub = restrict(p, kept)
    sp = {gid: spends[gid] for gid in kept}
    _close(alloc["objective"], oracle_total(sub, sp, mode), "objective over retained GDFs")
    for x in sub.gdfs:
        if not x.mandatory and oracle_coupled_enb(sub, x, sp, mode) < 0.0:
            raise CheckFailed(f"retained GDF {x.id} has negative net benefit")
    spread = kkt_spread(alloc["marginal_at_solution"], alloc["interior"])
    if spread > KKT_SPREAD:
        raise CheckFailed(f"interior marginal spread {spread:.3g} > {KKT_SPREAD}")


def may_have_two_peaks(p: Portfolio, x, mode: str) -> bool:
    """Whether the reference curve of ``x`` over its own spend may have more
    than one peak.  In additive mode the curve is concave (convex breach
    multipliers, parents' compromise fixed by their own spends) unless the
    uplift clamp can bind: some attack's baseline probability times the
    product of its incoming uplifts exceeds 1.  Literal mode adds a
    probability-weighted spend term and is not assumed concave."""
    if mode != "additive":
        return True
    edges = [e for e in p.edges if e.target == x.id]
    return any(a.baseline_prob * math.prod(e.uplift.get(a.id, 1.0) for e in edges) > 1.0 for a in x.attacks)


def _check_optimum(value, p: Portfolio, mode: str, x, spends: dict, s_star, v_star, upper, notes: list) -> None:
    """``v_star`` must be the reference value at ``s_star``, and no
    neighbour a thousandth of the search window away may be better: on a
    unimodal curve that fails the op, on a possibly two-peaked one it makes
    a note."""
    at = dict(spends)
    at[x.id] = s_star
    _close(v_star, value(x, at), f"value at s_star of {x.id}")
    step = 1e-3 * upper
    tol = VALUE_RTOL * max(1.0, abs(v_star))
    for s in (s_star - step, s_star + step):
        if 0.0 <= s <= upper:
            at[x.id] = s
            if value(x, at) > v_star + tol:
                why = f"s_star {s_star!r} of {x.id} is not a peak of the reference curve: {s!r} is better"
                if not may_have_two_peaks(p, x, mode):
                    raise CheckFailed(why)
                notes.append(why + " (the uplift clamp can bind, so the curve may have two peaks)")
                return


def _coupled_f0(value, p: Portfolio, x, spends: dict) -> float:
    at = dict(spends)
    at[x.id] = 0.0
    return x.ben - x.dir_costs - oracle_noncyber(x) - value(x, at)


def check_output(op, p: Portfolio, out: bytes, reference: bytes | None = None) -> list[str]:
    """Raise CheckFailed unless ``out`` is the right answer for ``op``;
    return the notes on it."""
    notes: list[str] = []
    if op.command == "sample":
        if out != reference:
            raise CheckFailed("sample report differs from the threads=1 reference run")
        return notes
    doc = _load(out)
    try:
        _check_doc(op, p, doc, notes)
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"output lacks {exc}") from None
    return notes


def _check_doc(op, p: Portfolio, doc: dict, notes: list) -> None:
    if op.command == "allocate":
        check_allocation(p, p.budget, op.mode, doc)
        if doc["kkt"]["marginal_spread_rel"] > KKT_SPREAD:
            raise CheckFailed("reported kkt.marginal_spread_rel over the bound")
        return
    value = _reference(p, op.mode)
    spends = actual_spends(p)
    if op.command == "report":
        for x in p.gdfs:
            row = doc["gdfs"][x.id]
            _close(row["value_at_actual"], value(x, spends), f"value at actual spend of {x.id}")
            upper = _coupled_f0(value, p, x, spends)
            _check_optimum(value, p, op.mode, x, spends, row["s_star"], row["value"], upper, notes)
        check_allocation(p, p.budget, op.mode, doc["allocation"])
        return
    x = next(g for g in p.gdfs if g.id == op.gdf)
    if op.command == "evaluate":
        at = {**spends, x.id: doc["spend"]}
        _close(doc["enbcds"], value(x, at), f"enbcds of {x.id}")
    elif op.command == "optimize":
        upper = _coupled_f0(value, p, x, spends)
        _check_optimum(value, p, op.mode, x, spends, doc["s_star"], doc["value"], upper, notes)
    elif op.command == "curve":
        samples = doc["samples"]
        stride = max(1, (len(samples) - 1) // (CURVE_POINTS - 1))
        for s, v in samples[::stride] + samples[-1:]:
            _close(v, value(x, {**spends, x.id: s}), f"curve sample at {s!r}")
        _check_optimum(value, p, op.mode, x, spends, doc["s_star"], doc["peak_value"], samples[-1][0], notes)
    else:
        raise ValueError(f"no check for command {op.command!r}")
