"""Independent oracles and random-model generators for the test suite.

Everything here recomputes results through a different route than the
library code: direct summation instead of cached evaluation contexts,
exhaustive enumeration over parent compromise states instead of the
distribution fold, closed forms instead of golden-section search, and
dense grids instead of water-filling.  Tests then compare two
independently derived answers.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from enbcds.model import (
    AdverseEvent,
    AttackType,
    DependencyEdge,
    Exponential,
    Gdf,
    GordonLoebI,
    GordonLoebII,
    Portfolio,
    Table,
)

PARAMETRIC = ("gl1", "gl2", "exp")
ALL_FAMILIES = PARAMETRIC + ("table",)


# --------------------------------------------------------------------------
# direct-summation oracles


def oracle_multiplier(breach, s: float, baseline: float | None = None) -> float:
    if isinstance(breach, GordonLoebI):
        return (breach.alpha * s + 1.0) ** -breach.beta
    if isinstance(breach, GordonLoebII):
        return float(baseline) ** (breach.alpha * s)
    if isinstance(breach, Exponential):
        return math.exp(-breach.kappa * s)
    if isinstance(breach, Table):
        knots = list(breach.knots)
        if s >= knots[-1][0]:
            return knots[-1][1]
        for (s0, m0), (s1, m1) in zip(knots, knots[1:]):
            if s0 <= s <= s1:
                return m0 + (s - s0) / (s1 - s0) * (m1 - m0)
    raise TypeError(f"unknown breach model {breach!r}")


def standalone_prob(attack: AttackType, s: float) -> float:
    return min(1.0, attack.baseline_prob * oracle_multiplier(attack.breach, s, attack.baseline_prob))


def oracle_noncyber(x: Gdf) -> float:
    return sum(ev.prob * ev.cost for ev in x.adverse)


def oracle_f(x: Gdf, s: float, mode: str = "additive") -> float:
    probs = [standalone_prob(a, s) for a in x.attacks]
    if mode == "literal":
        return sum(p * (a.loss + s) for p, a in zip(probs, x.attacks))
    return s + sum(p * a.loss for p, a in zip(probs, x.attacks))


def oracle_enb(x: Gdf, s: float, mode: str = "additive") -> float:
    return x.ben - x.dir_costs - oracle_noncyber(x) - oracle_f(x, s, mode)


# --------------------------------------------------------------------------
# exhaustive enumeration over parent compromise states


def oracle_attack_prob(p: Portfolio, gdf_id: str, attack: AttackType, spends: dict) -> float:
    """Effective attack probability by enumerating all parent state combos."""
    s = float(spends.get(gdf_id, 0.0))
    base = standalone_prob(attack, s)
    parents = [e for e in p.edges if e.target == gdf_id]
    if not parents:
        return base
    qs = [oracle_compromise(p, e.source, spends) for e in parents]
    total = 0.0
    for states in itertools.product((False, True), repeat=len(parents)):
        weight = 1.0
        uplift = 1.0
        for edge, q, compromised in zip(parents, qs, states):
            if compromised:
                weight *= q
                uplift *= edge.uplift.get(attack.id, 1.0)
            else:
                weight *= 1.0 - q
        total += weight * min(1.0, base * uplift)
    return total


def oracle_compromise(p: Portfolio, gdf_id: str, spends: dict) -> float:
    """Probability at least one attack on ``gdf_id`` succeeds."""
    miss = 1.0
    for attack in p.gdf(gdf_id).attacks:
        miss *= 1.0 - oracle_attack_prob(p, gdf_id, attack, spends)
    return 1.0 - miss


def oracle_coupled_enb(p: Portfolio, x: Gdf, spends: dict, mode: str = "additive") -> float:
    s = float(spends.get(x.id, 0.0))
    probs = [oracle_attack_prob(p, x.id, a, spends) for a in x.attacks]
    if mode == "literal":
        f = sum(pr * (a.loss + s) for pr, a in zip(probs, x.attacks))
    else:
        f = s + sum(pr * a.loss for pr, a in zip(probs, x.attacks))
    return x.ben - x.dir_costs - oracle_noncyber(x) - f


def oracle_total(p: Portfolio, spends: dict, mode: str = "additive") -> float:
    return sum(oracle_coupled_enb(p, x, spends, mode) for x in p.gdfs)


# --------------------------------------------------------------------------
# closed forms and grids


def gli_optimal_spend(alpha: float, beta: float, prob: float, loss: float) -> float:
    """Stationary point of s + p*L*(alpha*s+1)**-beta.

    Setting the derivative to zero: p*L*alpha*beta*(alpha*s+1)**-(beta+1) = 1,
    so alpha*s+1 = (p*L*alpha*beta)**(1/(beta+1)).  Below pull 1 the interior
    root does not exist and zero spend is optimal.
    """
    pull = prob * loss * alpha * beta
    if pull <= 1.0:
        return 0.0
    return ((pull) ** (1.0 / (beta + 1.0)) - 1.0) / alpha


def grid_argmax(fn, lo: float, hi: float, n: int) -> tuple[float, float]:
    xs = np.linspace(lo, hi, n)
    vals = [fn(float(s)) for s in xs]
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def grid_allocate(p: Portfolio, budget: float | None, points: int = 50, mode: str = "additive"):
    """Dense-grid allocation optimum (exponential in the GDF count).

    Every GDF's spend axis spans [0, min(f(0), budget)]; with dependency
    edges each GDF's value is tabulated over its own axis plus its
    ancestors' axes and the tables are broadcast-added, so the returned
    optimum is exact on the grid.
    """
    gdfs = list(p.gdfs)
    n = len(gdfs)
    order = {x.id: i for i, x in enumerate(gdfs)}
    axes = []
    for x in gdfs:
        top = oracle_f(x, 0.0, mode) if mode == "additive" else sum(
            standalone_prob(a, 0.0) * a.loss for a in x.attacks
        )
        if budget is not None:
            top = min(top, budget)
        axes.append(np.linspace(0.0, top, points) if top > 0.0 else np.zeros(1))

    def ancestors(gdf_id: str) -> set[str]:
        out: set[str] = set()
        frontier = [gdf_id]
        while frontier:
            node = frontier.pop()
            for e in p.edges:
                if e.target == node and e.source not in out:
                    out.add(e.source)
                    frontier.append(e.source)
        return out

    q_cache: dict[tuple, float] = {}

    def q_of(pid: str, spends: dict) -> float:
        relevant = sorted({pid, *ancestors(pid)})
        key = (pid,) + tuple(spends.get(a, 0.0) for a in relevant)
        if key not in q_cache:
            q_cache[key] = oracle_compromise(p, pid, spends)
        return q_cache[key]

    def coupled_value(x: Gdf, spends: dict) -> float:
        s = float(spends.get(x.id, 0.0))
        total = x.ben - x.dir_costs - oracle_noncyber(x) - (s if mode == "additive" else 0.0)
        parents = [e for e in p.edges if e.target == x.id]
        for attack in x.attacks:
            base = standalone_prob(attack, s)
            if parents:
                qs = [q_of(e.source, spends) for e in parents]
                prob = 0.0
                for states in itertools.product((False, True), repeat=len(parents)):
                    w, u = 1.0, 1.0
                    for edge, q, comp in zip(parents, qs, states):
                        if comp:
                            w *= q
                            u *= edge.uplift.get(attack.id, 1.0)
                        else:
                            w *= 1.0 - q
                    prob += w * min(1.0, base * u)
            else:
                prob = base
            total -= prob * (attack.loss + (s if mode == "literal" else 0.0))
        return total

    value = np.zeros([1] * n)
    for x in gdfs:
        involved = sorted({order[x.id], *(order[a] for a in ancestors(x.id))})
        shape = [len(axes[i]) if i in involved else 1 for i in range(n)]
        sub = np.zeros(shape)
        ranges = [range(len(axes[i])) if i in involved else range(1) for i in range(n)]
        for idx in itertools.product(*ranges):
            spends = {gdfs[i].id: float(axes[i][idx[i]]) for i in involved}
            sub[idx] = coupled_value(x, spends)
        value = value + sub

    total_spend = np.zeros([1] * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = len(axes[i])
        total_spend = total_spend + axes[i].reshape(shape)
    if budget is not None:
        # tiny slack absorbs float noise in the axis sums
        value = np.where(total_spend <= budget * (1.0 + 1e-12) + 1e-9, value, -np.inf)

    flat = int(np.argmax(value))
    idx = np.unravel_index(flat, value.shape)
    spends = {x.id: float(axes[i][idx[i]]) for i, x in enumerate(gdfs)}
    return spends, float(value[idx])


def literal_grid_allocate(gdfs, budget: float, cells: int = 512):
    """Literal-mode grid allocation by a plain max-plus recursion.

    Tabulates each GDF's standalone ``oracle_enb`` on ``cells + 1`` evenly
    spaced spends of ``[0, budget]`` and, GDF by GDF, takes for every cell
    count ``b`` the first best split ``best[b - k] + table[k]``; a
    non-mandatory GDF is skipped where its predecessors alone are worth
    strictly more.  Returns the best total, the skipped ids and the spends
    of the deployed GDFs.
    """
    delta = budget / cells
    best = [0.0] * (cells + 1)
    picks = []
    for x in gdfs:
        table = [oracle_enb(x, k * delta, "literal") for k in range(cells + 1)]
        new, pick = [], []
        for b in range(cells + 1):
            splits = [best[b - k] + table[k] for k in range(b + 1)]
            top = max(splits)
            if not x.mandatory and best[b] > top:
                new.append(best[b])
                pick.append(None)
            else:
                new.append(top)
                pick.append(splits.index(top))
        best = new
        picks.append(pick)
    spends, skipped, b = {}, set(), cells
    for x, pick in zip(reversed(gdfs), reversed(picks)):
        if pick[b] is None:
            skipped.add(x.id)
        else:
            spends[x.id] = pick[b] * delta
            b -= pick[b]
    return best[cells], skipped, spends


def repad(p: Portfolio, extra: float) -> Portfolio:
    """Raise every GDF's benefit by ``extra``.

    Used to keep each GDF's net benefit positive at any spend reachable
    under the budget, so allocation comparisons against a pure-allocation
    grid oracle are not disturbed by the drop rule.
    """
    gdfs = tuple(dataclasses.replace(x, ben=x.ben + extra) for x in p.gdfs)
    return dataclasses.replace(p, gdfs=gdfs)


def scale_portfolio(p: Portfolio, factor: float) -> Portfolio:
    """Rescale every money-denominated quantity by ``factor``.

    Breach decay parameters carry inverse-money units, so they divide by the
    factor; probabilities and multipliers are dimensionless and stay put.
    With a power-of-two factor the transformation is exact in floats.
    """

    def scale_breach(b):
        if isinstance(b, GordonLoebI):
            return GordonLoebI(alpha=b.alpha / factor, beta=b.beta)
        if isinstance(b, GordonLoebII):
            return GordonLoebII(alpha=b.alpha / factor)
        if isinstance(b, Exponential):
            return Exponential(kappa=b.kappa / factor)
        return Table(knots=tuple((s * factor, m) for s, m in b.knots))

    gdfs = tuple(
        dataclasses.replace(
            x,
            ben=x.ben * factor,
            dir_costs=x.dir_costs * factor,
            attacks=tuple(
                dataclasses.replace(a, loss=a.loss * factor, breach=scale_breach(a.breach))
                for a in x.attacks
            ),
            adverse=tuple(
                dataclasses.replace(ev, cost=ev.cost * factor) for ev in x.adverse
            ),
            actual_spend=None if x.actual_spend is None else x.actual_spend * factor,
        )
        for x in p.gdfs
    )
    budget = None if p.budget is None else p.budget * factor
    return Portfolio(gdfs=gdfs, edges=p.edges, budget=budget)


# --------------------------------------------------------------------------
# sampling-distribution oracles (direct numerical integration)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def triangular_mean_numint(lo: float, mode: float, hi: float, n: int = 200_001) -> float:
    xs = np.linspace(lo, hi, n)
    left = 2.0 * (xs - lo) / ((hi - lo) * max(mode - lo, 1e-300))
    right = 2.0 * (hi - xs) / ((hi - lo) * max(hi - mode, 1e-300))
    pdf = np.where(xs < mode, left, right)
    return float(_trapezoid(xs * pdf, xs))


def pert_mean_numint(lo: float, mode: float, hi: float, n: int = 200_001) -> float:
    span = hi - lo
    a = 1.0 + 4.0 * (mode - lo) / span
    b = 1.0 + 4.0 * (hi - mode) / span
    ts = np.linspace(0.0, 1.0, n)
    weight = ts ** (a - 1.0) * (1.0 - ts) ** (b - 1.0)
    norm = _trapezoid(weight, ts)
    return float(lo + span * _trapezoid(ts * weight, ts) / norm)


# --------------------------------------------------------------------------
# random model generators


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_breach(rng, prob: float, loss: float, families=ALL_FAMILIES, c_range=(0.5, 20.0)):
    """Breach model whose initial pull prob*loss*|g'(0)| lands inside c_range.

    Conditioning on the pull keeps the interesting region (the curve peak)
    at a spend scale comparable to f(0) instead of degenerating to 0 or to
    astronomically flat tails.
    """
    c = float(rng.uniform(*c_range))
    kind = families[int(rng.integers(len(families)))]
    if kind == "gl1":
        beta = float(rng.uniform(1.0, 2.5))
        return GordonLoebI(alpha=c / (prob * loss * beta), beta=beta)
    if kind == "gl2":
        return GordonLoebII(alpha=c / (prob * loss * abs(math.log(prob))))
    if kind == "exp":
        return Exponential(kappa=c / (prob * loss))
    if kind == "table":
        floor = float(rng.uniform(0.05, 0.6))
        span = 2.0 * (1.0 - floor) * prob * loss / c
        fracs = (0.15, 0.35, 0.6, 1.0)
        knots = ((0.0, 1.0),) + tuple(
            (f * span, floor + (1.0 - floor) * (1.0 - f) ** 2) for f in fracs
        )
        return Table(knots=knots)
    raise ValueError(kind)


def random_attack(rng, tag: str, families=ALL_FAMILIES, c_range=(0.5, 20.0), prob_range=(0.05, 0.95)):
    prob = float(rng.uniform(*prob_range))
    loss = float(10.0 ** rng.uniform(3.0, 6.5))
    return AttackType(
        id=f"atk-{tag}",
        baseline_prob=prob,
        loss=loss,
        breach=random_breach(rng, prob, loss, families, c_range),
    )


def random_gdf(
    rng,
    tag,
    n_attacks: int | None = None,
    families=ALL_FAMILIES,
    c_range=(0.5, 20.0),
    padded: bool = True,
    pad_range=(1.15, 1.6),
    mandatory: bool = False,
    max_adverse: int = 2,
) -> Gdf:
    """Random GDF; ``padded`` guarantees ENBCDS(0) >= (pad-1)*f(0) > 0."""
    if n_attacks is None:
        n_attacks = int(rng.integers(1, 4))
    attacks = tuple(random_attack(rng, f"{tag}-{j}", families, c_range) for j in range(n_attacks))
    adverse = tuple(
        AdverseEvent(
            id=f"adv-{tag}-{j}",
            prob=float(rng.uniform(0.0, 0.3)),
            cost=float(10.0 ** rng.uniform(3.0, 5.0)),
        )
        for j in range(int(rng.integers(0, max_adverse + 1)))
    )
    dir_costs = float(10.0 ** rng.uniform(3.0, 6.0))
    noncyber = sum(ev.prob * ev.cost for ev in adverse)
    f0 = sum(a.baseline_prob * a.loss for a in attacks)
    if padded:
        ben = dir_costs + noncyber + f0 * float(rng.uniform(*pad_range))
    else:
        ben = float(10.0 ** rng.uniform(3.0, 7.0))
    return Gdf(
        id=f"gdf-{tag}",
        name=f"gdf {tag}",
        ben=ben,
        dir_costs=dir_costs,
        attacks=attacks,
        adverse=adverse,
        mandatory=mandatory,
    )


def random_portfolio(
    rng,
    n_gdfs: int,
    budget: float | None = None,
    with_edges: bool = False,
    max_uplift: float = 5.0,
    **gdf_kwargs,
) -> Portfolio:
    """Random portfolio; edges (if any) form a star into the last GDF.

    When padding is on, the child GDF's benefit is re-padded against its
    worst-case uplifted zero-spend loss plus the budget, so it stays worth
    keeping at any reachable spend under any parent compromise state.
    """
    gdfs = [random_gdf(rng, i, **gdf_kwargs) for i in range(n_gdfs)]
    edges: tuple[DependencyEdge, ...] = ()
    if with_edges and n_gdfs >= 2:
        child = gdfs[-1]
        n_parents = 1 if n_gdfs == 2 else int(rng.integers(1, n_gdfs))
        edge_list = []
        for parent in gdfs[:n_parents]:
            uplift = {
                a.id: float(rng.uniform(1.2, max_uplift))
                for a in child.attacks
                if rng.uniform() < 0.8
            }
            if not uplift:
                uplift = {child.attacks[0].id: float(rng.uniform(1.2, max_uplift))}
            edge_list.append(DependencyEdge(source=parent.id, target=child.id, uplift=uplift))
        edges = tuple(edge_list)
        if gdf_kwargs.get("padded", True):
            total_uplift = {a.id: 1.0 for a in child.attacks}
            for e in edge_list:
                for aid, u in e.uplift.items():
                    total_uplift[aid] *= u
            worst_f0 = sum(
                min(1.0, a.baseline_prob * total_uplift[a.id]) * a.loss for a in child.attacks
            )
            noncyber = sum(ev.prob * ev.cost for ev in child.adverse)
            gdfs[-1] = dataclasses.replace(
                child,
                ben=child.dir_costs + noncyber + worst_f0 * 1.1 + (budget or 0.0),
            )
    return Portfolio(gdfs=tuple(gdfs), edges=edges, budget=budget)
