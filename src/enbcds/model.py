"""Domain model for grid digital functionalities (GDFs).

A GDF is any digital technology, or combination of technologies, that is
integrated into a power grid and provides a useful service while also
exposing attack surface.  This module holds the validated data types only;
all evaluation lives in :mod:`enbcds.evaluate` and :mod:`enbcds.optimize`.

All monetary quantities are annualized USD rates and share one unit, so
benefits, costs, losses and defense spending can be mixed additively.
Attack losses are treated as additive in expectation: two attack types
whose loss estimates overlap (for example both pricing the same outage)
will be double-counted, so scenario authors should define disjoint attack
types.

Everything here is immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Union

__all__ = [
    "ModelError",
    "NegativeMoneyError",
    "ProbabilityOutOfRangeError",
    "DuplicateIdError",
    "NonConvexTableError",
    "PortfolioValidationError",
    "Violation",
    "GordonLoebI",
    "GordonLoebII",
    "Exponential",
    "Table",
    "BreachModel",
    "AttackType",
    "AdverseEvent",
    "Gdf",
    "DependencyEdge",
    "Portfolio",
    "validate_portfolio",
    "portfolio_violations",
    "restrict_portfolio",
]


class ModelError(ValueError):
    """Base class for domain-model violations."""


class NegativeMoneyError(ModelError):
    pass


class ProbabilityOutOfRangeError(ModelError):
    pass


class DuplicateIdError(ModelError):
    pass


class NonConvexTableError(ModelError):
    pass


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_portfolio`."""

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message} [{self.code}]"


class PortfolioValidationError(ModelError):
    """Raised by :func:`validate_portfolio`; carries every violation found."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"portfolio failed validation:\n{lines}")


def _require_money(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NegativeMoneyError(f"{where} must be finite, got {value!r}")
    if value < 0.0:
        raise NegativeMoneyError(f"{where} must be >= 0, got {value!r}")
    return value


def _require_probability(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ProbabilityOutOfRangeError(f"{where} must be in [0, 1], got {value!r}")
    return value


def _require_positive(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ModelError(f"{where} must be finite and > 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Breach-probability models
#
# Each model maps defense spend s >= 0 to a multiplier g(s) on an attack's
# baseline success probability, with g(0) = 1, g non-increasing, g in (0, 1],
# and g convex (diminishing returns on defense spending).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GordonLoebI:
    """Power-law decay ``g(s) = (alpha * s + 1) ** -beta``."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        alpha = _require_positive(self.alpha, "GordonLoebI.alpha")
        beta = float(self.beta)
        if not math.isfinite(beta) or beta < 1.0:
            raise ModelError(f"GordonLoebI.beta must be >= 1, got {beta!r}")
        if not math.isfinite(alpha * beta):  # the slope at 0
            raise ModelError(f"GordonLoebI.alpha * beta must be finite, got {alpha!r} * {beta!r}")

    def multiplier(self, s: float, baseline: float | None = None) -> float:
        return (self.alpha * s + 1.0) ** -self.beta

    def multiplier_derivative(self, s: float, baseline: float | None = None) -> float:
        return -self.alpha * self.beta * (self.alpha * s + 1.0) ** (-self.beta - 1.0)


@dataclass(frozen=True)
class GordonLoebII:
    """Geometric decay ``g(s) = baseline ** (alpha * s)``.

    Only meaningful for baseline probabilities strictly inside (0, 1); the
    pairing is enforced when the owning :class:`AttackType` is built.
    """

    alpha: float

    def __post_init__(self):
        _require_positive(self.alpha, "GordonLoebII.alpha")

    def multiplier(self, s: float, baseline: float | None = None) -> float:
        return float(baseline) ** (self.alpha * s)

    def multiplier_derivative(self, s: float, baseline: float | None = None) -> float:
        v = float(baseline)
        return self.alpha * math.log(v) * v ** (self.alpha * s)


@dataclass(frozen=True)
class Exponential:
    """Exponential decay ``g(s) = exp(-kappa * s)``."""

    kappa: float

    def __post_init__(self):
        _require_positive(self.kappa, "Exponential.kappa")

    def multiplier(self, s: float, baseline: float | None = None) -> float:
        return math.exp(-self.kappa * s)

    def multiplier_derivative(self, s: float, baseline: float | None = None) -> float:
        return -self.kappa * math.exp(-self.kappa * s)


@dataclass(frozen=True)
class Table:
    """Piecewise-linear multiplier through elicited ``(spend, multiplier)`` knots.

    The first knot must be ``(0, 1)``, spends strictly increase, multipliers
    are non-increasing within (0, 1], and segment slopes must be
    non-decreasing (convexity).  Past the last knot the multiplier stays
    constant, which preserves convexity because slopes are non-positive.
    The slope is the right derivative: at a knot, the next segment's.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(s), float(m)) for s, m in self.knots)
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise ModelError("Table needs at least one knot")
        if knots[0] != (0.0, 1.0):
            raise ModelError(f"Table first knot must be (0, 1), got {knots[0]!r}")
        for s, m in knots:
            if not (math.isfinite(s) and math.isfinite(m)):
                raise ModelError("Table knots must be finite")
            if not 0.0 < m <= 1.0:
                raise ModelError(f"Table multiplier must be in (0, 1], got {m!r}")
        spends = [s for s, _ in knots]
        mults = [m for _, m in knots]
        if any(b <= a for a, b in zip(spends, spends[1:])):
            raise ModelError("Table spends must be strictly increasing")
        if any(b > a for a, b in zip(mults, mults[1:])):
            raise NonConvexTableError("Table multipliers must be non-increasing")
        slopes = [
            (m2 - m1) / (s2 - s1)
            for (s1, m1), (s2, m2) in zip(knots, knots[1:])
        ]
        for a, b in zip(slopes, slopes[1:]):
            if b < a - 1e-12:
                raise NonConvexTableError(
                    f"Table knot sequence is not convex (slope drops {a!r} -> {b!r})"
                )

    def multiplier(self, s: float, baseline: float | None = None) -> float:
        knots = self.knots
        i = bisect_right(knots, (s, math.inf), 1)  # knots[i - 1][0] <= s < knots[i][0]
        if i == len(knots):
            return knots[-1][1]
        (s1, m1), (s2, m2) = knots[i - 1], knots[i]
        return m1 + (m2 - m1) * (s - s1) / (s2 - s1)

    def multiplier_derivative(self, s: float, baseline: float | None = None) -> float:
        """Right derivative: the slope of the segment starting at or before ``s``."""
        knots = self.knots
        i = bisect_right(knots, (s, math.inf), 1)
        if i == len(knots):
            return 0.0
        (s1, m1), (s2, m2) = knots[i - 1], knots[i]
        return (m2 - m1) / (s2 - s1)


BreachModel = Union[GordonLoebI, GordonLoebII, Exponential, Table]

_BREACH_TYPES = (GordonLoebI, GordonLoebII, Exponential, Table)


@dataclass(frozen=True)
class AttackType:
    """One attack type against a GDF: loss magnitude, baseline success
    probability at zero defense spend, and the spend-decay model."""

    id: str
    baseline_prob: float
    loss: float
    breach: BreachModel
    description: str = ""

    def __post_init__(self):
        if not self.id:
            raise ModelError("attack id must be non-empty")
        object.__setattr__(
            self, "baseline_prob",
            _require_probability(self.baseline_prob, f"attack {self.id!r} baseline_prob"),
        )
        object.__setattr__(self, "loss", _require_money(self.loss, f"attack {self.id!r} loss"))
        if not isinstance(self.breach, _BREACH_TYPES):
            raise ModelError(f"attack {self.id!r} has unknown breach model {self.breach!r}")
        if isinstance(self.breach, GordonLoebII):
            if not 0.0 < self.baseline_prob < 1.0:
                raise ModelError(
                    f"attack {self.id!r}: GordonLoebII requires baseline_prob strictly "
                    f"inside (0, 1), got {self.baseline_prob!r}"
                )
            if not math.isfinite(self.breach.alpha * math.log(self.baseline_prob)):  # the slope at 0
                raise ModelError(
                    f"attack {self.id!r}: GordonLoebII alpha * log(baseline_prob) must be finite, "
                    f"got {self.breach.alpha!r} * log({self.baseline_prob!r})"
                )


@dataclass(frozen=True)
class AdverseEvent:
    """A non-cyberattack cost exposure (storms, lawsuits, compliance, ...).

    A GDF irrelevant to an event simply carries cost 0 for it.
    """

    id: str
    prob: float
    cost: float

    def __post_init__(self):
        if not self.id:
            raise ModelError("adverse event id must be non-empty")
        object.__setattr__(self, "prob", _require_probability(self.prob, f"event {self.id!r} prob"))
        object.__setattr__(self, "cost", _require_money(self.cost, f"event {self.id!r} cost"))


@dataclass(frozen=True)
class Gdf:
    """One grid digital functionality.

    ``actual_spend`` records the current cyber-defense spending for
    reporting; it never constrains optimization.  ``mandatory`` marks a
    functionality the operator cannot remove (for example consumer wifi
    thermostats): optimizers may never drop it, and its spend is chosen to
    minimize expected loss even when the net benefit stays negative.
    """

    id: str
    name: str = ""
    ben: float = 0.0
    dir_costs: float = 0.0
    attacks: tuple[AttackType, ...] = ()
    adverse: tuple[AdverseEvent, ...] = ()
    mandatory: bool = False
    actual_spend: float | None = None

    def __post_init__(self):
        if not self.id:
            raise ModelError("gdf id must be non-empty")
        object.__setattr__(self, "ben", _require_money(self.ben, f"gdf {self.id!r} ben"))
        object.__setattr__(self, "dir_costs", _require_money(self.dir_costs, f"gdf {self.id!r} dir_costs"))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        object.__setattr__(self, "adverse", tuple(self.adverse))
        if self.actual_spend is not None:
            object.__setattr__(
                self, "actual_spend",
                _require_money(self.actual_spend, f"gdf {self.id!r} actual_spend"),
            )
        for kind, items in (("attack", self.attacks), ("adverse event", self.adverse)):
            seen = set()
            for item in items:
                if item.id in seen:
                    raise DuplicateIdError(f"gdf {self.id!r} has duplicate {kind} id {item.id!r}")
                seen.add(item.id)

    def attack(self, attack_id: str) -> AttackType:
        for a in self.attacks:
            if a.id == attack_id:
                return a
        raise KeyError(f"gdf {self.id!r} has no attack {attack_id!r}")


@dataclass(frozen=True)
class DependencyEdge:
    """Compromise of ``source`` makes ``target`` more susceptible.

    ``uplift`` maps target attack ids to multipliers (>= 1) applied to the
    attack's success probability conditional on a successful attack against
    ``source``; the uplifted probability is clamped at 1.  Attacks missing
    from the map are unaffected.
    """

    source: str
    target: str
    uplift: Mapping[str, float]

    def __post_init__(self):
        if self.source == self.target:
            raise ModelError(f"dependency edge {self.source!r} -> itself is not allowed")
        uplift = {str(k): float(v) for k, v in dict(self.uplift).items()}
        for k, v in uplift.items():
            if not math.isfinite(v) or v < 1.0:
                raise ModelError(
                    f"edge {self.source!r}->{self.target!r} uplift for {k!r} must be >= 1, got {v!r}"
                )
        object.__setattr__(self, "uplift", uplift)


class _Graph(NamedTuple):
    """Dependency index of one portfolio, built once on first use.

    ``parents`` lists each node's incoming edges in ``Portfolio.edges``
    order.  ``order`` is a Kahn topological order of every node that is
    neither on a cycle nor downstream of one; the remaining nodes form
    ``cyclic``.  Nodes are the GDF ids plus any edge endpoint naming no GDF.
    Evaluation walks ``order`` once, whether it fills an ``EvalContext``
    cache or sums a ``CoupledTotal``.
    """

    gdfs: dict[str, Gdf]
    parents: dict[str, tuple[DependencyEdge, ...]]
    order: tuple[str, ...]
    cyclic: frozenset[str]


def _build_graph(gdfs: tuple[Gdf, ...], edges: tuple[DependencyEdge, ...]) -> _Graph:
    by_id: dict[str, Gdf] = {}
    for g in gdfs:
        by_id.setdefault(g.id, g)  # first one wins, as in a linear scan
    parents: dict[str, list[DependencyEdge]] = {}
    children: dict[str, list[str]] = {}
    indegree = dict.fromkeys(by_id, 0)
    for e in edges:
        parents.setdefault(e.target, []).append(e)
        children.setdefault(e.source, []).append(e.target)
        indegree.setdefault(e.source, 0)
        indegree[e.target] = indegree.get(e.target, 0) + 1
    # Kahn's algorithm: whatever never reaches in-degree 0 lies on a cycle
    # or downstream of one
    ready = [node for node, d in indegree.items() if d == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for child in children.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return _Graph(
        gdfs=by_id,
        parents={k: tuple(v) for k, v in parents.items()},
        order=tuple(order),
        cyclic=frozenset(node for node, d in indegree.items() if d > 0),
    )


@dataclass(frozen=True)
class Portfolio:
    """A set of GDFs, their dependency edges, and the shared defense budget.

    The dependency index behind :meth:`gdf`, :meth:`parents_of` and
    evaluation (id lookup, incoming edges, topological order) is built on
    first use and cached on the instance; a restricted or replaced
    portfolio builds its own.
    """

    gdfs: tuple[Gdf, ...] = ()
    edges: tuple[DependencyEdge, ...] = ()
    budget: float | None = None  # None = unconstrained

    def __post_init__(self):
        object.__setattr__(self, "gdfs", tuple(self.gdfs))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.budget is not None:
            object.__setattr__(self, "budget", _require_money(self.budget, "portfolio budget"))

    @cached_property
    def _graph(self) -> _Graph:
        return _build_graph(self.gdfs, self.edges)

    def gdf(self, gdf_id: str) -> Gdf:
        try:
            return self._graph.gdfs[gdf_id]
        except KeyError:
            raise KeyError(f"portfolio has no gdf {gdf_id!r}") from None

    def ids(self) -> list[str]:
        return [g.id for g in self.gdfs]

    def parents_of(self, gdf_id: str) -> list[DependencyEdge]:
        return list(self._graph.parents.get(gdf_id, ()))


def portfolio_violations(p: Portfolio) -> list[Violation]:
    """Collect every cross-object invariant violation in ``p`` (empty list
    means valid).  Field-level invariants are enforced by the constructors."""
    out: list[Violation] = []
    seen = set()
    for gi, g in enumerate(p.gdfs):
        if g.id in seen:
            out.append(Violation("DuplicateId", f"gdfs[{gi}] ({g.id})", f"duplicate gdf id {g.id!r}"))
        seen.add(g.id)

    pairs = set()
    for ei, e in enumerate(p.edges):
        where_e = f"edges[{ei}] ({e.source}->{e.target})"
        if (e.source, e.target) in pairs:
            # the fold would count one compromise of the source twice
            out.append(Violation(
                "DuplicateEdge", where_e, f"duplicate edge {e.source!r} -> {e.target!r}",
            ))
        pairs.add((e.source, e.target))
        for endpoint in (e.source, e.target):
            if endpoint not in seen:
                out.append(Violation("UnknownGdf", where_e, f"unknown gdf {endpoint!r}"))
        if e.target in seen:
            attack_ids = {a.id for a in p.gdf(e.target).attacks}
            for k in e.uplift:
                if k not in attack_ids:
                    out.append(Violation(
                        "UnknownAttack", where_e,
                        f"uplift names attack {k!r} not present on {e.target!r}",
                    ))

    cycle = _find_cycle(p)
    if cycle:
        out.append(Violation(
            "CyclicDependency", "edges",
            "dependency graph has a cycle: " + " -> ".join(cycle),
        ))
    return out


def _find_cycle(p: Portfolio) -> list[str] | None:
    """One cycle as a closed path ``[a, b, ..., a]``, or None for a DAG.

    Every node Kahn's algorithm leaves over has a parent that is left over
    too, so walking parents from one of them must revisit a node.
    """
    graph = p._graph
    if not graph.cyclic:
        return None
    node = next(n for n in (*graph.gdfs, *graph.parents) if n in graph.cyclic)
    path: list[str] = []
    index: dict[str, int] = {}
    while node not in index:
        index[node] = len(path)
        path.append(node)
        node = next(e.source for e in graph.parents[node] if e.source in graph.cyclic)
    # path runs against the edges: path[i + 1] -> path[i]
    return [node, *reversed(path[index[node] + 1:]), node]


def validate_portfolio(p: Portfolio) -> Portfolio:
    """Return ``p`` unchanged if every invariant holds, else raise
    :class:`PortfolioValidationError` listing all violations."""
    violations = portfolio_violations(p)
    if violations:
        raise PortfolioValidationError(violations)
    return p


def restrict_portfolio(p: Portfolio, keep) -> Portfolio:
    """Sub-portfolio containing only the GDFs in ``keep`` and edges among them.

    Used by the allocator: a dropped GDF is not deployed at all, so it stops
    contributing compromise events to its dependents.
    """
    keep = set(keep)
    gdfs = tuple(g for g in p.gdfs if g.id in keep)
    edges = tuple(e for e in p.edges if e.source in keep and e.target in keep)
    return Portfolio(gdfs=gdfs, edges=edges, budget=p.budget)
