"""Monte Carlo propagation of parameter uncertainty into results.

Elicited probabilities and costs are uncertain; this module lets each such
scalar carry a distribution, redraws them jointly, rebuilds the portfolio
per draw, and reports distributions of the downstream quantities: net
benefit at given spends, per-GDF optimal spend, allocation objective, and
per-GDF drop frequency.

Draws use counter-based substreams keyed by (seed, draw index), so each
draw's values depend only on the seed and its index.  Every distribution
draws ``lo + (hi - lo)·u`` with ``u`` on [0, 1] and a finite span, so each
draw is a finite number inside its support.  Draws run one after
another in the calling thread: the solves are pure Python and hold the
interpreter lock, so a thread pool ran no faster.  Sampled values landing
outside [0, 1] for probability fields are clamped, and the clamp events are
counted and reported rather than silently resampled.

numpy is imported inside the functions that draw and summarize
(``_draw_rng``, ``_stats`` and ``sample``), so only sampling loads it.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .evaluate import EvalContext, enb
from .model import Portfolio
from .optimize import allocate, optimal_spend

__all__ = [
    "SensitivityError",
    "UnresolvedTargetError",
    "InvalidDistributionError",
    "Point",
    "Uniform",
    "Triangular",
    "Pert",
    "Distribution",
    "UncertainParam",
    "QuantityStats",
    "SensitivityReport",
    "ALL_QUANTITIES",
    "sample",
    "target_field",
]

# probability-valued scenario fields, clamped to [0, 1] after sampling
_PROB_FIELDS = frozenset({"prob", "baseline_prob"})

ALL_QUANTITIES = ("params", "enbcds", "s_star", "allocation")


class SensitivityError(Exception):
    pass


class UnresolvedTargetError(SensitivityError):
    pass


class InvalidDistributionError(SensitivityError):
    pass


class _Parameters:
    """The one check and the one draw of every distribution: each parameter
    is a finite number, the parameters are non-decreasing in field order,
    and the support ``[lo, hi]`` has a finite width."""

    def __post_init__(self):
        names = self.__match_args__  # the dataclass fields, in order
        values = []
        for name in names:
            v = getattr(self, name)
            try:
                v = float(v)
            except (TypeError, ValueError):
                raise InvalidDistributionError(f"{name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise InvalidDistributionError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
            values.append(v)
        if any(b < a for a, b in zip(values, values[1:])):
            raise InvalidDistributionError(
                f"{type(self).__name__.lower()} needs {' <= '.join(names)}, "
                f"got ({', '.join(map(str, values))})"
            )
        if not math.isfinite(self.hi - self.lo):
            raise InvalidDistributionError(f"hi - lo must be finite, got {self.hi - self.lo!r}")

    def sample(self, rng: np.random.Generator) -> float:
        """``lo`` when ``lo == hi``, else ``lo + (hi - lo)·u`` with ``u`` the
        class's draw on [0, 1], cut at ``hi`` against rounding up: every
        draw is a finite number inside the support."""
        if self.lo == self.hi:
            return self.lo
        return min(self.hi, self.lo + (self.hi - self.lo) * self._unit(rng))


@dataclass(frozen=True)
class Point(_Parameters):
    value: float
    lo = hi = property(lambda self: self.value)  # a one-point support: it draws no random number

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(_Parameters):
    lo: float
    hi: float

    def _unit(self, rng: np.random.Generator) -> float:
        return rng.random()

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Triangular(_Parameters):
    lo: float
    mode: float
    hi: float

    def _unit(self, rng: np.random.Generator) -> float:
        return rng.triangular(0.0, (self.mode - self.lo) / (self.hi - self.lo), 1.0)

    def mean(self) -> float:
        return (self.lo + self.mode + self.hi) / 3.0


@dataclass(frozen=True)
class Pert(_Parameters):
    """Beta-PERT: a beta distribution reshaped to (lo, mode, hi) with shape 4."""

    lo: float
    mode: float
    hi: float

    def _unit(self, rng: np.random.Generator) -> float:
        span = self.hi - self.lo
        return rng.beta(1.0 + 4.0 * (self.mode - self.lo) / span, 1.0 + 4.0 * (self.hi - self.mode) / span)

    def mean(self) -> float:
        return (self.lo + 4.0 * self.mode + self.hi) / 6.0


Distribution = Union[Point, Uniform, Triangular, Pert]


@dataclass(frozen=True)
class UncertainParam:
    """One uncertain scalar: a JSON-Pointer target plus its distribution.

    Targets are rooted at the scenario document, so they start with
    ``/portfolio/`` (e.g. ``/portfolio/gdfs/0/attacks/1/loss``).
    """

    target: str
    distribution: Distribution

    def __post_init__(self):
        if not isinstance(self.target, str) or not self.target.startswith("/portfolio/"):
            raise UnresolvedTargetError(
                f"target must be a JSON pointer under /portfolio/, got {self.target!r}"
            )


def target_field(pointer: str) -> str:
    """The scenario field an uncertainty target sets: its last token, except
    that every entry of an edge's uplift map, whatever its attack id, is the
    field ``uplift``."""
    parent, field = pointer.split("/")[-2:]
    return "uplift" if parent == "uplift" else field


def _targets_within(path: str, targets: list[str]) -> list[str]:
    """The ``targets`` at or inside the document part at ``path``, or all."""
    return [t for t in targets if (t + "/").startswith(path + "/")] or targets


def _pointer_tokens(pointer: str) -> list[str]:
    return [t.replace("~1", "/").replace("~0", "~") for t in pointer.split("/")[1:]]


def _resolve_parent(doc, pointer: str):
    """Walk ``doc`` to the container holding the pointed-at scalar.  An
    ``UncertainParam`` target has at least two tokens, so the walk always
    returns or raises."""
    tokens = _pointer_tokens(pointer)
    node = doc
    for i, token in enumerate(tokens):
        last = i == len(tokens) - 1
        if isinstance(node, list):
            if not token.isdigit() or int(token) >= len(node):
                raise UnresolvedTargetError(f"{pointer}: no list index {token!r}")
            key = int(token)
        elif isinstance(node, dict):
            if token not in node:
                raise UnresolvedTargetError(f"{pointer}: no field {token!r}")
            key = token
        else:
            raise UnresolvedTargetError(f"{pointer}: {token!r} reached a scalar early")
        if last:
            if not isinstance(node[key], (int, float)) or isinstance(node[key], bool):
                raise UnresolvedTargetError(f"{pointer}: target is not a numeric scalar")
            return node, key
        node = node[key]


@dataclass(frozen=True)
class QuantityStats:
    mean: float
    std: float
    p5: float
    p50: float
    p95: float


def _percentiles(values: list[float], qs: Sequence[float]) -> list[float]:
    """The ``q``-th percentiles of ``values`` (no NaN) by numpy's default
    "linear" rule, bit for bit: sorted, at the virtual index ``(n - 1) * q /
    100``, between its two neighbours by numpy's ``_lerp``.  Plain Python,
    since ``np.percentile`` imports ``numpy.ma`` on its first call."""
    ordered = sorted(values)
    out = []
    for q in qs:
        at = (len(ordered) - 1) * (q / 100)
        i = math.floor(at)
        t = at - i
        a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out


def _stats(values: np.ndarray) -> QuantityStats:
    import numpy as np  # local import, as in _draw_rng and sample: only sampling loads numpy

    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        # constant sample: report the exact value, immune to accumulator
        # rounding inside np.mean, so degenerate draws stay bit-exact
        return QuantityStats(mean=vmin, std=0.0, p5=vmin, p50=vmin, p95=vmin)
    # computed on the values over a power of two near the largest magnitude,
    # so that sums and squares of finite draws stay finite; scaling by a
    # power of two is exact, so ordinary samples give the same bits
    _, e = math.frexp(max(abs(vmin), abs(vmax)))
    scaled = np.ldexp(values, -e)
    stats = np.mean(scaled), np.std(scaled), *_percentiles(scaled.tolist(), (5.0, 50.0, 95.0))
    return QuantityStats(*(math.ldexp(float(v), e) for v in stats))


@dataclass(frozen=True)
class SensitivityReport:
    """Aggregated Monte Carlo results.

    ``param_stats`` holds post-clamp statistics of each sampled parameter;
    ``clamp_events`` counts how often a probability target had to be pulled
    back into [0, 1].  ``enbcds_at_spend`` is evaluated at ``spends_used``
    (actual spends by default), and ``s_star`` is each GDF's optimal spend
    with its parents at those spends.  Quantities not requested are empty.
    """

    draws: int
    seed: int
    param_stats: dict[str, QuantityStats]
    clamp_events: dict[str, int]
    spends_used: dict[str, float]
    enbcds_at_spend: dict[str, QuantityStats]
    s_star: dict[str, QuantityStats]
    allocation_objective: QuantityStats | None
    drop_frequency: dict[str, float]


def _draw_rng(seed: int, index: int) -> np.random.Generator:
    import numpy as np

    key = np.array([seed % (2**64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(
    p: Portfolio,
    params: Sequence[UncertainParam],
    draws: int,
    seed: int,
    spends: Mapping[str, float] | None = None,
    budget: float | None = None,
    threads: int | None = None,
    quantities: Sequence[str] = ALL_QUANTITIES,
) -> SensitivityReport:
    """Redraw uncertain parameters ``draws`` times and aggregate the results.

    Each draw gets its own counter-based substream keyed by (seed, index),
    samples every parameter in order (each a finite number inside its
    support), writes the values (probability fields clamped to [0, 1]) into
    one document of the portfolio whose targets were resolved once, rebuilds
    and revalidates the portfolio from it, and computes the requested
    ``quantities``.  Restricting ``quantities`` to
    ``("params",)`` skips portfolio rebuilds and solves, which makes very
    large draw counts cheap while exercising the identical sampling path.
    Draws run in index order, so a draw whose values break the portfolio's
    rules raises SensitivityError naming the lowest such draw index and the
    targets drawn into the broken part (``parse_scenario`` runs this check
    on a draw at every support's lower end).  ``threads`` is accepted for
    compatibility and changes nothing: draws always run in one thread.
    """
    import numpy as np

    from .io import ValidationError, portfolio_from_dict, portfolio_to_dict  # deferred: io imports this module

    draws = int(draws)
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    seed = int(seed)
    unknown = set(quantities) - set(ALL_QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities: {sorted(unknown)}")
    params = list(params)
    gdf_ids = list(p.ids())
    # every draw writes every target, so this one document holds only the
    # current draw's values and needs no copy
    doc = {"portfolio": portfolio_to_dict(p)}
    slots = [
        (*_resolve_parent(doc, param.target), target_field(param.target) in _PROB_FIELDS)
        for param in params
    ]

    if spends is None:
        spends = {}
    spends_used = {
        g.id: float(spends.get(g.id, g.actual_spend if g.actual_spend is not None else 0.0))
        for g in p.gdfs
    }

    def enbcds_row(ctx: EvalContext) -> list[float]:
        return [enb(ctx.portfolio.gdf(gid), spends_used[gid], ctx) for gid in gdf_ids]

    def s_star_row(ctx: EvalContext) -> list[float]:
        return [optimal_spend(ctx.portfolio.gdf(gid), ctx).s_star for gid in gdf_ids]

    def allocation_row(ctx: EvalContext) -> list[float]:
        result = allocate(ctx.portfolio, budget=budget)
        return [*(float(gid in result.dropped) for gid in gdf_ids), result.objective]

    solves = {"enbcds": enbcds_row, "s_star": s_star_row, "allocation": allocation_row}
    solves = {q: solve for q, solve in solves.items() if q in quantities}
    rows = {"params": array("d"), "clamped": array("b"), **{q: array("d") for q in solves}}

    for i in range(draws):
        rng = _draw_rng(seed, i)
        for param, (container, key, is_probability) in zip(params, slots):
            raw = param.distribution.sample(rng)
            value = min(1.0, max(0.0, raw)) if is_probability else raw
            container[key] = value
            rows["params"].append(value)
            rows["clamped"].append(value != raw)
        if not solves:
            continue
        try:
            drawn = portfolio_from_dict(doc["portfolio"])
        except ValidationError as exc:
            # name the drawn targets in the part of the portfolio that failed
            targets = _targets_within(exc.path, [param.target for param in params])
            raise SensitivityError(f"draw {i}, target {', '.join(targets)}: {exc}") from exc
        ctx = EvalContext(drawn, spends_used)
        for q, solve in solves.items():
            rows[q].extend(solve(ctx))

    # typed arrays keep a row at 8 bytes a value (1 for a clamp flag) at any
    # draw count; viewed as draws x width, each column per parameter or GDF
    # (the allocation objective last) is strided, the layout the stats read
    columns = {q: np.frombuffer(r, r.typecode).reshape(draws, len(r) // draws).T for q, r in rows.items()}

    def per_gdf(q: str, reduce=_stats) -> dict:
        return {gid: reduce(columns[q][k]) for k, gid in enumerate(gdf_ids)} if q in columns else {}

    return SensitivityReport(
        draws=draws,
        seed=seed,
        param_stats={param.target: _stats(columns["params"][j]) for j, param in enumerate(params)},
        clamp_events={param.target: int(columns["clamped"][j].sum()) for j, param in enumerate(params)},
        spends_used=spends_used,
        enbcds_at_spend=per_gdf("enbcds"),
        s_star=per_gdf("s_star"),
        allocation_objective=_stats(columns["allocation"][-1]) if "allocation" in columns else None,
        drop_frequency=per_gdf("allocation", lambda c: float(np.mean(c))),
    )
