"""Monte Carlo propagation of parameter uncertainty into results.

Elicited probabilities and costs are uncertain; this module lets each such
scalar carry a distribution, redraws them jointly, rebuilds the portfolio
per draw, and reports distributions of the downstream quantities: net
benefit at given spends, per-GDF optimal spend, allocation objective, and
per-GDF drop frequency.

Draws use counter-based substreams keyed by (seed, draw index), so results
are bit-identical regardless of execution order or thread count.  Sampled
values landing outside [0, 1] for probability fields are clamped, and the
clamp events are counted and reported rather than silently resampled.
"""
from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .evaluate import EvalContext, enb
from .model import Portfolio

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


def _require_finite(name: str, v) -> float:
    try:
        v = float(v)
    except (TypeError, ValueError):
        raise InvalidDistributionError(f"{name} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise InvalidDistributionError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class Point:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite("value", self.value))

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _require_finite("lo", self.lo))
        object.__setattr__(self, "hi", _require_finite("hi", self.hi))
        if self.lo > self.hi:
            raise InvalidDistributionError(f"uniform needs lo <= hi, got ({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator) -> float:
        if self.lo == self.hi:
            return self.lo
        return float(rng.uniform(self.lo, self.hi))

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Triangular:
    lo: float
    mode: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _require_finite("lo", self.lo))
        object.__setattr__(self, "mode", _require_finite("mode", self.mode))
        object.__setattr__(self, "hi", _require_finite("hi", self.hi))
        if not (self.lo <= self.mode <= self.hi):
            raise InvalidDistributionError(
                f"triangular needs lo <= mode <= hi, got ({self.lo}, {self.mode}, {self.hi})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        if self.lo == self.hi:
            return self.lo
        return float(rng.triangular(self.lo, self.mode, self.hi))

    def mean(self) -> float:
        return (self.lo + self.mode + self.hi) / 3.0


@dataclass(frozen=True)
class Pert:
    """Beta-PERT: a beta distribution reshaped to (lo, mode, hi) with shape 4."""

    lo: float
    mode: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _require_finite("lo", self.lo))
        object.__setattr__(self, "mode", _require_finite("mode", self.mode))
        object.__setattr__(self, "hi", _require_finite("hi", self.hi))
        if not (self.lo <= self.mode <= self.hi):
            raise InvalidDistributionError(
                f"pert needs lo <= mode <= hi, got ({self.lo}, {self.mode}, {self.hi})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        span = self.hi - self.lo
        if span == 0.0:
            return self.lo
        a = 1.0 + 4.0 * (self.mode - self.lo) / span
        b = 1.0 + 4.0 * (self.hi - self.mode) / span
        return self.lo + span * float(rng.beta(a, b))

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


def _pointer_tokens(pointer: str) -> list[str]:
    return [t.replace("~1", "/").replace("~0", "~") for t in pointer.split("/")[1:]]


def _resolve_parent(doc, pointer: str):
    """Walk ``doc`` to the container holding the pointed-at scalar."""
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
    raise UnresolvedTargetError(f"{pointer}: empty pointer")


@dataclass(frozen=True)
class QuantityStats:
    mean: float
    std: float
    p5: float
    p50: float
    p95: float


def _stats(values: np.ndarray) -> QuantityStats:
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        # constant sample: report the exact value, immune to accumulator
        # rounding inside np.mean, so degenerate draws stay bit-exact
        return QuantityStats(mean=vmin, std=0.0, p5=vmin, p50=vmin, p95=vmin)
    p5, p50, p95 = np.percentile(values, [5.0, 50.0, 95.0])
    return QuantityStats(
        mean=float(np.mean(values)),
        std=float(np.std(values)),
        p5=float(p5),
        p50=float(p50),
        p95=float(p95),
    )


@dataclass(frozen=True)
class SensitivityReport:
    """Aggregated Monte Carlo results.

    ``param_stats`` holds post-clamp statistics of each sampled parameter;
    ``clamp_events`` counts how often a probability target had to be pulled
    back into [0, 1].  ``enbcds_at_spend`` is evaluated at ``spends_used``
    (actual spends by default).  Quantities not requested are empty.
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
    key = np.array([seed % (2**64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _thread_count(threads: int | None, draws: int) -> int:
    if threads is None:
        threads = 1
    env = os.environ.get("ENBCDS_THREADS")
    if env is not None:
        try:
            threads = min(threads, max(1, int(env)))
        except ValueError:
            pass
    return max(1, min(int(threads), draws))


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
    samples every parameter in order, applies the values to a copy of the
    portfolio (clamping probability fields to [0, 1]), revalidates, and
    computes the requested ``quantities``.  Restricting ``quantities`` to
    ``("params",)`` skips portfolio rebuilds and solves, which makes very
    large draw counts cheap while exercising the identical sampling path.
    A draw whose values break the portfolio's rules raises SensitivityError
    naming the lowest such draw index and the targets drawn into the broken
    part.
    """
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
    base_doc = {"portfolio": portfolio_to_dict(p)}
    for param in params:
        _resolve_parent(base_doc, param.target)  # all targets must resolve up front

    if spends is None:
        spends = {}
    spends_used = {
        g.id: float(spends.get(g.id, g.actual_spend if g.actual_spend is not None else 0.0))
        for g in p.gdfs
    }

    want_enbcds = "enbcds" in quantities
    want_s_star = "s_star" in quantities
    want_alloc = "allocation" in quantities
    needs_rebuild = want_enbcds or want_s_star or want_alloc

    n_params = len(params)
    param_values = np.zeros((draws, n_params))
    clamp_flags = np.zeros((draws, n_params), dtype=np.int64)  # per-draw slots: thread-safe
    enbcds_values = np.zeros((draws, len(gdf_ids))) if want_enbcds else None
    s_star_values = np.zeros((draws, len(gdf_ids))) if want_s_star else None
    alloc_values = np.zeros(draws) if want_alloc else None
    drop_flags = np.zeros((draws, len(gdf_ids))) if want_alloc else None

    from .optimize import allocate, optimal_spend  # deferred for the same reason as io

    def run_draw(i: int) -> None:
        rng = _draw_rng(seed, i)
        doc = copy.deepcopy(base_doc) if needs_rebuild or n_params else base_doc
        for j, param in enumerate(params):
            value = param.distribution.sample(rng)
            container, key = _resolve_parent(doc, param.target)
            field_name = param.target.rsplit("/", 1)[-1]
            if field_name in _PROB_FIELDS:
                clamped = min(1.0, max(0.0, value))
                if clamped != value:
                    clamp_flags[i, j] = 1
                value = clamped
            container[key] = value
            param_values[i, j] = value
        if not needs_rebuild:
            return
        try:
            drawn = portfolio_from_dict(doc["portfolio"])
        except ValidationError as exc:
            # name the drawn targets inside the part of the portfolio that failed
            where = exc.path + "/"
            targets = [p.target for p in params if p.target.startswith(where)]
            raise SensitivityError(
                f"draw {i}, target {', '.join(targets or (p.target for p in params))}: {exc}"
            ) from exc
        if want_enbcds:
            ctx = EvalContext(drawn, spends_used)
            for k, gid in enumerate(gdf_ids):
                enbcds_values[i, k] = enb(drawn.gdf(gid), spends_used[gid], ctx)
        if want_s_star:
            for k, gid in enumerate(gdf_ids):
                s_star_values[i, k] = optimal_spend(drawn.gdf(gid)).s_star
        if want_alloc:
            result = allocate(drawn, budget=budget)
            alloc_values[i] = result.objective
            for k, gid in enumerate(gdf_ids):
                drop_flags[i, k] = 1.0 if gid in result.dropped else 0.0

    workers = _thread_count(threads, draws)
    if workers == 1:
        for i in range(draws):
            run_draw(i)
    else:
        # each draw writes disjoint slots, so threads need no locking and the
        # aggregate below is order-insensitive
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_draw, range(draws)))

    param_stats = {
        param.target: _stats(param_values[:, j]) for j, param in enumerate(params)
    }
    clamp_events = {param.target: int(clamp_flags[:, j].sum()) for j, param in enumerate(params)}
    return SensitivityReport(
        draws=draws,
        seed=seed,
        param_stats=param_stats,
        clamp_events=clamp_events,
        spends_used=spends_used,
        enbcds_at_spend=(
            {gid: _stats(enbcds_values[:, k]) for k, gid in enumerate(gdf_ids)}
            if want_enbcds
            else {}
        ),
        s_star=(
            {gid: _stats(s_star_values[:, k]) for k, gid in enumerate(gdf_ids)}
            if want_s_star
            else {}
        ),
        allocation_objective=_stats(alloc_values) if want_alloc else None,
        drop_frequency=(
            {gid: float(np.mean(drop_flags[:, k])) for k, gid in enumerate(gdf_ids)}
            if want_alloc
            else {}
        ),
    )
