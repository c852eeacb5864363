"""Optimal defense spending for one GDF and budget allocation across many.

Single-GDF: spending more than the zero-spend expected loss ``f(0)`` is
always dominated (``f(s) >= s``), so the peak lives in ``[0, f(0)]``.  One
path finds it in both evaluation modes: scan a grid, polish the best cell's
bracket by golden-section search, and keep the best of that point, the grid
point and both ends.  The additive curve is concave in spend, so its grid is
the two ends alone.

Portfolio: maximize the summed net benefit subject to a shared budget.
Without dependency edges the problem is separable and concave, so
water-filling applies: give each GDF the spend where its own marginal
equals a common value ``lam`` (clamped to ``[0, s*]``), found by a
tolerance-terminated bracketed root finder (Illinois false position) on the
analytic marginal ``-1 - sum p * L * g'(s)``; find ``lam`` itself by the
same root finder on the summed spends less the budget, down to adjacent
floats; then split the budget between the spends at the two ends of the
final ``lam`` bracket, which sum to at most and to more than the budget.
Non-mandatory GDFs whose coupled net benefit is negative at their
allocated spend are dropped, their budget freed, and the program re-solved
until the drop set is stable.  With edges the coupled objective is polished
by line searches along one spend and along budget transfers between two
GDFs: each scores a golden-section point, the root of the slope along the
line (found by the same root finder) and both ends, and keeps the best
only if it raises the objective.  Sweeps go on until the objective stalls
and the KKT certificate is tight.  Every slope of the coupled objective
is one central difference cut to its domain, ``_slope``.

The literal evaluation mode breaks concavity, so the single-GDF solver
scans 2001 grid points there, and the allocator picks each round's spends
by a grid search before the same drop rule: the max-plus knapsack
recursion over 512 budget cells, one numpy sweep per GDF over the cell
offsets in ascending order, where a tie goes to the smaller spend.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Callable, NamedTuple

import numpy as np

from .evaluate import ADDITIVE, CoupledTotal, EvalContext, _net_curve, check_mode, enb, expected_cyber_cost
from .model import Gdf, Portfolio, _pull, restrict_portfolio

__all__ = [
    "OptimizationError",
    "NotMandatoryError",
    "BudgetInfeasibleError",
    "OptimalSpend",
    "AllocationResult",
    "optimal_spend",
    "mandatory_min_loss",
    "allocate",
    "marginal_spread",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ROOT_ITERS = 100  # guards the root finder's loop; its tolerance ends it first
_GRID_STEPS = 512  # budget cells of the literal-mode grid search


class OptimizationError(Exception):
    pass


class NotMandatoryError(OptimizationError):
    pass


class BudgetInfeasibleError(OptimizationError):
    pass


class OptimalSpend(NamedTuple):
    s_star: float
    value: float


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximizer for a unimodal ``fn`` on ``[lo, hi]``.  Stops
    at width ``tol``, or where the bracket's floats are too coarse to shrink
    it further: with a ``tol`` below their spacing it would never stop."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol and a < c and d < b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def _bisect_decreasing(
    fn: Callable[[float], float], lo: float, hi: float, target: float, tol: float
) -> tuple[float, float]:
    """Bracket the solution of ``fn(s) = target`` for decreasing ``fn`` with
    ``fn(lo) >= target >= fn(hi)``.

    Illinois false position (Dowell & Jarratt, BIT 11, 1971): a secant step
    inside the sign-changing bracket, halving the stale end's residual when
    the same end moves twice running, so both ends close in superlinearly.
    A step that leaves its end with more than half the residual it replaced,
    as on a plateau of a piecewise-linear marginal, is followed by a
    bisection step.  Stops once the bracket is no wider than ``tol`` (with
    0, once its ends are adjacent floats) or ``fn`` hits ``target`` exactly;
    ``_ROOT_ITERS`` only guards the loop.  Returns the final bracket ``(a,
    b)``, where ``fn(a) > target > fn(b)``, or one point twice: ``lo`` when
    ``fn(lo) <= target``, ``hi`` when ``fn(hi) >= target``, or an exact root.
    """
    fa = fn(lo) - target
    if fa <= 0.0:
        return lo, lo
    fb = fn(hi) - target
    if fb >= 0.0:
        return hi, hi
    a, b = lo, hi
    side = 0
    stalled = False
    for _ in range(_ROOT_ITERS):
        if b - a <= tol:
            break
        if stalled:
            c = 0.5 * (a + b)
        else:
            # at least half a tolerance inside, so that a root sitting at
            # one end closes the bracket from the other end in one step
            c = b - fb * (b - a) / (fb - fa)
            c = min(max(c, a + 0.5 * tol), b - 0.5 * tol)
        # a step on an end (tol 0) or a NaN one (a NaN residual) bisects
        # instead; with no float left inside, the bracket is closed
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:
                break
        fc = fn(c) - target
        if fc == 0.0:
            return c, c
        if fc > 0.0:
            stalled = fc > 0.5 * fa
            a, fa = c, fc
            if side > 0:
                fb *= 0.5
            side = 1
        else:
            stalled = fc < 0.5 * fb
            b, fb = c, fc
            if side < 0:
                fa *= 0.5
            side = -1
    return a, b


def _root(fn: Callable[[float], float], lo: float, hi: float, target: float) -> float:
    """The solution that ``_bisect_decreasing`` brackets to 1e-13 of
    ``hi - lo``: the point it returned, or the middle of its final bracket."""
    a, b = _bisect_decreasing(fn, lo, hi, target, 1e-13 * (hi - lo))
    return a if a == b else 0.5 * (a + b)


def _standalone_marginal(x: Gdf) -> Callable[[float], float]:
    """d(net benefit)/d(spend) for ``x`` alone, additive mode, no parents:
    ``-1 - sum p * L * g'(s)`` from each breach model's analytic slope, the
    right derivative at a Table knot."""
    attacks = x.attacks

    def marginal(s: float) -> float:
        return _pull(attacks, s) - 1.0

    return marginal


def _separable_marginal(x: Gdf, s: float, lam: float) -> float:
    """Marginal of ``x`` at ``s`` as ``allocate`` reports it without edges.

    A Table GDF's water-fill root sits on a knot, where its marginal steps
    past ``lam``, within the root finder's closing width (1e-13 of a bracket
    of at most ``f(0)``); so away from 0 this is the subgradient nearest
    ``lam`` over ``d = 1e-12 * f(0)`` either side of ``s``.
    """
    m, d = _standalone_marginal(x), 1e-12 * expected_cyber_cost(x, 0.0)
    return m(s) if s <= d else min(max(lam, m(s + d)), m(s - d))


def _step(f0: float, scale: float) -> float:
    """Difference step for a GDF of zero-spend loss ``f0`` in a portfolio
    whose summed zero-spend loss is ``scale``."""
    return 1e-6 * max(f0, 1e-9 * scale, 1e-9)


def _slope(fn: Callable[[float], float], t: float, lo: float, hi: float, h: float) -> float:
    """Slope of ``fn`` at ``t``: a central difference of step ``h``, cut to
    ``[lo, hi]`` so that no probe leaves the domain.  A step below half an
    ulp of ``t`` leaves both probes on ``t``, which reads as slope 0."""
    a, b = max(lo, t - h), min(hi, t + h)
    if b <= a:
        return 0.0
    return (fn(b) - fn(a)) / (b - a)


def _coupled_marginal(
    total: Callable[[dict[str, float]], float], spends: dict[str, float], xid: str, h: float
) -> float:
    """Slope of ``total`` along ``spends[xid]``, which cannot go negative."""
    return _slope(lambda t: total({**spends, xid: t}), spends[xid], 0.0, math.inf, h)


def optimal_spend(x: Gdf, context: EvalContext | None = None, upper: float | None = None) -> OptimalSpend:
    """Spend maximizing the net benefit of ``x``, with the peak value.

    Searches ``[0, upper]`` (default ``upper = f(0)``, which contains the
    peak by the dominated-spend bound): scan ``n`` evenly spaced points,
    golden-section search the two cells around the best to an absolute
    tolerance of 1e-6 * upper, and keep the best of both ends, the scanned
    point and the golden point, so boundary optima come back exact.  ``n``
    is 2 for the one-peaked additive curve and 2001 in literal mode.
    """
    if upper is None:
        upper = expected_cyber_cost(x, 0.0, context)
        if upper <= 0.0:
            return OptimalSpend(0.0, enb(x, 0.0, context))
    else:
        upper = float(upper)
        if not math.isfinite(upper) or upper <= 0.0:
            raise ValueError(f"upper must be finite and > 0, got {upper!r}")

    objective = _net_curve(x, context)
    n = 2 if getattr(context, "mode", ADDITIVE) == ADDITIVE else 2001
    step = upper / (n - 1)
    grid = [(i * step, objective(i * step)) for i in range(n)]
    k = max(range(n), key=lambda i: grid[i][1])
    golden = _golden_max(objective, grid[max(0, k - 1)][0], grid[min(n - 1, k + 1)][0], 1e-6 * upper)
    candidates = [grid[0], golden, grid[k], (upper, objective(upper))]
    return OptimalSpend(*max(candidates, key=lambda c: c[1]))


def mandatory_min_loss(x: Gdf, context: EvalContext | None = None) -> float:
    """Loss-minimizing spend for a GDF that must be deployed regardless.

    A mandated functionality with an everywhere-negative curve still has a
    best spend: minimizing the expected loss is the same argmax as
    maximizing the (negative) net benefit.
    """
    if not x.mandatory:
        raise NotMandatoryError(f"gdf {x.id!r} is not mandatory; use optimal_spend or allocate")
    return optimal_spend(x, context).s_star


@dataclass(frozen=True)
class AllocationResult:
    """Budget split across a portfolio, with KKT diagnostics.

    ``spends`` covers every GDF in the portfolio (dropped ones at 0).
    ``objective`` is the summed net benefit of the retained GDFs at the
    allocated spends, evaluated with dependency coupling.  ``lam`` is the
    shared marginal value of budget (None in literal mode);
    ``interior`` flags retained GDFs whose spend is strictly between 0 and
    saturation, whose marginals should all equal ``lam``; flags are only
    raised when the budget binds, since with slack every retained GDF sits
    at its own peak and the residual marginals there are solver noise.
    ``sweep_objectives`` records the objective after each refinement sweep.
    """

    spends: dict[str, float]
    dropped: frozenset[str]
    objective: float
    budget_used: float
    marginal_at_solution: dict[str, float]
    lam: float | None
    interior: dict[str, bool]
    iterations: int
    sweep_objectives: tuple[float, ...]


def _water_fill(gdfs, budget: float | None) -> tuple[dict[str, float], float]:
    """Separable concave allocation by a root find on the shared marginal.

    Each spend at ``lam`` is one root find on ``[0, peak]``: 0 where the
    marginal starts at or below ``lam``, the peak where it never falls to it.
    The spends summed over GDFs fall as ``lam`` rises, from the peaks at 0
    to all 0 at the largest marginal at 0, so ``lam`` is one more root find
    (Everett's multiplier search, Operations Research 11(3), 1963), closed
    down to adjacent floats.  The spends found at its final bracket's upper
    end sum to at most the budget and those at its lower end to more; the
    spends ``theta`` of the way from the first to the second sum to the
    budget, and fill Table plateaus.
    """
    marginals = {x.id: _standalone_marginal(x) for x in gdfs}
    peaks = {x.id: _root(marginals[x.id], 0.0, expected_cyber_cost(x, 0.0), 0.0) for x in gdfs}
    if budget is None or sum(peaks.values()) <= budget:
        return peaks, 0.0  # slack budget: everyone at their own peak

    top = max(m(0.0) for m in marginals.values())
    found = {0.0: peaks, top: dict.fromkeys(peaks, 0.0)}  # the spends at each lam tried

    def used(lam: float) -> float:
        if lam not in found:
            found[lam] = {xid: _root(m, 0.0, peaks[xid], lam) for xid, m in marginals.items()}
        return sum(found[lam].values())

    # above every marginal at half an even share, each spend is below that
    # share, so that lam tops the bracket if its spends (to root width) fit
    tight = max(m(0.5 * budget / len(marginals)) for m in marginals.values())
    if 0.0 < tight < top and used(tight) <= budget:
        top = tight
    lo, hi = _bisect_decreasing(used, 0.0, top, budget, 0.0)
    low, high = found[hi], found[lo]
    if lo == hi:  # the spends there use the budget exactly, or it is 0
        return low, hi
    sum_low = sum(low.values())
    theta = (budget - sum_low) / (sum(high.values()) - sum_low)
    return {xid: low[xid] + theta * (high[xid] - low[xid]) for xid in low}, hi


def _interior(
    spends: dict[str, float], marginals: dict[str, float], budget: float | None, scale: float
) -> dict[str, bool]:
    """GDFs whose marginals should all equal ``lam``: funded, with a positive
    marginal, and only while the budget binds."""
    exhausted = budget is not None and sum(spends.values()) >= budget - 1e-6 * max(1.0, budget)
    return {i: exhausted and spends[i] > 1e-12 * scale and m > 1e-7 for i, m in marginals.items()}


def marginal_spread(marginals: dict[str, float], interior: dict[str, bool]) -> float:
    """Relative spread ``(max - min) / max(|max|, |min|)`` of the interior
    marginals, which the KKT certificate asks to be equal; 0 with fewer than
    two.  An interior marginal is above 1e-7, so the divisor is too."""
    inner = [marginals[i] for i, inside in interior.items() if inside]
    if len(inner) < 2:
        return 0.0
    lo, hi = min(inner), max(inner)
    return (hi - lo) / max(abs(hi), abs(lo))


def _refine_with_edges(
    sub: Portfolio,
    objective: CoupledTotal,
    spends: dict[str, float],
    budget: float | None,
    scale: float,
) -> tuple[dict[str, float], int, list[float]]:
    """Line searches on the coupled objective, one GDF and one pair at a time.

    Every move is one line search: along one spend on ``[0, top]``, where
    ``top`` is what the budget leaves it, and along a budget transfer
    ``s_x - d, s_y + d`` on ``[-s_y, s_x]``.  The search scores the golden
    point, the root of the objective's slope along the line (a central
    difference, cut to the line) and both ends, and moves to the best only
    if it beats the current objective, so sweeps never lower it.  A spend
    the budget leaves no room to raise by more than the search tolerance
    gets no move of its own: lowering it is a transfer.  Sweeps stop when
    one gains at most 1e-9 * scale, unless the relative spread of the
    interior marginals that the KKT certificate compares is still above
    1e-5 and the last stalled sweep at least halved it.
    """
    ids = [x.id for x in sub.gdfs]
    f0 = {x.id: expected_cyber_cost(x, 0.0) for x in sub.gdfs}
    cap = 1.0 + sum(a.loss for x in sub.gdfs for a in x.attacks)
    obj = objective(spends)

    def search(point: Callable[[float], dict[str, float]], lo: float, hi: float, h: float, tol: float) -> float:
        def along(t: float) -> float:
            return objective(point(t))

        best_t, best_v = _golden_max(along, lo, hi, tol)
        root = _root(lambda t: _slope(along, t, lo, hi, h), lo, hi, 0.0)
        for t in {root, lo, hi} - {best_t}:
            v = along(t)
            if v > best_v:
                best_t, best_v = t, v
        if best_v > obj:
            spends.update(point(best_t))
            return best_v
        return obj

    def kkt_spread() -> float:
        marginals = {xid: _coupled_marginal(objective, spends, xid, _step(f0[xid], scale)) for xid in ids}
        return marginal_spread(marginals, _interior(spends, marginals, budget, scale))

    last_spread = math.inf
    sweep_objectives = [obj]
    tol_obj = 1e-9 * scale
    sweeps = 0
    for sweeps in range(1, 101):
        before = obj
        for xid in ids:
            others = sum(v for k, v in spends.items() if k != xid)
            top = cap if budget is None else min(cap, max(0.0, budget - others))
            tol = 1e-6 * max(f0[xid], 1e-6 * top, 1e-12)
            if top - spends[xid] > tol:
                obj = search(lambda t: {**spends, xid: t}, 0.0, top, _step(f0[xid], scale), tol)
        for i, xid in enumerate(ids):
            for yid in ids[i + 1 :]:
                sx, sy = spends[xid], spends[yid]
                if sx <= 0.0 and sy <= 0.0:
                    continue
                h = _step(min(f0[xid], f0[yid]), scale)
                tol = 1e-6 * max(f0[xid], f0[yid], 1e-12)
                obj = search(lambda d: {**spends, xid: sx - d, yid: sy + d}, -sy, sx, h, tol)
        sweep_objectives.append(obj)
        if obj - before <= tol_obj:
            # a small objective gain can hide a loose certificate where the
            # objective is flat; sweep on while that spread keeps halving
            spread = kkt_spread()
            if spread <= 1e-5 or spread > 0.5 * last_spread:
                break
            last_spread = spread
    return spends, sweeps, sweep_objectives


def _grid_spends(gdfs, budget: float | None, mode: str) -> tuple[dict[str, float], set[str]]:
    """Spends by grid search, for the non-concave literal mode.

    A max-plus dynamic program over ``_GRID_STEPS`` budget cells picks one
    cell per GDF from value tables built standalone (dependency coupling
    ignored), or skips a non-mandatory GDF when leaving it out is worth
    strictly more.  ``dp[b]`` is the best total so far using at most ``b``
    cells.  Each GDF's step sweeps the cell offset ``k`` in ascending order,
    one vector over every ``b >= k``: ``dp[b - k] + table[k]`` replaces the
    best only where it is strictly greater, so each ``b`` keeps the smallest
    ``k`` among equal values and a NaN never wins.  Working memory is a few
    vectors of ``cells + 1``.  Without a budget each GDF's only cell is its
    own peak; at zero budget it is spend 0.  Returns the spends of the
    deployed GDFs and the skipped ids.
    """
    ctx = EvalContext(mode=mode)
    if budget is None:
        cells, grids = 0, [[optimal_spend(x, ctx).s_star] for x in gdfs]
    else:
        cells = _GRID_STEPS if budget > 0.0 else 0
        delta = budget / _GRID_STEPS
        grids = [[k * delta for k in range(cells + 1)]] * len(gdfs)
    size = cells + 1
    dp = np.zeros(size)
    choices: list[np.ndarray] = []
    for x, grid in zip(gdfs, grids):
        net = _net_curve(x, ctx)
        table = [net(s) for s in grid]
        best = np.full(size, -np.inf)
        choice = np.zeros(size, dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf and NaN, no warning
            for k in range(size):
                v = dp[: size - k] + table[k]
                better = v > best[k:]
                np.copyto(best[k:], v, where=better)
                np.copyto(choice[k:], k, where=better)
        if not x.mandatory:
            skip = dp > best  # skip: do not deploy at all
            np.copyto(best, dp, where=skip)
            np.copyto(choice, -1, where=skip)
        dp = best
        choices.append(choice)
    spends: dict[str, float] = {}
    skipped: set[str] = set()
    b = cells
    for x, grid, choice in zip(reversed(gdfs), reversed(grids), reversed(choices)):
        k = int(choice[b])
        if k < 0:
            skipped.add(x.id)
        else:
            spends[x.id] = grid[k]
            b -= k
    return spends, skipped


def allocate(p: Portfolio, budget: float | None = None, mode: str = ADDITIVE) -> AllocationResult:
    """Split the portfolio budget across GDFs to maximize total net benefit.

    ``budget`` overrides the portfolio's own; None means unconstrained
    (everyone gets their standalone peak).  Each drop round picks spends for
    the retained GDFs: water-filling solves the separable program, and with
    dependency edges line searches along single spends and budget transfers
    refine the coupled objective; literal mode uses the grid search instead,
    whose skips are final for the round.  The drop rule then removes any
    non-mandatory GDF whose coupled net benefit is negative at its allocated
    spend (ties retain) and re-solves until stable.
    """
    check_mode(mode)
    if budget is not None:
        effective = float(budget)
    elif p.budget is not None:
        effective = float(p.budget)
    else:
        effective = None
    if effective is not None and (not math.isfinite(effective) or effective < 0.0):
        raise BudgetInfeasibleError(f"budget must be finite and >= 0, got {effective!r}")

    scale = max(1.0, sum(expected_cyber_cost(x, 0.0) for x in p.gdfs))
    kept = set(p.ids())
    rounds = 0
    total_sweeps = 0
    sweep_objectives: list[float] = []
    while kept:
        rounds += 1
        sub = restrict_portfolio(p, kept)
        if mode == ADDITIVE:
            spends, lam = _water_fill(sub.gdfs, effective)
        else:
            spends, skipped = _grid_spends(sub.gdfs, effective, mode)
            if skipped:
                kept -= skipped
                sub = restrict_portfolio(p, kept)
        total = CoupledTotal(sub, mode)
        if mode == ADDITIVE and sub.edges:
            # the coupled objective need not be jointly concave: refine from
            # two starts (separable solution, uniform split) and keep the best
            starts = [dict(spends)]
            if effective is not None and effective > 0.0:
                starts.append({x.id: effective / len(sub.gdfs) for x in sub.gdfs})
            best = None
            for start in starts:
                refined = _refine_with_edges(sub, total, start, effective, scale)
                if best is None or refined[2][-1] > best[2][-1]:
                    best = refined
            spends, sweeps, sweep_objectives = best
            total_sweeps += sweeps
        values = total.values(spends)
        drops = {i for i in kept if not p.gdf(i).mandatory and values[i] < 0.0}
        if not drops:
            break
        kept -= drops
    else:  # no GDF left, or none to start with
        spends, lam = {}, 0.0
        sub = restrict_portfolio(p, kept)

    def marginal(x: Gdf) -> float:
        if not sub.edges and mode == ADDITIVE:
            return _separable_marginal(x, spends[x.id], lam)
        # without edges the slope is the GDF's own: differencing the whole sum
        # would lose digits to the rounding of the other GDFs' values
        own = total if sub.edges else lambda sp: total.values(sp)[x.id]
        return _coupled_marginal(own, spends, x.id, _step(expected_cyber_cost(x, 0.0), scale))

    objective = float(sum(values[x.id] for x in sub.gdfs))
    marginals = {x.id: marginal(x) for x in sub.gdfs}
    if mode == ADDITIVE:
        interior = _interior(spends, marginals, effective, scale)
        if sub.edges and any(interior.values()):
            lam = median(marginals[i] for i, inside in interior.items() if inside)
    else:
        lam, interior = None, {x.id: False for x in sub.gdfs}
    if not sweep_objectives:
        sweep_objectives = [objective]

    full = {i: spends.get(i, 0.0) for i in p.ids()}
    return AllocationResult(
        spends=full,
        dropped=frozenset(set(p.ids()) - kept),
        objective=objective,
        budget_used=sum(full.values(), 0.0),
        marginal_at_solution=marginals,
        lam=lam,
        interior=interior,
        iterations=rounds + total_sweeps,
        sweep_objectives=tuple(sweep_objectives),
    )
