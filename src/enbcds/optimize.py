"""Optimal defense spending for one GDF and budget allocation across many.

Single-GDF: the net-benefit curve in additive mode is concave in spend, and
spending more than the zero-spend expected loss ``f(0)`` is always dominated
(``f(s) >= s``), so the peak lives in ``[0, f(0)]`` and golden-section search
finds it.  Portfolio: maximize the summed net benefit subject to a shared
budget.  Without dependency edges the problem is separable and concave, so
water-filling applies: bisect on the common marginal value ``lam`` and give
each GDF the spend where its own marginal equals ``lam`` (clamped to ``[0,
s*]``), found by a tolerance-terminated bracketed root finder (Illinois
false position), on the analytic marginal ``-1 - sum p * L * g'(s)``.
Non-mandatory GDFs whose net benefit is negative at their allocated spend
are dropped, their budget freed, and the program re-solved until the drop
set is stable.  With edges the coupled objective is polished
by coordinate ascent plus pairwise budget transfers; the same root finder
then equalizes each funded pair's marginals, and sweeps go on until the
objective stalls and the KKT certificate is tight.  The coupled objective's
marginal along one spend is one central difference, ``_coupled_marginal``.

The literal evaluation mode breaks concavity, so both the single-GDF solver
and the allocator fall back to grid search there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Callable, NamedTuple

from .evaluate import ADDITIVE, CoupledTotal, EvalContext, enb, expected_cyber_cost
from .model import Gdf, Portfolio, restrict_portfolio

__all__ = [
    "OptimizationError",
    "NotMandatoryError",
    "NonConcaveModeError",
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


class NonConcaveModeError(OptimizationError):
    pass


class BudgetInfeasibleError(OptimizationError):
    pass


class OptimalSpend(NamedTuple):
    s_star: float
    value: float


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximizer for a unimodal ``fn`` on ``[lo, hi]``."""
    a, b = lo, hi
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, fn(mid)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
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


def _bisect_decreasing(fn: Callable[[float], float], lo: float, hi: float, target: float) -> float:
    """Solve ``fn(s) = target`` for decreasing ``fn`` with ``fn(lo) >= target >= fn(hi)``.

    Illinois false position (Dowell & Jarratt, BIT 11, 1971): a secant step
    inside the sign-changing bracket, halving the stale end's residual when
    the same end moves twice running, so both ends close in superlinearly.
    A step that leaves its end with more than half the residual it replaced,
    as on a plateau of a piecewise-linear marginal, is followed by a
    bisection step.  Stops once the bracket is narrower than 1e-13 of its
    starting width or ``fn`` hits ``target`` exactly; ``_ROOT_ITERS`` only
    guards the loop.  Returns ``lo`` when ``fn(lo) <= target`` and ``hi`` when
    ``fn(hi) >= target``.
    """
    fa = fn(lo) - target
    if fa <= 0.0:
        return lo
    fb = fn(hi) - target
    if fb >= 0.0:
        return hi
    a, b = lo, hi
    tol = 1e-13 * (hi - lo)
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
        fc = fn(c) - target
        if fc == 0.0:
            return c
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
    return 0.5 * (a + b)


def _standalone_marginal(x: Gdf) -> Callable[[float], float]:
    """d(net benefit)/d(spend) for ``x`` alone, additive mode, no parents:
    ``-1 - sum p * L * g'(s)`` from each breach model's analytic slope, the
    right derivative at a Table knot."""
    attacks = x.attacks

    def marginal(s: float) -> float:
        slope = sum(
            a.baseline_prob * a.loss * a.breach.multiplier_derivative(s, a.baseline_prob)
            for a in attacks
        )
        return -1.0 - slope

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


def _coupled_marginal(
    total: Callable[[dict[str, float]], float], spends: dict[str, float], xid: str, h: float
) -> float:
    """Slope of ``total`` along ``spends[xid]``: a central difference of step
    ``h``, one-sided below ``h`` because spends cannot go negative."""
    s = spends[xid]
    up = total({**spends, xid: s + h})
    if s < h:
        return (up - total(spends)) / h
    return (up - total({**spends, xid: s - h})) / (2.0 * h)


def optimal_spend(x: Gdf, context: EvalContext | None = None, upper: float | None = None) -> OptimalSpend:
    """Spend maximizing the net benefit of ``x``, with the peak value.

    Searches ``[0, upper]`` (default ``upper = f(0)``, which contains the
    peak by the dominated-spend bound) by golden section to an absolute
    tolerance of 1e-6 * upper, then lets the exact endpoints win ties so
    boundary optima come back exact.  In literal mode the curve need not be
    unimodal, so a dense scan brackets the best region first.
    """
    mode = context.mode if context is not None else ADDITIVE
    f0 = expected_cyber_cost(x, 0.0, context)
    if upper is None:
        if f0 <= 0.0:
            return OptimalSpend(0.0, enb(x, 0.0, context))
        upper = f0
    else:
        upper = float(upper)
        if not math.isfinite(upper) or upper <= 0.0:
            raise ValueError(f"upper must be finite and > 0, got {upper!r}")

    def objective(s: float) -> float:
        return enb(x, s, context)

    tol = 1e-6 * upper
    if mode == ADDITIVE:
        s_g, v_g = _golden_max(objective, 0.0, upper, tol)
    else:
        n = 2001
        step = upper / (n - 1)
        grid = [(i * step, objective(i * step)) for i in range(n)]
        k = max(range(n), key=lambda i: grid[i][1])
        lo = grid[max(0, k - 1)][0]
        hi = grid[min(n - 1, k + 1)][0]
        s_g, v_g = _golden_max(objective, lo, hi, tol)
        if grid[k][1] > v_g:
            s_g, v_g = grid[k]
    candidates = [(0.0, objective(0.0)), (s_g, v_g), (upper, objective(upper))]
    s_star, value = max(candidates, key=lambda c: c[1])
    return OptimalSpend(s_star, value)


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
    shared marginal value of budget (None when the grid fallback ran);
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


def _water_fill(gdfs, budget: float | None, mode: str) -> tuple[dict[str, float], float]:
    """Separable concave allocation by bisection on the shared marginal."""
    if mode != ADDITIVE:
        raise NonConcaveModeError("water-filling needs the concave additive mode; falling back to grid search")
    marginals = {x.id: _standalone_marginal(x) for x in gdfs}
    peaks: dict[str, float] = {}
    for x in gdfs:
        f0 = expected_cyber_cost(x, 0.0)
        m = marginals[x.id]
        if f0 <= 0.0 or m(0.0) <= 0.0:
            peaks[x.id] = 0.0
        else:
            peaks[x.id] = _bisect_decreasing(m, 0.0, f0, 0.0)
    total_peak = sum(peaks.values())
    if budget is None or total_peak <= budget:
        return dict(peaks), 0.0  # slack budget: everyone at their own peak
    if budget <= 0.0:
        lam = max(0.0, max(marginals[x.id](0.0) for x in gdfs))
        return {x.id: 0.0 for x in gdfs}, lam

    def spend_at(xid: str, lam: float) -> float:
        if peaks[xid] <= 0.0 or marginals[xid](0.0) <= lam:
            return 0.0
        return _bisect_decreasing(marginals[xid], 0.0, peaks[xid], lam)

    lo, hi = 0.0, max(marginals[x.id](0.0) for x in gdfs)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sum(spend_at(x.id, mid) for x in gdfs) > budget:
            lo = mid
        else:
            hi = mid
    lam = hi  # the feasible side of the bracket: these spends sum to <= budget
    spends = {x.id: spend_at(x.id, lam) for x in gdfs}
    total = sum(spends.values())
    if total < budget:
        # piecewise-linear marginals plateau at lam, so the per-GDF
        # bisection can stop anywhere on the flat segment and leave budget
        # unspent; absorb the remainder wherever the marginal still clears
        # the infeasible side of the bracket
        leftover = budget - total
        for x in gdfs:
            if leftover <= 0.0:
                break
            room = spend_at(x.id, lo) - spends[x.id]
            if room <= 0.0:
                continue
            add = min(room, leftover)
            spends[x.id] += add
            leftover -= add
    return spends, lam


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
    spends: dict[str, float],
    budget: float | None,
    mode: str,
    scale: float,
) -> tuple[dict[str, float], int, list[float]]:
    """Coordinate ascent plus pairwise budget transfers on the coupled objective.

    Transfers matter once the budget is exhausted: no single coordinate can
    then move upward, but shifting spend between two GDFs still can.  A
    golden search finds each pair's best transfer; a root finder then zeroes
    the pair's marginal gap ``m_x - m_y``, which is minus the slope of the
    objective along the transfer: one central difference (2 probes, with
    the step of the GDF with the smaller ``f(0)``), or the two coupled
    marginals where that step would leave ``[-s_y, s_x]``.  Sweeps stop when
    one gains at most 1e-9 * scale, unless the relative spread of the
    interior marginals that the KKT certificate compares is still above
    1e-5 and the last stalled sweep at least halved it.
    """
    ids = [x.id for x in sub.gdfs]
    f0 = {x.id: expected_cyber_cost(x, 0.0) for x in sub.gdfs}
    cap = 1.0 + sum(a.loss for x in sub.gdfs for a in x.attacks)

    objective = CoupledTotal(sub, mode)

    def coupled_marginal(sp: dict[str, float], xid: str) -> float:
        return _coupled_marginal(objective, sp, xid, _step(f0[xid], scale))

    def kkt_spread() -> float:
        marginals = {xid: coupled_marginal(spends, xid) for xid in ids}
        return marginal_spread(marginals, _interior(spends, marginals, budget, scale))

    last_spread = math.inf
    obj = objective(spends)
    sweep_objectives = [obj]
    tol_obj = 1e-9 * scale
    sweeps = 0
    for sweeps in range(1, 101):
        before = obj
        for xid in ids:
            others = sum(v for k, v in spends.items() if k != xid)
            room = cap if budget is None else max(0.0, budget - others)
            top = min(cap, room)

            def along(t: float, xid=xid) -> float:
                return objective({**spends, xid: t})

            candidates = [(spends[xid], obj), (0.0, along(0.0))]
            if top > 0.0:
                tol = 1e-6 * max(f0[xid], 1e-6 * top, 1e-12)
                candidates.append(_golden_max(along, 0.0, top, tol))
                candidates.append((top, along(top)))
            best_s, best_v = max(candidates, key=lambda c: c[1])
            if best_v > obj:
                spends[xid] = best_s
                obj = best_v
        for i, xid in enumerate(ids):
            for yid in ids[i + 1 :]:
                sx, sy = spends[xid], spends[yid]
                if sx <= 0.0 and sy <= 0.0:
                    continue

                # for delta in [-sy, sx] both shifted spends stay >= 0
                def shifted(delta: float, xid=xid, yid=yid, sx=sx, sy=sy) -> dict[str, float]:
                    return {**spends, xid: sx - delta, yid: sy + delta}

                def along(delta: float) -> float:
                    return objective(shifted(delta))

                tol = 1e-6 * max(f0[xid], f0[yid], 1e-12)
                candidates = [(0.0, obj), (-sy, along(-sy)), (sx, along(sx))]
                candidates.append(_golden_max(along, -sy, sx, tol))
                best_d, best_v = max(candidates, key=lambda c: c[1])
                if best_v > obj and best_d != 0.0:
                    spends.update(shifted(best_d))
                    obj = best_v
                # marginal equalization between two funded GDFs (root finding
                # is far sharper than the golden step above)
                sx, sy = spends[xid], spends[yid]
                if sx > 0.0 and sy > 0.0:
                    h = _step(min(f0[xid], f0[yid]), scale)

                    def gap(delta: float) -> float:
                        # m_x - m_y is minus the slope along the transfer
                        if -sy <= delta - h and delta + h <= sx:
                            down = objective(shifted(delta - h, sx=sx, sy=sy))
                            up = objective(shifted(delta + h, sx=sx, sy=sy))
                            return (down - up) / (2.0 * h)
                        sp = shifted(delta, sx=sx, sy=sy)
                        return coupled_marginal(sp, xid) - coupled_marginal(sp, yid)

                    # the root finder returns an end of [-sy, sx] exactly when
                    # the gap does not change sign strictly inside it
                    delta = _bisect_decreasing(lambda d: -gap(d), -sy, sx, 0.0)
                    if -sy < delta < sx:
                        trial = shifted(delta, sx=sx, sy=sy)
                        trial_obj = objective(trial)
                        if trial_obj >= obj - 1e-12 * scale:
                            spends.update(trial)
                            obj = trial_obj
        sweep_objectives.append(obj)
        if obj - before <= tol_obj:
            # a small objective gain can hide a loose certificate where the
            # objective is flat; sweep on while that spread keeps halving
            spread = kkt_spread()
            if spread <= 1e-5 or spread > 0.5 * last_spread:
                break
            last_spread = spread
    return spends, sweeps, sweep_objectives


def _allocate_grid(p: Portfolio, budget: float | None, mode: str, scale: float) -> AllocationResult:
    """Grid-search fallback for the non-concave literal mode.

    Per-GDF value tables are built standalone (dependency coupling ignored
    while searching; the reported objective is still the coupled one).  A
    skip option encodes the drop rule for non-mandatory GDFs.
    """
    gdfs = list(p.gdfs)
    ctx0 = EvalContext(mode=mode)
    spends = {x.id: 0.0 for x in gdfs}
    skipped: set[str] = set()
    if budget is None:
        for x in gdfs:
            spends[x.id] = optimal_spend(x, context=ctx0).s_star
    elif budget > 0.0 and gdfs:
        delta = budget / _GRID_STEPS
        tables = {x.id: [enb(x, k * delta, ctx0) for k in range(_GRID_STEPS + 1)] for x in gdfs}
        neg_inf = float("-inf")
        # dp[b] = best total value over a prefix of GDFs using at most b*delta
        dp = [0.0] * (_GRID_STEPS + 1)
        choices: list[list[int]] = []
        for x in gdfs:
            table = tables[x.id]
            new = [neg_inf] * (_GRID_STEPS + 1)
            choice = [0] * (_GRID_STEPS + 1)
            for b in range(_GRID_STEPS + 1):
                best_v, best_k = neg_inf, 0
                for k in range(b + 1):
                    v = dp[b - k] + table[k]
                    if v > best_v:
                        best_v, best_k = v, k
                if not x.mandatory and dp[b] > best_v:
                    best_v, best_k = dp[b], -1  # skip: do not deploy at all
                new[b] = best_v
                choice[b] = best_k
            dp = new
            choices.append(choice)
        b = _GRID_STEPS
        for x, choice in zip(reversed(gdfs), reversed(choices)):
            k = choice[b]
            if k < 0:
                skipped.add(x.id)
            else:
                spends[x.id] = k * delta
                b -= k

    # drop rule at the chosen spends (covers the zero-budget and
    # unconstrained paths; DP skips are already drops)
    kept = {x.id for x in gdfs} - skipped
    drops = {xid for xid in kept if not p.gdf(xid).mandatory and enb(p.gdf(xid), spends[xid], ctx0) < 0.0}
    kept -= drops
    for xid in skipped | drops:
        spends[xid] = 0.0

    sub = restrict_portfolio(p, kept)
    total = CoupledTotal(sub, mode)
    objective = total(spends)
    marginals: dict[str, float] = {}
    for x in sub.gdfs:
        # without edges the slope is the GDF's own: differencing the whole sum
        # would lose digits to the rounding of the other GDFs' values
        own = total if sub.edges else lambda sp, xid=x.id: total.values(sp)[xid]
        marginals[x.id] = _coupled_marginal(own, spends, x.id, _step(expected_cyber_cost(x, 0.0), scale))
    full = {i: spends.get(i, 0.0) for i in p.ids()}
    return AllocationResult(
        spends=full,
        dropped=frozenset(set(p.ids()) - kept),
        objective=objective,
        budget_used=sum(full.values()),
        marginal_at_solution=marginals,
        lam=None,
        interior={i: False for i in kept},
        iterations=1,
        sweep_objectives=(objective,),
    )


def allocate(p: Portfolio, budget: float | None = None, mode: str = ADDITIVE) -> AllocationResult:
    """Split the portfolio budget across GDFs to maximize total net benefit.

    ``budget`` overrides the portfolio's own; None means unconstrained
    (everyone gets their standalone peak).  Water-filling solves the
    separable program; the drop rule then removes any non-mandatory GDF
    whose net benefit is negative at its allocated spend (ties retain) and
    re-solves until stable; dependency edges trigger coordinate-ascent
    refinement of the coupled objective.  Literal mode falls back to grid
    search.
    """
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
    spends: dict[str, float] = {}
    while kept:
        rounds += 1
        sub = restrict_portfolio(p, kept)
        try:
            spends, lam = _water_fill(sub.gdfs, effective, mode)
        except NonConcaveModeError:
            return _allocate_grid(p, effective, mode, scale)
        if sub.edges:
            # the coupled objective need not be jointly concave: refine from
            # two starts (separable solution, uniform split) and keep the best
            starts = [dict(spends)]
            if effective is not None and effective > 0.0 and sub.gdfs:
                starts.append({x.id: effective / len(sub.gdfs) for x in sub.gdfs})
            best = None
            for start in starts:
                refined = _refine_with_edges(sub, start, effective, mode, scale)
                if best is None or refined[2][-1] > best[2][-1]:
                    best = refined
            spends, sweeps, sweep_objectives = best
            total_sweeps += sweeps
        total = CoupledTotal(sub, mode)
        values = total.values(spends)
        drops = {i for i in kept if not p.gdf(i).mandatory and values[i] < 0.0}
        if not drops:
            break
        kept -= drops
    else:  # no GDF left, or none to start with
        spends, lam = {}, 0.0
        sub = restrict_portfolio(p, kept)

    objective = float(sum(values[x.id] for x in sub.gdfs))
    marginals = {
        x.id: _coupled_marginal(total, spends, x.id, _step(expected_cyber_cost(x, 0.0), scale))
        if sub.edges
        else _separable_marginal(x, spends[x.id], lam)
        for x in sub.gdfs
    }
    interior = _interior(spends, marginals, effective, scale)
    if sub.edges and any(interior.values()):
        lam = median(marginals[i] for i, inside in interior.items() if inside)
    if not sweep_objectives:
        sweep_objectives = [objective]

    full = {i: spends.get(i, 0.0) for i in p.ids()}
    return AllocationResult(
        spends=full,
        dropped=frozenset(set(p.ids()) - kept),
        objective=objective,
        budget_used=sum(full.values()),
        marginal_at_solution=marginals,
        lam=lam,
        interior=interior,
        iterations=rounds + total_sweeps,
        sweep_objectives=tuple(sweep_objectives),
    )
