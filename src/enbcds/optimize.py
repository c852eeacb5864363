"""Optimal defense spending for one GDF and budget allocation across many.

Every 1-D search is one line maximizer, ``_scan_max``: scan a grid, polish
the best cell's bracket by Brent's maximizer (golden-section and parabolic
steps), and keep the best of that point, the grid point and both ends.

Single-GDF: spending more than the zero-spend expected loss ``f(0)`` is
always dominated (``f(s) >= s``), so the peak lives in ``[0, f(0)]``.  The
additive curve is concave in spend, so its grid is the two ends alone.

Portfolio: maximize the summed net benefit subject to a shared budget.
Without dependency edges the problem is separable and concave, so
water-filling applies: each GDF's spend solves the first-order condition
``pull(s) = 1 + lam`` on ``[0, s*]``, where ``pull(s) = sum p * L * |g'(s)|``
is the expected loss one more dollar of defense saves (Gordon & Loeb, ACM
TISSEC 5(4), 2002) and ``s*`` solves it at ``lam = 0``, by a bracketed root
finder (Illinois false position) that stops at a tolerance; find ``lam`` by the
same root finder on the summed spends less the budget, down to adjacent
floats; then split the budget between the spends at the two ends of the
final ``lam`` bracket, which sum to at most and to more than the budget.
Each spend falls as ``lam`` rises, so each probe of ``lam`` brackets a
GDF's spend between its spends at the nearest ``lam`` tried on either side
rather than on ``[0, peak]``: the brackets narrow with the search, and so
do the root finds in them.
Non-mandatory GDFs whose coupled net benefit is negative at their
allocated spend are dropped, their budget freed, and the program re-solved
until the drop set is stable.  With edges the coupled objective is polished
by line searches along one spend and along budget transfers between two
GDFs: each is the line maximizer over a 5-point grid, and its point is kept
only if it raises the objective by more than the rounding of the summed
values.  A line's probes refold only the GDFs it moves and their
descendants (``CoupledTotal.line``).  Sweeps go on until the objective
stalls and the KKT certificate is tight.  Every slope of the coupled
objective is one central difference cut at 0, ``_coupled_marginal``, of
step ``1e-6 * max(f(0), 1e-9 * scale, 1e-9)``, where ``scale`` is the
summed ``f(0)`` floored at 1; ``allocate`` reads every ``f(0)`` once.

The literal evaluation mode breaks concavity, so the single-GDF solver
scans 2001 grid points there, and the allocator picks each round's spends
by a grid search before the same drop rule: the max-plus knapsack
recursion over 512 budget cells, one numpy sweep per GDF over the cell
offsets in ascending order, where a tie goes to the smaller spend.

numpy is imported inside ``_grid_spends`` and ``statistics.median`` inside
``allocate``'s coupled branch, so that ``import enbcds`` loads neither:
numpy is about half of a fresh process's import time, and here only
literal mode uses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

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

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section step, as a share of the bracket
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


def _brent_max(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Brent's bounded maximizer for a unimodal ``fn`` on ``[lo, hi]``: the
    best point it evaluated, within ``tol`` of the peak, and its value.

    Golden-section steps, and a parabola through the three best points
    wherever its vertex lies well inside the bracket and moves less than
    half the step before last (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5).  No step is shorter than ``tol / 3`` plus
    two float spacings at the current point ``x``, so a bracket whose floats
    are coarser than ``tol``, subnormals included, still closes: it stops
    once neither end is further than twice that from ``x``.  A NaN reads as
    ``-inf``, a parabola through a point at ``-inf`` is never used, and a
    tie goes to the lower point, so a curve that overflows above its peak is
    cut away like any lower value.
    """
    a, b = lo, hi
    x = w = v = a + _CGOLD * (b - a)
    fx = fn(x)
    if fx != fx:
        fx = -math.inf
    fw = fv = fx
    d = e = 0.0
    while True:
        m = a + 0.5 * (b - a)  # a + b can overflow
        tol1 = tol / 3.0 + 2.0 * math.ulp(x)
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            # the vertex of the parabola through (x, fx), (w, fw), (v, fv) is
            # x + p / q; a non-finite value makes p or q non-finite, and the
            # comparisons below then fail
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            last, e = e, d
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                d = p / q
                golden = False
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if golden:
            e = (b - x) if x < m else (a - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if fu != fu:
            fu = -math.inf
        if fu > fx or (fu == fx and u < x):  # a tie goes to the lower point
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _scan_max(fn: Callable[[float], float], lo: float, hi: float, n: int, tol: float) -> tuple[float, float]:
    """The best point of ``fn`` on ``[lo, hi]`` and its value, by a scan of
    ``n >= 2`` evenly spaced points with exact ends and a polish of the two
    cells around the best of them by Brent's maximizer to ``tol``.

    Returns the best of the lower end, the polished point, the best scanned
    point and the upper end, a tie going to the first in that order, so a
    peak at an end comes back exact and the upper end wins no tie.  Each
    point is evaluated once.  When the best point and its two neighbours
    (at an end, the next two) read one value, they are not polished: a
    concave curve equal at three points is flat between them and peaks
    there, and on a flat bracket Brent's steps walk its whole width.  Two
    equal points do not say this, since a peak can lie between them.
    """
    step = hi / (n - 1) - lo / (n - 1)  # hi - lo can overflow
    scanned = [(t, fn(t)) for t in [lo + i * step for i in range(n - 1)] + [hi]]
    k = max(range(n), key=lambda i: scanned[i][1])
    j = min(max(k - 1, 0), n - 3)  # the first of the three points around k
    if n >= 3 and scanned[j][1] == scanned[j + 1][1] == scanned[j + 2][1]:
        return max((scanned[0], scanned[k], scanned[-1]), key=lambda point: point[1])
    polished = _brent_max(fn, scanned[max(0, k - 1)][0], scanned[min(n - 1, k + 1)][0], tol)
    return max((scanned[0], polished, scanned[k], scanned[-1]), key=lambda point: point[1])


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


def _separable_marginal(x: Gdf, s: float, lam: float, f0: dict[str, float]) -> float:
    """Marginal ``pull(s) - 1`` of ``x`` at ``s`` as ``allocate`` reports it
    without edges; ``f0`` is ``allocate``'s f(0) table.

    A Table GDF's water-fill root sits on a knot, where its marginal steps
    past ``lam``, within the root finder's closing width (1e-13 of a bracket
    of at most ``f(0)``); so away from 0 this is the subgradient nearest
    ``lam`` over ``d = 1e-12 * f(0)`` either side of ``s``.
    """
    pull, d = partial(_pull, x.attacks), 1e-12 * f0[x.id]
    return pull(s) - 1.0 if s <= d else min(max(lam, pull(s + d) - 1.0), pull(s - d) - 1.0)


def _coupled_marginal(
    total: Callable[[dict[str, float]], float], spends: dict[str, float], xid: str, f0: dict[str, float], scale: float
) -> float:
    """Slope of ``total`` along ``spends[xid]``: a central difference cut at
    0, since a spend cannot go negative, of step ``h`` from ``allocate``'s
    f(0) table and its floored sum.  A step below half an ulp of the spend
    leaves both probes on it, which reads as slope 0."""
    t, h = spends[xid], 1e-6 * max(f0[xid], 1e-9 * scale, 1e-9)
    a, b = max(0.0, t - h), t + h
    if b <= a:
        return 0.0
    return (total({**spends, xid: b}) - total({**spends, xid: a})) / (b - a)


def optimal_spend(x: Gdf, context: EvalContext | None = None, upper: float | None = None) -> OptimalSpend:
    """Spend maximizing the net benefit of ``x``, with the peak value.

    Searches ``[0, upper]`` (default ``upper = f(0)``, which contains the
    peak by the dominated-spend bound): scan ``n`` evenly spaced points,
    search the two cells around the best with Brent's maximizer to an
    absolute tolerance of 1e-6 * upper, and keep the best of both ends, the
    scanned point and the searched point, so boundary optima come back
    exact.  ``n`` is 2 for the one-peaked additive curve and 2001 in literal
    mode.
    """
    if upper is None:
        upper = expected_cyber_cost(x, 0.0, context)
        if upper <= 0.0:
            return OptimalSpend(0.0, enb(x, 0.0, context))
    else:
        upper = float(upper)
        if not math.isfinite(upper) or upper <= 0.0:
            raise ValueError(f"upper must be finite and > 0, got {upper!r}")

    n = 2 if getattr(context, "mode", ADDITIVE) == ADDITIVE else 2001
    return OptimalSpend(*_scan_max(_net_curve(x, context), 0.0, upper, n, 1e-6 * upper))


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


def _water_fill(gdfs, budget: float | None, f0: dict[str, float]) -> tuple[dict[str, float], float]:
    """Separable concave allocation: each spend solves ``pull(s) = 1 + lam``
    for one shared ``lam``; ``f0`` is ``allocate``'s f(0) table, which tops
    each peak's bracket.

    Each GDF's spend falls as ``lam`` rises, from its peak at 0 to 0 at
    ``pull(0) - 1``, so their sum does too, and ``lam`` is one root find on
    it (Everett's multiplier search, Operations Research 11(3), 1963), closed
    down to adjacent floats.  At each ``lam`` probed, each spend is one root
    find between its spends at the nearest ``lam`` tried below and above,
    which bracket it by that monotonicity (the first probe's brackets are
    ``[0, peak]``), so the brackets narrow as the search closes in.  A root
    find gives the bracket's lower end where the pull there is at or below
    ``1 + lam``, its upper end where the pull never falls to it.  The
    spends found at the final bracket's upper end sum to at most the budget
    and those at its lower end to more; the spends ``theta`` of the way from
    the first to the second sum to the budget (or, rounded above it, lower
    ``theta`` to where they fit), and fill Table plateaus.
    """
    pulls = {x.id: partial(_pull, x.attacks) for x in gdfs}
    peaks = {x.id: _root(pulls[x.id], 0.0, f0[x.id], 1.0) for x in gdfs}
    if budget is None or sum(peaks.values()) <= budget:
        return peaks, 0.0  # slack budget: everyone at their own peak

    top = max(pull(0.0) for pull in pulls.values()) - 1.0
    found = {0.0: peaks, top: dict.fromkeys(peaks, 0.0)}  # the spends at each lam tried

    def used(lam: float) -> float:
        if lam not in found:
            # each spend falls as lam rises: bracket it by its spends at the
            # nearest lam tried on either side, in either order after rounding
            below = found[max(t for t in found if t < lam)]
            above = found[min(t for t in found if t > lam)]
            found[lam] = {xid: _root(pull, *sorted((above[xid], below[xid])), 1.0 + lam) for xid, pull in pulls.items()}
        return sum(found[lam].values())

    # above every marginal at half an even share, each spend is below that
    # share, so that lam tops the bracket if its spends (to root width) fit
    tight = max(pull(0.5 * budget / len(pulls)) for pull in pulls.values()) - 1.0
    if 0.0 < tight < top and used(tight) <= budget:
        top = tight
    lo, hi = _bisect_decreasing(used, 0.0, top, budget, 0.0)
    low, high = found[hi], found[lo]
    if lo == hi:  # the spends there use the budget exactly, or it is 0
        return low, hi
    sum_low = sum(low.values())

    def mix(t: float) -> dict[str, float]:
        return {xid: low[xid] + t * (high[xid] - low[xid]) for xid in low}

    theta = (budget - sum_low) / (sum(high.values()) - sum_low)
    if sum(mix(theta).values()) > budget:  # rounded up: the lower end of a closed bracket fits
        theta, _ = _bisect_decreasing(lambda t: -sum(mix(t).values()), 0.0, theta, -budget, 0.0)
    return mix(theta), hi


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
    f0: dict[str, float],
    scale: float,
) -> tuple[dict[str, float], list[float]]:
    """Line searches on the coupled objective from ``spends``, one GDF and one
    pair at a time; ``f0`` and ``scale`` are ``allocate``'s f(0) table and
    its floored sum.

    Every move is one line search: along one spend on ``[0, top]``, where
    ``top`` is what the budget leaves it, and along a budget transfer
    ``s_x - d, s_y + d`` on ``[-s_y, s_x]``.  The search is ``_scan_max``
    over 5 points, polished to about 1e-9 of the moved GDFs' largest
    ``f(0)``.  It moves to its point only if that beats the current
    objective by more than ``len(ids)`` ulps of the summed absolute GDF
    values at the sweep's start, the rounding of the sum it compares, so
    sweeps never lower the objective and rounding never decides a move.
    Its probes go through one ``CoupledTotal.line``, which refolds only the
    moved GDFs and their descendants.  A spend the budget leaves no room to
    raise by more than the search tolerance gets no move of its own:
    lowering it is a transfer.  Sweeps stop when one gains at
    most 1e-9 * scale, unless the relative spread of the interior marginals
    that the KKT certificate compares is still above 1e-5 and the last
    stalled sweep at least halved it.  Returns the spends and the objective
    at the start and after each sweep.
    """
    ids = [x.id for x in sub.gdfs]
    cap = 1.0 + sum(a.loss for x in sub.gdfs for a in x.attacks)
    obj = objective(spends)

    def search(
        moved: tuple[str, ...], at: Callable[[float], tuple[float, ...]], lo: float, hi: float, tol: float
    ) -> float:
        line = objective.line(spends, moved)
        best_t, best_v = _scan_max(lambda t: line(*at(t)), lo, hi, 5, tol)
        if best_v - obj > rounding:
            spends.update(zip(moved, at(best_t)))
            return best_v
        return obj

    last_spread = math.inf
    history = [obj]
    for _ in range(100):
        before = obj
        # a gain below the rounding of the summed values is no gain
        rounding = len(ids) * math.ulp(sum(abs(v) for v in objective.values(spends).values()))
        for xid in ids:
            others = sum(v for k, v in spends.items() if k != xid)
            top = cap if budget is None else min(cap, max(0.0, budget - others))
            tol = 1e-9 * max(f0[xid], 1e-6 * top, 1e-12)
            if top - spends[xid] > tol:
                obj = search((xid,), lambda t: (t,), 0.0, top, tol)
        for i, xid in enumerate(ids):
            for yid in ids[i + 1 :]:
                sx, sy = spends[xid], spends[yid]
                if sx <= 0.0 and sy <= 0.0:
                    continue
                tol = 1e-9 * max(f0[xid], f0[yid], 1e-12)
                obj = search((xid, yid), lambda d: (sx - d, sy + d), -sy, sx, tol)
        history.append(obj)
        if obj - before <= 1e-9 * scale:
            # a small objective gain can hide a loose certificate where the
            # objective is flat; sweep on while that spread keeps halving
            marginals = {xid: _coupled_marginal(objective, spends, xid, f0, scale) for xid in ids}
            spread = marginal_spread(marginals, _interior(spends, marginals, budget, scale))
            if spread <= 1e-5 or spread > 0.5 * last_spread:
                break
            last_spread = spread
    return spends, history


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
    import numpy as np  # local import: only literal mode needs it (see the module docstring)

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
    effective = p.budget if budget is None else float(budget)
    if effective is not None and (not math.isfinite(effective) or effective < 0.0):
        raise BudgetInfeasibleError(f"budget must be finite and >= 0, got {effective!r}")

    zero = [expected_cyber_cost(x, 0.0) for x in p.gdfs]
    scale = max(1.0, sum(zero))
    f0 = dict(zip(p.ids(), zero))
    kept = set(p.ids())
    rounds = 0
    total_sweeps = 0
    sweep_objectives: list[float] = []
    while kept:
        rounds += 1
        sub = restrict_portfolio(p, kept)
        if mode == ADDITIVE:
            spends, lam = _water_fill(sub.gdfs, effective, f0)
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
            refined = [_refine_with_edges(sub, total, start, effective, f0, scale) for start in starts]
            spends, sweep_objectives = max(refined, key=lambda r: r[1][-1])
            total_sweeps += len(sweep_objectives) - 1
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
            return _separable_marginal(x, spends[x.id], lam, f0)
        # without edges the slope is the GDF's own: differencing the whole sum
        # would lose digits to the rounding of the other GDFs' values
        own = total if sub.edges else lambda sp: total.values(sp)[x.id]
        return _coupled_marginal(own, spends, x.id, f0, scale)

    objective = float(sum(values[x.id] for x in sub.gdfs))
    marginals = {x.id: marginal(x) for x in sub.gdfs}
    if mode == ADDITIVE:
        interior = _interior(spends, marginals, effective, scale)
        if sub.edges and any(interior.values()):
            from statistics import median  # local import: only coupled allocation takes a median

            lam = median(marginals[i] for i, inside in interior.items() if inside)
    else:
        lam, interior = None, {x.id: False for x in sub.gdfs}

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
        sweep_objectives=tuple(sweep_objectives or [objective]),
    )
