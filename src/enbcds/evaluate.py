"""Expected net benefit of a GDF as a function of cyber-defense spending.

The static net benefit of deploying a functionality is its benefit minus
direct costs, minus expected non-cyber losses, minus the expected
cyberattack cost.  Only the cyberattack term responds to defense spending,
through each attack's breach-probability model; everything else is a
constant, so the benefit-versus-spend curve is that constant minus the
spend-dependent cost ``f(s)``.

Two readings of how defense spend enters ``f`` are supported:

* ``ADDITIVE`` (default): ``f(s) = s + sum_j P_s(j) * loss_j``.  The spend
  is charged once, which keeps the curve strictly concave for the
  parametric breach families and gives the classic single-peak shape.
* ``LITERAL``: ``f(s) = sum_j P_s(j) * (loss_j + s)``, i.e. the defense
  cost is folded into every attack's cost term and therefore scaled by its
  success probability.  Kept for comparison only; not concave in general,
  so optimizers fall back to grid search under this mode.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Mapping

from .model import Gdf, Portfolio

__all__ = [
    "ADDITIVE",
    "LITERAL",
    "EvaluationError",
    "UnknownGdfError",
    "DegenerateRangeError",
    "EvalContext",
    "EnbcdsCurve",
    "effective_prob",
    "expected_cyber_cost",
    "enb",
    "enbcds_curve",
]

ADDITIVE = "additive"
LITERAL = "literal"

_MIN_NORMAL = sys.float_info.min


class EvaluationError(Exception):
    pass


class UnknownGdfError(EvaluationError):
    pass


class DegenerateRangeError(EvaluationError):
    pass


@dataclass(frozen=True)
class EvalContext:
    """Evaluation environment: portfolio edges, per-GDF spends, and mode.

    ``spends`` supplies the defense spend of every deployed GDF so that
    upstream compromise probabilities can be computed; a GDF missing from
    the map is treated as unfunded (spend 0).

    ``_compromise`` is the compromise probability of every GDF at its spend
    in ``spends``, keyed by GDF id.  The first evaluation of a GDF with
    parents computes it in one pass over the portfolio's topological order,
    the order :class:`CoupledTotal` walks, so chains of any depth evaluate
    without recursion; later evaluations only read it.  A built portfolio
    is a DAG over its GDFs, so that order holds every GDF.  A context built
    by ``dataclasses.replace`` makes its own pass.
    """

    portfolio: Portfolio | None = None
    spends: Mapping[str, float] = field(default_factory=dict)
    mode: str = ADDITIVE

    def __post_init__(self):
        check_mode(self.mode)
        spends = {str(k): float(v) for k, v in dict(self.spends).items()}
        known = self.portfolio._graph.gdfs if self.portfolio is not None else None
        for k, v in spends.items():
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"spend for {k!r} must be finite and >= 0, got {v!r}")
            if known is not None and k not in known:
                raise UnknownGdfError(f"spend names gdf {k!r} not in the portfolio")
        object.__setattr__(self, "spends", spends)

    @cached_property
    def _compromise(self) -> dict[str, float]:
        graph = self.portfolio._graph
        q: dict[str, float] = {}
        for gid in graph.order:
            terms = _terms(graph.gdfs[gid].attacks, graph.parents.get(gid, ()))
            _, q[gid] = _fold_gdf(terms, self.spends.get(gid, 0.0), q, ADDITIVE)
        return q


def _actual_spends(p: Portfolio, spends: Mapping[str, float] | None = None) -> dict[str, float]:
    """Each GDF's spend in ``spends``, else its recorded ``actual_spend``,
    else 0, in portfolio order.  A key of ``spends`` that names no GDF is
    kept, so that ``EvalContext`` rejects it."""
    actual = {g.id: g.actual_spend if g.actual_spend is not None else 0.0 for g in p.gdfs}
    return {**actual, **spends} if spends else actual


def check_mode(mode: str) -> None:
    """Raise ValueError unless ``mode`` is ``ADDITIVE`` or ``LITERAL``."""
    if mode not in (ADDITIVE, LITERAL):
        raise ValueError(f"unknown evaluation mode {mode!r}")


def _require_spend(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"spend must be finite and >= 0, got {s!r}")
    return s


# ---------------------------------------------------------------------------
# The dependency fold.  Every evaluation path (single GDF through a context,
# or a whole portfolio through CoupledTotal) goes through these functions,
# so both produce bit-identical numbers.  A GDF's attacks become fold terms
# once per CoupledTotal, per curve and per GDF of a context's walk; probes
# then only fold them.
# ---------------------------------------------------------------------------


def _terms(attacks, parents) -> tuple:
    """One fold term ``(baseline_prob, loss, multiplier, ups)`` per attack.

    ``ups`` holds the ``(source, uplift)`` pairs of the ``parents`` edges
    whose uplift for the attack is not 1, in edge order: a parent with
    uplift 1 leaves every product of the fold as it is.
    """
    if not parents:
        return tuple([(a.baseline_prob, a.loss, a.breach.multiplier, ()) for a in attacks])
    return tuple([
        (
            a.baseline_prob,
            a.loss,
            a.breach.multiplier,
            tuple([(e.source, u) for e in parents if (u := e.uplift.get(a.id, 1.0)) != 1.0]),
        )
        for a in attacks
    ])


def _attack_prob(term, s: float, q: Mapping[str, float] | None) -> float:
    """Effective success probability of ``term``'s attack at spend ``s``,
    given the compromise probabilities ``q`` of the sources of its ``ups``.

    Parents compromise independently, so the result is the expectation of
    ``min(1, base * prod)`` over the products ``prod`` of the uplifts of
    every compromised subset of parents.  An attack without an uplifting
    parent is its clamped base.  One with a single uplifting parent takes
    the closed form ``(1 - q)·base + q·base·u`` below the clamp and
    ``q + (1 - q)·base`` at or above it: the operations, in order, that the
    fold below does for one parent.  With two or more, the fold builds
    that distribution one parent at a time but keeps only what can still
    change the result: an entry whose uplifted probability reaches the
    clamp at 1 stays there under every later parent (uplifts are >= 1), so
    its weight is banked in ``saturated`` and the entry dropped.  The cost
    is the number of products that stay below the clamp: 2^k for k
    uplifting parents only when ``base * prod < 1`` for most subsets, as at
    large spends with distinct uplifts.  In exact arithmetic this equals
    exhaustive enumeration over parent compromise states.  A curve or peak
    search, whose probes move only ``s``, folds each such attack once, into
    a :func:`_clamp_table`, and reads that instead.
    """
    # min(1.0, ...) inlined here: this is the allocator's innermost loop
    b, _, multiplier, ups = term
    base = b * multiplier(s, b)
    if not base < 1.0:
        base = 1.0
    if not ups:
        return base
    if len(ups) == 1:
        ((source, uplift),) = ups
        qp = q[source]
        if (up := base * uplift) < 1.0:
            return (1.0 - qp) * base + qp * up
        return qp + (1.0 - qp) * base
    dist = [(1.0, base)]  # (weight, base * uplift product) of the unclamped subsets
    saturated = 0.0
    for source, uplift in ups:
        qp = q[source]
        untouched = 1.0 - qp
        kept = []
        for prob, up in dist:
            kept.append((prob * untouched, up))
            if (up := up * uplift) < 1.0:
                kept.append((prob * qp, up))
            else:
                saturated += prob * qp
        dist = kept
    return saturated + sum([prob * up for prob, up in dist])


def _clamp_table(term, hi: float, q: Mapping[str, float]) -> Callable[[float], float]:
    """``s -> _attack_prob(term, s, q)`` on ``[0, hi]``, up to the order of
    summation, from one fold at ``hi``.

    With ``q`` fixed only ``base = min(1, b·g(s))`` moves with the spend.
    The fold runs once at ``top = min(1, b·g(hi))`` over the uplift
    products ``prod`` of the compromised parent subsets, and banks the
    weight of every subset whose product clamps there: ``g`` does not
    increase, so it clamps at every ``s <= hi`` too.  The other products
    are sorted, with prefix sums of ``w·prod`` and suffix sums of ``w``, so
    that ``P = banked + base·Σ_{base·prod<1} w·prod + Σ_{base·prod>=1} w``.
    One bisect finds the split, settled by the fold's own ``base·prod < 1``
    test, so a probe costs O(log n) for the n products left.  At ``base`` 0
    (a zero baseline, or ``g`` underflowing) nothing clamps and ``P`` is 0.
    A subnormal base folds: the table's products can overflow where the
    fold's, each taken times the base, do not.
    """
    b, _, multiplier, ups = term
    top = b * multiplier(hi, b)
    if not top < 1.0:
        top = 1.0
    dist = [(1.0, 1.0)]  # (weight, uplift product) of the subsets unclamped at top
    banked = 0.0
    for source, uplift in ups:
        qp = q[source]
        untouched = 1.0 - qp
        kept = []
        for w, prod in dist:
            kept.append((w * untouched, prod))
            if top * (prod := prod * uplift) >= 1.0:  # not at top 0, where 0 * inf is NaN
                banked += w * qp
            else:
                kept.append((w * qp, prod))
        dist = kept
    dist.sort(key=itemgetter(1))
    n = len(dist)
    prods = [prod for _, prod in dist]
    below = [0.0, *accumulate([w * prod for w, prod in dist])]  # over the first i products
    above = [*accumulate([w for w, _ in reversed(dist)])][::-1] + [0.0]  # over products i onward

    def prob(s: float) -> float:
        base = b * multiplier(s, b)
        if not base < 1.0:
            base = 1.0
        elif not base >= _MIN_NORMAL:
            # base 0: no subset's attack succeeds.  A subnormal base times a
            # product that overflowed to inf may or may not clamp, which
            # the table cannot tell, so it folds
            return _attack_prob(term, s, q) if base else 0.0
        i = bisect_left(prods, 1.0 / base)
        while i and not base * prods[i - 1] < 1.0:
            i -= 1
        while i < n and base * prods[i] < 1.0:
            i += 1
        return banked + base * below[i] + above[i]

    return prob


def _fold_gdf(terms, s: float, q, mode: str) -> tuple[float, float]:
    """Expected cyber cost ``f(s)`` of the GDF whose attacks are ``terms``
    and the probability that at least one of its attacks succeeds."""
    loss = 0.0
    prob_total = 0.0
    miss = 1.0
    for term in terms:
        p = _attack_prob(term, s, q)
        loss += p * term[1]
        prob_total += p
        miss *= 1.0 - p
    if mode == LITERAL:
        return loss + s * prob_total, 1.0 - miss
    return s + loss, 1.0 - miss


def _fixed_net(x: Gdf) -> float:
    """The spend-independent part of the net benefit."""
    return x.ben - x.dir_costs - sum(ev.prob * ev.cost for ev in x.adverse)


def _upstream(x: Gdf, context: EvalContext | None) -> tuple[tuple, dict | None]:
    """Parent edges of ``x`` in the context portfolio and, when it has
    parents, the context's compromise probabilities, which hold every GDF's.
    Raises UnknownGdfError for a GDF outside the portfolio."""
    if context is None or context.portfolio is None:
        return (), None
    graph = context.portfolio._graph
    if x.id not in graph.gdfs:
        raise UnknownGdfError(f"gdf {x.id!r} is not part of the context portfolio")
    parents = graph.parents.get(x.id, ())
    return parents, context._compromise if parents else None


def _net_curve(x: Gdf, context: EvalContext | None, hi: float | None = None) -> Callable[[float], float]:
    """``s -> enb(x, s, context)`` for spends already known to be finite and
    >= 0.  The spend-independent part and the upstream lookup are done once
    here, as are the fold terms, so a scan over many spends pays only the
    fold per point; raises what :func:`_upstream` raises.

    ``hi`` is the top of the window a curve or peak search probes.  Given
    it, each attack with two or more uplifting parents folds once, into a
    :func:`_clamp_table`, and a probe at or below ``hi`` reads the tables:
    O(log n) per such attack in place of a fold over up to 2^k parent
    subsets.  Other attacks keep :func:`_attack_prob`'s closed forms, and a
    probe above ``hi`` folds.  Without ``hi`` every probe folds.
    """
    fixed = _fixed_net(x)
    parents, q = _upstream(x, context)
    terms = _terms(x.attacks, parents)
    mode = getattr(context, "mode", ADDITIVE)

    def fold(s: float) -> float:
        return fixed - _fold_gdf(terms, s, q, mode)[0]

    if hi is None or all(len(term[3]) < 2 for term in terms):
        return fold
    probs = [_clamp_table(term, hi, q) if len(term[3]) > 1 else partial(_attack_prob, term, q=q) for term in terms]
    losses = [term[1] for term in terms]
    literal = mode == LITERAL

    def net(s: float) -> float:
        if s > hi:
            return fold(s)
        # _fold_gdf's sums, in its order
        loss = 0.0
        prob_total = 0.0
        for prob, attack_loss in zip(probs, losses):
            p = prob(s)
            loss += p * attack_loss
            prob_total += p
        return fixed - (loss + s * prob_total if literal else s + loss)

    return net


def effective_prob(x: Gdf, attack_id: str, s: float, context: EvalContext | None = None) -> float:
    """Success probability of ``attack_id`` against ``x`` at spend ``s``.

    Without dependency context this is ``baseline * g(s)``.  With upstream
    parents, each parent's compromise probability mixes the baseline with
    the uplifted (clamped) probability, independently across parents.
    """
    _require_spend(s)
    parents, q = _upstream(x, context)
    return _attack_prob(_terms((x.attack(attack_id),), parents)[0], s, q)


def expected_cyber_cost(x: Gdf, s: float, context: EvalContext | None = None) -> float:
    """Expected cyberattack cost ``f(s)`` of ``x`` at defense spend ``s``.

    In the default additive mode this is the spend plus the expected loss
    over the GDF's attack set; see the module docstring for the literal
    alternative.
    """
    s = _require_spend(s)
    parents, q = _upstream(x, context)
    return _fold_gdf(_terms(x.attacks, parents), s, q, getattr(context, "mode", ADDITIVE))[0]


def enb(x: Gdf, s: float, context: EvalContext | None = None) -> float:
    """Expected net benefit of deploying ``x`` with defense spend ``s``.

    Benefits minus direct costs, minus the expected non-cyber adverse cost
    (spend-independent), minus :func:`expected_cyber_cost`.  Negative values
    mean the functionality is an expected loss at that spending level.
    """
    s = _require_spend(s)
    return _net_curve(x, context)(s)


class CoupledTotal:
    """Summed net benefit of every GDF of ``p`` as a function of all spends.

    Equal, bit for bit, to building ``EvalContext(p, spends, mode)`` and
    summing ``enb`` over ``p.gdfs``, but without a context per call: each
    GDF's fold terms are built once, here, and one pass over the
    topological order computes each GDF's attack probabilities once and
    reuses them for both its own net benefit and its children's fold.
    :meth:`values` returns the per-GDF net benefits that the sum is made
    of.  The optimizer probes the sum along lines that move one or two
    spends, each tens of times; :meth:`line` walks once and then refolds,
    per probe, only the moved GDFs and their descendants.
    """

    def __init__(self, p: Portfolio, mode: str = ADDITIVE):
        check_mode(mode)
        graph = p._graph
        steps = []
        for gid in graph.order:
            x, parents = graph.gdfs[gid], graph.parents.get(gid, ())
            steps.append((gid, _terms(x.attacks, parents), parents, _fixed_net(x)))
        self._steps = tuple(steps)
        self._ids = tuple(x.id for x in p.gdfs)
        self._mode = mode

    def __call__(self, spends: Mapping[str, float]) -> float:
        values = self.values(spends)
        return sum(values[gid] for gid in self._ids)

    def values(self, spends: Mapping[str, float]) -> dict[str, float]:
        """Net benefit of each GDF at ``spends``, keyed by GDF id; equal, bit
        for bit, to ``enb(x, spends[x.id], EvalContext(p, spends, mode))``."""
        return self._walk(spends, {})

    def _walk(self, spends: Mapping[str, float], q: dict[str, float]) -> dict[str, float]:
        values: dict[str, float] = {}
        for gid, terms, _, fixed in self._steps:
            values[gid] = self._fold(gid, terms, spends[gid], fixed, q)
        return values

    def _fold(self, gid: str, terms, s: float, fixed: float, q: dict[str, float]) -> float:
        """Net benefit of GDF ``gid``, whose fold terms are ``terms``, at
        spend ``s``; records its compromise probability in ``q``, which holds
        its parents'."""
        if not 0.0 <= s < math.inf:
            raise ValueError(f"spend for {gid!r} must be finite and >= 0, got {s!r}")
        cost, q[gid] = _fold_gdf(terms, s, q, self._mode)
        return fixed - cost

    def line(self, spends: Mapping[str, float], moved: tuple[str, ...]) -> Callable[..., float]:
        """``(*s) -> self({**spends, **dict(zip(moved, s))})``, bit for bit.

        One walk at ``spends`` gives every GDF's value and compromise
        probability; each probe then refolds only the ``moved`` GDFs and
        their descendants, upstream first, and sums the values in portfolio
        order, as :meth:`__call__` does.
        """
        q: dict[str, float] = {}
        base = self._walk(spends, q)
        slot = {gid: i for i, gid in enumerate(self._ids)}
        arg = {gid: k for k, gid in enumerate(moved)}
        touched: set[str] = set()
        steps = []
        for gid, terms, parents, fixed in self._steps:
            if gid in arg or any(edge.source in touched for edge in parents):
                touched.add(gid)
                steps.append((gid, terms, fixed, arg.get(gid), spends[gid], slot[gid]))
        vals = [base[gid] for gid in self._ids]
        fold = self._fold

        def probe(*s: float) -> float:
            for gid, terms, fixed, k, own, i in steps:
                vals[i] = fold(gid, terms, own if k is None else s[k], fixed, q)
            return sum(vals)

        return probe


@dataclass(frozen=True)
class EnbcdsCurve:
    """Sampled benefit-versus-spend curve with its solved peak."""

    gdf_id: str
    samples: tuple[tuple[float, float], ...]
    s_star: float
    peak_value: float

    @property
    def spends(self) -> tuple[float, ...]:
        return tuple(s for s, _ in self.samples)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)


def enbcds_curve(
    x: Gdf,
    s_max: float | None = None,
    n_samples: int = 200,
    context: EvalContext | None = None,
) -> EnbcdsCurve:
    """Uniformly sample the net-benefit curve of ``x`` on ``[0, s_max]``.

    ``s_max`` defaults to ``f(0)``: spending more than the expected
    zero-spend loss is always dominated (then ``f(s) >= s > f(0)``), so the
    default window is guaranteed to contain the peak.  For a GDF with no
    expected loss at all the window falls back to [0, 1].  Where the net
    benefit at the window's end overflows a double, the window is halved
    until it does not.  ``s_star`` is the maximizer within the sampled
    window.

    The samples and the peak search read one :func:`_net_curve` built for
    the final window, so each attack with two or more uplifting parents
    folds once for the whole curve (and once more for ``f(0)`` when the
    window is the default); the peak is ``optimal_spend(x, context,
    upper=s_max)``, bit for bit, unless the grid beats it.
    """
    if n_samples < 2:
        raise DegenerateRangeError(f"n_samples must be >= 2, got {n_samples}")
    _upstream(x, context)  # an unknown GDF fails before a bad window
    if s_max is None:
        f0 = expected_cyber_cost(x, 0.0, context)
        s_max = f0 if f0 > 0.0 else 1.0
        net = _net_curve(x, context, s_max)
        # s + f(s) can overflow at f(0) above half the largest double;
        # net(0) is finite, so the halving ends
        while not math.isfinite(net(s_max)):
            s_max *= 0.5
            net = _net_curve(x, context, s_max)
    else:
        s_max = float(s_max)
        if not math.isfinite(s_max) or s_max <= 0.0:
            raise DegenerateRangeError(f"s_max must be finite and > 0, got {s_max!r}")
        net = _net_curve(x, context, s_max)

    step = s_max / (n_samples - 1)
    samples = []
    for i in range(n_samples):
        s = s_max if i == n_samples - 1 else i * step
        samples.append((s, net(s)))

    from .optimize import _peak  # local import: optimize builds on this module

    s_star, peak_value = _peak(net, s_max, getattr(context, "mode", ADDITIVE))
    grid_s, grid_v = max(samples, key=lambda sv: sv[1])
    # the line search assumes one peak; the literal mode, and an uplift
    # clamp that binds on part of the window, can give the curve two
    if grid_v > peak_value:
        s_star, peak_value = grid_s, grid_v
    return EnbcdsCurve(gdf_id=x.id, samples=tuple(samples), s_star=s_star, peak_value=peak_value)
