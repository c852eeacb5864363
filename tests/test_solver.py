"""The allocator's root finder and its coupled refinement.

The root finder is checked against closed-form inverse marginals and
known step locations, never against another run of itself.  The coupled
refinement is checked on a corpus of stars, chains and diamonds: its KKT
certificate must be tight, and no budget transfer between two retained
GDFs, scored by the enumeration oracle, may beat the reported allocation.
"""

import dataclasses
import functools
import math
import sys
import time

import numpy as np
import pytest

from enbcds import (
    AttackType,
    DependencyEdge,
    Exponential,
    Gdf,
    GordonLoebI,
    Portfolio,
    Table,
    allocate,
    bundled_scenario,
    optimal_spend,
    restrict_portfolio,
)
from enbcds import optimize
from enbcds.evaluate import CoupledTotal, EvalContext, expected_cyber_cost
from enbcds.optimize import (
    _bisect_decreasing,
    _brent_max,
    _root,
    _scan_max,
    _separable_marginal,
    _water_fill,
)

from oracles import (
    PARAMETRIC,
    grid_argmax,
    make_rng,
    oracle_coupled_enb,
    oracle_enb,
    oracle_f,
    oracle_noncyber,
    oracle_total,
    random_gdf,
    random_portfolio,
)


# --------------------------------------------------------------------------
# closed-form inverse marginals of single-attack GDFs
#
# additive mode: m(s) = -1 - p*L*g'(s), so m(s) = lam solves to
#   gl1: (alpha*s + 1)**(beta + 1) = p*L*alpha*beta / (1 + lam)
#   exp: exp(kappa*s) = p*L*kappa / (1 + lam)
# and the spend is clamped at 0 where m(0) <= lam.


def f0_table(gdfs) -> dict[str, float]:
    """``allocate``'s f(0) table: each GDF's expected loss at spend 0."""
    return {x.id: expected_cyber_cost(x, 0.0) for x in gdfs}


def inverse_marginal(x: Gdf, lam: float) -> float:
    (a,) = x.attacks
    pull = a.baseline_prob * a.loss / (1.0 + lam)
    b = a.breach
    if isinstance(b, GordonLoebI):
        s = ((pull * b.alpha * b.beta) ** (1.0 / (b.beta + 1.0)) - 1.0) / b.alpha
    else:
        s = math.log(pull * b.kappa) / b.kappa
    return max(0.0, s)


def closed_form_lam(gdfs: list[Gdf], budget: float) -> float:
    """The shared marginal at which the closed-form spends sum to
    ``budget``, by plain bisection down to adjacent floats."""
    lo, hi = 0.0, max(closed_form_marginal(x, 0.0) for x in gdfs)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if sum(inverse_marginal(x, mid) for x in gdfs) > budget:
            lo = mid
        else:
            hi = mid


def single_attack_gdfs(seed: int, n: int) -> list[Gdf]:
    rng = make_rng(seed)
    return [
        random_gdf(rng, f"sa-{i}", n_attacks=1, families=(("gl1",), ("exp",))[i % 2])
        for i in range(n)
    ]


class TestRootFinderAgainstClosedForms:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_peaks_match_inverse_marginal_at_zero(self, seed):
        gdfs = single_attack_gdfs(seed, 8)
        peaks, lam = _water_fill(gdfs, None, f0_table(gdfs))
        assert lam == 0.0
        assert any(peaks.values())
        for x in gdfs:
            assert peaks[x.id] == pytest.approx(inverse_marginal(x, 0.0), rel=1e-9)

    @pytest.mark.parametrize("share", [0.05, 0.3, 0.7])
    def test_spends_match_inverse_marginal_at_lam(self, share, monkeypatch):
        gdfs = single_attack_gdfs(41, 10)
        budget = share * sum(inverse_marginal(x, 0.0) for x in gdfs)
        searches = []  # the fill's search for lam: its summed spends and final bracket

        def recorded(fn, lo, hi, target, tol):
            bracket = _bisect_decreasing(fn, lo, hi, target, tol)
            if target == budget:
                searches.append((fn, bracket))
            return bracket

        monkeypatch.setattr(optimize, "_bisect_decreasing", recorded)
        spends, lam = _water_fill(gdfs, budget, f0_table(gdfs))
        assert lam > 0.0
        assert sum(spends.values()) == pytest.approx(budget, rel=1e-9)
        for x in gdfs:
            peak = inverse_marginal(x, 0.0)
            assert spends[x.id] == pytest.approx(inverse_marginal(x, lam), rel=1e-9, abs=1e-12 * peak)
        assert lam == pytest.approx(closed_form_lam(gdfs, budget), rel=1e-11)
        # and closed down to adjacent floats: one float below, the spends exceed the budget
        ((used, (lo, hi)),) = searches
        assert hi == lam and lo == math.nextafter(hi, 0.0)
        assert used(lo) > budget >= used(hi)

    def test_returns_lo_when_target_is_not_above_fn_lo(self):
        assert _root(lambda s: 1.0 - s, 0.25, 2.0, 0.75) == 0.25
        assert _root(lambda s: 1.0 - s, 0.25, 2.0, 0.9) == 0.25

    def test_returns_hi_when_target_is_not_below_fn_hi(self):
        assert _root(lambda s: 1.0 - s, 0.0, 0.5, 0.5) == 0.5
        assert _root(lambda s: 1.0 - s, 0.0, 0.5, 0.4) == 0.5

    def test_smooth_root_to_tolerance_in_few_evaluations(self):
        calls = []

        def fn(s):
            calls.append(s)
            return math.exp(-3.0 * s) - 0.2

        root = _root(fn, 0.0, 10.0, 0.0)
        assert root == pytest.approx(math.log(5.0) / 3.0, rel=1e-12)
        assert len(calls) <= 20

    @pytest.mark.parametrize("level", [1e-12, 1e-3, 1.0])
    def test_step_closes_on_the_jump(self, level):
        # a plateau just above the target stalls plain false position; the
        # bisection fallback must still close on the jump at 0.7
        def fn(s):
            return level if s < 0.7 else -1.0

        root = _root(fn, 0.0, 1.0, 0.0)
        assert abs(root - 0.7) <= 1e-13

    def test_a_nan_residual_is_bisected_past(self):
        # a difference of values that overflow to -inf reads NaN; a NaN
        # secant step must not end in the root
        def fn(s):
            return 1.0 if s < 0.3 else math.nan if s < 0.6 else -1.0

        assert abs(_root(fn, 0.0, 1.0, 0.0) - 0.3) <= 1e-13

    @pytest.mark.parametrize("fn", [lambda s: math.exp(-3.0 * s) - 0.2, lambda s: 1.0 if s < 0.7 else -1.0])
    def test_zero_tolerance_closes_on_adjacent_floats(self, fn):
        a, b = _bisect_decreasing(fn, 0.0, 10.0, 0.0, 0.0)
        assert fn(a) > 0.0 > fn(b)
        assert b == math.nextafter(a, math.inf)


TABLE_ATTACK = AttackType(
    id="t",
    baseline_prob=0.5,
    loss=1e5,
    breach=Table(knots=((0.0, 1.0), (1e4, 0.5), (3e4, 0.3), (6e4, 0.25))),
)
# p*L = 5e4 and the segment slopes -5e-5, -1e-5, -1/6e5 give a staircase
# marginal 1.5, -0.5, -11/12, then -1 past the last knot
TABLE_GDF = Gdf(id="tbl", ben=1e6, attacks=(TABLE_ATTACK,))


class TestRootFinderOnTable:
    @pytest.mark.parametrize("target,kink", [(0.0, 1e4), (-0.7, 3e4), (-0.95, 6e4)])
    def test_root_sits_on_the_jump_between_plateaus(self, target, kink):
        m = lambda s: optimize._pull(TABLE_GDF.attacks, s) - 1.0
        lo, hi = 0.0, 9e4
        tol = 1e-13 * (hi - lo)  # the root finder's closing width
        root = _root(m, lo, hi, target)
        assert lo <= root <= hi
        assert abs(root - kink) <= tol
        eps = 1e-10 * (hi - lo)
        assert m(root - eps) > target > m(root + eps)

    def test_target_on_a_plateau_lands_on_that_plateau(self):
        m = lambda s: optimize._pull(TABLE_GDF.attacks, s) - 1.0
        root = _root(m, 0.0, 5e4, -0.5)
        tol = 1e-13 * 5e4
        assert 1e4 - tol <= root <= 3e4 + tol
        assert m(root) == pytest.approx(-0.5, abs=1e-12)

    def test_water_fill_spends_are_bracketed_and_use_the_budget(self):
        gdfs = [
            dataclasses.replace(TABLE_GDF, id=f"tbl-{i}", attacks=(dataclasses.replace(TABLE_ATTACK, loss=(1 + i) * 1e5),))
            for i in range(3)
        ]
        peaks, _ = _water_fill(gdfs, None, f0_table(gdfs))
        budget = 0.5 * sum(peaks.values())
        spends, lam = _water_fill(gdfs, budget, f0_table(gdfs))
        assert sum(spends.values()) == pytest.approx(budget, rel=1e-12)
        for x in gdfs:
            m = lambda s: optimize._pull(x.attacks, s) - 1.0
            assert 0.0 <= spends[x.id] <= peaks[x.id]
            if 0.0 < spends[x.id] < peaks[x.id]:
                assert m(spends[x.id] - 1e-3) >= lam - 1e-9
                assert m(spends[x.id] + 1e-3) <= lam + 1e-9

    def test_budget_inside_a_jump_of_the_summed_spends_fills_the_plateau(self):
        # marginals 1.5, -0.5, ... and 6.5, 0.5, ...: at lam above 0.5 both
        # spends sit on the knot 1e4, below it the second moves to 3e4, so a
        # budget of 3e4 leaves lam on the second GDF's plateau at 0.5
        gdfs = [
            dataclasses.replace(TABLE_GDF, id=f"tbl-{i}", attacks=(dataclasses.replace(TABLE_ATTACK, loss=loss),))
            for i, loss in enumerate((1e5, 3e5))
        ]
        spends, lam = _water_fill(gdfs, 3e4, f0_table(gdfs))
        assert lam == pytest.approx(0.5, rel=1e-12)
        assert sum(spends.values()) == pytest.approx(3e4, rel=1e-12)
        assert spends["tbl-0"] == pytest.approx(1e4, rel=1e-12)
        assert 1e4 < spends["tbl-1"] < 3e4


NO_ATTACK_GDF = Gdf(id="no-attacks", ben=1e3)
# m(0) = -1 + p*L*kappa = -0.999: never worth a first unit of budget
BELOW_ZERO_GDF = Gdf(
    id="below-zero",
    ben=1e3,
    attacks=(AttackType(id="b", baseline_prob=0.01, loss=10.0, breach=Exponential(0.01)),),
)


@pytest.mark.parametrize("seed", range(6))
def test_water_fill_contract_from_zero_budget_to_the_summed_peaks(seed):
    gdfs = list(random_portfolio(make_rng(seed), 6, padded=False).gdfs) + [NO_ATTACK_GDF, BELOW_ZERO_GDF]
    peaks, _ = _water_fill(gdfs, None, f0_table(gdfs))
    assert sum(peaks.values()) > 0.0

    spends, lam = _water_fill(gdfs, 0.0, f0_table(gdfs))
    assert all(v == 0.0 for v in spends.values())
    assert lam == max(optimize._pull(x.attacks, 0.0) - 1.0 for x in gdfs)

    for share in (0.05, 0.3, 0.7):
        budget = share * sum(peaks.values())
        spends, _ = _water_fill(gdfs, budget, f0_table(gdfs))
        assert sum(spends.values()) == pytest.approx(budget, rel=1e-12)
        assert spends[NO_ATTACK_GDF.id] == 0.0 and spends[BELOW_ZERO_GDF.id] == 0.0
        assert all(0.0 <= spends[x.id] <= peaks[x.id] for x in gdfs)

    # budgets within rounding of the summed peaks, where a fresh root find
    # at a lam near 0 can land a hair below its peak; this seed's share of 0-39
    for s in range(seed, 40, 6):
        gdfs = random_portfolio(make_rng(s), 5, padded=False).gdfs
        peaks, _ = _water_fill(gdfs, None, f0_table(gdfs))
        for share in (1.0 - 1e-16, 1.0 - 1e-15, 1.0 - 1e-14):
            budget = share * sum(peaks.values())
            spends, _ = _water_fill(gdfs, budget, f0_table(gdfs))
            assert all(math.isfinite(v) and v >= 0.0 for v in spends.values())
            assert sum(spends.values()) == pytest.approx(budget, rel=1e-12)


def test_water_fill_root_finds_lam_in_a_few_dozen_passes(monkeypatch):
    # 100 fixed halvings of lam would make 64 + 100 * 64 root-finder calls
    gdfs = random_portfolio(make_rng(0), 64, padded=False).gdfs
    peaks, _ = _water_fill(gdfs, None, f0_table(gdfs))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _bisect_decreasing(*args, **kwargs)

    monkeypatch.setattr(optimize, "_bisect_decreasing", counted)
    spends, _ = _water_fill(gdfs, 0.5 * sum(peaks.values()), f0_table(gdfs))
    assert sum(spends.values()) == pytest.approx(0.5 * sum(peaks.values()), rel=1e-12)
    assert len(calls) <= 40 * 64


def test_water_fill_brackets_each_spend_by_its_neighbours(monkeypatch):
    # cold root finds on [0, peak] at every lam take about 28,900 marginal
    # evaluations here; brackets from the spends at the nearest lam tried
    # on either side take about a third of that
    gdfs = random_portfolio(make_rng(0), 64, padded=False).gdfs
    f0 = f0_table(gdfs)
    peaks, _ = _water_fill(gdfs, None, f0)
    pull, calls = optimize._pull, 0

    def counted(attacks, s):
        nonlocal calls
        calls += 1
        return pull(attacks, s)

    monkeypatch.setattr(optimize, "_pull", counted)
    spends, _ = _water_fill(gdfs, 0.5 * sum(peaks.values()), f0)
    assert sum(spends.values()) == pytest.approx(0.5 * sum(peaks.values()), rel=1e-12)
    assert calls <= 15_000


def test_water_fill_closes_lam_under_a_marginal_hundreds_of_orders_above_it():
    # beta 1e300 puts one m(0) hundreds of orders above lam, so a bracket
    # topped there is still open after the root finder's guard
    gdfs = list(random_portfolio(make_rng(2), 6, padded=False).gdfs)
    steep = dataclasses.replace(gdfs[0].attacks[0], breach=GordonLoebI(alpha=5e-6, beta=1e300))
    gdfs[0] = dataclasses.replace(gdfs[0], attacks=(steep, *gdfs[0].attacks[1:]))
    peaks, _ = _water_fill(gdfs, None, f0_table(gdfs))
    budget = 0.5 * sum(peaks.values())
    spends, lam = _water_fill(gdfs, budget, f0_table(gdfs))
    assert lam < 10.0
    assert sum(spends.values()) == pytest.approx(budget, rel=1e-12)
    interior = [x for x in gdfs if 0.0 < spends[x.id] < peaks[x.id]]
    assert len(interior) >= 2
    for x in interior:
        assert _separable_marginal(x, spends[x.id], lam, f0_table(gdfs)) == pytest.approx(lam, rel=1e-9)


def test_water_fill_never_spends_past_a_tiny_budget():
    # at these shares a spend's root-find width can exceed the share, so
    # the bracket's tightened top holds only if its spends fit the budget
    for seed in range(40):
        gdfs = random_portfolio(make_rng(seed), 8, padded=False).gdfs
        peaks, _ = _water_fill(gdfs, None, f0_table(gdfs))
        for share in (1e-15, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 0.05, 0.3):
            budget = share * sum(peaks.values())
            spends, _ = _water_fill(gdfs, budget, f0_table(gdfs))
            assert sum(spends.values()) <= budget


# --------------------------------------------------------------------------
# KKT certificate of an edge-free allocation mixing Table and parametric GDFs


def closed_form_marginal(x: Gdf, s: float) -> float:
    """m(s) = -1 - p*L*g'(s) of a single-attack GL1 or exponential GDF."""
    (a,) = x.attacks
    b, pl = a.breach, a.baseline_prob * a.loss
    if isinstance(b, GordonLoebI):
        return -1.0 + pl * b.alpha * b.beta * (b.alpha * s + 1.0) ** (-b.beta - 1.0)
    return -1.0 + pl * b.kappa * math.exp(-b.kappa * s)


def adjacent_table_marginals(x: Gdf, s: float, tol: float) -> tuple[float, float]:
    """-1 - p*L*slope of the segments left and right of ``s`` in a
    single-attack Table GDF: the two around a knot within ``tol`` of ``s``,
    else the segment holding ``s`` twice.  The last segment is flat."""
    (a,) = x.attacks
    knots = a.breach.knots
    slopes = [(m2 - m1) / (s2 - s1) for (s1, m1), (s2, m2) in zip(knots, knots[1:])] + [0.0]
    k = min(range(1, len(knots)), key=lambda i: abs(knots[i][0] - s))
    if abs(knots[k][0] - s) <= tol:
        left, right = slopes[k - 1], slopes[k]
    else:
        left = right = slopes[max(i for i, (at, _) in enumerate(knots) if at <= s)]
    pl = a.baseline_prob * a.loss
    return -1.0 - pl * left, -1.0 - pl * right


def mixed_separable_portfolio(seed: int) -> Portfolio:
    """Nine single-attack GDFs, Table, GL1 and exponential in turn, padded
    so none drops, with half the summed standalone peaks as budget."""
    rng = make_rng(seed)
    gdfs = [
        random_gdf(rng, f"mix-{i}", n_attacks=1, families=(("table",), ("gl1",), ("exp",))[i % 3])
        for i in range(9)
    ]
    peaks = [grid_argmax(lambda s, x=x: oracle_enb(x, s), 0.0, oracle_f(x, 0.0), 801)[0] for x in gdfs]
    return Portfolio(gdfs=tuple(gdfs), edges=(), budget=0.5 * sum(peaks))


def relative_spread(values) -> float:
    lo, hi = min(values), max(values)
    return (hi - lo) / max(abs(hi), abs(lo))


@pytest.mark.parametrize("seed", [5, 23, 61])
def test_mixed_separable_certificate_is_tight_and_exact(seed):
    p = mixed_separable_portfolio(seed)
    r = allocate(p)
    assert not r.dropped and r.lam > 0.0
    inner = [g for g, inside in r.interior.items() if inside]
    tables = [x for x in p.gdfs if isinstance(x.attacks[0].breach, Table)]
    assert {x.id for x in tables} & set(inner) and set(inner) - {x.id for x in tables}
    assert relative_spread([r.marginal_at_solution[g] for g in inner]) <= 1e-4

    kinked = []
    for x in p.gdfs:
        s, got = r.spends[x.id], r.marginal_at_solution[x.id]
        if x not in tables:
            assert got == pytest.approx(closed_form_marginal(x, s), rel=1e-9)
        elif r.interior[x.id]:
            left, right = adjacent_table_marginals(x, s, 1e-9 * oracle_f(x, 0.0))
            assert right - 1e-12 <= got <= left + 1e-12
            if left > right:
                kinked.append(x)
    assert kinked

    # the same reporting code, one Table spend moved off its kink: the
    # certificate must catch it
    f0 = f0_table(p.gdfs)
    for x in kinked:
        moved = {**r.spends, x.id: r.spends[x.id] + 1e-6 * oracle_f(x, 0.0)}
        assert _separable_marginal(x, r.spends[x.id], r.lam, f0) == r.marginal_at_solution[x.id]
        marginals = [_separable_marginal(p.gdf(g), moved[g], r.lam, f0) for g in inner]
        assert relative_spread(marginals) > 1e-4


# --------------------------------------------------------------------------
# coupled allocation corpus: stars, chains and diamonds of 3-6 GDFs


def _shape_edges(shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "star":
        return [(i, n - 1) for i in range(n - 1)]
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    head = [(0, 1), (0, 2), (1, 2)] if n == 3 else [(0, 1), (0, 2), (1, 3), (2, 3)]
    return head + [(i, i + 1) for i in range(3, n - 1)]


def shaped_portfolio(rng, shape: str, n: int, tag: str) -> Portfolio:
    """Parametric GDFs joined in ``shape``, uplifts drawn from [1.2, 5] and
    the budget half the summed standalone peaks.  Every GDF is padded
    against its all-parents-compromised zero-spend loss plus the budget, so
    the drop rule never fires, even on a parent funded past its own peak
    to shield its children."""
    gdfs = [random_gdf(rng, f"{tag}-{i}", n_attacks=2, families=PARAMETRIC) for i in range(n)]
    peaks = [grid_argmax(lambda s, x=x: oracle_enb(x, s), 0.0, oracle_f(x, 0.0), 801)[0] for x in gdfs]
    budget = 0.5 * sum(peaks)
    edges = []
    worst = {x.id: {a.id: 1.0 for a in x.attacks} for x in gdfs}
    for src, dst in _shape_edges(shape, n):
        child = gdfs[dst]
        uplift = {a.id: float(rng.uniform(1.2, 5.0)) for a in child.attacks if rng.uniform() < 0.8}
        if not uplift:
            uplift = {child.attacks[0].id: float(rng.uniform(1.2, 5.0))}
        for aid, u in uplift.items():
            worst[child.id][aid] *= u
        edges.append(DependencyEdge(source=gdfs[src].id, target=child.id, uplift=uplift))
    for i, x in enumerate(gdfs):
        f0 = sum(min(1.0, a.baseline_prob * worst[x.id][a.id]) * a.loss for a in x.attacks)
        gdfs[i] = dataclasses.replace(x, ben=x.dir_costs + oracle_noncyber(x) + 1.1 * f0 + budget)
    return Portfolio(gdfs=tuple(gdfs), edges=tuple(edges), budget=budget)


@functools.cache
def coupled_corpus() -> tuple[Portfolio, ...]:
    # the oracle's enumeration grows fast with depth and fan-in, so the
    # larger shapes are drawn less often
    rng = make_rng(20260901)
    return tuple(
        shaped_portfolio(rng, shape, n, f"{shape}{k}")
        for shape in ("star", "chain", "diamond")
        for k, n in enumerate((3, 3, 3, 4, 4, 4, 5, 5, 5, 6))
    )


def best_transfer_gain(p: Portfolio, spends: dict[str, float], points: int = 41) -> float:
    """Largest oracle-scored gain of moving spend between two funded GDFs,
    over a uniform grid of transfers covering each pair's whole range."""
    base = oracle_total(p, spends)
    ids = [x.id for x in p.gdfs]
    best = 0.0
    for i, xid in enumerate(ids):
        for yid in ids[i + 1:]:
            sx, sy = spends[xid], spends[yid]
            if sx <= 0.0 and sy <= 0.0:
                continue
            for delta in np.linspace(-sy, sx, points):
                moved = {**spends, xid: sx - float(delta), yid: sy + float(delta)}
                best = max(best, oracle_total(p, moved) - base)
    return best


def test_coupled_corpus_is_kkt_tight_and_transfer_optimal():
    corpus = coupled_corpus()
    assert len(corpus) >= 30
    start = time.perf_counter()
    worst_spread, worst_gain = 0.0, -math.inf
    for p in corpus:
        r = allocate(p)
        assert not r.dropped
        scale = max(1.0, sum(oracle_f(x, 0.0) for x in p.gdfs))
        assert r.objective == pytest.approx(oracle_total(p, r.spends), abs=1e-9 * scale)
        marginals = [r.marginal_at_solution[g] for g, inside in r.interior.items() if inside]
        if len(marginals) >= 2:
            lo, hi = min(marginals), max(marginals)
            spread = (hi - lo) / max(1e-12, abs(hi), abs(lo))
            worst_spread = max(worst_spread, spread)
            assert spread <= 1e-4
        gain = best_transfer_gain(p, r.spends) / scale
        worst_gain = max(worst_gain, gain)
        assert gain <= 1e-6
    print(f"{len(corpus)} coupled portfolios: worst KKT spread {worst_spread:.2e}, "
          f"worst transfer gain {worst_gain:.2e} of scale, "
          f"{time.perf_counter() - start:.1f}s")


@pytest.mark.parametrize("mode", ["additive", "literal"])
def test_coupled_marginals_match_oracle_differences(mode):
    # each reported coupled marginal is one central difference, cut at 0, of
    # step 1e-6 * max(f(0), 1e-9 * scale, 1e-9); the oracle's totals at the
    # same two spends give the same difference to rounding
    checked = 0
    for seed in range(30):
        p = random_portfolio(make_rng(500 + seed), 3 + seed % 3, with_edges=True, n_attacks=2)
        scale = max(1.0, sum(oracle_f(x, 0.0) for x in p.gdfs))
        r = allocate(p, budget=0.3 * scale, mode=mode)
        kept = restrict_portfolio(p, set(p.ids()) - r.dropped)
        if not kept.edges:
            continue
        spends = {g: r.spends[g] for g in kept.ids()}
        for x in kept.gdfs:
            s, h = spends[x.id], 1e-6 * max(oracle_f(x, 0.0), 1e-9 * scale, 1e-9)
            a, b = max(0.0, s - h), s + h
            rise = oracle_total(kept, {**spends, x.id: b}, mode) - oracle_total(kept, {**spends, x.id: a}, mode)
            assert r.marginal_at_solution[x.id] * (b - a) == pytest.approx(rise, abs=1e-12 * scale)
            checked += 1
    assert checked >= 100


def test_coupled_iterations_count_one_round_and_its_sweeps():
    # no GDF of the corpus is dropped, so there is one drop round, and the
    # kept refinement's history holds its start and one objective per sweep
    for p in coupled_corpus()[::10]:
        r = allocate(p)
        assert not r.dropped
        assert len(r.sweep_objectives) >= 2
        assert r.iterations == len(r.sweep_objectives)


def test_kkt_certificate_holds_where_the_objective_is_flat():
    # sweeps stopped on the objective gain alone left this diamond with a
    # KKT spread of 1.9e-4: the objective barely moves along the last
    # transfers while the marginals still disagree
    p = shaped_portfolio(make_rng(10), "diamond", 5, "flat")
    r = allocate(p)
    marginals = [r.marginal_at_solution[g] for g, inside in r.interior.items() if inside]
    assert len(marginals) >= 2
    lo, hi = min(marginals), max(marginals)
    assert (hi - lo) / max(abs(hi), abs(lo)) <= 1e-4


def test_slack_budget_funds_a_parent_past_its_own_peak():
    # with budget to spare, only a move along one spend can raise a's spend
    # past its standalone peak to shield b; budget transfers cannot
    a = Gdf(id="a", ben=1e6, attacks=(AttackType(id="x", baseline_prob=0.3, loss=1e5, breach=Exponential(1e-4)),))
    b = Gdf(id="b", ben=1e7, attacks=(AttackType(id="y", baseline_prob=0.1, loss=2e6, breach=Exponential(2e-6)),))
    p = Portfolio(gdfs=(a, b), edges=(DependencyEdge(source="a", target="b", uplift={"y": 5.0}),))
    r = allocate(p, budget=None)
    assert not r.dropped
    assert r.spends["a"] > 1.5 * optimal_spend(a).s_star  # 32,958 against 10,986
    grid = max(
        oracle_total(p, {"a": float(sa), "b": float(sb)})
        for sa in np.linspace(0.0, 2.0 * oracle_f(a, 0.0), 121)
        for sb in np.linspace(0.0, oracle_f(b, 0.0), 121)
    )
    assert r.objective >= grid


def test_difference_step_below_an_ulp_of_the_spend_reads_as_flat():
    # b has no attacks, so f(0) = 0 and its difference step is 1e-15 of the
    # summed f(0); at 30x that sum the uniform start puts 4.5e6 on each GDF,
    # where that step is below half an ulp and both probes land on one point
    a = Gdf(id="a", ben=1e6, attacks=(AttackType(id="x", baseline_prob=0.3, loss=1e6, breach=Exponential(1e-4)),))
    b = Gdf(id="b", ben=1e6, attacks=())
    p = Portfolio(gdfs=(a, b), edges=(DependencyEdge(source="b", target="a", uplift={"x": 2.0}),))
    slack = allocate(p, budget=None)
    r = allocate(p, budget=30.0 * oracle_f(a, 0.0))
    assert r.spends == slack.spends and r.spends["b"] == 0.0
    assert r.objective == slack.objective


def with_attack_loss(p: Portfolio, attack: int, loss: float, gdf: int = 0) -> Portfolio:
    """``p`` with the loss of attack ``attack`` of GDF ``gdf`` (default the
    first) set to ``loss``."""
    x = p.gdfs[gdf]
    attacks = list(x.attacks)
    attacks[attack] = dataclasses.replace(attacks[attack], loss=loss)
    gdfs = list(p.gdfs)
    gdfs[gdf] = dataclasses.replace(x, attacks=tuple(attacks))
    return dataclasses.replace(p, gdfs=tuple(gdfs))


def test_an_attack_loss_of_the_largest_double_is_dropped_not_nan():
    # that GDF's coupled objective overflows to -inf at large spends
    p = with_attack_loss(random_portfolio(make_rng(0), 2, with_edges=True), 1, sys.float_info.max)
    r = allocate(p)
    assert r.dropped == {"gdf-0"}
    assert all(math.isfinite(v) for v in r.spends.values())


@pytest.mark.parametrize(
    "seed, n, attack, objective",
    [(0, 2, 1, 1_148_719.94), (1, 3, 0, 871_746.49)],
    ids=["gdf-1-kept", "gdf-1-not-dropped-by-rounding"],
)
def test_a_move_that_gains_only_by_rounding_is_not_taken(seed, n, attack, objective):
    # gdf-0's value is about -2.7e299, so the summed objective rounds at
    # about 1e283: a transfer of 8.5e285 from gdf-0 to gdf-1 "gained" by
    # rounding, and both GDFs of the first portfolio were dropped for 0
    p = with_attack_loss(random_portfolio(make_rng(seed), n, with_edges=True), attack, 1e300)
    r = allocate(p)
    assert r.dropped == {"gdf-0"}
    assert r.objective == pytest.approx(objective, abs=0.01)
    kept = restrict_portfolio(p, set(p.ids()) - r.dropped)
    assert r.objective == pytest.approx(oracle_total(kept, {g: r.spends[g] for g in kept.ids()}), rel=1e-12)


def test_golden_search_stops_where_the_floats_cannot_shrink_its_bracket():
    # a budget transfer between two spends of 8e307 searches a bracket whose
    # floats are 1e292 apart, against a tolerance of 1e-6 of a GDF's f(0),
    # as in allocate on a coupled portfolio with the largest double as budget
    calls = []

    def fn(t):
        calls.append(t)
        assert len(calls) < 1000, "the search does not stop"
        return -abs(t - 1e307)

    t, _ = _brent_max(fn, -8e307, 8e307, 1e-3)
    assert t == pytest.approx(1e307, rel=1e-15)


@pytest.mark.parametrize(
    "fn, peak",
    [(lambda t: -(t * 1e3), 0.0), (lambda t: -abs(t - 1.7e308), 1.7e308)],
    ids=["overflows-above-the-peak", "peaks-near-the-largest-double"],
)
def test_line_maximizer_ends_on_a_bracket_up_to_the_largest_double(fn, peak):
    # the first curve reads -inf above 1.8e305, as a net benefit does where a
    # spend plus a loss near the largest double overflows, and the search
    # starts there: moving to a point that ties at -inf above the current one
    # walks it to the top of the bracket.  There, as on the second curve, a
    # midpoint taken as (a + b) / 2 overflows, and the search never ends
    calls = []

    def counted(t):
        calls.append(t)
        assert len(calls) < 1000, "the search does not stop"
        return fn(t)

    hi = sys.float_info.max
    t, v = _brent_max(counted, 0.0, hi, 1e-6 * hi)
    assert abs(t - peak) <= 1e-6 * hi and math.isfinite(v)
    assert len(calls) <= 100


def test_line_maximizer_ends_on_a_bracket_of_subnormals():
    # optimal_spend on a GDF whose only loss comes from a baseline of 5e-324
    # searches [0, f(0)] = [0, 7.4e-318] to 1e-6 of that, which rounds to
    # one float spacing; a step taken as a share of |x| is then 0
    calls = []

    def flat(t):
        calls.append(t)
        assert len(calls) < 1000, "the search does not stop"
        return 487000.0

    _brent_max(flat, 0.0, 7.410985e-318, 1e-6 * 7.410985e-318)
    assert len(calls) <= 100


def test_line_maximizer_reads_nan_as_minus_infinity():
    # NaN above 0.35, the first golden point 0.382 included: read as -inf,
    # it loses every comparison, and the search closes on the peak at 0.3
    def fn(t):
        return math.nan if t > 0.35 else -((t - 0.3) ** 2)

    assert _brent_max(fn, 0.0, 1.0, 1e-9) == (0.3, -0.0)


SMOOTH_PEAKS = [  # (curve, its peak on [0, 1])
    (lambda t: -math.cosh(t - 0.37), 0.37),
    (lambda t: math.log1p(5.0 * t) - 2.0 * t, 0.3),
    (lambda t: -((t - 0.8) ** 4) - (t - 0.8) ** 2, 0.8),
]


def test_line_maximizer_reaches_a_smooth_peak_in_a_few_evaluations():
    # golden section alone needs about 30 evaluations to close a bracket of 1
    # to 1e-6; parabolic steps find these peaks in at most 15
    for fn, peak in SMOOTH_PEAKS:
        calls = []
        t, v = _brent_max(lambda t: calls.append(t) or fn(t), 0.0, 1.0, 1e-6)
        assert abs(t - peak) <= 1e-6 and v == fn(t)
        assert len(calls) <= 15


def test_scan_max_returns_an_end_bit_exact():
    # lo + 4 * step rounds away from hi here, as on a budget transfer line
    # [-s_y, s_x]; the scan's last point is hi itself
    lo, hi = -0.2, 0.5
    assert lo + 4 * (hi / 4 - lo / 4) != hi
    assert _scan_max(lambda t: -t, lo, hi, 5, 1e-9) == (lo, -lo)
    assert _scan_max(lambda t: t, lo, hi, 5, 1e-9) == (hi, hi)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_scan_max_reaches_a_smooth_peak_in_n_plus_15_evaluations(n):
    for fn, peak in SMOOTH_PEAKS:
        calls = []
        t, v = _scan_max(lambda t: calls.append(t) or fn(t), 0.0, 1.0, n, 1e-6)
        assert abs(t - peak) <= 1e-6 and v == fn(t)
        assert len(calls) <= n + 15


def test_scan_max_polishes_the_peak_of_the_best_scanned_cell():
    # a wide peak of 1 at 0.3 and a narrow one of 2 at 0.9: Brent's search
    # over the whole bracket starts on the first and keeps to it, while the
    # scan's best point, 1.0, sits in the second's cell
    def fn(t):
        return max(1.0 - 10.0 * (t - 0.3) ** 2, 2.0 - 100.0 * (t - 0.9) ** 2)

    assert abs(_brent_max(fn, 0.0, 1.0, 1e-9)[0] - 0.3) <= 1e-6
    t, v = _scan_max(fn, 0.0, 1.0, 5, 1e-9)
    assert abs(t - 0.9) <= 1e-6 and v == pytest.approx(2.0, abs=1e-12)


def test_scan_max_evaluates_each_end_once(monkeypatch):
    calls = []
    _scan_max(lambda t: calls.append(t) or -((t - 0.3) ** 2), 0.0, 1.0, 5, 1e-9)
    assert calls.count(0.0) == 1 and calls.count(1.0) == 1
    # optimal_spend scored its window's upper end twice: once as the last
    # grid point and once more as a candidate
    net_curve = optimize._net_curve
    probes = []

    def counted(x, context=None):
        net = net_curve(x, context)
        return lambda s: probes.append(s) or net(s)

    monkeypatch.setattr(optimize, "_net_curve", counted)
    x = random_gdf(make_rng(7), "g")
    upper = oracle_f(x, 0.0)
    optimal_spend(x, upper=upper)
    assert probes.count(0.0) == 1 and probes.count(upper) == 1


def test_scan_max_leaves_a_line_flat_at_its_best_three_points_unpolished():
    # flat at 0 on [0, 0.5]: the scan's first three points read its peak
    # value, and a polish of [0, 0.25] would only walk the flat bracket
    calls = []
    t, v = _scan_max(lambda t: calls.append(t) or min(0.0, 0.5 - t), 0.0, 1.0, 5, 1e-9)
    assert (t, v) == (0.0, 0.0)
    assert len(calls) == 5


def test_scan_max_polishes_a_peak_between_two_equal_points():
    # the curve reads one value at 0 and 0.25 and peaks between them, so two
    # equal scanned points alone do not make a line flat
    def fn(t):
        return -((t - 0.125) ** 2)

    assert fn(0.0) == fn(0.25)
    t, _ = _scan_max(fn, 0.0, 1.0, 5, 1e-9)
    assert abs(t - 0.125) <= 1e-6


def test_flat_coupled_lines_end_at_the_scan(monkeypatch):
    # with the largest double as one attack's loss, lines on [-2715, 7.1e292]
    # read one value at their first four scanned points; each was polished
    # by Brent's steps walking that width, 1,422 probes at worst
    p = with_attack_loss(random_portfolio(make_rng(1), 3, with_edges=True), 1, sys.float_info.max, gdf=2)
    probes = []
    scan_max = optimize._scan_max

    def counted(fn, lo, hi, n, tol):
        calls = []
        result = scan_max(lambda t: calls.append(t) or fn(t), lo, hi, n, tol)
        probes.append(len(calls))
        return result

    monkeypatch.setattr(optimize, "_scan_max", counted)
    r = allocate(p)
    assert r.dropped == {"gdf-0", "gdf-2"}
    assert r.objective == pytest.approx(26_039.659304411543, rel=1e-12)
    assert max(probes) < 100


def test_coupled_refinement_probes_the_objective_fewer_times(monkeypatch):
    # allocate on the ten chains of the corpus probed the coupled objective
    # 57,011 times when every line search ran golden section, which takes
    # about 28 probes a line where Brent's parabolic steps take about 12
    calls = []
    whole, line = CoupledTotal.__call__, CoupledTotal.line

    def counted_whole(self, spends):
        calls.append(None)
        return whole(self, spends)

    def counted_line(self, spends, moved):
        probe = line(self, spends, moved)

        def counted(*s):
            calls.append(None)
            return probe(*s)

        return counted

    monkeypatch.setattr(CoupledTotal, "__call__", counted_whole)
    monkeypatch.setattr(CoupledTotal, "line", counted_line)
    chains = [p for p in coupled_corpus() if p.gdfs[0].id.startswith("gdf-chain")]
    assert len(chains) == 10
    for p in chains:
        allocate(p)
    assert len(calls) <= 0.7 * 57_011


@pytest.mark.parametrize("share", [0.02, 0.05])
@pytest.mark.parametrize("seed", [None, 0, 3, 4], ids=["corpus-3", "table-0", "table-3", "table-4"])
def test_tight_budget_is_transfer_optimal_and_never_loses_ground(seed, share):
    # a line search polished only near one golden point leaves a transfer
    # gain where Table breach models mix in, and moves accepted on a slightly
    # worse objective let a sweep lose ground on corpus-3 and table-3
    if seed is None:
        p = coupled_corpus()[3]
    else:
        p = random_portfolio(make_rng(seed), 3, with_edges=True, n_attacks=2)
    scale = max(1.0, sum(oracle_f(x, 0.0) for x in p.gdfs))
    r = allocate(p, budget=share * scale)
    kept = restrict_portfolio(p, set(p.ids()) - r.dropped)
    assert best_transfer_gain(kept, {g: r.spends[g] for g in kept.ids()}) <= 1e-6 * scale
    steps = [b - a for a, b in zip(r.sweep_objectives, r.sweep_objectives[1:])]
    assert min(steps, default=0.0) >= 0.0


def test_uniform_start_finds_what_the_water_fill_start_misses():
    # refined from the water-fill split alone, this portfolio stops at an
    # objective of 505,710.57 with a transfer gain of 1.13e-5 of scale; the
    # uniform split reaches 505,722.61, where no transfer gains
    p = random_portfolio(make_rng(1001), 4, with_edges=True, n_attacks=2, max_uplift=200.0)
    scale = max(1.0, sum(oracle_f(x, 0.0) for x in p.gdfs))
    r = allocate(p, budget=0.01 * scale)
    assert not r.dropped
    assert best_transfer_gain(p, r.spends) <= 1e-6 * scale


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_budget_leaves_every_coupled_spend_at_zero(seed):
    # at budget 0 every pair of spends is (0, 0), so the refinement skips
    # every transfer and the split stays where the water fill put it
    p = random_portfolio(make_rng(seed), 4, with_edges=True)
    r = allocate(p, budget=0.0)
    assert set(r.spends) == set(p.ids()) and not r.dropped
    assert all(s == 0.0 for s in r.spends.values())
    assert r.objective == pytest.approx(oracle_total(p, dict.fromkeys(p.ids(), 0.0)), rel=1e-12)


# --------------------------------------------------------------------------
# known defects, pinned as strict xfails against an oracle bound: the change
# that mends one must remove its mark

# ln(p * L * kappa) / kappa = 68,547.72 is the closed-form peak, hundreds of
# orders below f(0) = 5e299, which tops today's peak brackets
HUGE_GDF = Gdf(id="huge", ben=1e7, attacks=(
    AttackType(id="h", baseline_prob=0.5, loss=1e300, breach=Exponential(kappa=1e-2)),
))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_optimal_spend_finds_a_peak_far_below_f0():
    # today: s* 2.68e293, value -2.68e293
    s_star = math.log(0.5 * 1e300 * 1e-2) / 1e-2
    want = oracle_enb(HUGE_GDF, s_star)
    assert optimal_spend(HUGE_GDF).value >= want - 1e-9 * abs(want)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_allocate_funds_a_peak_far_below_f0_only_to_its_peak():
    # today: all of the budget goes to huge, for 10,400,000, and moving
    # spend to plain gains 129,590.89
    plain = Gdf(id="plain", ben=1e6, attacks=(
        AttackType(id="q", baseline_prob=0.5, loss=1e6, breach=Exponential(kappa=1e-5)),
    ))
    p = Portfolio(gdfs=(HUGE_GDF, plain), edges=(), budget=1e5)
    r = allocate(p)
    assert best_transfer_gain(p, r.spends) <= 1e-6 * abs(r.objective)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
@pytest.mark.parametrize("budget", [529_231.0, 1_058_463.0])
def test_allocate_is_worth_at_least_funding_one_gdf_alone(budget):
    # today: all three GDFs lose at the water-fill split and are dropped
    # together, for 0, while ami-headend alone is worth 18,132.8
    p = bundled_scenario("three-gdfs-comparison").portfolio
    x = p.gdf("ami-headend")
    _, alone = grid_argmax(lambda s: oracle_enb(x, s), 0.0, min(oracle_f(x, 0.0), budget), 2001)
    assert allocate(p, budget=budget).objective >= alone


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5")
def test_optimal_spend_finds_the_higher_peak_of_a_two_peaked_curve():
    # README's parent/child pair: today 847,809.24 at 131,988.75, where the
    # grid reads 858,994.17 at 44,598.25
    a = Gdf(id="a", ben=1e6, attacks=(
        AttackType(id="x", baseline_prob=0.0822, loss=124_000.0, breach=Exponential(kappa=9.15e-6)),
    ))
    b = Gdf(id="b", ben=1e6, attacks=(
        AttackType(id="y", baseline_prob=0.216, loss=927_000.0, breach=Exponential(kappa=4.95e-5)),
    ))
    p = Portfolio(gdfs=(a, b), edges=(DependencyEdge(source="a", target="b", uplift={"y": 833.0}),))
    ctx = EvalContext(p, {"a": 0.0, "b": 0.0})
    _, best = grid_argmax(
        lambda s: oracle_coupled_enb(p, b, {"a": 0.0, "b": s}), 0.0, expected_cyber_cost(b, 0.0, ctx), 20_001
    )
    assert optimal_spend(b, ctx).value >= best - 1e-9 * abs(best)
