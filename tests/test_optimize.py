"""Per-GDF spend optimization and portfolio budget allocation."""

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enbcds import (
    ADDITIVE,
    LITERAL,
    AttackType,
    BudgetInfeasibleError,
    DependencyEdge,
    EvalContext,
    Exponential,
    Gdf,
    GordonLoebI,
    NotMandatoryError,
    Portfolio,
    ValidationError,
    allocate,
    bundled_scenario,
    bundled_scenario_names,
    bundled_scenario_text,
    enb,
    enbcds_curve,
    mandatory_min_loss,
    optimal_spend,
    parse_scenario,
    restrict_portfolio,
)

from oracles import (
    PARAMETRIC,
    gli_optimal_spend,
    grid_allocate,
    grid_argmax,
    literal_grid_allocate,
    make_rng,
    oracle_enb,
    oracle_coupled_enb,
    oracle_f,
    oracle_total,
    random_gdf,
    random_portfolio,
    scale_portfolio,
)


class TestOptimalSpend:
    def test_no_attacks_returns_zero_spend_exactly(self):
        x = Gdf(id="x", ben=100.0, dir_costs=30.0)
        best = optimal_spend(x)
        assert best.s_star == 0.0
        assert best.value == 70.0

    @pytest.mark.parametrize("mode", [ADDITIVE, LITERAL])
    def test_an_infinite_zero_spend_loss_is_refused(self, mode):
        # two losses near the largest double sum past it: no window to scan
        attacks = tuple(AttackType(id=f"a{j}", baseline_prob=0.9, loss=1.7e308, breach=Exponential(1e-9))
                        for j in range(2))
        x = Gdf(id="x", ben=1.0, attacks=attacks)
        with pytest.raises(ValueError, match="expected loss of 'x' at spend 0 must be finite, got inf"):
            optimal_spend(x, EvalContext(mode=mode))

    def test_power_law_closed_form(self):
        # pull = p*L*alpha*beta = 10000 * 0.01 = 100, so s* = (sqrt(100)-1)/0.01 = 900
        x = Gdf(id="x", ben=1e6, attacks=(
            AttackType(id="a", baseline_prob=0.5, loss=20_000.0,
                       breach=GordonLoebI(alpha=0.01, beta=1.0)),
        ))
        want = gli_optimal_spend(0.01, 1.0, 0.5, 20_000.0)
        assert want == pytest.approx(900.0, rel=1e-12)
        best = optimal_spend(x)
        assert best.s_star == pytest.approx(want, rel=1e-4)
        assert best.value == pytest.approx(oracle_enb(x, want), rel=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_power_law_closed_form_random(self, seed):
        rng = make_rng(seed)
        x = random_gdf(rng, 0, n_attacks=1, families=("gl1",), c_range=(1.5, 15.0))
        attack = x.attacks[0]
        want = gli_optimal_spend(attack.breach.alpha, attack.breach.beta,
                                 attack.baseline_prob, attack.loss)
        best = optimal_spend(x)
        assert best.s_star == pytest.approx(want, rel=1e-4)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_argmax_dominates_endpoints(self, seed):
        rng = make_rng(seed)
        x = random_gdf(rng, 0, padded=False)
        f0 = oracle_f(x, 0.0)
        best = optimal_spend(x)
        assert best.value >= enb(x, 0.0) - 1e-12 * max(1.0, abs(best.value))
        assert best.value >= enb(x, f0) - 1e-12 * max(1.0, abs(best.value))
        assert 0.0 <= best.s_star <= f0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_dense_grid(self, seed):
        rng = make_rng(seed)
        x = random_gdf(rng, 0, families=PARAMETRIC)
        f0 = oracle_f(x, 0.0)
        best = optimal_spend(x)
        grid_s, grid_v = grid_argmax(lambda s: oracle_enb(x, s), 0.0, f0, 2001)
        step = f0 / 2000.0
        assert abs(best.s_star - grid_s) <= step * (1.0 + 1e-9)
        assert best.value >= grid_v - 1e-9 * max(1.0, abs(grid_v))

    def test_table_family_beats_dense_grid(self):
        rng = make_rng(5)
        for i in range(5):
            x = random_gdf(rng, i, families=("table",))
            f0 = oracle_f(x, 0.0)
            best = optimal_spend(x)
            _, grid_v = grid_argmax(lambda s: oracle_enb(x, s), 0.0, f0, 2001)
            assert best.value >= grid_v - 1e-6 * max(1.0, abs(grid_v))

    def test_explicit_upper_bound_respected(self):
        x = Gdf(id="x", ben=1e6, attacks=(
            AttackType(id="a", baseline_prob=0.5, loss=20_000.0,
                       breach=GordonLoebI(alpha=0.01, beta=1.0)),
        ))
        best = optimal_spend(x, upper=100.0)
        assert best.s_star <= 100.0
        assert best.value == pytest.approx(oracle_enb(x, 100.0), rel=1e-6)

    def test_literal_mode_beats_grid(self):
        rng = make_rng(23)
        ctx = EvalContext(mode=LITERAL)
        for i in range(5):
            x = random_gdf(rng, i, families=PARAMETRIC)
            f0 = oracle_f(x, 0.0)
            best = optimal_spend(x, context=ctx)
            _, grid_v = grid_argmax(lambda s: oracle_enb(x, s, "literal"), 0.0, f0, 1501)
            assert best.value >= grid_v - 1e-6 * max(1.0, abs(grid_v))
            assert best.value == pytest.approx(oracle_enb(x, best.s_star, "literal"), rel=1e-9)


    @pytest.mark.parametrize("upper", [0.0, -1.0, math.inf, math.nan])
    def test_upper_must_be_finite_and_positive(self, upper):
        x = random_gdf(make_rng(1), 0)
        with pytest.raises(ValueError, match="upper must be finite and > 0"):
            optimal_spend(x, upper=upper)

class TestMandatoryMinLoss:
    def test_rejects_non_mandatory_gdf(self):
        x = Gdf(id="x", ben=10.0, mandatory=False)
        with pytest.raises(NotMandatoryError):
            mandatory_min_loss(x)

    def test_no_attacks_means_zero_spend(self):
        x = Gdf(id="x", ben=0.0, dir_costs=50.0, mandatory=True)
        assert mandatory_min_loss(x) == 0.0

    def test_wifi_thermostats_spend_positive_value_negative(self):
        sc = bundled_scenario("wifi-thermostats")
        x = sc.portfolio.gdfs[0]
        s = mandatory_min_loss(x)
        assert s > 0.0
        assert enb(x, s) < 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_optimal_spend(self, seed):
        rng = make_rng(seed)
        x = random_gdf(rng, 0, padded=False, mandatory=True)
        assert mandatory_min_loss(x) == optimal_spend(x).s_star


def negative_gdf(rng, tag):
    """A GDF that is a clear expected loss at every spend level."""
    x = random_gdf(rng, tag, padded=False)
    return dataclasses.replace(x, ben=0.0)


class TestAllocate:
    def test_zero_budget_zero_spends_and_drops(self):
        rng = make_rng(31)
        good = random_gdf(rng, "good")
        bad = negative_gdf(rng, "bad")
        p = Portfolio(gdfs=(good, bad))
        r = allocate(p, budget=0.0)
        assert r.spends == {good.id: 0.0, bad.id: 0.0}
        assert r.dropped == frozenset({bad.id})
        assert r.objective == pytest.approx(oracle_enb(good, 0.0), rel=1e-12)
        assert r.budget_used == 0.0

    def test_single_gdf_with_slack_budget_hits_standalone_peak(self):
        rng = make_rng(37)
        x = random_gdf(rng, 0)
        best = optimal_spend(x)
        p = Portfolio(gdfs=(x,))
        r = allocate(p, budget=2.0 * oracle_f(x, 0.0))
        assert r.spends[x.id] == pytest.approx(best.s_star, rel=1e-6, abs=1e-6)
        assert r.objective == pytest.approx(best.value, rel=1e-9)

    def test_negative_budget_rejected(self):
        p = Portfolio(gdfs=(Gdf(id="x", ben=1.0),))
        with pytest.raises(BudgetInfeasibleError):
            allocate(p, budget=-1.0)
        with pytest.raises(BudgetInfeasibleError):
            allocate(p, budget=math.nan)

    def test_budget_from_portfolio_field_is_used(self):
        rng = make_rng(41)
        x = random_gdf(rng, 0)
        budget = 0.4 * optimal_spend(x).s_star  # strictly binding
        p = Portfolio(gdfs=(x,), budget=budget)
        r = allocate(p)
        assert r.spends[x.id] == pytest.approx(budget, rel=1e-9)

    def test_argument_budget_overrides_portfolio_budget(self):
        rng = make_rng(43)
        x = random_gdf(rng, 0)
        p = Portfolio(gdfs=(x,), budget=1.0)
        override = 0.5 * optimal_spend(x).s_star  # strictly binding
        r = allocate(p, budget=override)
        assert r.spends[x.id] == pytest.approx(override, rel=1e-9)

    def test_unconstrained_allocation_hits_each_standalone_peak(self):
        rng = make_rng(47)
        p = random_portfolio(rng, 3)
        r = allocate(p)
        for x in p.gdfs:
            best = optimal_spend(x)
            # both solvers locate the peak to within ~1e-6 of the window width
            tol = 2e-6 * oracle_f(x, 0.0) + 1e-9
            assert abs(r.spends[x.id] - best.s_star) <= tol
            assert enb(x, r.spends[x.id]) == pytest.approx(best.value, rel=1e-6)
        assert r.lam == 0.0

    @given(st.integers(min_value=0, max_value=5_000), st.sampled_from([ADDITIVE, LITERAL]))
    def test_budget_respected_and_objective_consistent(self, seed, mode):
        rng = make_rng(seed)
        n = int(rng.integers(1, 4))
        p = random_portfolio(rng, n, with_edges=bool(rng.integers(0, 2)))
        budget = float(rng.uniform(0.05, 0.7)) * sum(oracle_f(x, 0.0) for x in p.gdfs)
        r = allocate(p, budget=budget, mode=mode)
        assert sum(r.spends.values()) <= budget * (1.0 + 1e-9) + 1e-9
        assert all(s >= 0.0 for s in r.spends.values())
        kept = [gid for gid in p.ids() if gid not in r.dropped]
        sub = restrict_portfolio(p, kept)
        spends_kept = {gid: r.spends[gid] for gid in kept}
        assert r.objective == pytest.approx(oracle_total(sub, spends_kept, mode), rel=1e-9, abs=1e-6)
        for gid in r.dropped:
            assert r.spends[gid] == 0.0
        for x in sub.gdfs:
            assert x.mandatory or oracle_coupled_enb(sub, x, spends_kept, mode) >= 0.0

    def test_dropped_gdfs_are_expected_losses(self):
        rng = make_rng(53)
        good = random_gdf(rng, "good")
        bad = negative_gdf(rng, "bad")
        p = Portfolio(gdfs=(good, bad))
        r = allocate(p, budget=0.5 * oracle_f(good, 0.0))
        assert bad.id in r.dropped
        assert good.id not in r.dropped

    def test_mandatory_gdf_never_dropped(self):
        rng = make_rng(59)
        import dataclasses

        bad = dataclasses.replace(negative_gdf(rng, "bad"), mandatory=True)
        p = Portfolio(gdfs=(bad,))
        r = allocate(p, budget=0.5 * oracle_f(bad, 0.0))
        assert r.dropped == frozenset()
        assert enb(bad, r.spends[bad.id]) < 0.0

    def test_wifi_thermostats_allocation_keeps_the_loss_maker(self):
        sc = bundled_scenario("wifi-thermostats")
        r = allocate(sc.portfolio)
        x = sc.portfolio.gdfs[0]
        assert r.dropped == frozenset()
        assert r.spends[x.id] > 0.0
        assert r.objective < 0.0

    @given(st.integers(min_value=0, max_value=5_000))
    def test_objective_monotone_in_budget(self, seed):
        rng = make_rng(seed)
        p = random_portfolio(rng, int(rng.integers(1, 4)))
        total = sum(oracle_f(x, 0.0) for x in p.gdfs)
        b1 = float(rng.uniform(0.05, 0.5)) * total
        b2 = b1 * float(rng.uniform(1.1, 2.0))
        r1 = allocate(p, budget=b1)
        r2 = allocate(p, budget=b2)
        scale = max(1.0, abs(r1.objective))
        assert r2.objective >= r1.objective - 1e-7 * scale

    @given(st.integers(min_value=0, max_value=5_000))
    def test_drop_stability_under_resolve(self, seed):
        rng = make_rng(seed)
        p = random_portfolio(rng, int(rng.integers(2, 4)), padded=False)
        budget = float(rng.uniform(0.1, 0.6)) * sum(oracle_f(x, 0.0) for x in p.gdfs)
        r = allocate(p, budget=budget)
        kept = [gid for gid in p.ids() if gid not in r.dropped]
        r2 = allocate(restrict_portfolio(p, kept), budget=budget)
        assert r2.dropped == frozenset()
        for gid in kept:
            assert r2.spends[gid] == pytest.approx(r.spends[gid], rel=1e-9, abs=1e-9)
        assert r2.objective == pytest.approx(r.objective, rel=1e-9, abs=1e-9)

    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=-6, max_value=6))
    def test_scale_equivariance(self, seed, exponent):
        rng = make_rng(seed)
        p = random_portfolio(rng, int(rng.integers(1, 4)))
        budget = float(rng.uniform(0.1, 0.6)) * sum(oracle_f(x, 0.0) for x in p.gdfs)
        factor = 2.0 ** exponent
        r = allocate(p, budget=budget)
        rs = allocate(scale_portfolio(p, factor), budget=budget * factor)
        assert rs.dropped == r.dropped
        for gid, s in r.spends.items():
            assert rs.spends[gid] == pytest.approx(s * factor, rel=1e-9, abs=1e-9 * factor)
        assert rs.objective == pytest.approx(r.objective * factor, rel=1e-9)

    def test_sweep_objectives_non_decreasing(self):
        rng = make_rng(61)
        for i in range(5):
            p = random_portfolio(rng, 3, with_edges=True)
            budget = 0.4 * sum(oracle_f(x, 0.0) for x in p.gdfs)
            r = allocate(p, budget=budget)
            scale = max(1.0, abs(r.objective))
            for a, b in zip(r.sweep_objectives, r.sweep_objectives[1:]):
                assert b >= a - 1e-9 * scale

    def test_matches_grid_oracle_without_edges(self):
        rng = make_rng(67)
        for i in range(5):
            p = random_portfolio(rng, 3)
            f0s = sum(oracle_f(x, 0.0) for x in p.gdfs)
            budget = float(rng.uniform(0.15, 0.6)) * f0s
            r = allocate(p, budget=budget)
            _, grid_v = grid_allocate(p, budget, points=40)
            scale = max(1.0, f0s)
            assert r.objective >= grid_v - 1e-3 * scale

    def test_matches_grid_oracle_with_edges(self):
        rng = make_rng(71)
        for i in range(3):
            budget_frac = float(rng.uniform(0.15, 0.5))
            p = random_portfolio(rng, 3, with_edges=True, n_attacks=2)
            f0s = sum(oracle_f(x, 0.0) for x in p.gdfs)
            budget = budget_frac * f0s
            r = allocate(p, budget=budget)
            _, grid_v = grid_allocate(p, budget, points=25)
            scale = max(1.0, f0s)
            assert r.objective >= grid_v - 5e-3 * scale

    def test_interior_marginals_are_equal(self):
        rng = make_rng(73)
        for i in range(5):
            p = random_portfolio(rng, 3)
            budget = 0.3 * sum(oracle_f(x, 0.0) for x in p.gdfs)
            r = allocate(p, budget=budget)
            interior = [gid for gid, flag in r.interior.items() if flag]
            if len(interior) >= 2:
                ms = [r.marginal_at_solution[gid] for gid in interior]
                spread = (max(ms) - min(ms)) / max(abs(m) for m in ms)
                assert spread <= 1e-4

    def test_literal_mode_uses_grid_fallback(self):
        rng = make_rng(79)
        p = random_portfolio(rng, 3)
        budget = 0.4 * sum(oracle_f(x, 0.0) for x in p.gdfs)
        r = allocate(p, budget=budget, mode=LITERAL)
        assert r.lam is None
        assert sum(r.spends.values()) <= budget * (1.0 + 1e-9) + 1e-9
        kept = [gid for gid in p.ids() if gid not in r.dropped]
        sub = restrict_portfolio(p, kept)
        spends_kept = {gid: r.spends[gid] for gid in kept}
        assert r.objective == pytest.approx(
            oracle_total(sub, spends_kept, "literal"), rel=1e-9, abs=1e-6
        )

    def test_literal_mode_beats_coarse_grid(self):
        rng = make_rng(83)
        p = random_portfolio(rng, 2)
        f0s = sum(oracle_f(x, 0.0) for x in p.gdfs)
        budget = 0.35 * f0s
        r = allocate(p, budget=budget, mode=LITERAL)
        _, grid_v = grid_allocate(p, budget, points=30, mode="literal")
        assert r.objective >= grid_v - 5e-3 * max(1.0, f0s)

    def test_literal_mode_without_budget_puts_each_kept_gdf_at_its_peak(self):
        rng = make_rng(97)
        good = random_portfolio(rng, 3).gdfs
        bad = negative_gdf(rng, "bad")
        r = allocate(Portfolio(gdfs=(*good, bad)), budget=None, mode=LITERAL)
        assert r.dropped == frozenset({bad.id})
        assert r.spends[bad.id] == 0.0
        ctx = EvalContext(mode=LITERAL)
        for x in good:
            assert r.spends[x.id] == optimal_spend(x, ctx).s_star

    def test_literal_grid_skips_a_loss_maker_and_keeps_its_mandatory_twin(self):
        rng = make_rng(101)
        bad = negative_gdf(rng, "bad")
        twin = dataclasses.replace(bad, id="gdf-twin", mandatory=True)
        budget = 0.4 * (oracle_f(bad, 0.0) + oracle_f(twin, 0.0))
        r = allocate(Portfolio(gdfs=(bad, twin)), budget=budget, mode=LITERAL)
        assert r.dropped == frozenset({bad.id})
        assert r.spends[bad.id] == 0.0
        # brute force over the allocator's own 512-cell grid, skip included
        cells = 512
        delta = budget / cells
        bad_v = [oracle_enb(bad, k * delta, "literal") for k in range(cells + 1)]
        twin_v = [oracle_enb(twin, k * delta, "literal") for k in range(cells + 1)]
        best = max(twin_v)  # bad skipped
        for kb in range(cells + 1):
            best = max(best, bad_v[kb] + max(twin_v[: cells + 1 - kb]))
        assert r.objective == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_literal_mode_matches_the_max_plus_oracle(self, seed):
        # ids 1 and 4 are mandatory; 0 and 4 lose at every spend; odd ids
        # lose at spend 0 and may gain once funded, so what is skipped
        # depends on the budget
        rng = make_rng(400 + seed)
        gdfs = []
        for i in range(int(rng.integers(3, 7))):
            x = random_gdf(rng, i, mandatory=i % 3 == 1, pad_range=(0.5, 1.0) if i % 2 else (1.15, 1.6))
            gdfs.append(dataclasses.replace(x, ben=0.0) if i % 4 == 0 else x)
        p = Portfolio(gdfs=tuple(gdfs))
        f0 = sum(oracle_f(x, 0.0) for x in gdfs)
        for frac in (0.02, 0.1, 1.5):
            want, skipped, spends = literal_grid_allocate(gdfs, frac * f0)
            r = allocate(p, budget=frac * f0, mode=LITERAL)
            assert r.dropped == frozenset(skipped)
            assert r.objective == pytest.approx(want, rel=1e-9)
            assert {gid: r.spends[gid] for gid in spends} == spends

    def test_literal_grid_gives_a_flat_curve_the_first_of_its_tied_cells(self):
        # without attacks the literal curve is flat, so every cell ties; the
        # first, spend 0, wins and the rest of the budget stays unspent
        flat = Gdf(id="flat", ben=100.0, dir_costs=30.0)
        x = random_gdf(make_rng(103), "x")
        budget = 4.0 * oracle_f(x, 0.0)
        r = allocate(Portfolio(gdfs=(flat, x)), budget=budget, mode=LITERAL)
        assert r.dropped == frozenset()
        assert r.spends[flat.id] == 0.0
        assert 0.0 < r.spends[x.id] < budget

    def test_empty_portfolio_allocates_nothing(self):
        r = allocate(Portfolio(), budget=100.0)
        assert r.spends == {}
        assert r.objective == 0.0
        assert r.dropped == frozenset()
        assert r.budget_used == 0.0 and isinstance(r.budget_used, float)
        assert r.iterations == 0

    def test_empty_portfolio_in_literal_mode_reports_the_grid_result(self):
        r = allocate(Portfolio(), budget=100.0, mode=LITERAL)
        assert r.spends == {} and r.dropped == frozenset()
        assert r.objective == 0.0 and isinstance(r.objective, float)
        assert r.budget_used == 0.0 and isinstance(r.budget_used, float)
        assert r.lam is None
        assert r.iterations == 0

    def test_literal_mode_drops_a_child_that_loses_once_its_parent_counts(self):
        # standalone, b is worth funding; with a's compromise uplifting its
        # attack six-fold it loses 25,827 at the grid's spend, so it is
        # dropped and a, re-solved alone, takes the whole budget
        a = Gdf(id="a", ben=5e5, attacks=(AttackType(id="x", baseline_prob=0.6, loss=2e5, breach=Exponential(1e-5)),))
        b = Gdf(id="b", ben=45000.0, attacks=(AttackType(id="y", baseline_prob=0.1, loss=5e5, breach=Exponential(2e-5)),))
        edge = DependencyEdge(source="a", target="b", uplift={"y": 6.0})
        p = Portfolio(gdfs=(a, b), edges=(edge,), budget=1e5)
        r = allocate(p, mode=LITERAL)
        assert r.dropped == frozenset({"b"})
        assert r.spends == {"a": 100_000.0, "b": 0.0}
        assert r.objective == pytest.approx(433_781.700589, rel=1e-9)
        assert r.objective == pytest.approx(oracle_total(restrict_portfolio(p, ["a"]), r.spends, LITERAL), rel=1e-12)
        assert r.lam is None and r.iterations == 2

    @pytest.mark.parametrize("gdfs", [0, 1], ids=["empty", "one-gdf"])
    def test_unknown_mode_is_rejected_even_on_an_empty_portfolio(self, gdfs):
        p = random_portfolio(make_rng(7), gdfs) if gdfs else Portfolio()
        with pytest.raises(ValueError, match="unknown evaluation mode 'foo'"):
            allocate(p, mode="foo")

    def test_curve_peak_agrees_with_optimizer(self):
        rng = make_rng(89)
        x = random_gdf(rng, 0, families=PARAMETRIC)
        curve = enbcds_curve(x)
        best = optimal_spend(x)
        assert curve.s_star == pytest.approx(best.s_star, rel=1e-9, abs=1e-9)
        assert curve.peak_value == pytest.approx(best.value, rel=1e-12)


def extreme_breach_documents():
    """Every number of every breach in the bundled scenarios set, one at a
    time, to a value whose slope at 0 or along the spend can overflow."""
    for name in bundled_scenario_names():
        doc = json.loads(bundled_scenario_text(name))
        for i, g in enumerate(doc["portfolio"]["gdfs"]):
            for j, attack in enumerate(g.get("attacks", [])):
                where, breach = f"/portfolio/gdfs/{i}/attacks/{j}", attack["breach"]
                for key in sorted(set(breach) - {"family"}):
                    old = breach[key]
                    for value in (1e300, 1e-300, 1e308, 1.7976931348623157e308, 5e-324):
                        breach[key] = value
                        yield pytest.param(json.dumps(doc), where, id=f"{name}{where}/breach/{key}={value!r}")
                    breach[key] = old


@pytest.mark.parametrize("text, attack", extreme_breach_documents())
def test_extreme_breach_parameters_fail_at_their_path_or_allocate_finitely(text, attack):
    try:
        sf = parse_scenario(text)
    except ValidationError as exc:
        assert exc.path in (attack, f"{attack}/breach")
        return
    r = allocate(sf.portfolio)
    numbers = [*r.spends.values(), r.objective, *r.marginal_at_solution.values()]
    assert all(math.isfinite(v) for v in numbers), r
