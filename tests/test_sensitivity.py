"""Monte Carlo uncertainty propagation: distributions, substreams, clamping."""

import dataclasses
import math
import statistics
import threading

import numpy as np
import pytest

from enbcds import (
    AttackType,
    DependencyEdge,
    EvalContext,
    Exponential,
    Gdf,
    GordonLoebII,
    InvalidDistributionError,
    Pert,
    Point,
    Portfolio,
    SensitivityError,
    Triangular,
    UncertainParam,
    Uniform,
    UnresolvedTargetError,
    allocate,
    bundled_scenario,
    enb,
    optimal_spend,
    sample,
)

from enbcds.sensitivity import _draw_rng, _percentiles, _stats

from oracles import (
    make_rng,
    oracle_enb,
    oracle_f,
    pert_mean_numint,
    random_gdf,
    random_portfolio,
    triangular_mean_numint,
)


def small_portfolio(seed=101, n=2):
    rng = make_rng(seed)
    gdfs = tuple(
        dataclasses.replace(random_gdf(rng, i, n_attacks=2), actual_spend=float(rng.uniform(1e3, 1e5)))
        for i in range(n)
    )
    return Portfolio(gdfs=gdfs)


def rejects(message: str, build):
    """``build`` with the error message it must raise attached."""
    build.message = message
    return build


class TestDistributions:
    def test_point_sampling_is_constant(self):
        rng = make_rng(0)
        d = Point(3.5)
        assert all(d.sample(rng) == 3.5 for _ in range(10))
        assert d.mean() == 3.5

    def test_uniform_degenerate_interval(self):
        rng = make_rng(0)
        assert Uniform(2.0, 2.0).sample(rng) == 2.0
        assert Triangular(2.0, 2.0, 2.0).sample(rng) == 2.0
        assert Pert(2.0, 2.0, 2.0).sample(rng) == 2.0

    def test_uniform_mean_is_the_midpoint(self):
        assert Uniform(1.0, 3.0).mean() == 2.0

    def test_uniform_bounds_respected(self):
        rng = make_rng(1)
        d = Uniform(-1.0, 4.0)
        xs = [d.sample(rng) for _ in range(500)]
        assert all(-1.0 <= x <= 4.0 for x in xs)

    def test_triangular_bounds_respected(self):
        rng = make_rng(2)
        d = Triangular(1.0, 2.0, 5.0)
        xs = [d.sample(rng) for _ in range(500)]
        assert all(1.0 <= x <= 5.0 for x in xs)

    def test_pert_bounds_respected(self):
        rng = make_rng(3)
        d = Pert(10.0, 12.0, 20.0)
        xs = [d.sample(rng) for _ in range(500)]
        assert all(10.0 <= x <= 20.0 for x in xs)

    @pytest.mark.parametrize("d", [Triangular(120127.48, 137941.52, 1e300), Triangular(1e308, 1.7e308, 1.79e308)])
    def test_triangular_draws_near_the_largest_double_stay_inside_the_support(self, d):
        # numpy's triangular on the support itself forms products of the
        # span that overflow, and drew -inf on every one of these
        xs = [d.sample(_draw_rng(0, i)) for i in range(200)]
        assert all(d.lo <= x <= d.hi for x in xs)

    def test_a_draw_that_rounds_past_hi_is_cut_at_hi(self):
        class One:  # a beta draw of exactly 1, as numpy's X / (X + Y) gives for a tiny Y
            def beta(self, a, b):
                return 1.0

        d = Pert(-38.26052331020127, 0.0, 0.012324246975053561)
        assert d.lo + (d.hi - d.lo) * 1.0 > d.hi
        assert d.sample(One()) == d.hi

    @pytest.mark.parametrize("lo,hi", [(-1.0, 4.0), (1e5, 2e5), (0.0, 1.7e308), (-1e300, 1e300)])
    def test_uniform_draws_equal_numpys_uniform_bit_for_bit(self, lo, hi):
        d = Uniform(lo, hi)
        assert all(d.sample(_draw_rng(7, i)) == _draw_rng(7, i).uniform(lo, hi) for i in range(200))

    @pytest.mark.parametrize("lo,mode,hi", [(10.0, 12.0, 20.0), (1.5e7, 2e7, 2.8e7), (0.0, 0.0, 1.0)])
    def test_pert_draws_equal_the_scaled_beta_bit_for_bit(self, lo, mode, hi):
        d, span = Pert(lo, mode, hi), hi - lo

        def scaled_beta(rng):
            return lo + span * float(rng.beta(1.0 + 4.0 * (mode - lo) / span, 1.0 + 4.0 * (hi - mode) / span))

        assert all(d.sample(_draw_rng(7, i)) == scaled_beta(_draw_rng(7, i)) for i in range(200))

    def test_means_match_numerical_integration(self):
        tri = Triangular(0.2, 0.5, 0.9)
        assert tri.mean() == pytest.approx(triangular_mean_numint(0.2, 0.5, 0.9), rel=1e-6)
        pert = Pert(100.0, 200.0, 400.0)
        assert pert.mean() == pytest.approx(pert_mean_numint(100.0, 200.0, 400.0), rel=1e-6)

    @pytest.mark.parametrize(
        "build",
        [
            rejects(r"uniform needs lo <= hi, got \(2.0, 1.0\)", lambda: Uniform(2.0, 1.0)),
            rejects(r"triangular needs lo <= mode <= hi, got \(0.0, 2.0, 1.0\)", lambda: Triangular(0.0, 2.0, 1.0)),
            rejects(r"triangular needs lo <= mode <= hi, got \(1.0, 0.0, 2.0\)", lambda: Triangular(1.0, 0.0, 2.0)),
            rejects(r"pert needs lo <= mode <= hi, got \(5.0, 1.0, 10.0\)", lambda: Pert(5.0, 1.0, 10.0)),
            rejects(r"value must be finite, got nan", lambda: Point(math.nan)),
            rejects(r"hi must be finite, got inf", lambda: Uniform(0.0, math.inf)),
            rejects(r"hi - lo must be finite, got inf", lambda: Uniform(-1e308, 1e308)),
            rejects(r"hi - lo must be finite, got inf", lambda: Pert(-1e308, 0.0, 1e308)),
            rejects(r"value must be a number, got 'x'", lambda: Point("x")),
        ],
    )
    def test_invalid_distributions_rejected(self, build):
        with pytest.raises(InvalidDistributionError, match=f"^{build.message}$"):
            build()


class TestUncertainParam:
    def test_target_must_be_under_portfolio(self):
        with pytest.raises(UnresolvedTargetError):
            UncertainParam(target="/nope/ben", distribution=Point(1.0))

    def test_unresolvable_index_detected_up_front(self):
        p = small_portfolio()
        bad = UncertainParam(target="/portfolio/gdfs/9/ben", distribution=Point(1.0))
        with pytest.raises(UnresolvedTargetError):
            sample(p, [bad], draws=2, seed=0)

    def test_non_numeric_target_rejected(self):
        p = small_portfolio()
        bad = UncertainParam(target="/portfolio/gdfs/0/id", distribution=Point(1.0))
        with pytest.raises(UnresolvedTargetError):
            sample(p, [bad], draws=2, seed=0)

    def test_missing_field_rejected(self):
        p = small_portfolio()
        bad = UncertainParam(target="/portfolio/gdfs/0/nope", distribution=Point(1.0))
        with pytest.raises(UnresolvedTargetError):
            sample(p, [bad], draws=2, seed=0)


class TestSampleBasics:
    def test_draws_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(small_portfolio(), [], draws=0, seed=1)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            sample(small_portfolio(), [], draws=1, seed=1, quantities=("fancy",))

    def test_spends_default_to_actuals(self):
        p = small_portfolio()
        r = sample(p, [], draws=1, seed=1, quantities=("params",))
        assert r.spends_used == {g.id: g.actual_spend for g in p.gdfs}

    def test_explicit_spends_override_actuals(self):
        p = small_portfolio()
        gid = p.gdfs[0].id
        r = sample(p, [], draws=1, seed=1, spends={gid: 77.0}, quantities=("params",))
        assert r.spends_used[gid] == 77.0
        assert r.spends_used[p.gdfs[1].id] == p.gdfs[1].actual_spend

    def test_params_only_skips_downstream_quantities(self):
        p = small_portfolio()
        r = sample(p, [], draws=3, seed=1, quantities=("params",))
        assert r.enbcds_at_spend == {}
        assert r.s_star == {}
        assert r.allocation_objective is None
        assert r.drop_frequency == {}


class TestDrawDocument:
    def test_each_draw_rebuilds_from_its_own_values(self):
        attack = AttackType(id="a", baseline_prob=0.4, loss=2e5, breach=GordonLoebII(alpha=1e-5))
        x = Gdf(id="x", ben=1e5, dir_costs=2e4, attacks=(attack,), actual_spend=3e4)
        p = Portfolio(gdfs=(x,))
        param = UncertainParam("/portfolio/gdfs/0/attacks/0/loss", Uniform(1e5, 4e5))
        r = sample(p, [param], draws=6, seed=17, quantities=("enbcds",))

        def drawn_enb(i):
            loss = param.distribution.sample(_draw_rng(17, i))
            return oracle_enb(dataclasses.replace(x, attacks=(dataclasses.replace(attack, loss=loss),)), 3e4)

        want = _stats(np.array([drawn_enb(i) for i in range(6)]))
        got = r.enbcds_at_spend["x"]
        assert got.std > 0.0
        for field in ("mean", "std", "p5", "p50", "p95"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)

    def test_params_only_never_rebuilds_the_portfolio(self, monkeypatch):
        import enbcds.io

        def refuse(d):
            raise AssertionError("params-only sampling rebuilt the portfolio")

        monkeypatch.setattr(enbcds.io, "portfolio_from_dict", refuse)
        param = UncertainParam("/portfolio/gdfs/0/attacks/0/baseline_prob", Uniform(0.2, 0.8))
        r = sample(small_portfolio(), [param], draws=5, seed=2, quantities=("params",))
        assert r.param_stats[param.target].std > 0.0


class TestHugeDraws:
    def test_stats_of_finite_values_near_the_largest_double_stay_finite(self):
        values = [1e308, 1.5e308]
        got = _stats(np.array(values))
        assert got.mean == statistics.mean(values)  # exact rational mean, rounded once
        assert got.std == pytest.approx(statistics.pstdev(values), rel=1e-15)
        assert (got.p5, got.p50, got.p95) == pytest.approx((1.025e308, 1.25e308, 1.475e308), rel=1e-15)

    def test_a_loss_of_1e300_gives_finite_net_benefit_stats(self):
        # every drawn net benefit of the IoT GDF is about -5.6e299, but the
        # squared deviations around their mean pass the largest double
        sf = bundled_scenario("three-gdfs-comparison")
        x = sf.portfolio.gdfs[2]
        x = dataclasses.replace(x, attacks=(dataclasses.replace(x.attacks[0], loss=1e300), *x.attacks[1:]))
        p = dataclasses.replace(sf.portfolio, gdfs=(*sf.portfolio.gdfs[:2], x))
        first = sf.uncertainty[0]
        assert first.target == "/portfolio/gdfs/2/attacks/0/baseline_prob"
        r = sample(p, sf.uncertainty, draws=16, seed=0, quantities=("enbcds",))

        def drawn_enb(i):
            # the first parameter drawn in each draw's substream
            prob = min(1.0, max(0.0, first.distribution.sample(_draw_rng(0, i))))
            attacks = (dataclasses.replace(x.attacks[0], baseline_prob=prob), *x.attacks[1:])
            return oracle_enb(dataclasses.replace(x, attacks=attacks), x.actual_spend)

        want = [drawn_enb(i) for i in range(16)]
        got = r.enbcds_at_spend[x.id]
        assert all(map(math.isfinite, dataclasses.astuple(got)))
        assert got.mean == pytest.approx(statistics.mean(want), rel=1e-12)
        assert got.std == pytest.approx(statistics.pstdev(want), rel=1e-9)
        assert got.p50 == pytest.approx(statistics.median(want), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_percentiles_match_numpy_linear_percentiles_bit_for_bit(seed):
    rng = make_rng(seed)
    for n in [*range(2, 41), 99, 100, 101, 299]:
        values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
        ties = rng.random(n) < 0.3  # ties among a few values, infinities among them
        values[ties] = rng.choice([-np.inf, -1.0, 0.0, 2.5, np.inf], ties.sum())
        with np.errstate(invalid="ignore"):  # inf - inf between two infinite neighbours
            want = np.percentile(values, [5.0, 50.0, 95.0])
        got = _percentiles(values.tolist(), (5.0, 50.0, 95.0))
        assert [v.hex() for v in got] == [float(v).hex() for v in want], values


class TestPointDegenerate:
    def test_point_only_uncertainty_reproduces_deterministic_results(self):
        p = small_portfolio()
        x = p.gdfs[0]
        params = [
            UncertainParam(
                target="/portfolio/gdfs/0/attacks/0/loss",
                distribution=Point(x.attacks[0].loss),
            ),
            UncertainParam(
                target="/portfolio/gdfs/0/attacks/0/baseline_prob",
                distribution=Point(x.attacks[0].baseline_prob),
            ),
        ]
        r = sample(p, params, draws=64, seed=11)
        for stats in r.param_stats.values():
            assert stats.std == 0.0
            assert stats.mean == stats.p5 == stats.p50 == stats.p95
        ctx = EvalContext(p, r.spends_used)
        for g in p.gdfs:
            want = enb(g, r.spends_used[g.id], ctx)
            got = r.enbcds_at_spend[g.id]
            assert got.std == 0.0
            assert got.mean == want
            assert got.p5 == got.p50 == got.p95 == want
            s_stats = r.s_star[g.id]
            assert s_stats.std == 0.0
            assert s_stats.mean == optimal_spend(g).s_star
        det = allocate(p)
        assert r.allocation_objective.std == 0.0
        assert r.allocation_objective.mean == det.objective
        assert all(f in (0.0, 1.0) for f in r.drop_frequency.values())

    def test_point_only_s_star_prices_in_the_parents_at_the_used_spends(self):
        base = random_portfolio(make_rng(0), 3, with_edges=True, n_attacks=2)
        gdfs = tuple(dataclasses.replace(g, actual_spend=1000.0) for g in base.gdfs)
        p = Portfolio(gdfs=gdfs, edges=base.edges)
        assert p.edges
        params = [UncertainParam(target="/portfolio/gdfs/0/ben", distribution=Point(p.gdfs[0].ben))]
        r = sample(p, params, draws=4, seed=3, quantities=("s_star",))
        ctx = EvalContext(p, r.spends_used)
        for g in p.gdfs:
            assert r.s_star[g.id].std == 0.0
            assert r.s_star[g.id].mean == optimal_spend(g, ctx).s_star
        # the child's optimum moves once its parents' compromise counts
        child = p.gdfs[-1]
        assert optimal_spend(child, ctx).s_star != optimal_spend(child).s_star


class TestSampleMeans:
    def test_uniform_probability_mean_is_half(self):
        p = small_portfolio()
        target = "/portfolio/gdfs/0/attacks/0/baseline_prob"
        draws = 4000
        r = sample(p, [UncertainParam(target, Uniform(0.0, 1.0))], draws=draws, seed=7,
                   quantities=("params",))
        sigma = 1.0 / math.sqrt(12.0)
        assert r.param_stats[target].mean == pytest.approx(0.5, abs=4.0 * sigma / math.sqrt(draws))
        assert r.clamp_events[target] == 0

    def test_triangular_mean_matches_numint_oracle(self):
        p = small_portfolio()
        target = "/portfolio/gdfs/0/attacks/0/loss"
        lo, mode, hi = 5e4, 9e4, 2e5
        draws = 4000
        r = sample(p, [UncertainParam(target, Triangular(lo, mode, hi))], draws=draws, seed=13,
                   quantities=("params",))
        want = triangular_mean_numint(lo, mode, hi)
        var = (lo * lo + mode * mode + hi * hi - lo * mode - lo * hi - mode * hi) / 18.0
        assert r.param_stats[target].mean == pytest.approx(want, abs=4.0 * math.sqrt(var / draws))

    def test_pert_mean_matches_numint_oracle(self):
        p = small_portfolio()
        target = "/portfolio/gdfs/1/attacks/0/loss"
        lo, mode, hi = 100.0, 200.0, 400.0
        draws = 4000
        r = sample(p, [UncertainParam(target, Pert(lo, mode, hi))], draws=draws, seed=17,
                   quantities=("params",))
        want = pert_mean_numint(lo, mode, hi)
        mean = (lo + 4.0 * mode + hi) / 6.0
        var = (mean - lo) * (hi - mean) / 7.0
        assert r.param_stats[target].mean == pytest.approx(want, abs=4.0 * math.sqrt(var / draws))


class TestClamping:
    def test_probability_draws_above_one_are_clamped_and_counted(self):
        p = small_portfolio()
        target = "/portfolio/gdfs/0/attacks/0/baseline_prob"
        draws = 600
        r = sample(p, [UncertainParam(target, Uniform(0.9, 1.5))], draws=draws, seed=19,
                   quantities=("params",))
        stats = r.param_stats[target]
        assert stats.p95 <= 1.0
        assert stats.mean <= 1.0
        # ~5/6 of the mass is above 1
        assert 0.7 * draws <= r.clamp_events[target] <= 0.95 * draws

    def test_loss_fields_are_not_clamped(self):
        p = small_portfolio()
        target = "/portfolio/gdfs/0/attacks/0/loss"
        r = sample(p, [UncertainParam(target, Uniform(2.0, 3.0))], draws=50, seed=23,
                   quantities=("params",))
        assert r.clamp_events[target] == 0
        assert r.param_stats[target].mean > 1.0

    def test_uplift_keyed_by_a_probability_field_name_is_not_clamped(self):
        # "prob" is the id of the child's attack: the entry is an uplift >= 1
        attack = AttackType(id="prob", baseline_prob=0.1, loss=100.0, breach=GordonLoebII(alpha=1e-3))
        p = Portfolio(
            gdfs=(Gdf(id="up", ben=10.0), Gdf(id="down", ben=10.0, attacks=(attack,))),
            edges=(DependencyEdge(source="up", target="down", uplift={"prob": 3.0}),),
        )
        target = "/portfolio/edges/0/uplift/prob"
        r = sample(p, [UncertainParam(target, Uniform(2.0, 4.0))], draws=5, seed=1,
                   quantities=("params",))
        assert r.clamp_events[target] == 0
        assert 2.0 <= r.param_stats[target].p5 <= r.param_stats[target].p95 <= 4.0


class TestInvalidDraws:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_draw_names_its_index_and_target(self, threads):
        # GordonLoebII needs a baseline strictly inside (0, 1), so a drawn
        # baseline that clamps to 1 breaks the drawn portfolio
        attack = AttackType(id="g2", baseline_prob=0.5, loss=1e4, breach=GordonLoebII(alpha=1e-3))
        p = Portfolio(gdfs=(Gdf(id="x", ben=1e5, attacks=(attack,)),))
        target = "/portfolio/gdfs/0/attacks/0/baseline_prob"
        seed = 7

        def baseline(i):
            # each draw's Philox substream, keyed by (seed, index), samples
            # the parameters in order: the benefit first, then the baseline
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            rng.uniform(9e4, 1.1e5)
            return rng.uniform(0.5, 1.5)

        first = next(i for i in range(100) if baseline(i) >= 1.0)
        assert first > 0
        params = [
            UncertainParam("/portfolio/gdfs/0/ben", Uniform(9e4, 1.1e5)),
            UncertainParam(target, Uniform(0.5, 1.5)),
        ]
        with pytest.raises(SensitivityError) as err:
            sample(p, params, draws=8, seed=seed, threads=threads, quantities=("s_star",))
        message = str(err.value)
        assert message.startswith(f"draw {first}, target {target}:")
        assert "GordonLoebII" in message

    def test_draw_whose_money_sum_overflows_names_its_index_and_gdf_targets(self):
        attack = AttackType(id="a", baseline_prob=0.5, loss=1e4, breach=Exponential(kappa=1e-9))
        p = Portfolio(gdfs=(Gdf(id="x", ben=1e5, attacks=(attack,)), Gdf(id="y", ben=1e5)))
        targets = ["/portfolio/gdfs/0/ben", "/portfolio/gdfs/0/attacks/0/loss"]
        seed = 3

        def overflows(i):
            # each finite on its own; the GDF's money sum is inf once they pass the largest double
            rng = _draw_rng(seed, i)
            rng.uniform(1e5, 2e5)
            return rng.uniform(0.0, 1.7e308) + rng.uniform(0.0, 1.7e308) == math.inf

        first = next(i for i in range(100) if overflows(i))
        assert first > 0
        params = [
            UncertainParam("/portfolio/gdfs/1/ben", Uniform(1e5, 2e5)),
            *(UncertainParam(target, Uniform(0.0, 1.7e308)) for target in targets),
        ]
        with pytest.raises(SensitivityError) as err:
            sample(p, params, draws=first + 4, seed=seed, quantities=("enbcds",))
        assert str(err.value) == (
            f"draw {first}, target {', '.join(targets)}: /portfolio/gdfs/0: gdf 'x' money sum must be finite, got inf"
        )

    def test_a_support_near_the_largest_double_draws_inside_it(self):
        # numpy's triangular on this support drew inf, which failed draw 0
        p = small_portfolio()
        ben = Triangular(1e308, 1.7e308, 1.79e308)
        params = [
            UncertainParam("/portfolio/gdfs/1/ben", Uniform(1e5, 2e5)),
            UncertainParam("/portfolio/gdfs/0/ben", ben),
            UncertainParam("/portfolio/gdfs/0/dir_costs", Uniform(1e3, 2e3)),
        ]
        report = sample(p, params, draws=4, seed=0, quantities=("enbcds",))
        stats = report.param_stats["/portfolio/gdfs/0/ben"]
        assert ben.lo <= stats.mean <= ben.hi
        assert all(math.isfinite(v) for v in dataclasses.astuple(report.enbcds_at_spend[p.gdfs[0].id]))


class TestDeterminism:
    def test_same_seed_same_report(self):
        p = small_portfolio()
        params = [
            UncertainParam("/portfolio/gdfs/0/attacks/0/baseline_prob", Uniform(0.2, 0.8)),
            UncertainParam("/portfolio/gdfs/1/ben", Triangular(1e5, 2e5, 4e5)),
        ]
        r1 = sample(p, params, draws=16, seed=42)
        r2 = sample(p, params, draws=16, seed=42)
        assert r1 == r2

    def test_different_seeds_differ(self):
        p = small_portfolio()
        params = [UncertainParam("/portfolio/gdfs/0/attacks/0/baseline_prob", Uniform(0.2, 0.8))]
        r1 = sample(p, params, draws=16, seed=1, quantities=("params",))
        r2 = sample(p, params, draws=16, seed=2, quantities=("params",))
        assert r1.param_stats != r2.param_stats

    def test_thread_count_does_not_change_results(self):
        p = small_portfolio()
        params = [
            UncertainParam("/portfolio/gdfs/0/attacks/0/baseline_prob", Uniform(0.2, 0.8)),
            UncertainParam("/portfolio/gdfs/0/attacks/1/loss", Pert(1e4, 5e4, 9e4)),
        ]
        r1 = sample(p, params, draws=24, seed=5, threads=1)
        r3 = sample(p, params, draws=24, seed=5, threads=3)
        r8 = sample(p, params, draws=24, seed=5, threads=8)
        assert r1 == r3 == r8

    def test_threads_env_var_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("ENBCDS_THREADS", "1")
        p = small_portfolio()
        params = [UncertainParam("/portfolio/gdfs/0/attacks/0/baseline_prob", Uniform(0.2, 0.8))]
        capped = sample(p, params, draws=12, seed=3, threads=8)
        monkeypatch.delenv("ENBCDS_THREADS")
        free = sample(p, params, draws=12, seed=3, threads=8)
        assert capped == free

    def test_draws_start_no_thread(self, monkeypatch):
        p = small_portfolio()
        params = [
            UncertainParam("/portfolio/gdfs/0/attacks/0/baseline_prob", Uniform(0.2, 0.8)),
            UncertainParam("/portfolio/gdfs/1/ben", Triangular(1e5, 2e5, 4e5)),
        ]
        want = sample(p, params, draws=8, seed=11, threads=1)

        def refuse(self):
            raise AssertionError("sample started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert sample(p, params, draws=8, seed=11, threads=8) == want


class TestDropFrequency:
    def test_mandatory_gdf_is_never_dropped(self):
        sc = bundled_scenario("wifi-thermostats")
        r = sample(sc.portfolio, sc.uncertainty, draws=32, seed=29)
        assert all(f == 0.0 for f in r.drop_frequency.values())

    def test_hopeless_gdf_is_always_dropped(self):
        rng = make_rng(31)
        bad = dataclasses.replace(random_gdf(rng, "bad", padded=False), ben=0.0)
        good = random_gdf(rng, "good")
        p = Portfolio(gdfs=(good, bad))
        r = sample(p, [], draws=8, seed=31, budget=0.3 * oracle_f(good, 0.0))
        assert r.drop_frequency[bad.id] == 1.0
        assert r.drop_frequency[good.id] == 0.0

    def test_shipped_uncertainty_round_trip_runs(self):
        sc = bundled_scenario("remote-scada")
        assert len(sc.uncertainty) >= 2
        r = sample(sc.portfolio, sc.uncertainty, draws=16, seed=37)
        assert r.draws == 16
        gid = sc.portfolio.gdfs[0].id
        assert r.enbcds_at_spend[gid].std > 0.0
        assert r.s_star[gid].std > 0.0
