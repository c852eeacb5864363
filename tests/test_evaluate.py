"""Net-benefit evaluation: expected cyber cost, ENB, curves, dependencies."""

import dataclasses
import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enbcds import (
    ADDITIVE,
    LITERAL,
    AttackType,
    AdverseEvent,
    CycleDetectedError,
    DegenerateRangeError,
    DependencyEdge,
    EvalContext,
    Exponential,
    Gdf,
    GordonLoebI,
    Portfolio,
    Table,
    UnknownGdfError,
    bundled_scenario,
    effective_prob,
    enb,
    enbcds_curve,
    expected_cyber_cost,
    optimal_spend,
)

from enbcds import evaluate
from enbcds.evaluate import CoupledTotal

from oracles import (
    make_rng,
    oracle_attack_prob,
    oracle_compromise,
    oracle_coupled_enb,
    oracle_enb,
    oracle_f,
    random_gdf,
    random_portfolio,
)


class TestExpectedCyberCost:
    def test_no_attacks_zero_spend_costs_nothing(self):
        x = Gdf(id="x", ben=10.0)
        assert expected_cyber_cost(x, 0.0) == 0.0

    def test_single_attack_at_zero_spend_is_expected_loss(self):
        # baseline 0.5, loss 1000: expectation 500 regardless of decay rate
        for kappa in (1e-6, 1e-3, 1.0):
            x = Gdf(id="x", attacks=(
                AttackType(id="a", baseline_prob=0.5, loss=1000.0, breach=Exponential(kappa=kappa)),
            ))
            assert expected_cyber_cost(x, 0.0) == 500.0

    def test_power_law_example_value(self):
        # spend 1000 halves the 0.5 * 1000 expected loss and adds itself:
        # 1000 + 0.5 * 1000 / (0.001 * 1000 + 1) = 1250
        x = Gdf(id="x", attacks=(
            AttackType(id="a", baseline_prob=0.5, loss=1000.0, breach=GordonLoebI(alpha=0.001, beta=1.0)),
        ))
        assert oracle_f(x, 1000.0) == pytest.approx(1250.0, abs=1e-9)
        assert expected_cyber_cost(x, 1000.0) == pytest.approx(oracle_f(x, 1000.0), rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
    def test_matches_direct_summation(self, seed, frac):
        rng = make_rng(seed)
        x = random_gdf(rng, 0)
        s = frac * oracle_f(x, 0.0)
        assert expected_cyber_cost(x, s) == pytest.approx(oracle_f(x, s), rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
    def test_literal_mode_matches_direct_summation(self, seed, frac):
        rng = make_rng(seed)
        x = random_gdf(rng, 0)
        s = frac * oracle_f(x, 0.0)
        ctx = EvalContext(mode=LITERAL)
        assert expected_cyber_cost(x, s, ctx) == pytest.approx(oracle_f(x, s, "literal"), rel=1e-12)

    def test_literal_mode_charges_spend_only_on_breach(self):
        x = Gdf(id="x", attacks=(
            AttackType(id="a", baseline_prob=0.5, loss=1000.0, breach=Exponential(kappa=1e-12)),
        ))
        ctx = EvalContext(mode=LITERAL)
        # at tiny kappa the probability stays ~0.5, so f(s) ~ 0.5*(1000+s)
        assert expected_cyber_cost(x, 100.0, ctx) == pytest.approx(0.5 * 1100.0, rel=1e-6)

    def test_negative_spend_rejected(self):
        x = Gdf(id="x")
        with pytest.raises(ValueError):
            expected_cyber_cost(x, -1.0)

    def test_non_finite_spend_rejected(self):
        x = Gdf(id="x")
        with pytest.raises(ValueError):
            expected_cyber_cost(x, math.inf)


class TestEnb:
    def test_no_risk_gdf_is_ben_minus_dir_costs(self):
        x = Gdf(id="x", ben=120.0, dir_costs=35.0,
                adverse=(AdverseEvent(id="e", prob=0.0, cost=1e6),))
        assert enb(x, 0.0) == 120.0 - 35.0

    def test_adverse_only_gdf_example(self):
        x = Gdf(id="x", ben=0.0, dir_costs=0.0,
                adverse=(AdverseEvent(id="e", prob=0.2, cost=50.0),))
        assert enb(x, 0.0) == -10.0

    def test_remote_scada_negative_at_zero_spend(self):
        sc = bundled_scenario("remote-scada")
        x = sc.portfolio.gdfs[0]
        assert enb(x, 0.0) < 0.0

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
    def test_matches_direct_summation(self, seed, frac):
        rng = make_rng(seed)
        x = random_gdf(rng, 0, padded=False)
        s = frac * oracle_f(x, 0.0)
        assert enb(x, s) == pytest.approx(oracle_enb(x, s), rel=1e-12, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_spending_more_than_zero_spend_loss_is_dominated(self, seed):
        rng = make_rng(seed)
        x = random_gdf(rng, 0)
        f0 = oracle_f(x, 0.0)
        for factor in (1.01, 2.0, 10.0):
            assert enb(x, factor * f0) < enb(x, 0.0)


class TestEffectiveProb:
    def test_without_context_is_baseline_times_multiplier(self):
        x = Gdf(id="x", attacks=(
            AttackType(id="a", baseline_prob=0.4, loss=10.0, breach=Exponential(kappa=0.1)),
        ))
        assert effective_prob(x, "a", 0.0) == 0.4
        assert effective_prob(x, "a", 10.0) == pytest.approx(0.4 * math.exp(-1.0), rel=1e-12)

    def _linked(self, parent_prob, uplift, child_base):
        parent_attacks = ()
        if parent_prob is not None:
            parent_attacks = (
                AttackType(id="pa", baseline_prob=parent_prob, loss=10.0,
                           breach=Exponential(kappa=1e-9)),
            )
        parent = Gdf(id="p", attacks=parent_attacks)
        child = Gdf(id="c", attacks=(
            AttackType(id="ca", baseline_prob=child_base, loss=10.0, breach=Exponential(kappa=1e-9)),
        ))
        p = Portfolio(
            gdfs=(parent, child),
            edges=(DependencyEdge(source="p", target="c", uplift={"ca": uplift}),),
        )
        return p, child

    def test_parent_that_cannot_be_compromised_changes_nothing(self):
        p, child = self._linked(None, 3.0, 0.3)
        ctx = EvalContext(portfolio=p)
        assert effective_prob(child, "ca", 0.0, ctx) == 0.3

    def test_surely_compromised_parent_applies_full_uplift(self):
        p, child = self._linked(1.0, 2.0, 0.3)
        ctx = EvalContext(portfolio=p)
        assert effective_prob(child, "ca", 0.0, ctx) == pytest.approx(0.6, abs=1e-15)

    def test_uplift_clamps_at_certainty(self):
        p, child = self._linked(1.0, 9.0, 0.3)
        ctx = EvalContext(portfolio=p)
        assert effective_prob(child, "ca", 0.0, ctx) == pytest.approx(1.0, abs=1e-15)

    def test_partially_compromised_parent_mixes_two_states(self):
        p, child = self._linked(0.25, 2.0, 0.3)
        ctx = EvalContext(portfolio=p)
        expected = 0.75 * 0.3 + 0.25 * 0.6
        assert effective_prob(child, "ca", 0.0, ctx) == pytest.approx(expected, abs=1e-15)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
    def test_matches_exhaustive_enumeration(self, seed, n):
        rng = make_rng(seed)
        p = random_portfolio(rng, n, with_edges=True)
        spends = {gid: float(rng.uniform(0.0, 1e5)) for gid in p.ids()}
        ctx = EvalContext(portfolio=p, spends=spends)
        for x in p.gdfs:
            for attack in x.attacks:
                got = effective_prob(x, attack.id, spends.get(x.id, 0.0), ctx)
                want = oracle_attack_prob(p, x.id, attack, spends)
                assert abs(got - want) <= 1e-12

    def test_chain_of_parents_matches_enumeration(self):
        rng = make_rng(99)
        gdfs = [random_gdf(rng, i, n_attacks=2) for i in range(3)]
        edges = (
            DependencyEdge(source=gdfs[0].id, target=gdfs[1].id,
                           uplift={gdfs[1].attacks[0].id: 2.5}),
            DependencyEdge(source=gdfs[1].id, target=gdfs[2].id,
                           uplift={gdfs[2].attacks[1].id: 3.0}),
        )
        p = Portfolio(gdfs=tuple(gdfs), edges=edges)
        spends = {g.id: 1000.0 * i for i, g in enumerate(gdfs)}
        ctx = EvalContext(portfolio=p, spends=spends)
        for attack in gdfs[2].attacks:
            got = effective_prob(gdfs[2], attack.id, spends[gdfs[2].id], ctx)
            want = oracle_attack_prob(p, gdfs[2].id, attack, spends)
            assert abs(got - want) <= 1e-12

    def test_cycle_raises_instead_of_recursing(self):
        x = Gdf(id="x", attacks=(AttackType(id="ax", baseline_prob=0.3, loss=10.0,
                                            breach=Exponential(kappa=1e-3)),))
        y = Gdf(id="y", attacks=(AttackType(id="ay", baseline_prob=0.3, loss=10.0,
                                            breach=Exponential(kappa=1e-3)),))
        p = Portfolio(gdfs=(x, y), edges=(
            DependencyEdge(source="x", target="y", uplift={"ay": 2.0}),
            DependencyEdge(source="y", target="x", uplift={"ax": 2.0}),
        ))
        ctx = EvalContext(portfolio=p)
        with pytest.raises(CycleDetectedError):
            effective_prob(x, "ax", 0.0, ctx)

    def test_unknown_attack_id_raises(self):
        x = Gdf(id="x", attacks=(AttackType(id="a", baseline_prob=0.1, loss=1.0,
                                            breach=Exponential(kappa=1.0)),))
        with pytest.raises(KeyError):
            effective_prob(x, "nope", 0.0)


def _exp_attack(aid, baseline, kappa=1e-3, loss=1e4):
    return AttackType(id=aid, baseline_prob=baseline, loss=loss, breach=Exponential(kappa=kappa))


class TestWideFanIn:
    """The fold at many parents, where clamped and unclamped uplift products
    mix, against enumeration over every parent compromise state."""

    @staticmethod
    def _star(k, seed):
        """A sink under ``k`` parents.  Its attack ``hi`` is uplifted by every
        edge and ``lo`` by about half of them; one in four edges names ``lo``
        with an explicit uplift of 1.0, and ``off`` is named by no edge."""
        rng = make_rng(seed)
        parents = tuple(
            Gdf(id=f"p{i}", ben=1e4, attacks=(_exp_attack(f"a{i}", float(rng.uniform(0.2, 0.9))),))
            for i in range(k)
        )
        sink = Gdf(id="sink", ben=1e5, attacks=(
            _exp_attack("hi", 0.6), _exp_attack("lo", 0.3), _exp_attack("off", 0.5),
        ))
        edges = []
        for i in range(k):
            uplift = {"hi": float(rng.uniform(2.1, 3.0))}
            if i % 2 == 0:
                uplift["lo"] = float(rng.uniform(1.5, 4.0))
            elif i % 4 == 1:
                uplift["lo"] = 1.0
            edges.append(DependencyEdge(source=f"p{i}", target="sink", uplift=uplift))
        p = Portfolio(gdfs=(*parents, sink), edges=tuple(edges))
        spends = {x.id: float(rng.uniform(0.0, 2e3)) for x in parents}
        return p, sink, spends

    @staticmethod
    def _assert_matches_enumeration(p, x, spends):
        ctx = EvalContext(portfolio=p, spends=spends)
        for attack in x.attacks:
            got = effective_prob(x, attack.id, spends.get(x.id, 0.0), ctx)
            assert abs(got - oracle_attack_prob(p, x.id, attack, spends)) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 13))
    def test_star_matches_enumeration_across_the_clamp(self, k):
        p, sink, spends = self._star(k, seed=400 + k)
        # at sink spend 200 the clamp binds for the full uplift product of
        # "hi" but not for the empty one; also check lower and higher spends
        base = 0.6 * math.exp(-0.2)
        assert base < 1.0 <= base * math.prod(e.uplift["hi"] for e in p.edges)
        for s in (0.0, 200.0, 1000.0, 2500.0):
            spends["sink"] = s
            self._assert_matches_enumeration(p, sink, spends)

    def test_parents_compromised_never_or_surely(self):
        p, sink, spends = self._star(6, seed=7)
        never = Gdf(id="never", attacks=(_exp_attack("n", 0.0),))
        bare = Gdf(id="bare")
        surely = Gdf(id="surely", attacks=(_exp_attack("y", 1.0),))
        extra = tuple(
            DependencyEdge(source=g.id, target="sink", uplift={"hi": 2.0, "lo": 3.0})
            for g in (never, bare, surely)
        )
        p = Portfolio(gdfs=(never, bare, surely, *p.gdfs), edges=(*extra, *p.edges))
        spends.update(never=50.0, bare=0.0, surely=0.0, sink=300.0)
        ctx = EvalContext(portfolio=p, spends=spends)
        assert [oracle_compromise(p, g, spends) for g in ("never", "bare", "surely")] == [0.0, 0.0, 1.0]
        for attack in sink.attacks:
            got = effective_prob(sink, attack.id, 300.0, ctx)
            assert abs(got - oracle_attack_prob(p, "sink", attack, spends)) <= 1e-12

    def test_attack_baselines_of_exactly_zero_and_one(self):
        p, _, spends = self._star(8, seed=11)
        sink = Gdf(id="sink", ben=1e5, attacks=(
            _exp_attack("hi", 1.0), _exp_attack("lo", 0.0), _exp_attack("off", 0.5),
        ))
        p = Portfolio(gdfs=(*p.gdfs[:-1], sink), edges=p.edges)
        spends["sink"] = 0.0  # the multiplier is exactly 1, so base is 1 for "hi"
        ctx = EvalContext(portfolio=p, spends=spends)
        assert effective_prob(sink, "hi", 0.0, ctx) == pytest.approx(1.0, abs=1e-12)
        assert effective_prob(sink, "lo", 0.0, ctx) == 0.0
        self._assert_matches_enumeration(p, sink, spends)

    def test_coupled_total_is_bit_equal_to_the_context_path(self):
        p, _, spends = self._star(12, seed=12)
        spends["sink"] = 150.0
        for mode in (ADDITIVE, LITERAL):
            ctx = EvalContext(portfolio=p, spends=spends, mode=mode)
            want = {x.id: enb(x, spends[x.id], ctx) for x in p.gdfs}
            total = CoupledTotal(p, mode)
            assert total.values(spends) == want
            assert total(spends) == sum(want[x.id] for x in p.gdfs)

    def test_forty_equal_parents_match_the_binomial_closed_form(self):
        """Forty parents with one compromise probability ``q`` and one uplift
        2.0 give the sink ``sum_j C(40,j) q^j (1-q)^(40-j) min(1, 0.3*2^j)``.
        Every product with two or more compromised parents sits on the clamp,
        so the fold keeps about 40 entries where enumeration needs 2^40.
        This does not show the case the pruning leaves exponential: distinct
        uplifts with ``base * prod < 1`` for most subsets, as at large sink
        spends, where the fold still holds up to 2^k entries."""
        k = 40
        parents = tuple(Gdf(id=f"p{i}", ben=1e4, attacks=(_exp_attack("a", 0.35),)) for i in range(k))
        sink = Gdf(id="sink", ben=1e5, attacks=(_exp_attack("t", 0.3),))
        p = Portfolio(
            gdfs=(*parents, sink),
            edges=tuple(DependencyEdge(source=x.id, target="sink", uplift={"t": 2.0}) for x in parents),
        )
        spends = {x.id: 120.0 for x in parents}
        q = oracle_compromise(p, "p0", spends)
        want = sum(
            math.comb(k, j) * q**j * (1.0 - q) ** (k - j) * min(1.0, 0.3 * 2.0**j) for j in range(k + 1)
        )
        got = effective_prob(sink, "t", 0.0, EvalContext(portfolio=p, spends=spends))
        assert abs(got - want) <= 1e-12


_HALVING = Table(knots=((0.0, 1.0), (1.0, 0.5), (2.0, 0.25), (3.0, 0.125)))


class TestFoldAtTheClamp:
    """Every branch of the fold, with uplift products that land exactly on
    the clamp at 1, one ulp below it and one ulp above it.

    The sink's attack ``t`` has a ``_HALVING`` breach, so at the knot spend
    ``j`` its multiplier is exactly ``2**-j``; uplifts are powers of two, so
    every product is exact.  The baseline is ``2**(i - E)`` moved by at most
    one ulp, with ``E`` the exponent sum of a chosen subset of uplifting
    parents.  At spend ``i`` that subset's product lands on, just below or
    just above 1; other spends move every product by powers of two.
    """

    @staticmethod
    def _portfolio(data, k):
        ones = data.draw(st.integers(0, 2), label="parents with uplift 1")
        exps = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k), label="uplift exponents")
        subset = data.draw(st.sets(st.sampled_from(range(k)), min_size=1) if k else st.just(set()))
        e = sum(exps[m] for m in subset)
        i = data.draw(st.integers(0, max(e - 1, 0)), label="knot that puts the subset on the clamp")
        j = data.draw(st.just(i) | st.integers(0, 3), label="knot of the sink's spend")
        ulp = data.draw(st.sampled_from((-1, 0, 1) if k else (-1, 0)), label="ulps off the clamp")
        b = math.ldexp(1.0, i - e)
        b = {-1: math.nextafter(b, 0.0), 0: b, 1: math.nextafter(b, 1.0)}[ulp]
        q_base = st.sampled_from((0.0, 1.0)) | st.floats(1e-6, 1.0 - 1e-6)
        parents = tuple(
            Gdf(id=f"p{m}", ben=1e4, attacks=(_exp_attack(f"a{m}", data.draw(q_base, label=f"p{m} baseline")),))
            for m in range(k + ones)
        )
        sink = Gdf(id="sink", ben=1e6, dir_costs=3e3, attacks=(
            AttackType(id="t", baseline_prob=b, loss=2e4, breach=_HALVING), _exp_attack("off", 0.4),
        ))
        uplifts = [{"t": 2.0 ** x} for x in exps] + [{"t": 1.0}] * ones
        edges = data.draw(st.permutations([
            DependencyEdge(source=x.id, target="sink", uplift=u) for x, u in zip(parents, uplifts)
        ]))
        p = Portfolio(gdfs=(*parents, sink), edges=tuple(edges))
        return p, sink, {**dict.fromkeys(p.ids(), 0.0), "sink": float(j)}

    @pytest.mark.parametrize("k", range(4))  # uplifting parents
    @given(data=st.data())
    def test_every_path_agrees_bit_for_bit_and_with_enumeration(self, k, data):
        p, sink, spends = self._portfolio(data, k)
        s = spends["sink"]
        ctx = EvalContext(p, spends)
        probs = [effective_prob(sink, a.id, s, ctx) for a in sink.attacks]
        for got, attack in zip(probs, sink.attacks):
            want = oracle_attack_prob(p, "sink", attack, spends)
            assert abs(got - want) <= 1e-14 * want
        loss = 0.0
        for prob, attack in zip(probs, sink.attacks):
            loss += prob * attack.loss
        value = enb(sink, s, ctx)
        assert value == sink.ben - sink.dir_costs - (s + loss)
        assert abs(value - oracle_coupled_enb(p, sink, spends)) <= 1e-14 * abs(value)
        total = CoupledTotal(p)
        want = {x.id: enb(x, spends[x.id], ctx) for x in p.gdfs}
        assert total.values(spends) == want
        moved = tuple(dict.fromkeys((p.gdfs[0].id, "sink")))  # a parent, if any, and the sink
        probe = total.line({**spends, **dict.fromkeys(moved, 2.5)}, moved)
        assert probe(*(spends[g] for g in moved)) == total(spends) == sum(want[x.id] for x in p.gdfs)


class TestFoldTermsAreBuiltOnce:
    def test_line_probes_build_no_terms(self, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        p = workloads.build_pool("alloc-coupled", 1).scenarios["cpl-diamond-n4-5"].portfolio
        assert len(p.edges) == 4
        built = []
        terms = evaluate._terms

        def counted(attacks, parents):
            built.append(attacks)
            return terms(attacks, parents)

        monkeypatch.setattr(evaluate, "_terms", counted)
        total = CoupledTotal(p)
        assert sorted(map(id, built)) == sorted(id(x.attacks) for x in p.gdfs)
        spends = {x.id: 0.1 * oracle_f(x, 0.0) for x in p.gdfs}
        line = total.line(spends, (p.gdfs[0].id, p.gdfs[2].id))
        for j in range(50):
            line(spends[p.gdfs[0].id] * (1.0 + j / 50), spends[p.gdfs[2].id] * (1.0 - j / 100))
        assert len(built) == len(p.gdfs)


class TestEvalContext:
    def test_unknown_gdf_in_spends_rejected(self):
        p = Portfolio(gdfs=(Gdf(id="x"),))
        with pytest.raises(UnknownGdfError):
            EvalContext(portfolio=p, spends={"ghost": 1.0})

    def test_negative_spend_rejected(self):
        p = Portfolio(gdfs=(Gdf(id="x"),))
        with pytest.raises(ValueError):
            EvalContext(portfolio=p, spends={"x": -5.0})

    def test_unknown_mode_rejected(self):
        p = random_portfolio(make_rng(5), 2)
        for build in (lambda: EvalContext(mode="fancy"), lambda: CoupledTotal(p, "fancy")):
            with pytest.raises(ValueError, match="unknown evaluation mode 'fancy'"):
                build()

    def test_gdf_outside_context_portfolio_rejected(self):
        p = Portfolio(gdfs=(Gdf(id="x"),))
        stranger = Gdf(id="stranger")
        with pytest.raises(UnknownGdfError):
            enb(stranger, 0.0, EvalContext(portfolio=p))

    def test_replaced_spends_are_the_ones_evaluated(self):
        p = random_portfolio(make_rng(3), 3, with_edges=True)
        sink = p.gdfs[-1]
        assert p.parents_of(sink.id)
        ctx = EvalContext(p, dict.fromkeys(p.ids(), 0.0))
        enb(sink, 100.0, ctx)  # the compromise probabilities at spend 0
        spends = dict.fromkeys(p.ids(), 5e5)
        moved = dataclasses.replace(ctx, spends=spends)
        got = enb(sink, 100.0, moved)
        assert got == enb(sink, 100.0, EvalContext(p, spends))
        assert got == pytest.approx(oracle_coupled_enb(p, sink, {**spends, sink.id: 100.0}), rel=1e-12)
        assert enb(sink, 100.0, ctx) != pytest.approx(got, rel=1e-3)

    def test_only_portfolio_spends_and_mode_are_fields(self):
        p = Portfolio(gdfs=(Gdf(id="x"),))
        assert [f.name for f in dataclasses.fields(EvalContext)] == ["portfolio", "spends", "mode"]
        with pytest.raises(TypeError):
            EvalContext(p, {"x": 1.0}, ADDITIVE, {})

    @pytest.mark.parametrize("s_max", [None, 100.0, 0.0, -1.0, math.nan])
    def test_curve_of_gdf_outside_context_portfolio_rejected_first(self, s_max):
        p = Portfolio(gdfs=(Gdf(id="x"),))
        with pytest.raises(UnknownGdfError):
            enbcds_curve(Gdf(id="stranger"), s_max=s_max, context=EvalContext(portfolio=p))

    def test_modes_exported(self):
        assert ADDITIVE == "additive"
        assert LITERAL == "literal"


class TestEnbcdsCurve:
    def test_no_attack_curve_peaks_at_zero(self):
        x = Gdf(id="x", ben=100.0, dir_costs=20.0)
        curve = enbcds_curve(x)
        assert curve.s_star == 0.0
        assert curve.peak_value == 80.0
        # f(s) = s: every sampled value after the first is strictly lower
        assert all(b < a for a, b in zip(curve.values, curve.values[1:]))

    def test_default_window_is_zero_spend_loss(self):
        rng = make_rng(3)
        x = random_gdf(rng, 0)
        curve = enbcds_curve(x)
        assert curve.spends[0] == 0.0
        assert curve.spends[-1] == pytest.approx(oracle_f(x, 0.0), rel=1e-12)
        assert len(curve.samples) == 200

    def test_consumer_iot_peak_is_negative(self):
        sc = bundled_scenario("three-gdfs-comparison")
        x = sc.portfolio.gdf("consumer-iot-demand-response")
        curve = enbcds_curve(x)
        assert curve.peak_value < 0.0

    def test_power_law_curve_matches_direct_summation_pointwise(self):
        x = Gdf(id="x", ben=2e6, dir_costs=4e5, attacks=(
            AttackType(id="a", baseline_prob=0.45, loss=3e6, breach=GordonLoebI(alpha=2e-6, beta=1.0)),
        ))
        curve = enbcds_curve(x, n_samples=64)
        for s, v in curve.samples:
            want = oracle_enb(x, s)
            assert abs(v - want) <= 1e-9 * max(1.0, abs(want))

    def test_peak_dominates_samples(self):
        rng = make_rng(17)
        for i in range(10):
            x = random_gdf(rng, i)
            curve = enbcds_curve(x)
            assert curve.peak_value >= max(curve.values) - 1e-9 * max(1.0, abs(curve.peak_value))

    def test_peak_is_the_best_of_search_and_grid_on_a_two_peaked_curve(self):
        # the uplift clamp makes the child's curve two-peaked (README, Dependencies)
        a = Gdf(id="a", ben=1e6, attacks=(
            AttackType(id="x", baseline_prob=0.0822, loss=124_000.0, breach=Exponential(kappa=9.15e-6)),
        ))
        b = Gdf(id="b", ben=1e6, attacks=(
            AttackType(id="y", baseline_prob=0.216, loss=927_000.0, breach=Exponential(kappa=4.95e-5)),
        ))
        p = Portfolio(gdfs=(a, b), edges=(DependencyEdge(source="a", target="b", uplift={"y": 833.0}),))
        ctx = EvalContext(p, {"a": 0.0, "b": 0.0})
        curve = enbcds_curve(b, context=ctx)
        assert curve.peak_value >= optimal_spend(b, context=ctx).value
        assert curve.peak_value >= max(curve.values)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_additive_curve_is_concave(self, seed):
        rng = make_rng(seed)
        x = random_gdf(rng, 0)
        curve = enbcds_curve(x, n_samples=100)
        vals = curve.values
        scale = max(1.0, max(abs(v) for v in vals))
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c - 2.0 * b <= 1e-9 * scale

    def test_explicit_window_is_respected(self):
        x = Gdf(id="x", ben=10.0)
        curve = enbcds_curve(x, s_max=5.0, n_samples=11)
        assert curve.spends[0] == 0.0
        assert curve.spends[-1] == 5.0
        assert len(curve.samples) == 11

    def test_degenerate_windows_rejected(self):
        x = Gdf(id="x", ben=10.0)
        with pytest.raises(DegenerateRangeError):
            enbcds_curve(x, s_max=0.0)
        with pytest.raises(DegenerateRangeError):
            enbcds_curve(x, s_max=-1.0)
        with pytest.raises(DegenerateRangeError):
            enbcds_curve(x, s_max=math.nan)
        with pytest.raises(DegenerateRangeError):
            enbcds_curve(x, n_samples=1)

    def test_curve_accessors_split_samples(self):
        x = Gdf(id="x", ben=10.0)
        curve = enbcds_curve(x, s_max=1.0, n_samples=3)
        assert curve.spends == tuple(s for s, _ in curve.samples)
        assert curve.values == tuple(v for _, v in curve.samples)
