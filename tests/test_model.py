"""Domain-model construction and validation invariants."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enbcds.model import (
    AdverseEvent,
    AttackType,
    DependencyEdge,
    DuplicateIdError,
    Exponential,
    Gdf,
    GordonLoebI,
    GordonLoebII,
    ModelError,
    NegativeMoneyError,
    NonConvexTableError,
    Portfolio,
    PortfolioValidationError,
    ProbabilityOutOfRangeError,
    Table,
    portfolio_violations,
    restrict_portfolio,
    validate_portfolio,
)

from oracles import make_rng, random_breach, random_portfolio


def simple_attack(aid="a", prob=0.5, loss=1000.0, breach=None):
    return AttackType(id=aid, baseline_prob=prob, loss=loss, breach=breach or Exponential(kappa=1e-3))


class TestConstruction:
    def test_empty_portfolio_is_valid(self):
        p = Portfolio(gdfs=(), edges=(), budget=0.0)
        assert portfolio_violations(p) == []
        assert validate_portfolio(p) is p

    def test_unconstrained_budget_is_valid(self):
        p = Portfolio(gdfs=(), edges=(), budget=None)
        assert portfolio_violations(p) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(NegativeMoneyError):
            Portfolio(gdfs=(), edges=(), budget=-1.0)

    def test_baseline_prob_above_one_rejected(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            AttackType(id="a", baseline_prob=1.3, loss=100.0, breach=Exponential(kappa=1.0))

    def test_negative_loss_rejected(self):
        with pytest.raises(NegativeMoneyError):
            AttackType(id="a", baseline_prob=0.5, loss=-5.0, breach=Exponential(kappa=1.0))

    def test_breach_that_is_not_a_breach_model_rejected(self):
        with pytest.raises(ModelError, match="unknown breach model"):
            AttackType(id="a", baseline_prob=0.5, loss=100.0, breach="gl1")

    def test_parents_of_lists_incoming_edges_in_edge_order(self):
        edges = (
            DependencyEdge(source="c", target="d", uplift={}),
            DependencyEdge(source="a", target="b", uplift={}),
            DependencyEdge(source="a", target="d", uplift={}),
        )
        p = Portfolio(gdfs=tuple(Gdf(id=i) for i in "abcd"), edges=edges)
        assert p.parents_of("d") == [edges[0], edges[2]]
        assert p.parents_of("b") == [edges[1]]
        assert p.parents_of("a") == []

    def test_adverse_event_probability_range(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            AdverseEvent(id="e", prob=-0.1, cost=10.0)

    def test_duplicate_attack_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            Gdf(id="x", attacks=(simple_attack("a"), simple_attack("a")))

    def test_duplicate_adverse_event_ids_rejected(self):
        with pytest.raises(DuplicateIdError, match="duplicate adverse event id 'e'"):
            Gdf(id="x", adverse=(AdverseEvent(id="e", prob=0.1, cost=5.0), AdverseEvent(id="e", prob=0.2, cost=1.0)))

    def test_self_edge_rejected(self):
        with pytest.raises(ModelError):
            DependencyEdge(source="x", target="x", uplift={})

    def test_uplift_below_one_rejected(self):
        with pytest.raises(ModelError):
            DependencyEdge(source="x", target="y", uplift={"a": 0.5})


class TestCycleDetection:
    def test_two_cycle_reported(self):
        x = Gdf(id="x", ben=1.0, attacks=(simple_attack("ax"),))
        y = Gdf(id="y", ben=1.0, attacks=(simple_attack("ay"),))
        p = Portfolio(
            gdfs=(x, y),
            edges=(
                DependencyEdge(source="x", target="y", uplift={"ay": 2.0}),
                DependencyEdge(source="y", target="x", uplift={"ax": 2.0}),
            ),
            budget=None,
        )
        with pytest.raises(PortfolioValidationError) as err:
            validate_portfolio(p)
        codes = {v.code for v in err.value.violations}
        assert "CyclicDependency" in codes

    def test_three_cycle_reported(self):
        gdfs = tuple(Gdf(id=f"g{i}", attacks=(simple_attack(f"a{i}"),)) for i in range(3))
        edges = tuple(
            DependencyEdge(source=f"g{i}", target=f"g{(i + 1) % 3}", uplift={f"a{(i + 1) % 3}": 1.5})
            for i in range(3)
        )
        p = Portfolio(gdfs=gdfs, edges=edges)
        codes = {v.code for v in portfolio_violations(p)}
        assert "CyclicDependency" in codes

    def test_diamond_without_cycle_is_valid(self):
        gdfs = tuple(Gdf(id=f"g{i}", attacks=(simple_attack(f"a{i}"),)) for i in range(4))
        edges = (
            DependencyEdge(source="g0", target="g1", uplift={"a1": 2.0}),
            DependencyEdge(source="g0", target="g2", uplift={"a2": 2.0}),
            DependencyEdge(source="g1", target="g3", uplift={"a3": 2.0}),
            DependencyEdge(source="g2", target="g3", uplift={"a3": 2.0}),
        )
        assert portfolio_violations(Portfolio(gdfs=gdfs, edges=edges)) == []


class TestPortfolioViolations:
    def test_duplicate_gdf_ids(self):
        g = Gdf(id="dup")
        codes = {v.code for v in portfolio_violations(Portfolio(gdfs=(g, g)))}
        assert "DuplicateId" in codes

    def test_edge_to_unknown_gdf(self):
        g = Gdf(id="x", attacks=(simple_attack(),))
        p = Portfolio(gdfs=(g,), edges=(DependencyEdge(source="x", target="ghost", uplift={}),))
        codes = {v.code for v in portfolio_violations(p)}
        assert "UnknownGdf" in codes

    def test_uplift_naming_missing_attack(self):
        x = Gdf(id="x", attacks=(simple_attack("ax"),))
        y = Gdf(id="y", attacks=(simple_attack("ay"),))
        p = Portfolio(
            gdfs=(x, y),
            edges=(DependencyEdge(source="x", target="y", uplift={"nope": 2.0}),),
        )
        codes = {v.code for v in portfolio_violations(p)}
        assert "UnknownAttack" in codes

    def test_violation_message_names_location(self):
        x = Gdf(id="x", attacks=(simple_attack("ax"),))
        p = Portfolio(gdfs=(x, x))
        violations = portfolio_violations(p)
        assert any("gdfs[1]" in v.where for v in violations)

    def test_duplicate_edge_reported_at_each_repeat(self):
        a = Gdf(id="a", attacks=(simple_attack("aa"),))
        b = Gdf(id="b", attacks=(simple_attack("ab1"), simple_attack("ab2")))
        c = Gdf(id="c", attacks=(simple_attack("ac"),))
        edges = (
            DependencyEdge(source="a", target="b", uplift={"ab1": 2.0}),
            DependencyEdge(source="a", target="c", uplift={"ac": 2.0}),
            DependencyEdge(source="b", target="c", uplift={"ac": 2.0}),
            DependencyEdge(source="a", target="b", uplift={"ab2": 3.0}),
            DependencyEdge(source="a", target="b", uplift={}),
        )
        violations = portfolio_violations(Portfolio(gdfs=(a, b, c), edges=edges))
        assert [(v.code, v.where) for v in violations] == [
            ("DuplicateEdge", "edges[3] (a->b)"),
            ("DuplicateEdge", "edges[4] (a->b)"),
        ]
        # one edge per (source, target) pair, reversed pairs included, is fine
        assert portfolio_violations(Portfolio(gdfs=(a, b, c), edges=edges[:3])) == []


class TestGordonLoebII:
    def test_requires_interior_baseline(self):
        with pytest.raises(ModelError):
            AttackType(id="a", baseline_prob=1.0, loss=10.0, breach=GordonLoebII(alpha=1e-3))

    def test_zero_baseline_rejected(self):
        with pytest.raises(ModelError):
            AttackType(id="a", baseline_prob=0.0, loss=10.0, breach=GordonLoebII(alpha=1e-3))


class TestBreachParameterValidation:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_gl1_alpha_positive(self, alpha):
        with pytest.raises(ModelError):
            GordonLoebI(alpha=alpha)

    def test_gl1_beta_at_least_one(self):
        with pytest.raises(ModelError):
            GordonLoebI(alpha=1e-3, beta=0.5)

    @pytest.mark.parametrize("kappa", [0.0, -2.0])
    def test_exponential_kappa_positive(self, kappa):
        with pytest.raises(ModelError):
            Exponential(kappa=kappa)


class TestFiniteRange:
    """Each attack's pull ``baseline_prob * loss * |g'(0)|``, and each GDF's
    and portfolio's money and pull sums, are finite."""

    def test_an_infinite_zero_spend_loss_is_refused(self):
        # two losses near the largest double sum past it: f(0) would be inf
        attacks = tuple(AttackType(id=f"a{j}", baseline_prob=0.9, loss=1.7e308, breach=Exponential(1e-9))
                        for j in range(2))
        with pytest.raises(ModelError, match=r"gdf 'x' money sum must be finite, got inf"):
            Gdf(id="x", ben=1.0, attacks=attacks)

    @pytest.mark.parametrize("prob, loss, breach, got", [
        # the slope at 0 itself overflows: alpha * beta, alpha * log(baseline)
        (0.5, 10.0, GordonLoebI(alpha=1e308, beta=2.0), "inf"),
        (0.0, 10.0, GordonLoebI(alpha=1e308, beta=2.0), "nan"),  # 0 * inf
        (1e-300, 10.0, GordonLoebII(alpha=1.7e308), "inf"),
        (0.5, 0.0, Table(((0.0, 1.0), (5e-324, 0.5))), "nan"),
        # a finite slope times the loss overflows
        (0.5, 1e10, GordonLoebI(alpha=1e300), "inf"),
        (0.5, 1e10, Exponential(kappa=1e300), "inf"),
        (0.9, 1.7e308, Exponential(kappa=2.0), "inf"),
    ])
    def test_an_attack_whose_pull_overflows_is_refused(self, prob, loss, breach, got):
        with pytest.raises(ModelError, match=rf"attack 'a' pull baseline_prob \* loss \* \|g'\(0\)\| must be finite, "
                                             rf"got {got}"):
            AttackType(id="a", baseline_prob=prob, loss=loss, breach=breach)

    def test_the_breach_alone_still_builds(self):
        # the bound needs the attack's probability and loss, so it is the attack's
        assert Table(((0.0, 1.0), (5e-324, 0.5))).multiplier_derivative(0.0) == -math.inf
        assert GordonLoebI(alpha=1e308, beta=2.0).multiplier_derivative(0.0) == -math.inf

    @pytest.mark.parametrize("fields", [
        {"ben": 1e308, "dir_costs": 1e308},
        {"actual_spend": 1.7e308},
        {"adverse": (AdverseEvent(id="e", prob=0.1, cost=1.7e308),)},
    ])
    def test_a_gdf_whose_money_sum_overflows_is_refused(self, fields):
        with pytest.raises(ModelError, match=r"gdf 'x' money sum must be finite, got inf"):
            Gdf(id="x", attacks=(simple_attack(loss=1e308),), **{"ben": 1.0, **fields})

    def test_a_gdf_whose_pull_sum_overflows_is_refused(self):
        # each pull is 0.5 * 1e10 * 2e297 = 1e307: ten sum to 1e308, twenty pass the largest double
        attacks = tuple(simple_attack(f"a{j}", loss=1e10, breach=Exponential(kappa=2e297)) for j in range(20))
        Gdf(id="x", attacks=attacks[:10])
        with pytest.raises(ModelError, match=r"gdf 'x' pull sum must be finite, got inf"):
            Gdf(id="x", attacks=attacks)

    def test_a_portfolio_whose_sums_overflow_is_refused(self):
        rich = Gdf(id="x", ben=1e308)
        with pytest.raises(ModelError, match=r"portfolio money sum must be finite, got inf"):
            Portfolio(gdfs=(rich, dataclasses.replace(rich, id="y")))
        pulls = tuple(simple_attack(f"a{j}", loss=1e10, breach=Exponential(kappa=2e297)) for j in range(10))
        steep = Gdf(id="x", attacks=pulls)
        with pytest.raises(ModelError, match=r"portfolio pull sum must be finite, got inf"):
            Portfolio(gdfs=(steep, dataclasses.replace(steep, id="y")))


class TestTable:
    def test_first_knot_must_anchor_at_zero_one(self):
        with pytest.raises(ModelError):
            Table(knots=((10.0, 0.9), (20.0, 0.8)))
        with pytest.raises(ModelError):
            Table(knots=((0.0, 0.95), (20.0, 0.8)))

    def test_non_convex_knots_rejected(self):
        # slopes -0.01 then -0.04: decreasing slope = concave shape
        with pytest.raises(NonConvexTableError):
            Table(knots=((0.0, 1.0), (10.0, 0.9), (20.0, 0.5)))

    def test_increasing_multiplier_rejected(self):
        with pytest.raises(ModelError):
            Table(knots=((0.0, 1.0), (10.0, 0.5), (20.0, 0.7)))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ModelError):
            Table(knots=((0.0, 1.0), (10.0, 0.0)))

    @pytest.mark.parametrize("knot", [(math.inf, 0.5), (1.0, math.nan)])
    def test_non_finite_knot_rejected(self, knot):
        with pytest.raises(ModelError, match="Table knots must be finite"):
            Table(knots=((0.0, 1.0), knot))

    def test_constant_extrapolation_past_last_knot(self):
        t = Table(knots=((0.0, 1.0), (10.0, 0.5), (30.0, 0.4)))
        assert t.multiplier(30.0) == t.multiplier(1e9) == 0.4

    def test_interpolation_between_knots(self):
        t = Table(knots=((0.0, 1.0), (10.0, 0.5)))
        assert t.multiplier(5.0) == pytest.approx(0.75, abs=1e-15)


# hypothesis strategies producing valid breach models

def breach_models():
    def build(draw_tuple):
        seed, family = draw_tuple
        rng = make_rng(seed)
        prob = float(rng.uniform(0.05, 0.95))
        loss = float(10.0 ** rng.uniform(3.0, 6.5))
        breach = random_breach(rng, prob, loss, families=(family,))
        return breach, prob, loss

    return st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["gl1", "gl2", "exp", "table"]),
    ).map(build)


class TestBreachInvariants:
    @given(breach_models())
    def test_multiplier_is_one_at_zero_spend(self, bundle):
        breach, prob, _ = bundle
        assert breach.multiplier(0.0, prob) == 1.0

    @given(breach_models(), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_multiplier_monotone_and_in_unit_interval(self, bundle, f1, f2):
        breach, prob, loss = bundle
        scale = loss  # spend scale comparable to the loss
        s1, s2 = sorted((f1 * scale, f2 * scale))
        m1 = breach.multiplier(s1, prob)
        m2 = breach.multiplier(s2, prob)
        assert 0.0 < m2 <= m1 <= 1.0

    @given(breach_models(), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-6, max_value=0.5))
    def test_multiplier_convex(self, bundle, frac, hfrac):
        breach, prob, loss = bundle
        s = frac * loss
        h = hfrac * loss
        g0 = breach.multiplier(s, prob)
        g1 = breach.multiplier(s + h, prob)
        g2 = breach.multiplier(s + 2.0 * h, prob)
        assert g0 + g2 - 2.0 * g1 >= -1e-12

    @given(breach_models(), st.floats(min_value=1e-4, max_value=1.0))
    def test_analytic_derivative_matches_difference_quotient(self, bundle, frac):
        breach, prob, loss = bundle
        s = frac * loss
        h = 1e-6 * loss
        if isinstance(breach, Table):
            # a forward difference inside the segment starting at or before s
            # (segments are far longer than h), never straddling a knot
            ahead = [k for k, _ in breach.knots if k > s]
            lo = min(s, ahead[0] - h) if ahead else s
            numeric = (breach.multiplier(lo + h, prob) - breach.multiplier(lo, prob)) / h
        else:
            numeric = (breach.multiplier(s + h, prob) - breach.multiplier(s - h, prob)) / (2.0 * h)
        analytic = breach.multiplier_derivative(s, prob)
        assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-12 / loss)


class TestTableSlope:
    KNOTS = ((0.0, 1.0), (10.0, 0.5), (30.0, 0.3), (60.0, 0.25))
    # segment slopes -0.05, -0.01 and -1/600, then flat

    def test_each_segment_has_its_own_slope(self):
        t = Table(knots=self.KNOTS)
        for s, slope in [(0.5, -0.05), (9.9, -0.05), (10.5, -0.01), (29.0, -0.01), (45.0, -1.0 / 600.0)]:
            assert t.multiplier_derivative(s) == pytest.approx(slope, rel=1e-12)

    def test_slope_at_a_knot_is_the_right_derivative(self):
        t = Table(knots=self.KNOTS)
        for s, slope in [(0.0, -0.05), (10.0, -0.01), (30.0, -1.0 / 600.0), (60.0, 0.0)]:
            assert t.multiplier_derivative(s) == pytest.approx(slope, rel=1e-12)
        assert t.multiplier_derivative(math.nextafter(10.0, 0.0)) == pytest.approx(-0.05, rel=1e-12)

    def test_slope_is_zero_past_the_last_knot(self):
        t = Table(knots=self.KNOTS)
        for s in (60.5, 1e3, 1e12):
            assert t.multiplier_derivative(s) == 0.0
        assert Table(knots=((0.0, 1.0),)).multiplier_derivative(5.0) == 0.0


class TestRestrictPortfolio:
    def test_restriction_drops_gdfs_and_their_edges(self):
        rng = make_rng(7)
        p = random_portfolio(rng, 3, with_edges=True)
        keep = p.ids()[:1]
        sub = restrict_portfolio(p, keep)
        assert sub.ids() == keep
        assert all(e.source in keep and e.target in keep for e in sub.edges)
        assert sub.budget == p.budget

    def test_restriction_to_all_is_identity_on_ids(self):
        rng = make_rng(11)
        p = random_portfolio(rng, 4, with_edges=True)
        sub = restrict_portfolio(p, p.ids())
        assert sub.ids() == p.ids()
        assert len(sub.edges) == len(p.edges)

    def test_random_portfolios_validate(self):
        for seed in range(20):
            p = random_portfolio(make_rng(seed), int(make_rng(seed ^ 1).integers(1, 5)), with_edges=seed % 2 == 0)
            assert portfolio_violations(p) == []
