"""Dependency-graph evaluation at depth and through the allocator's
coupled objective, each checked against an independent reference, and the
portfolio's refusal of cycles and dangling edges when it is built."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enbcds.cli import main
from enbcds.evaluate import CoupledTotal, EvalContext, enb
from enbcds.io import ScenarioFile, serialize_scenario
from enbcds.model import (
    AttackType,
    DependencyEdge,
    Exponential,
    Gdf,
    Portfolio,
    PortfolioValidationError,
    validate_portfolio,
)

from oracles import (
    PARAMETRIC,
    make_rng,
    oracle_noncyber,
    oracle_total,
    random_gdf,
    random_portfolio,
    standalone_prob,
)

CHAIN_DEPTH = 5000


def _edge(rng, source: Gdf, target: Gdf) -> DependencyEdge:
    uplift = {a.id: float(rng.uniform(1.2, 4.0)) for a in target.attacks}
    return DependencyEdge(source=source.id, target=target.id, uplift=uplift)


def _spends(rng, p: Portfolio) -> dict[str, float]:
    return {
        x.id: float(rng.uniform(0.0, sum(a.baseline_prob * a.loss for a in x.attacks)))
        for x in p.gdfs
    }


def _chain(rng, depth: int) -> Portfolio:
    gdfs = [random_gdf(rng, i, n_attacks=2, families=PARAMETRIC, max_adverse=1) for i in range(depth)]
    edges = tuple(_edge(rng, a, b) for a, b in zip(gdfs, gdfs[1:]))
    return Portfolio(gdfs=tuple(gdfs), edges=edges)


def _star(rng, k: int) -> Portfolio:
    gdfs = [random_gdf(rng, i, n_attacks=2, families=PARAMETRIC) for i in range(k + 1)]
    edges = tuple(_edge(rng, parent, gdfs[-1]) for parent in gdfs[:-1])
    return Portfolio(gdfs=tuple(gdfs), edges=edges)


def _diamond(rng) -> Portfolio:
    g = [random_gdf(rng, i, n_attacks=2, families=PARAMETRIC) for i in range(5)]
    pairs = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 4))
    # listed child-first so the GDF order is not a topological order
    return Portfolio(gdfs=tuple(reversed(g)), edges=tuple(_edge(rng, g[a], g[b]) for a, b in pairs))


def chain_reference(p: Portfolio, spends: dict[str, float]) -> float:
    """Net benefit of the sink of a chain, folding one GDF after the other:
    with a single parent compromised with probability q, an attack succeeds
    with (1 - q) * base + q * min(1, base * uplift)."""
    q = None
    for x, edge in zip(p.gdfs, (None,) + p.edges):
        s = spends[x.id]
        probs = []
        for a in x.attacks:
            base = standalone_prob(a, s)
            if edge is not None:
                base = (1.0 - q) * base + q * min(1.0, base * edge.uplift.get(a.id, 1.0))
            probs.append(base)
        q = 1.0 - math.prod(1.0 - pr for pr in probs)
    return x.ben - x.dir_costs - oracle_noncyber(x) - (s + sum(pr * a.loss for pr, a in zip(probs, x.attacks)))


@pytest.fixture(scope="module")
def deep_chain():
    rng = make_rng(5000)
    p = _chain(rng, CHAIN_DEPTH)
    return p, _spends(rng, p)


class TestDeepChain:
    def test_validates(self, deep_chain):
        p, _ = deep_chain
        assert validate_portfolio(p) is p

    def test_sink_matches_forward_reference(self, deep_chain):
        p, spends = deep_chain
        sink = p.gdfs[-1]
        got = enb(sink, spends[sink.id], EvalContext(p, spends))
        want = chain_reference(p, spends)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_cli_evaluate_exits_zero(self, deep_chain, tmp_path, capsys):
        p, _ = deep_chain
        path = tmp_path / "chain.json"
        path.write_text(serialize_scenario(ScenarioFile(schema_version=1, portfolio=p)), encoding="utf-8")
        sink = p.gdfs[-1]
        assert main(["--json", "evaluate", str(path), "--gdf", sink.id, "--spend", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        want = chain_reference(p, {x.id: 0.0 for x in p.gdfs})
        assert abs(out["enbcds"] - want) <= 1e-12 * max(1.0, abs(want))


class TestCoupledTotal:
    """The allocator's refinement objective against direct enumeration."""

    @staticmethod
    def _check(p: Portfolio, spends: dict[str, float], mode: str) -> None:
        total = CoupledTotal(p, mode)
        got = total(spends)
        want = oracle_total(p, spends, mode)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        # the allocator reads per-GDF values; they are the context path's, bit for bit
        ctx = EvalContext(p, spends, mode)
        assert total.values(spends) == {x.id: enb(x, spends[x.id], ctx) for x in p.gdfs}

    @pytest.mark.parametrize("mode", ["additive", "literal"])
    @pytest.mark.parametrize("shape", ["star2", "star5", "chain3", "chain7", "diamond"])
    def test_shapes(self, shape, mode):
        rng = make_rng(len(shape) * 101 + len(mode))
        build = {
            "star2": lambda: _star(rng, 2),
            "star5": lambda: _star(rng, 5),
            "chain3": lambda: _chain(rng, 3),
            "chain7": lambda: _chain(rng, 7),
            "diamond": lambda: _diamond(rng),
        }[shape]
        for _ in range(3):
            p = build()
            self._check(p, _spends(rng, p), mode)

    @pytest.mark.parametrize("shape", ["chain", "diamond"])
    def test_repeated_probes_moving_one_or_two_spends(self, shape):
        rng = make_rng(17)
        p = _chain(rng, 5) if shape == "chain" else _diamond(rng)
        total = CoupledTotal(p)
        spends = _spends(rng, p)
        ids = p.ids()
        for _ in range(40):
            for gid in rng.choice(ids, size=int(rng.integers(1, 3)), replace=False):
                spends[str(gid)] = float(rng.uniform(0.0, 2e5))
            want = oracle_total(p, spends)
            assert abs(total(spends) - want) <= 1e-12 * max(1.0, abs(want))

    def test_rejects_a_cycle_and_a_negative_spend(self):
        gdfs = (_gdf("a"), _gdf("b"))
        with pytest.raises(PortfolioValidationError) as err:
            CoupledTotal(Portfolio(gdfs=gdfs, edges=(_link("a", "b"), _link("b", "a"))))
        assert [v.code for v in err.value.violations] == ["CyclicDependency"]
        total = CoupledTotal(Portfolio(gdfs=gdfs, edges=(_link("a", "b"),)))
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                total({"a": 10.0, "b": bad})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6),
           st.sampled_from(["additive", "literal"]))
    def test_random_portfolios(self, seed, n, mode):
        rng = make_rng(seed)
        p = random_portfolio(rng, n, with_edges=True)
        self._check(p, _spends(rng, p), mode)

    @staticmethod
    def _check_lines(p: Portfolio, rng, lines, mode: str = "additive", probes: int = 4) -> None:
        """Each line's probes equal the whole sum at the moved spends, bit for
        bit, including a probe at the line's own base spends."""
        total = CoupledTotal(p, mode)
        spends = _spends(rng, p)
        for moved in lines:
            line = total.line(spends, moved)
            assert line(*(spends[g] for g in moved)) == total(spends)
            for _ in range(probes):
                at = [float(rng.uniform(0.0, 2.0 * spends[g] + 1.0)) for g in moved]
                assert line(*at) == total({**spends, **dict(zip(moved, at))})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6),
           st.sampled_from(["additive", "literal"]))
    def test_lines_on_random_portfolios(self, seed, n, mode):
        rng = make_rng(seed)
        p = random_portfolio(rng, n, with_edges=True)
        ids = p.ids()
        # every single spend, the sink (no descendants) among them, and every pair
        lines = [(g,) for g in ids] + [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        self._check_lines(p, rng, lines, mode)

    def test_lines_on_a_twelve_parent_star(self):
        rng = make_rng(12)
        p = _star(rng, 12)
        ids = p.ids()
        sink = ids[-1]
        lines = [(ids[0],), (ids[7],), (sink,), (ids[2], ids[5]), (ids[3], sink), (sink, ids[11])]
        self._check_lines(p, rng, lines, probes=2)

    def test_lines_on_a_256_deep_chain(self):
        rng = make_rng(256)
        p = _chain(rng, 256)
        ids = p.ids()
        lines = [(ids[0],), (ids[128],), (ids[-1],), (ids[0], ids[-1]), (ids[200], ids[3])]
        self._check_lines(p, rng, lines, probes=3)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_a_line_rejects_a_spend_as_the_whole_sum_does(self, bad):
        rng = make_rng(3)
        p = _chain(rng, 4)
        total = CoupledTotal(p)
        spends = _spends(rng, p)
        ids = p.ids()
        line = total.line(spends, (ids[1], ids[2]))
        with pytest.raises(ValueError) as want:
            total({**spends, ids[1]: 10.0, ids[2]: bad})
        with pytest.raises(ValueError) as got:
            line(10.0, bad)
        assert str(got.value) == str(want.value)
        # a probe that raised leaves the line as it was
        assert line(10.0, 20.0) == total({**spends, ids[1]: 10.0, ids[2]: 20.0})


def _gdf(gid: str) -> Gdf:
    attack = AttackType(id=f"a-{gid}", baseline_prob=0.3, loss=1000.0, breach=Exponential(kappa=1e-3))
    return Gdf(id=gid, ben=2000.0, attacks=(attack,))


def _link(source: str, target: str) -> DependencyEdge:
    return DependencyEdge(source=source, target=target, uplift={f"a-{target}": 2.0})


class TestCycles:
    @pytest.mark.parametrize(
        "names, links, want",
        [
            # w -> u -> a <-> b -> d: sound GDFs above the cycle, one below it
            ("wuabd", ["wu", "ua", "ab", "ba", "bd"],
             [("CyclicDependency", "edges", "dependency graph has a cycle: a -> b -> a")]),
            # r -> s is sound; "zz" names no GDF, and c has a child g
            ("rscg", ["rs", ("zz", "c"), "cg"],
             [("UnknownGdf", "edges[1] (zz->c)", "unknown gdf 'zz'")]),
        ],
        ids=["cycle", "dangling-source"],
    )
    def test_build_refuses_a_graph_that_evaluation_could_not_walk(self, names, links, want):
        gdfs = tuple(_gdf(g) for g in names)
        edges = tuple(_link(source, target) for source, target in links)
        with pytest.raises(PortfolioValidationError) as err:
            Portfolio(gdfs=gdfs, edges=edges)
        assert [(v.code, v.where, v.message) for v in err.value.violations] == want

    def test_cycle_path_in_message(self):
        gdfs = tuple(_gdf(f"g{i}") for i in range(4))
        edges = (_link("g3", "g0"), _link("g0", "g1"), _link("g1", "g2"), _link("g2", "g0"))
        with pytest.raises(PortfolioValidationError) as err:
            validate_portfolio(Portfolio(gdfs=gdfs, edges=edges))
        (violation,) = err.value.violations
        assert violation.code == "CyclicDependency"
        assert violation.message.endswith("g0 -> g1 -> g2 -> g0")

    def test_long_ring_reported_without_recursion(self):
        n = 3000
        gdfs = tuple(_gdf(f"g{i}") for i in range(n))
        edges = tuple(_link(f"g{i}", f"g{(i + 1) % n}") for i in range(n))
        with pytest.raises(PortfolioValidationError) as err:
            validate_portfolio(Portfolio(gdfs=gdfs, edges=edges))
        (violation,) = err.value.violations
        assert violation.message.count(" -> ") == n
