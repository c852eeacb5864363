"""Command-line interface: subcommands, exit codes, output formats."""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import enbcds
from enbcds import (
    bundled_scenario,
    bundled_scenario_names,
    bundled_scenario_text,
    enb,
    optimal_spend,
    parse_curve_csv,
    sample,
)
from enbcds import cli
from enbcds.cli import main
from enbcds.io import ScenarioFile, serialize_scenario

from oracles import make_rng, oracle_f, random_portfolio

MINIMAL = """
{
  "schema_version": 1,
  "portfolio": {
    "budget": null,
    "gdfs": [
      {"id": "solo", "ben": 100.0, "dir_costs": 10.0}
    ]
  }
}
"""


@pytest.fixture
def minimal_file(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(MINIMAL, encoding="utf-8")
    return str(path)


@pytest.fixture
def scada_file(tmp_path):
    path = tmp_path / "remote-scada.json"
    path.write_text(bundled_scenario_text("remote-scada"), encoding="utf-8")
    return str(path)


@pytest.fixture
def comparison_file(tmp_path):
    path = tmp_path / "comparison.json"
    path.write_text(bundled_scenario_text("three-gdfs-comparison"), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_usage_error_is_exit_2(self, minimal_file):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", minimal_file])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sample", minimal_file, "--draws", "4"])  # --seed is required
        assert exc.value.code == 2

    def test_missing_file_is_exit_1(self, tmp_path, capfd):
        code = main(["validate", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capfd.readouterr().err

    def test_uncertain_support_outside_domain_fails_validation(self, tmp_path, capfd):
        doc = json.loads(bundled_scenario_text("remote-scada"))
        doc["uncertainty"] = [{
            "target": "/portfolio/gdfs/0/attacks/0/loss",
            "distribution": {"kind": "uniform", "lo": -1e6, "hi": 1e6},
        }]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "/uncertainty/0/distribution" in capfd.readouterr().err

    def test_uncertain_knot_that_breaks_its_table_fails_validation(self, tmp_path, capfd):
        # at the support's lower end the last multiplier rises above the one before it
        doc = json.loads(MINIMAL)
        doc["portfolio"]["gdfs"][0]["attacks"] = [{
            "id": "t", "baseline_prob": 0.4, "loss": 90.0,
            "breach": {"family": "table", "knots": [[0, 1], [10, 0.5], [30, 0.25]]},
        }]
        target = "/portfolio/gdfs/0/attacks/0/breach/knots/2/1"
        doc["uncertainty"] = [{"target": target, "distribution": {"kind": "uniform", "lo": 0.6, "hi": 0.9}}]
        path = tmp_path / "knot.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capfd.readouterr().err
        assert err.startswith(f"error: /uncertainty/0/distribution: support of {target} reaches 0.6: ")
        assert err.rstrip().endswith("Table multipliers must be non-increasing")

    def test_invalid_draw_is_exit_1_naming_draw_and_target(self, tmp_path, capfd):
        doc = json.loads(MINIMAL)
        doc["portfolio"]["gdfs"][0]["attacks"] = [{
            "id": "g2", "baseline_prob": 0.5, "loss": 1e4,
            "breach": {"family": "gordon-loeb-2", "alpha": 1e-3},
        }]
        # a baseline of 1 is a valid probability but not for GordonLoebII
        target = "/portfolio/gdfs/0/attacks/0/baseline_prob"
        doc["uncertainty"] = [{"target": target, "distribution": {"kind": "point", "value": 1.0}}]
        path = tmp_path / "gl2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        capfd.readouterr()
        assert main(["sample", str(path), "--draws", "3", "--seed", "0"]) == 1
        assert f"error: draw 0, target {target}:" in capfd.readouterr().err

    def test_duplicate_edge_is_exit_1_naming_the_edge(self, tmp_path, capfd):
        doc = json.loads(MINIMAL)
        attack = {"baseline_prob": 0.5, "loss": 1e3, "breach": {"family": "exponential", "kappa": 1e-3}}
        doc["portfolio"]["gdfs"] = [
            {"id": "a", "ben": 0.0, "dir_costs": 0.0, "attacks": [{"id": "x", **attack}]},
            {"id": "b", "ben": 2e3, "dir_costs": 0.0, "attacks": [{"id": "y", **attack}]},
        ]
        edge = {"source": "a", "target": "b", "uplift": {"y": 2.0}}
        doc["portfolio"]["edges"] = [edge]
        path = tmp_path / "edges.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        capfd.readouterr()
        doc["portfolio"]["edges"] = [edge, edge]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capfd.readouterr().err
        assert "edges[1] (a->b)" in err and "duplicate edge" in err
        assert "edges[0]" not in err

    def test_duplicate_adverse_event_id_is_exit_1_naming_the_gdf(self, tmp_path, capfd):
        doc = json.loads(MINIMAL)
        event = {"id": "storm", "prob": 0.1, "cost": 5e3}
        doc["portfolio"]["gdfs"].append({"id": "twice", "ben": 1e3, "dir_costs": 0.0, "adverse": [event, event]})
        path = tmp_path / "adverse.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capfd.readouterr().err
        assert "/portfolio/gdfs/1" in err and "duplicate adverse event id 'storm'" in err

    def test_malformed_json_is_exit_1(self, tmp_path, capfd):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "error:" in capfd.readouterr().err

    def test_schema_error_is_exit_1(self, tmp_path, capfd):
        path = tmp_path / "nobudget.json"
        doc = json.loads(MINIMAL)
        del doc["portfolio"]["budget"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "budget" in capfd.readouterr().err

    def test_unknown_gdf_is_exit_1(self, minimal_file, capfd):
        assert main(["evaluate", minimal_file, "--gdf", "ghost"]) == 1
        err = capfd.readouterr().err
        assert "ghost" in err and "solo" in err


class TestValidate:
    def test_ok_output(self, minimal_file, capfd):
        assert main(["validate", minimal_file]) == 0
        assert capfd.readouterr().out == "OK\n"

    def test_json_output(self, minimal_file, capfd):
        assert main(["--json", "validate", minimal_file]) == 0
        assert json.loads(capfd.readouterr().out) == {"ok": True}

    def test_lenient_accepts_unknown_fields(self, tmp_path, capfd):
        doc = json.loads(MINIMAL)
        doc["portfolio"]["gdfs"][0]["surprise"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        capfd.readouterr()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["--lenient", "validate", str(path)]) == 0
        assert capfd.readouterr().out == "OK\n"

    def test_number_too_large_for_a_double_names_its_path(self, tmp_path, capfd):
        doc = json.loads(bundled_scenario_text("wifi-thermostats"))
        doc["portfolio"]["gdfs"][0]["ben"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: /portfolio/gdfs/0/ben: ")
        assert "Traceback" not in err

    def test_every_portfolio_violation_prints_as_the_model_states_it(self, tmp_path, capfd):
        # one portfolio with a duplicate GDF id, a duplicate edge, an endpoint
        # naming no GDF, an uplift naming no attack and a cycle
        attack = {"id": "hit", "baseline_prob": 0.3, "loss": 1000.0, "breach": {"family": "exponential", "kappa": 1e-3}}
        gdfs = [{"id": gid, "ben": 10.0, "dir_costs": 1.0, "attacks": [attack]} for gid in "abca"]
        edges = [
            {"source": "a", "target": "b", "uplift": {"hit": 2.0}},
            {"source": "a", "target": "b", "uplift": {}},
            {"source": "b", "target": "ghost", "uplift": {}},
            {"source": "a", "target": "c", "uplift": {"nope": 2.0}},
            {"source": "b", "target": "c", "uplift": {"hit": 2.0}},
            {"source": "c", "target": "b", "uplift": {}},
        ]
        doc = {"schema_version": 1, "portfolio": {"budget": None, "gdfs": gdfs, "edges": edges}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        hit = enbcds.AttackType(id="hit", baseline_prob=0.3, loss=1000.0, breach=enbcds.Exponential(1e-3))
        with pytest.raises(enbcds.PortfolioValidationError) as err:
            enbcds.Portfolio(
                gdfs=tuple(enbcds.Gdf(id=g["id"], ben=10.0, dir_costs=1.0, attacks=(hit,)) for g in gdfs),
                edges=tuple(enbcds.DependencyEdge(**e) for e in edges),
            )
        assert [v.code for v in err.value.violations] == [
            "DuplicateId", "DuplicateEdge", "UnknownGdf", "UnknownAttack", "CyclicDependency",
        ]
        assert main(["validate", str(path)]) == 1
        assert capfd.readouterr().err == f"error: /portfolio: {err.value}\n"


class TestEvaluate:
    def test_no_attack_gdf_prints_ben_minus_costs(self, minimal_file, capfd):
        assert main(["evaluate", minimal_file, "--gdf", "solo"]) == 0
        out = capfd.readouterr().out
        assert out == "gdf solo: enbcds(0.0) = 90.0\n"

    def test_explicit_spend_is_subtracted(self, minimal_file, capfd):
        assert main(["evaluate", minimal_file, "--gdf", "solo", "--spend", "5"]) == 0
        assert "= 85.0" in capfd.readouterr().out

    def test_json_matches_library_value(self, scada_file, capfd):
        assert main(["--json", "evaluate", scada_file, "--gdf", "remote-scada-access"]) == 0
        payload = json.loads(capfd.readouterr().out)
        sc = bundled_scenario("remote-scada")
        g = sc.portfolio.gdfs[0]
        from enbcds import EvalContext

        ctx = EvalContext(sc.portfolio, {g.id: g.actual_spend})
        assert payload["gdf"] == g.id
        assert payload["spend"] == g.actual_spend
        assert payload["enbcds"] == pytest.approx(enb(g, g.actual_spend, ctx), rel=1e-12)

    def test_literal_mode_changes_the_value(self, scada_file, capfd):
        main(["evaluate", scada_file, "--gdf", "remote-scada-access", "--spend", "100000"])
        additive = capfd.readouterr().out
        main(["evaluate", scada_file, "--gdf", "remote-scada-access", "--spend", "100000",
              "--mode", "literal"])
        literal = capfd.readouterr().out
        assert additive != literal


class TestCurve:
    def test_csv_to_stdout(self, scada_file, capfd):
        assert main(["curve", scada_file, "--gdf", "remote-scada-access", "--samples", "5"]) == 0
        out = capfd.readouterr().out
        assert out.startswith("s,enbcds")
        samples, s_star = parse_curve_csv(out)
        assert len(samples) == 5
        assert s_star is not None

    def test_output_file_written_atomically(self, scada_file, tmp_path, capfd):
        target = tmp_path / "curve.csv"
        code = main(["curve", scada_file, "--gdf", "remote-scada-access",
                     "--samples", "8", "-o", str(target)])
        assert code == 0
        assert capfd.readouterr().out == ""
        samples, _ = parse_curve_csv(target.read_bytes())
        assert len(samples) == 8
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".enbcds-tmp-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_output_file_mode_follows_the_umask(self, minimal_file, tmp_path, umask, mode):
        target = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            assert main(["validate", minimal_file, "-o", str(target)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(target).st_mode) == mode

    def test_failed_rename_keeps_the_old_output_and_no_temp_file(self, minimal_file, tmp_path, monkeypatch, capfd):
        target = tmp_path / "out.txt"
        target.write_bytes(b"before\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["validate", minimal_file, "-o", str(target)]) == 1
        assert "rename refused" in capfd.readouterr().err
        assert target.read_bytes() == b"before\n"
        assert [n for n in os.listdir(tmp_path) if n.startswith(".enbcds-tmp-")] == []

    def test_svg_format(self, scada_file, capfd):
        assert main(["curve", scada_file, "--gdf", "remote-scada-access",
                     "--samples", "16", "--format", "svg"]) == 0
        out = capfd.readouterr().out
        assert out.startswith("<?xml")
        assert 'class="peak-marker"' in out

    def test_json_format(self, scada_file, capfd):
        assert main(["--json", "curve", scada_file, "--gdf", "remote-scada-access",
                     "--samples", "4"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert payload["gdf"] == "remote-scada-access"
        assert len(payload["samples"]) == 4
        assert payload["peak_value"] >= max(v for _, v in payload["samples"]) - 1e-9

    def test_default_window_ends_where_the_net_benefit_is_finite(self, tmp_path, capfd):
        # f(0) = 1.7e308, and with kappa 1e-320 f barely falls, so s + f(s)
        # at the window's default end f(0) overflows and its sample read -inf
        attack = {"id": "a", "baseline_prob": 1.0, "loss": 1.7e308,
                  "breach": {"family": "exponential", "kappa": 1e-320}}
        doc = json.loads(MINIMAL)
        doc["portfolio"]["gdfs"][0].update(ben=1.0, dir_costs=0.0, attacks=[attack])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--json", "curve", str(path), "--gdf", "solo"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert len(payload["samples"]) == 200
        assert all(math.isfinite(v) for sample in payload["samples"] for v in sample)
        assert 0.0 < payload["samples"][-1][0] < 1.7e308
        assert payload["s_star"] == 0.0

    def test_bad_samples_value_is_exit_1(self, scada_file, capfd):
        assert main(["curve", scada_file, "--gdf", "remote-scada-access", "--samples", "1"]) == 1
        assert "error:" in capfd.readouterr().err


class TestOptimize:
    def test_matches_library_solution(self, scada_file, capfd):
        assert main(["optimize", scada_file, "--gdf", "remote-scada-access"]) == 0
        out = capfd.readouterr().out
        sc = bundled_scenario("remote-scada")
        best = optimal_spend(sc.portfolio.gdfs[0])
        assert f"s_star = {best.s_star}" in out
        assert f"value at s_star = {best.value}" in out

    def test_json_payload_matches_library_solution(self, scada_file, capfd):
        assert main(["--json", "optimize", scada_file, "--gdf", "remote-scada-access"]) == 0
        payload = json.loads(capfd.readouterr().out)
        best = optimal_spend(bundled_scenario("remote-scada").portfolio.gdfs[0])
        assert payload == {"gdf": "remote-scada-access", "s_star": best.s_star, "value": best.value}


class TestAllocate:
    def test_comparison_table_shows_drops(self, comparison_file, capfd):
        assert main(["allocate", comparison_file]) == 0
        out = capfd.readouterr().out
        iot = next(l for l in out.splitlines() if l.startswith("consumer-iot"))
        assert "dropped" in iot
        sub = next(l for l in out.splitlines() if l.startswith("substation"))
        assert "retained" in sub
        assert "objective = " in out
        assert "kkt:" in out

    def test_zero_budget_zeroes_spends(self, comparison_file, capfd):
        assert main(["--json", "allocate", comparison_file, "--budget", "0"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert all(v == 0.0 for v in payload["spends"].values())
        assert payload["budget_used"] == 0.0

    def test_json_payload_shape(self, comparison_file, capfd):
        assert main(["--json", "allocate", comparison_file]) == 0
        payload = json.loads(capfd.readouterr().out)
        for key in ("spends", "dropped", "objective", "budget_used", "lam", "kkt", "iterations"):
            assert key in payload
        assert payload["kkt"]["zero_spend_ok"] in (True, False)

    def test_literal_mode_has_no_zero_spend_check(self, comparison_file, capfd):
        # literal mode has no lam to compare the zero-spend marginals with
        assert main(["--json", "allocate", comparison_file, "--mode", "literal"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert payload["lam"] is None and payload["kkt"]["zero_spend_ok"] is None
        assert main(["allocate", comparison_file, "--mode", "literal"]) == 0
        assert "zero-spend marginals within lam+1e-4: n/a\n" in capfd.readouterr().out

    def test_kkt_spread_is_that_of_the_interior_marginals(self, tmp_path, capfd):
        # a 3-GDF star that spends its whole budget with every GDF interior
        rng = make_rng(1)
        p = random_portfolio(rng, 3, with_edges=True, n_attacks=2)
        budget = 0.05 * sum(oracle_f(x, 0.0) for x in p.gdfs)
        path = tmp_path / "star.json"
        path.write_text(serialize_scenario(ScenarioFile(schema_version=1, portfolio=p)), encoding="utf-8")
        assert main(["--json", "allocate", str(path), "--budget", repr(budget)]) == 0
        payload = json.loads(capfd.readouterr().out)
        inner = [payload["marginal_at_solution"][i] for i, ok in payload["interior"].items() if ok]
        assert len(inner) >= 2
        assert payload["kkt"]["interior_count"] == len(inner)
        lo, hi = min(inner), max(inner)
        spread = (hi - lo) / max(abs(hi), abs(lo))
        assert spread > 0.0
        assert payload["kkt"]["marginal_spread_rel"] == spread
        assert spread <= 1e-4


class TestSample:
    def test_deterministic_output(self, scada_file, capfd):
        args = ["sample", scada_file, "--draws", "16", "--seed", "7"]
        assert main(args) == 0
        first = capfd.readouterr().out
        assert main(args) == 0
        second = capfd.readouterr().out
        assert first == second
        assert "draws = 16, seed = 7" in first
        assert "sampled parameters" in first

    def test_json_output_parses(self, scada_file, capfd):
        assert main(["--json", "sample", scada_file, "--draws", "8", "--seed", "3"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert payload["draws"] == 8
        assert payload["param_stats"]
        assert payload["allocation_objective"] is not None

    def test_json_output_is_the_report_as_a_dict(self, scada_file, capfd):
        assert main(["--json", "sample", scada_file, "--draws", "8", "--seed", "3"]) == 0
        payload = json.loads(capfd.readouterr().out)
        sc = bundled_scenario("remote-scada")
        report = sample(sc.portfolio, sc.uncertainty, draws=8, seed=3)
        assert payload == json.loads(json.dumps(dataclasses.asdict(report)))

    @pytest.mark.parametrize("case", ["overflowing-document", "overflowing-result"])
    def test_json_refuses_a_non_finite_result(self, tmp_path, capfd, case):
        if case == "overflowing-document":
            # direct costs and a loss near the largest double sum past it: the
            # document fails at parse, before any result is formed
            doc = json.loads(bundled_scenario_text("three-gdfs-comparison"))
            doc["portfolio"]["gdfs"][2]["dir_costs"] = 1.7e308
            doc["portfolio"]["gdfs"][2]["attacks"][0]["loss"] = 1.7e308
            args, error = ["sample", "--draws", "16", "--seed", "0"], "error: /portfolio/gdfs/2: gdf "
        else:
            # a valid document; the literal cost 0.9 * (loss + s) of each of two
            # attacks at a spend near the largest double sums to inf, and the
            # net benefit reads -inf, which JSON cannot carry
            attack = {"baseline_prob": 0.9, "loss": 1000.0, "breach": {"family": "table", "knots": [[0, 1]]}}
            doc = json.loads(MINIMAL)
            doc["portfolio"]["gdfs"][0]["attacks"] = [{"id": f"a{j}", **attack} for j in range(2)]
            args = ["evaluate", "--gdf", "solo", "--mode", "literal", "--spend", "1.7e308"]
            error = "error: Out of range float values are not JSON compliant: -inf"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["--json", args[0], str(path), *args[1:]]
        assert main(args) == 1
        assert capfd.readouterr().out == ""
        assert main(args + ["-o", str(tmp_path / "out.json")]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error)
        assert os.listdir(tmp_path) == ["s.json"]

    def test_a_probability_support_reaching_1e300_draws_above_one(self, tmp_path, capfd):
        # every draw of a baseline on [0.45, 1e300] is clamped down to 1;
        # numpy's triangular on that support drew -inf, clamped up to 0
        doc = json.loads(bundled_scenario_text("three-gdfs-comparison"))
        doc["uncertainty"][0]["distribution"]["hi"] = 1e300
        target = doc["uncertainty"][0]["target"]
        assert target.endswith("/baseline_prob")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--json", "sample", str(path), "--draws", "3", "--seed", "0"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert payload["param_stats"][target]["mean"] == 1.0
        assert payload["clamp_events"][target] == 3

    def test_threads_flag_does_not_change_output(self, scada_file, capfd):
        base = ["sample", scada_file, "--draws", "12", "--seed", "9"]
        assert main(base) == 0
        single = capfd.readouterr().out
        assert main(base + ["--threads", "4"]) == 0
        multi = capfd.readouterr().out
        assert single == multi


class TestReport:
    def test_report_advises_dropping_iot(self, comparison_file, capfd):
        assert main(["report", comparison_file]) == 0
        out = capfd.readouterr().out
        iot = next(l for l in out.splitlines() if l.startswith("consumer-iot"))
        assert "do not deploy" in iot
        assert "total objective:" in out

    def test_plots_directory_gets_one_svg_per_gdf(self, comparison_file, tmp_path, capfd):
        plots = tmp_path / "plots"
        assert main(["report", comparison_file, "--plots", str(plots), "-o",
                     str(tmp_path / "report.txt")]) == 0
        capfd.readouterr()
        sc = bundled_scenario("three-gdfs-comparison")
        names = sorted(os.listdir(plots))
        assert names == sorted(f"{g.id}.svg" for g in sc.portfolio.gdfs)
        for name in names:
            content = (plots / name).read_bytes()
            assert content.startswith(b"<?xml")

    @pytest.mark.parametrize(
        "gdf_id",
        ["../escaped", "{tmp}/escaped", "bad\u0000id", "x" * 300, "x" * 252, "\u00e9" * 126],
        ids=["relative", "absolute", "nul", "300-bytes", "252-bytes", "252-utf8-bytes"],
    )
    def test_plots_refuse_a_gdf_id_that_is_not_a_file_name(self, tmp_path, capfd, gdf_id):
        # <id>.svg may hold at most 255 bytes; the third GDF's curve would be written last
        gdf_id = gdf_id.format(tmp=tmp_path)
        doc = json.loads(bundled_scenario_text("three-gdfs-comparison"))
        doc["portfolio"]["gdfs"][2]["id"] = gdf_id
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["report", str(path), "--plots", str(tmp_path / "plots"), "-o", str(tmp_path / "r.txt")])
        assert code == 1
        assert repr(gdf_id) in capfd.readouterr().err
        assert os.listdir(tmp_path) == ["s.json"]

    def test_plots_take_an_id_of_251_bytes(self, tmp_path, capfd):
        doc = json.loads(bundled_scenario_text("wifi-thermostats"))
        gdf_id = "x" * 251
        doc["portfolio"]["gdfs"][0]["id"] = gdf_id
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", str(path), "--plots", str(tmp_path / "plots"), "-o", str(tmp_path / "r.txt")]) == 0
        assert f"{gdf_id}.svg" in os.listdir(tmp_path / "plots")

    def test_json_report_shape(self, comparison_file, capfd):
        assert main(["--json", "report", comparison_file]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert set(payload) == {"gdfs", "allocation"}
        for entry in payload["gdfs"].values():
            assert {"actual_spend", "value_at_actual", "s_star", "value"} <= set(entry)

    def test_budget_override_changes_allocation(self, comparison_file, capfd):
        assert main(["--json", "report", comparison_file, "--budget", "200000"]) == 0
        payload = json.loads(capfd.readouterr().out)
        assert payload["allocation"]["budget_used"] <= 200000.0 * (1 + 1e-9)


def _subcommand_argv(command: str, name: str, path: str) -> list[str]:
    """Arguments that run ``command`` on bundled scenario ``name`` saved at ``path``."""
    gdf = ["--gdf", bundled_scenario(name).portfolio.ids()[0]]
    extra = {
        "evaluate": gdf,
        "curve": [*gdf, "--samples", "16"],
        "optimize": gdf,
        "sample": ["--draws", "3", "--seed", "0"],
    }
    return [command, path, *extra.get(command, [])]


SUBCOMMANDS = ("validate", "evaluate", "curve", "optimize", "allocate", "sample", "report")


class TestOneOutputPath:
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_output_file_holds_the_bytes_printed_to_stdout(self, tmp_path, capfdbinary, name, command, as_json):
        path = tmp_path / f"{name}.json"
        path.write_text(bundled_scenario_text(name), encoding="utf-8")
        argv = (["--json"] if as_json else []) + _subcommand_argv(command, name, str(path))
        assert main(argv) == 0
        printed = capfdbinary.readouterr().out
        assert printed.endswith(b"\n")
        target = tmp_path / "out"
        assert main(argv + ["-o", str(target)]) == 0
        assert capfdbinary.readouterr() == (b"", b"")
        assert target.read_bytes() == printed

    @pytest.mark.parametrize("command", ["curve", "report"])
    def test_json_output_renders_no_text(self, comparison_file, monkeypatch, capfd, command):
        def refuse(*args, **kwargs):
            raise AssertionError("text rendered for --json")

        for name in ("emit_curve", "emit_report"):
            monkeypatch.setattr(cli, name, refuse)
        assert main(["--json", *_subcommand_argv(command, "three-gdfs-comparison", comparison_file)]) == 0
        json.loads(capfd.readouterr().out)


def _unprintable(text: str) -> bool:
    """Whether ``text`` holds a C0 control, a lone surrogate, U+FFFE or U+FFFF."""
    return any(ord(c) < 0x20 or 0xD800 <= ord(c) <= 0xDFFF or c in "\ufffe\uffff" for c in text)


# st.text() draws C0 controls but no surrogate, U+FFFE or U+FFFF: splice those in too
_IDS = st.text() | st.builds(
    lambda head, c, tail: head + c + tail,
    st.text(), st.sampled_from("\ud800\udbff\udc00\udfff\ufffe\uffff\x00\x01\t\n\x1f\x7f\ufffd"), st.text(),
)


class TestEveryAcceptedIdPrints:
    @given(gid=_IDS, where=st.sampled_from(("gdfs/1", "gdfs/1/attacks/0", "gdfs/1/adverse/0")))
    def test_an_id_is_refused_at_its_path_or_printed_by_every_output(self, gid, where):
        # empty and duplicate ids are the model's refusals, at the object's path
        assume(gid and gid != "smart-meter-fleet")
        doc = json.loads(bundled_scenario_text("smart-meters-vs-relays"))
        obj = doc["portfolio"]
        for key in where.split("/"):
            obj = obj[int(key)] if key.isdigit() else obj[key]
        obj["id"] = gid
        err = io.StringIO()

        def run(*argv: str) -> int:
            with contextlib.redirect_stderr(err):
                return main(list(argv))

        with tempfile.TemporaryDirectory() as tmp:
            path, out, plots = (os.path.join(tmp, name) for name in ("s.json", "out", "plots"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))  # escapes a lone surrogate as \ud800
            if _unprintable(gid):
                assert run("validate", path) == 1
                assert f"/portfolio/{where}/id: id {gid!r} " in err.getvalue()
                return
            gdf = f"--gdf={doc['portfolio']['gdfs'][1]['id']}"
            for argv in (
                ["validate"], ["evaluate", gdf], ["curve", gdf, "--samples", "16"],
                ["curve", gdf, "--samples", "16", "--format", "svg"], ["optimize", gdf], ["allocate"],
                ["sample", "--draws", "2", "--seed", "0"], ["report"],
            ):
                for flags in ([], ["--json"]):
                    assert run(*flags, argv[0], path, *argv[1:], "-o", out) == 0, err.getvalue()
                    with open(out, "rb") as fh:
                        text = fh.read().decode("utf-8")
                    if flags:
                        json.loads(text)
                    elif "svg" in argv:
                        title = ET.fromstring(text.encode("utf-8")).find("{http://www.w3.org/2000/svg}text")
                        assert title.text == doc["portfolio"]["gdfs"][1]["id"]
            code = run("report", path, "--plots", plots, "-o", out)
            if code:  # the file-name refusal, before anything is written
                assert f"gdf {gid!r}: --plots needs" in err.getvalue() and not os.path.exists(plots)
            else:
                for name in os.listdir(plots):
                    ET.parse(os.path.join(plots, name))


def _cli_boundary() -> dict[str, str]:
    """``CLI_BOUNDARY`` of the benchmark's tracer, read without importing it."""
    tree = ast.parse((pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text("utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_BOUNDARY"]
    )


class TestBenchmarkRebinding:
    """The traced benchmark run rebinds these names on ``enbcds.cli`` to
    wrappers that open a span per call, so each command must look them up
    when it runs; a table that captured them at import would leave the
    traced run without spans."""

    USED_BY = {
        "parse_scenario": ["validate", "evaluate", "report"],
        "EvalContext": ["evaluate", "curve", "optimize", "report"],
        "enb": ["evaluate", "report"],
        "enbcds_curve": ["curve"],
        "optimal_spend": ["optimize", "report"],
        "allocate": ["allocate", "report"],
        "sample": ["sample"],
    }

    def test_every_rebound_name_is_covered(self):
        assert set(self.USED_BY) == set(_cli_boundary())

    @pytest.mark.parametrize("name,command", [(n, c) for n, cs in USED_BY.items() for c in cs])
    def test_the_command_calls_the_rebound_name(self, comparison_file, monkeypatch, capfd, name, command):
        original, calls = getattr(cli, name), []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        assert main(["--json", *_subcommand_argv(command, "three-gdfs-comparison", comparison_file)]) == 0
        assert calls
        json.loads(capfd.readouterr().out)


class TestInstalledEntryPoint:
    def test_module_invocation_round_trip(self, minimal_file):
        # the child must import the same enbcds as this test, installed or not
        src = os.path.dirname(os.path.dirname(enbcds.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "enbcds.cli", "validate", minimal_file],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == "OK\n"

    def test_sample_leaves_numpy_ma_unimported(self, comparison_file):
        # np.percentile imports numpy.ma on its first call: 2 MB and 15-20 ms
        # of every sample process
        src = os.path.dirname(os.path.dirname(enbcds.__file__))
        script = (
            "import sys\n"
            "from enbcds.cli import main\n"
            f"rc = main(['--json', 'sample', {comparison_file!r}, '--draws', '3', '--seed', '0'])\n"
            "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "0 False\n"
        assert json.loads(proc.stdout)["draws"] == 3

    @staticmethod
    def _run_child(script: str) -> subprocess.CompletedProcess:
        """``script`` in a fresh interpreter that imports this test's enbcds."""
        src = os.path.dirname(os.path.dirname(enbcds.__file__))
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )

    def test_commands_without_sampling_run_without_numpy(self, comparison_file):
        # numpy is half of a fresh process's import time; only sample and
        # literal-mode allocate load it
        commands = [
            ["validate"],
            ["evaluate", "--gdf", "ami-headend"],
            ["optimize", "--gdf", "ami-headend"],
            ["curve", "--gdf", "ami-headend"],
            ["report"],
            ["allocate"],
        ]
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None  # every numpy import now raises\n"
            "from enbcds.cli import main\n"
            f"for command, *rest in {commands!r}:\n"
            f"    print(command, main([command, {comparison_file!r}, *rest]), file=sys.stderr)\n"
        )
        proc = self._run_child(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "".join(f"{command} 0\n" for command, *_ in commands)

    def test_import_loads_neither_numpy_nor_statistics(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import enbcds\n"
            "print(sorted({'numpy', 'statistics'} & (set(sys.modules) - before)))\n"
        )
        proc = self._run_child(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
