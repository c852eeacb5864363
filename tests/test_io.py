"""Scenario file parsing/serialization and CSV/SVG/report emission."""

import dataclasses
import json
import re
import xml.etree.ElementTree as ET

import pytest

from enbcds import (
    AttackType,
    DependencyEdge,
    EmptyCurveError,
    EnbcdsCurve,
    Exponential,
    Gdf,
    ModelError,
    OptimalSpend,
    Point,
    Portfolio,
    ScenarioSyntaxError,
    SchemaError,
    SchemaWarning,
    Triangular,
    Uniform,
    ValidationError,
    allocate,
    bundled_scenario,
    bundled_scenario_names,
    bundled_scenario_text,
    emit_curve,
    emit_report,
    enb,
    enbcds_curve,
    optimal_spend,
    parse_curve_csv,
    parse_scenario,
    portfolio_from_dict,
    portfolio_to_dict,
    serialize_scenario,
)

from enbcds.sensitivity import SensitivityError, UncertainParam, sample, target_field

from oracles import make_rng, random_portfolio

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


def minimal_doc() -> dict:
    return json.loads(MINIMAL)


def attack_doc() -> dict:
    """The minimal document with one power-law and one exponential attack."""
    doc = minimal_doc()
    doc["portfolio"]["gdfs"][0]["attacks"] = [
        {"id": "a", "baseline_prob": 0.3, "loss": 50.0,
         "breach": {"family": "gordon-loeb-1", "alpha": 0.1, "beta": 1.5}},
        {"id": "b", "baseline_prob": 0.2, "loss": 40.0,
         "breach": {"family": "exponential", "kappa": 0.05}},
    ]
    return doc


EVERY_VARIANT = json.dumps({
    "schema_version": 1,
    "portfolio": {
        "budget": 1000.0,
        "gdfs": [{
            "id": "all",
            "ben": 500.0,
            "dir_costs": 50.0,
            "attacks": [
                {"id": "gl1", "baseline_prob": 0.3, "loss": 100.0,
                 "breach": {"family": "gordon-loeb-1", "alpha": 0.01}},
                {"id": "gl2", "baseline_prob": 0.2, "loss": 80.0,
                 "breach": {"family": "gordon-loeb-2", "alpha": 0.02}},
                {"id": "exp", "baseline_prob": 0.1, "loss": 60.0,
                 "breach": {"family": "exponential", "kappa": 0.03}},
                {"id": "tab", "baseline_prob": 0.4, "loss": 90.0,
                 "breach": {"family": "table", "knots": [[0, 1], [10, 0.5], [30, 0.25]]}},
            ],
        }],
    },
    "uncertainty": [
        {"target": "/portfolio/gdfs/0/ben", "distribution": {"kind": "point", "value": 450.0}},
        {"target": "/portfolio/gdfs/0/attacks/0/loss",
         "distribution": {"kind": "uniform", "lo": 90.0, "hi": 110.0}},
        {"target": "/portfolio/gdfs/0/attacks/1/baseline_prob",
         "distribution": {"kind": "triangular", "lo": 0.1, "mode": 0.2, "hi": 0.3}},
        {"target": "/portfolio/gdfs/0/attacks/2/breach/kappa",
         "distribution": {"kind": "pert", "lo": 0.02, "mode": 0.03, "hi": 0.05}},
    ],
})

BREACH = "/portfolio/gdfs/0/attacks/0/breach"
DIST = "/uncertainty/0/distribution"


def set_at(doc, pointer: str, value) -> None:
    """Set the value a JSON pointer names in ``doc``."""
    *head, last = pointer.split("/")[1:]
    for token in head:
        doc = doc[int(token)] if isinstance(doc, list) else doc[token]
    doc[int(last) if isinstance(doc, list) else last] = value


def number_leaves(node, path=""):
    """JSON pointer of every number below ``node``, booleans excepted."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            yield f"{path}/{key}"
        else:
            yield from number_leaves(child, f"{path}/{key}")


def one_judge_document() -> dict:
    """Every breach family, an adverse event, an actual spend, a budget and
    an edge with uplifts, and no uncertainty."""
    doc = json.loads(EVERY_VARIANT)
    del doc["uncertainty"]
    gdfs = doc["portfolio"]["gdfs"]
    gdfs[0]["actual_spend"] = 20.0
    gdfs[0]["adverse"] = [{"id": "storm", "prob": 0.1, "cost": 30.0}]
    gdfs.append({"id": "up", "ben": 200.0, "dir_costs": 20.0, "attacks": [
        {"id": "u", "baseline_prob": 0.2, "loss": 70.0, "breach": {"family": "exponential", "kappa": 0.02}},
    ]})
    doc["portfolio"]["edges"] = [{"source": "up", "target": "all", "uplift": {"gl1": 2.0, "tab": 1.5}}]
    return doc


def huge_number_documents():
    """Documents with a budget, breaches of every family, uplifts and
    uncertain parameters, to put a number too large for a double in."""
    scada = json.loads(bundled_scenario_text("remote-scada"))
    scada["portfolio"]["budget"] = 1000.0
    coupled = random_portfolio(make_rng(3), 3, with_edges=True)
    return [scada, json.loads(EVERY_VARIANT), {"schema_version": 1, "portfolio": portfolio_to_dict(coupled)}]


class TestParseScenario:
    def test_minimal_document_defaults(self):
        sf = parse_scenario(MINIMAL)
        assert sf.schema_version == 1
        assert sf.title == "" and sf.notes == ""
        assert sf.uncertainty == ()
        p = sf.portfolio
        assert p.budget is None
        (g,) = p.gdfs
        assert g.id == "solo"
        assert g.name == "solo"  # defaults to the id
        assert g.ben == 100.0 and g.dir_costs == 10.0
        assert g.mandatory is False
        assert g.actual_spend is None
        assert g.attacks == () and g.adverse == ()

    def test_missing_budget_key_is_an_error(self):
        doc = minimal_doc()
        del doc["portfolio"]["budget"]
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert "budget" in str(err.value)
        assert err.value.path.startswith("/portfolio")

    def test_numeric_budget_parses(self):
        doc = minimal_doc()
        doc["portfolio"]["budget"] = 1250.5
        sf = parse_scenario(json.dumps(doc))
        assert sf.portfolio.budget == 1250.5

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario('{"schema_version": 1,,}')
        msg = str(err.value)
        assert "line 1" in msg and "column" in msg

    def test_wrong_schema_version_rejected(self):
        doc = minimal_doc()
        doc["schema_version"] = 2
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert "schema" in str(err.value).lower()

    def test_boolean_schema_version_rejected(self):
        doc = minimal_doc()
        doc["schema_version"] = True
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))

    def test_unknown_top_level_field_strict(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert "surprise" in str(err.value)

    def test_unknown_field_lenient_warns_and_parses(self):
        doc = minimal_doc()
        doc["portfolio"]["gdfs"][0]["surprise"] = 1
        with pytest.warns(SchemaWarning):
            sf = parse_scenario(json.dumps(doc), lenient=True)
        assert sf.portfolio.gdfs[0].id == "solo"

    def test_out_of_range_probability_names_path(self):
        doc = minimal_doc()
        doc["portfolio"]["gdfs"][0]["attacks"] = [
            {
                "id": "a",
                "baseline_prob": 1.3,
                "loss": 100.0,
                "breach": {"family": "exponential", "kappa": 1e-3},
            }
        ]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert "/portfolio/gdfs/0" in err.value.path

    def test_dependency_cycle_rejected(self):
        doc = minimal_doc()
        doc["portfolio"]["gdfs"] = [
            {
                "id": n,
                "ben": 10.0,
                "dir_costs": 1.0,
                "attacks": [
                    {
                        "id": f"a-{n}",
                        "baseline_prob": 0.2,
                        "loss": 100.0,
                        "breach": {"family": "exponential", "kappa": 1e-3},
                    }
                ],
            }
            for n in ("x", "y")
        ]
        doc["portfolio"]["edges"] = [
            {"source": "x", "target": "y", "uplift": {"a-y": 2.0}},
            {"source": "y", "target": "x", "uplift": {"a-x": 2.0}},
        ]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert "cycle" in str(err.value).lower()

    def test_unknown_distribution_kind_rejected(self):
        doc = minimal_doc()
        doc["uncertainty"] = [
            {"target": "/portfolio/gdfs/0/ben", "distribution": {"kind": "cauchy", "value": 1.0}}
        ]
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert "cauchy" in str(err.value)

    def test_invalid_distribution_parameters_rejected(self):
        doc = minimal_doc()
        doc["uncertainty"] = [
            {
                "target": "/portfolio/gdfs/0/ben",
                "distribution": {"kind": "triangular", "lo": 5.0, "mode": 1.0, "hi": 10.0},
            }
        ]
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "pointer,value,error,path",
        [
            pytest.param(f"{BREACH}/family", "weibull", SchemaError, f"{BREACH}/family", id="unknown-family"),
            pytest.param(f"{DIST}/kind", "cauchy", SchemaError, f"{DIST}/kind", id="unknown-kind"),
            pytest.param(BREACH, {"alpha": 0.1}, SchemaError, f"{BREACH}/family", id="missing-family"),
            pytest.param(DIST, {"lo": 1.0, "hi": 2.0}, SchemaError, f"{DIST}/kind", id="missing-kind"),
            pytest.param(f"{BREACH}/family", 3, SchemaError, f"{BREACH}/family", id="family-not-a-string"),
            pytest.param(BREACH, "power-law", SchemaError, BREACH, id="breach-not-an-object"),
            pytest.param(DIST, [1.0], SchemaError, DIST, id="distribution-not-an-object"),
            pytest.param(BREACH, {"family": "exponential"}, SchemaError, f"{BREACH}/kappa",
                         id="missing-breach-field"),
            pytest.param(DIST, {"kind": "uniform", "lo": 1.0}, SchemaError, f"{DIST}/hi",
                         id="missing-distribution-field"),
            pytest.param(f"{BREACH}/alpha", "0.1", SchemaError, f"{BREACH}/alpha", id="breach-field-not-a-number"),
            pytest.param(f"{BREACH}/beta", None, SchemaError, f"{BREACH}/beta", id="optional-field-not-a-number"),
            pytest.param(f"{DIST}/lo", True, SchemaError, f"{DIST}/lo", id="distribution-field-not-a-number"),
            pytest.param(BREACH, {"family": "table", "knots": 5}, SchemaError, f"{BREACH}/knots",
                         id="knots-not-an-array"),
            pytest.param(BREACH, {"family": "table", "knots": [[0, 1], [5]]}, SchemaError, f"{BREACH}/knots/1",
                         id="knot-not-a-pair"),
            pytest.param(BREACH, {"family": "table", "knots": [[0, 1], 5]}, SchemaError, f"{BREACH}/knots/1",
                         id="knot-not-an-array"),
            pytest.param(BREACH, {"family": "table", "knots": [[0, 1], [5, "x"]]}, SchemaError,
                         f"{BREACH}/knots/1/1", id="knot-multiplier-not-a-number"),
            pytest.param(f"{BREACH}/gamma", 1.0, SchemaError, f"{BREACH}/gamma", id="unknown-breach-field"),
            pytest.param(f"{DIST}/sd", 1.0, SchemaError, f"{DIST}/sd", id="unknown-distribution-field"),
            pytest.param(f"{BREACH}/gamma", 1.0, SchemaWarning, BREACH, id="unknown-breach-field-lenient"),
            pytest.param(f"{DIST}/sd", 1.0, SchemaWarning, DIST, id="unknown-distribution-field-lenient"),
            pytest.param(f"{BREACH}/beta", 0.5, ValidationError, BREACH, id="breach-out-of-domain"),
            pytest.param(BREACH, {"family": "table", "knots": [[1, 1]]}, ValidationError, BREACH,
                         id="table-out-of-domain"),
            pytest.param(f"{DIST}/lo", 3.0, ValidationError, "/uncertainty/0", id="distribution-out-of-order"),
            pytest.param("/portfolio/gdfs/0/attacks", {}, SchemaError, "/portfolio/gdfs/0/attacks",
                         id="attacks-not-an-array"),
            pytest.param("/portfolio/gdfs/0/mandatory", 1, SchemaError, "/portfolio/gdfs/0/mandatory",
                         id="mandatory-not-a-bool"),
            pytest.param("/portfolio/gdfs/0/attacks/0/loss", float("inf"), SchemaError,
                         "/portfolio/gdfs/0/attacks/0/loss", id="money-not-finite"),
            pytest.param(BREACH, {"family": "table", "knots": []}, ValidationError, BREACH,
                         id="table-without-knots"),
            pytest.param(BREACH, {"family": "table", "knots": [[0, 1], [float("inf"), 0.5]]}, SchemaError,
                         f"{BREACH}/knots/1/0", id="knot-not-finite"),
            pytest.param(BREACH, {"family": "table", "knots": [[0, 1], [10, 0.5], [5, 0.4]]}, ValidationError,
                         BREACH, id="knot-spends-not-increasing"),
            pytest.param("/portfolio/gdfs/0/attacks/0/id", "", ValidationError, "/portfolio/gdfs/0/attacks/0",
                         id="attack-id-empty"),
            pytest.param("/portfolio/gdfs/0/adverse", [{"id": "", "prob": 0.1, "cost": 1.0}], ValidationError,
                         "/portfolio/gdfs/0/adverse/0", id="adverse-id-empty"),
            pytest.param("/portfolio/gdfs/0/id", "", ValidationError, "/portfolio/gdfs/0", id="gdf-id-empty"),
            pytest.param("/uncertainty/0/target", "/portfolio/budget/x", ValidationError, "/uncertainty/0",
                         id="target-reaches-a-scalar-early"),
            pytest.param("/portfolio/edges", [{}], SchemaError, "/portfolio/edges/0/source",
                         id="edge-missing-every-field"),
        ],
    )
    def test_tagged_union_errors_name_their_path(self, pointer, value, error, path):
        doc = attack_doc()
        doc["uncertainty"] = [
            {"target": "/portfolio/gdfs/0/ben", "distribution": {"kind": "uniform", "lo": 1.0, "hi": 2.0}}
        ]
        set_at(doc, pointer, value)
        if error is SchemaWarning:
            with pytest.warns(SchemaWarning, match=f"^{re.escape(path)}: unknown field"):
                parse_scenario(json.dumps(doc), lenient=True)
            return
        with pytest.raises(error) as err:
            parse_scenario(json.dumps(doc))
        assert type(err.value) is error
        assert err.value.path == path

    def test_unresolvable_uncertainty_target_rejected(self):
        doc = minimal_doc()
        doc["uncertainty"] = [
            {"target": "/portfolio/gdfs/7/ben", "distribution": {"kind": "point", "value": 1.0}}
        ]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert "/uncertainty/0" in err.value.path

    @pytest.mark.parametrize(
        "field,dist",
        [
            ("attacks/0/loss", {"kind": "uniform", "lo": -1e6, "hi": 1e6}),
            ("ben", {"kind": "triangular", "lo": -1.0, "mode": 50.0, "hi": 100.0}),
            ("attacks/0/breach/alpha", {"kind": "point", "value": 0.0}),
            ("attacks/0/breach/beta", {"kind": "pert", "lo": 0.5, "mode": 1.5, "hi": 2.0}),
            ("attacks/1/breach/kappa", {"kind": "uniform", "lo": 0.0, "hi": 1e-3}),
        ],
    )
    def test_uncertain_support_outside_the_field_domain_rejected(self, field, dist):
        doc = attack_doc()
        doc["uncertainty"] = [{"target": f"/portfolio/gdfs/0/{field}", "distribution": dist}]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "/uncertainty/0/distribution"
        assert f"/portfolio/gdfs/0/{field}" in str(err.value)

    def test_uncertain_support_names_the_failing_objects_own_field_first(self):
        # a ben below 0 fails at the GDF, which also holds the loss target
        doc = attack_doc()
        doc["uncertainty"] = [
            {"target": "/portfolio/gdfs/0/attacks/0/loss", "distribution": {"kind": "uniform", "lo": 1.0, "hi": 2.0}},
            {"target": "/portfolio/gdfs/0/ben", "distribution": {"kind": "uniform", "lo": -1.0, "hi": 2.0}},
        ]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "/uncertainty/1/distribution"
        assert "support of /portfolio/gdfs/0/ben reaches -1.0: /portfolio/gdfs/0: " in str(err.value)

    def test_uncertain_uplift_below_one_rejected(self):
        doc = attack_doc()
        doc["portfolio"]["gdfs"].append({"id": "up", "ben": 10.0, "dir_costs": 1.0})
        doc["portfolio"]["edges"] = [{"source": "up", "target": "solo", "uplift": {"a": 2.0}}]
        doc["uncertainty"] = [
            {"target": "/portfolio/edges/0/uplift/a", "distribution": {"kind": "uniform", "lo": 0.9, "hi": 3.0}}
        ]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "/uncertainty/0/distribution"

    def test_uncertain_support_on_the_domain_boundary_accepted(self):
        doc = attack_doc()
        doc["uncertainty"] = [
            {"target": "/portfolio/gdfs/0/attacks/0/loss", "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
            {"target": "/portfolio/gdfs/0/attacks/0/breach/beta", "distribution": {"kind": "point", "value": 1.0}},
            {"target": "/portfolio/gdfs/0/attacks/1/breach/kappa", "distribution": {"kind": "uniform", "lo": 1e-9, "hi": 1.0}},
            {"target": "/portfolio/gdfs/0/attacks/0/baseline_prob", "distribution": {"kind": "uniform", "lo": -1.0, "hi": 2.0}},
        ]
        assert len(parse_scenario(json.dumps(doc)).uncertainty) == 4

    def test_a_support_parses_exactly_when_a_draw_at_its_lower_end_passes(self):
        doc = one_judge_document()
        portfolio = parse_scenario(json.dumps(doc)).portfolio
        targets = [
            leaf for leaf in number_leaves(doc["portfolio"], "/portfolio")
            if target_field(leaf) not in ("prob", "baseline_prob")
        ]
        assert any("/knots/" in t for t in targets) and any("/uplift/" in t for t in targets)
        outcomes = set()
        for target in targets:
            for v in (-1.0, 0.0, 0.5, 1.0, 2.0):
                doc["uncertainty"] = [{"target": target, "distribution": {"kind": "point", "value": v}}]
                try:
                    parse_scenario(json.dumps(doc))
                    parsed = True
                except ValidationError as exc:
                    assert exc.path == DIST
                    parsed = False
                try:
                    sample(portfolio, [UncertainParam(target, Point(v))], draws=1, seed=0, quantities=("enbcds",))
                    sampled = True
                except SensitivityError:
                    sampled = False
                assert parsed == sampled, (target, v)
                outcomes.add(parsed)
        assert outcomes == {True, False}

    def test_uncertainty_parses_into_distributions(self):
        doc = minimal_doc()
        doc["uncertainty"] = [
            {"target": "/portfolio/gdfs/0/ben", "distribution": {"kind": "uniform", "lo": 1.0, "hi": 2.0}},
            {
                "target": "/portfolio/gdfs/0/dir_costs",
                "distribution": {"kind": "triangular", "lo": 1.0, "mode": 2.0, "hi": 3.0},
            },
        ]
        sf = parse_scenario(json.dumps(doc))
        assert sf.uncertainty[0].distribution == Uniform(1.0, 2.0)
        assert sf.uncertainty[1].distribution == Triangular(1.0, 2.0, 3.0)

    def test_metadata_round_trip(self):
        doc = minimal_doc()
        doc["metadata"] = {"title": "case", "notes": "hand-built"}
        sf = parse_scenario(json.dumps(doc))
        assert sf.title == "case"
        assert sf.notes == "hand-built"

    @pytest.mark.parametrize(
        "pointer, value, path, message",
        [
            ("/portfolio", [], "/portfolio", "expected an object, got list"),
            ("/portfolio/gdfs", {}, "/portfolio/gdfs", "expected an array, got dict"),
            ("/portfolio/gdfs/0/id", 5, "/portfolio/gdfs/0/id", "expected a string, got int"),
            ("/portfolio/gdfs/0/mandatory", 1, "/portfolio/gdfs/0/mandatory", "expected true/false, got int"),
        ],
        ids=["object", "array", "string", "bool"],
    )
    def test_type_readers_name_the_expected_type_and_the_path(self, pointer, value, path, message):
        doc = minimal_doc()
        set_at(doc, pointer, value)
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert type(err.value) is SchemaError
        assert str(err.value) == f"{path}: {message}"
        assert err.value.path == path

    def test_error_classes_carry_a_path_and_stay_apart(self):
        assert issubclass(SchemaError, ValueError) and issubclass(ValidationError, ValueError)
        assert not issubclass(SchemaError, ValidationError)
        assert not issubclass(ValidationError, SchemaError)
        assert issubclass(ScenarioSyntaxError, SchemaError)
        for cls in (SchemaError, ScenarioSyntaxError, ValidationError):
            assert cls("boom").path == ""
            err = cls("boom", path="/x")
            assert (str(err), err.path) == ("boom", "/x")


class TestHugeNumbers:
    def test_every_number_leaf_fails_at_its_path(self):
        cases = [(doc, leaf) for doc in huge_number_documents() for leaf in number_leaves(doc)]
        for part in ("/budget", "/uplift/", "/knots/", "/breach/alpha", "/breach/kappa", "/distribution/"):
            assert any(part in leaf for _, leaf in cases)
        huge = str(10**400)
        for doc, leaf in cases:
            mutated = json.loads(json.dumps(doc))
            set_at(mutated, leaf, 10**400)
            text = json.dumps(mutated)
            # the integer, a float literal that overflows to inf, and the
            # non-finite JSON extensions all fail at the leaf
            for literal in (huge, "1e400", "-1e400", "Infinity", "NaN"):
                with pytest.raises(SchemaError) as caught:
                    parse_scenario(text.replace(huge, literal))
                assert type(caught.value) is SchemaError and caught.value.path == leaf

    def test_integer_past_the_digit_limit_is_a_syntax_error(self):
        text = MINIMAL.replace('"ben": 100.0', '"ben": 1' + "0" * 5000)
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(text)


def exponential_gdf(gid: str, ben: float, losses, prob: float, kappa: float, **extra) -> dict:
    return {"id": gid, "ben": ben, "dir_costs": 0.0, **extra, "attacks": [
        {"id": f"a{j}", "baseline_prob": prob, "loss": loss, "breach": {"family": "exponential", "kappa": kappa}}
        for j, loss in enumerate(losses)
    ]}


def coupled_pair(ben: float, loss: float) -> tuple[list, list]:
    gdfs = [exponential_gdf(f"g{k}", ben, [loss], 0.5, 1e-306) for k in range(2)]
    return gdfs, [{"source": "g0", "target": "g1", "uplift": {"a0": 1.5}}]


class TestFiniteSums:
    """Documents of finite numbers whose sums overflow a double; each used to
    give a NaN or infinite result, or none at all, further down."""

    @pytest.mark.parametrize("gdfs, edges, path, what", [
        # f(0) = inf: the curve, the allocator and the literal grid each went wrong
        pytest.param([exponential_gdf("g", 1.0, [1.7e308] * 2, 0.9, 1e-9)], [], "/portfolio/gdfs/0",
                     "gdf 'g' money sum", id="two-huge-losses"),
        # the summed net benefit of the pair overflowed in the coupled refinement
        pytest.param(*coupled_pair(1e308, 5e307), "/portfolio", "portfolio money sum", id="coupled-pair"),
        # with losses of 1e308 each GDF's own sum overflows first
        pytest.param(*coupled_pair(1e308, 1e308), "/portfolio/gdfs/0", "gdf 'g0' money sum",
                     id="coupled-pair-huge-losses"),
        # the net benefit at the actual spend was -inf in report and evaluate
        pytest.param([exponential_gdf("g", 1.0, [1e308], 0.9, 1e-320, actual_spend=1.7e308)], [],
                     "/portfolio/gdfs/0", "gdf 'g' money sum", id="huge-actual-spend"),
    ])
    def test_fails_at_parse_and_in_the_constructor(self, gdfs, edges, path, what):
        text = json.dumps({"schema_version": 1, "portfolio": {"budget": None, "gdfs": gdfs, "edges": edges}})
        with pytest.raises(ValidationError) as caught:
            parse_scenario(text)
        assert caught.value.path == path
        assert str(caught.value) == f"{path}: {what} must be finite, got inf"
        with pytest.raises(ModelError, match=f"^{what} must be finite, got inf$"):
            Portfolio(
                gdfs=tuple(
                    Gdf(id=g["id"], ben=g["ben"], actual_spend=g.get("actual_spend"), attacks=tuple(
                        AttackType(a["id"], a["baseline_prob"], a["loss"], Exponential(a["breach"]["kappa"]))
                        for a in g["attacks"]
                    ))
                    for g in gdfs
                ),
                edges=tuple(DependencyEdge(**e) for e in edges),
            )


class TestShippedScenarios:
    def test_four_scenarios_ship(self):
        assert set(bundled_scenario_names()) == {
            "remote-scada",
            "three-gdfs-comparison",
            "smart-meters-vs-relays",
            "wifi-thermostats",
        }

    def test_remote_scada_shape(self):
        sf = bundled_scenario("remote-scada")
        assert len(sf.portfolio.gdfs) == 1
        assert len(sf.portfolio.gdfs[0].attacks) >= 2
        assert len(sf.uncertainty) >= 2

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            bundled_scenario("nope")

    @pytest.mark.parametrize("text", [
        *(pytest.param(bundled_scenario_text(name), id=name) for name in (
            "remote-scada", "three-gdfs-comparison", "smart-meters-vs-relays", "wifi-thermostats",
        )),
        pytest.param(EVERY_VARIANT, id="every-variant"),
    ])
    def test_parse_serialize_identity(self, text):
        sf = parse_scenario(text)
        canonical = serialize_scenario(sf)
        sf2 = parse_scenario(canonical)
        assert sf2 == sf
        assert serialize_scenario(sf2) == canonical


class TestPortfolioDictRoundTrip:
    def test_random_portfolios_round_trip_exactly(self):
        for seed in range(25):
            rng = make_rng(seed)
            p = random_portfolio(rng, int(rng.integers(1, 4)), with_edges=seed % 2 == 0,
                                 budget=float(rng.uniform(1e3, 1e6)) if seed % 3 else None)
            assert portfolio_from_dict(portfolio_to_dict(p)) == p

    def test_actual_spend_and_mandatory_survive(self):
        rng = make_rng(1234)
        p = random_portfolio(rng, 1, mandatory=True)
        g = dataclasses.replace(p.gdfs[0], actual_spend=4321.5)
        p = dataclasses.replace(p, gdfs=(g,))
        q = portfolio_from_dict(portfolio_to_dict(p))
        assert q.gdfs[0].mandatory is True
        assert q.gdfs[0].actual_spend == 4321.5


def flat_curve() -> EnbcdsCurve:
    return EnbcdsCurve(gdf_id="flat", samples=((0.0, 5.0), (1.0, 5.0)), s_star=0.0, peak_value=5.0)


class TestEmitCurveCsv:
    def test_two_sample_curve_layout(self):
        data = emit_curve(flat_curve())
        text = data.decode("utf-8")
        assert text.endswith("\r\n")
        rows = text.split("\r\n")
        assert rows[0] == "s,enbcds"
        assert rows[1] == "0.0,5.0"
        assert rows[2] == "1.0,5.0"
        assert rows[3] == "# s_star,0.0"
        assert rows[4] == ""

    def test_round_trip_is_exact(self):
        rng = make_rng(55)
        for i in range(10):
            n = int(rng.integers(2, 40))
            spends = sorted(float(10.0 ** rng.uniform(-3, 7)) for _ in range(n))
            samples = tuple((s, float(rng.normal(0.0, 10.0 ** rng.uniform(0, 6)))) for s in spends)
            curve = EnbcdsCurve(gdf_id=f"c{i}", samples=samples,
                                s_star=float(rng.uniform(0, 1e5)), peak_value=0.0)
            parsed_samples, parsed_star = parse_curve_csv(emit_curve(curve))
            assert parsed_samples == curve.samples
            assert parsed_star == curve.s_star

    def test_bytes_and_str_parse_identically(self):
        data = emit_curve(flat_curve())
        assert parse_curve_csv(data) == parse_curve_csv(data.decode("utf-8"))

    def test_too_few_samples_rejected(self):
        lone = EnbcdsCurve(gdf_id="x", samples=((0.0, 1.0),), s_star=0.0, peak_value=1.0)
        with pytest.raises(EmptyCurveError):
            emit_curve(lone)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_curve(flat_curve(), format="png")


class TestEmitCurveSvg:
    def test_svg_structure_and_peak_marker(self):
        sc = bundled_scenario("remote-scada")
        x = sc.portfolio.gdfs[0]
        curve = enbcds_curve(x, n_samples=50)
        svg = emit_curve(curve, format="svg").decode("utf-8")
        assert svg.startswith('<?xml version="1.0"')
        assert '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400"' in svg
        assert 'class="peak-marker"' in svg
        assert "s*=" in svg
        assert "<polyline" in svg
        assert 'class="actual-marker"' not in svg
        # the curve starts negative, so the zero grid line must sit inside the plot
        assert enb(x, 0.0) < 0.0

    def test_actual_spend_marker_rendered_when_in_window(self):
        sc = bundled_scenario("remote-scada")
        x = sc.portfolio.gdfs[0]
        curve = enbcds_curve(x, n_samples=50)
        svg = emit_curve(curve, format="svg", actual_spend=x.actual_spend).decode("utf-8")
        assert 'class="actual-marker"' in svg
        assert "s^A=" in svg

    def test_actual_spend_outside_window_is_omitted(self):
        svg = emit_curve(flat_curve(), format="svg", actual_spend=99.0).decode("utf-8")
        assert 'class="actual-marker"' not in svg

    def test_gdf_id_is_escaped_in_the_title(self):
        gid = """a<b&c"d'e"""
        x = dataclasses.replace(bundled_scenario("wifi-thermostats").portfolio.gdfs[0], id=gid)
        root = ET.fromstring(emit_curve(enbcds_curve(x, n_samples=20), format="svg"))
        assert root.find("{http://www.w3.org/2000/svg}text").text == gid


class TestEmitReport:
    def test_empty_portfolio_header_only(self):
        from enbcds import Portfolio

        text = emit_report(Portfolio(), {})
        lines = text.splitlines()
        assert lines[0] == "GDF comparison"
        assert len(lines) == 4  # title, rule, header, rule

    def test_byte_identical_reruns(self):
        sc = bundled_scenario("three-gdfs-comparison")
        p = sc.portfolio
        optimal = {g.id: optimal_spend(g) for g in p.gdfs}
        alloc = allocate(p)
        values = {g.id: enb(g, g.actual_spend or 0.0) for g in p.gdfs}
        r1 = emit_report(p, optimal, alloc, values)
        r2 = emit_report(p, optimal, alloc, values)
        assert r1 == r2

    def test_comparison_advice_lines(self):
        sc = bundled_scenario("three-gdfs-comparison")
        p = sc.portfolio
        optimal = {g.id: optimal_spend(g) for g in p.gdfs}
        alloc = allocate(p)
        values = {g.id: enb(g, g.actual_spend or 0.0) for g in p.gdfs}
        text = emit_report(p, optimal, alloc, values)
        iot_line = next(l for l in text.splitlines() if l.startswith("consumer-iot"))
        assert "do not deploy" in iot_line
        sub_line = next(l for l in text.splitlines() if l.startswith("substation"))
        assert "increase spend toward the allocated level" in sub_line
        assert "dropped:" in text
        assert "total objective:" in text

    def test_advice_without_allocation_compares_to_solo_peak(self):
        rng = make_rng(77)
        p = random_portfolio(rng, 1)
        x = p.gdfs[0]
        best = optimal_spend(x)
        near = dataclasses.replace(x, actual_spend=best.s_star)
        text = emit_report(dataclasses.replace(p, gdfs=(near,)), {near.id: best})
        assert "spending is near the optimal level" in text
        over = dataclasses.replace(x, actual_spend=best.s_star * 3.0 + 1.0)
        text = emit_report(dataclasses.replace(p, gdfs=(over,)), {over.id: best})
        assert "reduce spend toward the allocated level" in text

    def test_unpriced_gdf_gets_funding_advice(self):
        rng = make_rng(78)
        p = random_portfolio(rng, 1)
        x = p.gdfs[0]
        assert x.actual_spend is None
        text = emit_report(p, {x.id: optimal_spend(x)})
        assert "fund at" in text
