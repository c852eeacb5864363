"""Scenario files, curve/report emission, and JSON-able result views.

Scenario documents are JSON (schema version 1, described in
``docs/schema.md``).  Parsing is strict: unknown fields raise unless the
lenient flag downgrades them to warnings, every error names the JSON path
it occurred at, and the portfolio is fully validated before a ScenarioFile
is returned.  Serialization is canonical (fixed key order, round-trip-exact
float rendering), so parse and serialize are mutually inverse on validated
files.

Curves emit as RFC 4180 CSV (header ``s,enbcds``, the solved peak appended
as a ``# s_star`` comment row) or as a standalone SVG line plot with the
peak marked and, when known, the actual spending level.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib import resources

from .evaluate import EnbcdsCurve
from .model import (
    AdverseEvent,
    AttackType,
    DependencyEdge,
    Exponential,
    Gdf,
    GordonLoebI,
    GordonLoebII,
    ModelError,
    Portfolio,
    PortfolioValidationError,
    Table,
    validate_portfolio,
)
from .optimize import AllocationResult, OptimalSpend
from .sensitivity import (
    Distribution,
    Pert,
    Point,
    QuantityStats,
    SensitivityError,
    SensitivityReport,
    Triangular,
    UncertainParam,
    Uniform,
    _resolve_parent,
)

__all__ = [
    "SchemaError",
    "ScenarioSyntaxError",
    "ValidationError",
    "EmptyCurveError",
    "SchemaWarning",
    "ScenarioFile",
    "parse_scenario",
    "serialize_scenario",
    "portfolio_to_dict",
    "portfolio_from_dict",
    "emit_curve",
    "parse_curve_csv",
    "emit_report",
    "bundled_scenario_names",
    "bundled_scenario_text",
    "bundled_scenario",
    "allocation_to_dict",
    "optimal_to_dict",
    "curve_to_dict",
    "stats_to_dict",
    "sensitivity_to_dict",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Document does not match the scenario schema; ``path`` names where."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class ScenarioSyntaxError(SchemaError):
    """Document is not even well-formed JSON."""


class ValidationError(ValueError):
    """Schema-shaped document whose values violate domain rules."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class EmptyCurveError(ValueError):
    pass


class SchemaWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ScenarioFile:
    schema_version: int
    portfolio: Portfolio
    uncertainty: tuple[UncertainParam, ...] = ()
    title: str = ""
    notes: str = ""


def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path or '/'}: {message}", path=path)


def _expect_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, got {type(v).__name__}")
    return v


def _expect_list(v, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, f"expected an array, got {type(v).__name__}")
    return v


def _expect_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    return float(v)


def _expect_string(v, path: str) -> str:
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {type(v).__name__}")
    return v


def _expect_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        _fail(path, f"expected true/false, got {type(v).__name__}")
    return v


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(f"{path}/{key}", "missing required field")
    return obj[key]


def _check_unknown(obj: dict, allowed: set[str], path: str, lenient: bool) -> None:
    unknown = sorted(set(obj) - allowed)
    if not unknown:
        return
    message = f"{path or '/'}: unknown field(s) {', '.join(repr(k) for k in unknown)}"
    if lenient:
        warnings.warn(message, SchemaWarning, stacklevel=2)
    else:
        raise SchemaError(message, path=f"{path}/{unknown[0]}")


def _domain(path: str, build):
    """Run a domain constructor, re-raising model errors with path context."""
    try:
        return build()
    except ModelError as exc:
        raise ValidationError(f"{path}: {exc}", path=path) from exc


_BREACH_FIELDS = {
    "gordon-loeb-1": {"alpha", "beta"},
    "gordon-loeb-2": {"alpha"},
    "exponential": {"kappa"},
    "table": {"knots"},
}


def _parse_breach(obj, path: str, lenient: bool):
    obj = _expect_dict(obj, path)
    family = _expect_string(_get(obj, "family", path), f"{path}/family")
    if family not in _BREACH_FIELDS:
        _fail(f"{path}/family", f"unknown breach family {family!r}; expected one of {sorted(_BREACH_FIELDS)}")
    _check_unknown(obj, {"family"} | _BREACH_FIELDS[family], path, lenient)
    if family == "gordon-loeb-1":
        alpha = _expect_number(_get(obj, "alpha", path), f"{path}/alpha")
        beta = _expect_number(obj.get("beta", 1.0), f"{path}/beta")
        return _domain(path, lambda: GordonLoebI(alpha=alpha, beta=beta))
    if family == "gordon-loeb-2":
        alpha = _expect_number(_get(obj, "alpha", path), f"{path}/alpha")
        return _domain(path, lambda: GordonLoebII(alpha=alpha))
    if family == "exponential":
        kappa = _expect_number(_get(obj, "kappa", path), f"{path}/kappa")
        return _domain(path, lambda: Exponential(kappa=kappa))
    knots_raw = _expect_list(_get(obj, "knots", path), f"{path}/knots")
    knots = []
    for i, pair in enumerate(knots_raw):
        pair = _expect_list(pair, f"{path}/knots/{i}")
        if len(pair) != 2:
            _fail(f"{path}/knots/{i}", "expected a [spend, multiplier] pair")
        knots.append(
            (
                _expect_number(pair[0], f"{path}/knots/{i}/0"),
                _expect_number(pair[1], f"{path}/knots/{i}/1"),
            )
        )
    return _domain(path, lambda: Table(knots=tuple(knots)))


def _parse_attack(obj, path: str, lenient: bool) -> AttackType:
    obj = _expect_dict(obj, path)
    _check_unknown(obj, {"id", "baseline_prob", "loss", "breach", "description"}, path, lenient)
    attack_id = _expect_string(_get(obj, "id", path), f"{path}/id")
    baseline = _expect_number(_get(obj, "baseline_prob", path), f"{path}/baseline_prob")
    loss = _expect_number(_get(obj, "loss", path), f"{path}/loss")
    breach = _parse_breach(_get(obj, "breach", path), f"{path}/breach", lenient)
    description = _expect_string(obj.get("description", ""), f"{path}/description")
    return _domain(
        path,
        lambda: AttackType(
            id=attack_id, baseline_prob=baseline, loss=loss, breach=breach, description=description
        ),
    )


def _parse_adverse(obj, path: str, lenient: bool) -> AdverseEvent:
    obj = _expect_dict(obj, path)
    _check_unknown(obj, {"id", "prob", "cost"}, path, lenient)
    return _domain(
        path,
        lambda: AdverseEvent(
            id=_expect_string(_get(obj, "id", path), f"{path}/id"),
            prob=_expect_number(_get(obj, "prob", path), f"{path}/prob"),
            cost=_expect_number(_get(obj, "cost", path), f"{path}/cost"),
        ),
    )


def _parse_gdf(obj, path: str, lenient: bool) -> Gdf:
    obj = _expect_dict(obj, path)
    allowed = {"id", "name", "ben", "dir_costs", "mandatory", "actual_spend", "attacks", "adverse"}
    _check_unknown(obj, allowed, path, lenient)
    gdf_id = _expect_string(_get(obj, "id", path), f"{path}/id")
    name = _expect_string(obj.get("name", gdf_id), f"{path}/name")
    ben = _expect_number(_get(obj, "ben", path), f"{path}/ben")
    dir_costs = _expect_number(_get(obj, "dir_costs", path), f"{path}/dir_costs")
    mandatory = _expect_bool(obj.get("mandatory", False), f"{path}/mandatory")
    actual = obj.get("actual_spend")
    if actual is not None:
        actual = _expect_number(actual, f"{path}/actual_spend")
    attacks = [
        _parse_attack(a, f"{path}/attacks/{i}", lenient)
        for i, a in enumerate(_expect_list(obj.get("attacks", []), f"{path}/attacks"))
    ]
    adverse = [
        _parse_adverse(a, f"{path}/adverse/{i}", lenient)
        for i, a in enumerate(_expect_list(obj.get("adverse", []), f"{path}/adverse"))
    ]
    return _domain(
        path,
        lambda: Gdf(
            id=gdf_id,
            name=name,
            ben=ben,
            dir_costs=dir_costs,
            attacks=tuple(attacks),
            adverse=tuple(adverse),
            mandatory=mandatory,
            actual_spend=actual,
        ),
    )


def _parse_edge(obj, path: str, lenient: bool) -> DependencyEdge:
    obj = _expect_dict(obj, path)
    _check_unknown(obj, {"source", "target", "uplift"}, path, lenient)
    uplift_raw = _expect_dict(_get(obj, "uplift", path), f"{path}/uplift")
    uplift = {
        _expect_string(k, f"{path}/uplift"): _expect_number(v, f"{path}/uplift/{k}")
        for k, v in uplift_raw.items()
    }
    return _domain(
        path,
        lambda: DependencyEdge(
            source=_expect_string(_get(obj, "source", path), f"{path}/source"),
            target=_expect_string(_get(obj, "target", path), f"{path}/target"),
            uplift=uplift,
        ),
    )


def _parse_portfolio(obj, path: str, lenient: bool) -> Portfolio:
    obj = _expect_dict(obj, path)
    _check_unknown(obj, {"budget", "gdfs", "edges"}, path, lenient)
    budget = _get(obj, "budget", path)  # key must be present; null = unconstrained
    if budget is not None:
        budget = _expect_number(budget, f"{path}/budget")
    gdfs = [
        _parse_gdf(g, f"{path}/gdfs/{i}", lenient)
        for i, g in enumerate(_expect_list(_get(obj, "gdfs", path), f"{path}/gdfs"))
    ]
    edges = [
        _parse_edge(e, f"{path}/edges/{i}", lenient)
        for i, e in enumerate(_expect_list(obj.get("edges", []), f"{path}/edges"))
    ]
    portfolio = _domain(path, lambda: Portfolio(gdfs=tuple(gdfs), edges=tuple(edges), budget=budget))
    try:
        validate_portfolio(portfolio)
    except PortfolioValidationError as exc:
        detail = "; ".join(f"{v.where}: {v.message}" for v in exc.violations)
        raise ValidationError(f"{path}: {detail}", path=path) from exc
    return portfolio


_DIST_FIELDS = {
    "point": ("value",),
    "uniform": ("lo", "hi"),
    "triangular": ("lo", "mode", "hi"),
    "pert": ("lo", "mode", "hi"),
}
_DIST_TYPES = {"point": Point, "uniform": Uniform, "triangular": Triangular, "pert": Pert}


def _parse_uncertain(obj, path: str, lenient: bool) -> UncertainParam:
    obj = _expect_dict(obj, path)
    _check_unknown(obj, {"target", "distribution"}, path, lenient)
    target = _expect_string(_get(obj, "target", path), f"{path}/target")
    dist_obj = _expect_dict(_get(obj, "distribution", path), f"{path}/distribution")
    dist_path = f"{path}/distribution"
    kind = _expect_string(_get(dist_obj, "kind", dist_path), f"{dist_path}/kind")
    if kind not in _DIST_FIELDS:
        _fail(f"{dist_path}/kind", f"unknown distribution {kind!r}; expected one of {sorted(_DIST_FIELDS)}")
    _check_unknown(dist_obj, {"kind", *_DIST_FIELDS[kind]}, dist_path, lenient)
    args = [
        _expect_number(_get(dist_obj, name, dist_path), f"{dist_path}/{name}")
        for name in _DIST_FIELDS[kind]
    ]
    try:
        distribution = _DIST_TYPES[kind](*args)
        return UncertainParam(target=target, distribution=distribution)
    except SensitivityError as exc:
        raise ValidationError(f"{path}: {exc}", path=path) from exc


# lowest value each uncertain target field accepts, and whether the bound
# itself is allowed; probability fields are clamped per draw instead
_FIELD_FLOORS = {
    **dict.fromkeys(("budget", "ben", "dir_costs", "actual_spend", "loss", "cost"), (0.0, True)),
    "alpha": (0.0, False),
    "kappa": (0.0, False),
    "beta": (1.0, True),
    "uplift": (1.0, True),
}


def _check_support(param: UncertainParam, path: str) -> None:
    """Reject a distribution whose support leaves its target field's domain."""
    parent, field = param.target.split("/")[-2:]
    if parent == "uplift":  # the last token is an attack id
        field = parent
    floor = _FIELD_FLOORS.get(field)
    if floor is None:
        return
    bound, inclusive = floor
    dist = param.distribution
    low = dist.value if isinstance(dist, Point) else dist.lo
    if low < bound or (low == bound and not inclusive):
        raise ValidationError(
            f"{path}: support of {param.target} reaches {low!r}, but {field} must be "
            f"{'>=' if inclusive else '>'} {bound:g}",
            path=path,
        )


def parse_scenario(text: str, lenient: bool = False) -> ScenarioFile:
    """Parse and fully validate a scenario document.

    Raises ScenarioSyntaxError for malformed JSON (with line/column),
    SchemaError for structural problems (with the JSON path), and
    ValidationError when values break domain rules.  ``lenient`` downgrades
    unknown fields from errors to SchemaWarnings.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}", path=""
        ) from exc
    doc = _expect_dict(doc, "")
    _check_unknown(doc, {"schema_version", "metadata", "portfolio", "uncertainty"}, "", lenient)
    version = _get(doc, "schema_version", "")
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        _fail("/schema_version", f"unsupported schema version {version!r}; this reader handles {SCHEMA_VERSION}")
    meta = _expect_dict(doc.get("metadata", {}), "/metadata")
    _check_unknown(meta, {"title", "notes"}, "/metadata", lenient)
    title = _expect_string(meta.get("title", ""), "/metadata/title")
    notes = _expect_string(meta.get("notes", ""), "/metadata/notes")
    portfolio = _parse_portfolio(_get(doc, "portfolio", ""), "/portfolio", lenient)
    uncertainty = [
        _parse_uncertain(u, f"/uncertainty/{i}", lenient)
        for i, u in enumerate(_expect_list(doc.get("uncertainty", []), "/uncertainty"))
    ]
    resolved_doc = {"portfolio": portfolio_to_dict(portfolio)}
    for i, param in enumerate(uncertainty):
        try:
            _resolve_parent(resolved_doc, param.target)
        except SensitivityError as exc:
            raise ValidationError(f"/uncertainty/{i}: {exc}", path=f"/uncertainty/{i}") from exc
        _check_support(param, f"/uncertainty/{i}/distribution")
    return ScenarioFile(
        schema_version=SCHEMA_VERSION,
        portfolio=portfolio,
        uncertainty=tuple(uncertainty),
        title=title,
        notes=notes,
    )


def _breach_to_dict(breach) -> dict:
    if isinstance(breach, GordonLoebI):
        return {"family": "gordon-loeb-1", "alpha": breach.alpha, "beta": breach.beta}
    if isinstance(breach, GordonLoebII):
        return {"family": "gordon-loeb-2", "alpha": breach.alpha}
    if isinstance(breach, Exponential):
        return {"family": "exponential", "kappa": breach.kappa}
    if isinstance(breach, Table):
        return {"family": "table", "knots": [[s, m] for s, m in breach.knots]}
    raise TypeError(f"unknown breach model {type(breach).__name__}")


def portfolio_to_dict(p: Portfolio) -> dict:
    """Canonical JSON-able form of a portfolio (fixed key order)."""
    return {
        "budget": p.budget,
        "gdfs": [
            {
                "id": g.id,
                "name": g.name,
                "ben": g.ben,
                "dir_costs": g.dir_costs,
                "mandatory": g.mandatory,
                "actual_spend": g.actual_spend,
                "attacks": [
                    {
                        "id": a.id,
                        "baseline_prob": a.baseline_prob,
                        "loss": a.loss,
                        "breach": _breach_to_dict(a.breach),
                        "description": a.description,
                    }
                    for a in g.attacks
                ],
                "adverse": [
                    {"id": e.id, "prob": e.prob, "cost": e.cost} for e in g.adverse
                ],
            }
            for g in p.gdfs
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "uplift": {k: e.uplift[k] for k in sorted(e.uplift)},
            }
            for e in p.edges
        ],
    }


def portfolio_from_dict(d: dict) -> Portfolio:
    """Rebuild a validated portfolio from its canonical dict form."""
    return _parse_portfolio(d, "/portfolio", lenient=False)


def _dist_to_dict(dist: Distribution) -> dict:
    if isinstance(dist, Point):
        return {"kind": "point", "value": dist.value}
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "lo": dist.lo, "hi": dist.hi}
    if isinstance(dist, Triangular):
        return {"kind": "triangular", "lo": dist.lo, "mode": dist.mode, "hi": dist.hi}
    if isinstance(dist, Pert):
        return {"kind": "pert", "lo": dist.lo, "mode": dist.mode, "hi": dist.hi}
    raise TypeError(f"unknown distribution {type(dist).__name__}")


def serialize_scenario(sf: ScenarioFile) -> str:
    """Canonical text form; parse(serialize(sf)) == sf on validated files."""
    doc = {
        "schema_version": sf.schema_version,
        "metadata": {"title": sf.title, "notes": sf.notes},
        "portfolio": portfolio_to_dict(sf.portfolio),
        "uncertainty": [
            {"target": u.target, "distribution": _dist_to_dict(u.distribution)}
            for u in sf.uncertainty
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def emit_curve(curve: EnbcdsCurve, format: str = "csv", actual_spend: float | None = None) -> bytes:
    """Render a sampled curve as CSV or a standalone SVG plot."""
    if len(curve.samples) < 2:
        raise EmptyCurveError(f"curve for {curve.gdf_id!r} has fewer than 2 samples")
    if format == "csv":
        rows = ["s,enbcds"]
        rows += [f"{s!r},{v!r}" for s, v in curve.samples]
        rows.append(f"# s_star,{curve.s_star!r}")
        return ("\r\n".join(rows) + "\r\n").encode("utf-8")
    if format == "svg":
        return _curve_svg(curve, actual_spend).encode("utf-8")
    raise ValueError(f"unknown curve format {format!r}; expected 'csv' or 'svg'")


def parse_curve_csv(data: bytes | str) -> tuple[tuple[tuple[float, float], ...], float | None]:
    """Inverse of the CSV emitter: (samples, s_star or None)."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    samples = []
    s_star = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "s,enbcds":
            continue
        first, second = line.split(",", 1)
        if first == "# s_star":
            s_star = float(second)
        else:
            samples.append((float(first), float(second)))
    return tuple(samples), s_star


def _svg_x(s: float, s_lo: float, s_hi: float) -> float:
    frac = (s - s_lo) / (s_hi - s_lo) if s_hi > s_lo else 0.0
    return 70.0 + frac * (640.0 - 70.0 - 20.0)


def _svg_y(v: float, v_lo: float, v_hi: float) -> float:
    frac = (v - v_lo) / (v_hi - v_lo) if v_hi > v_lo else 0.5
    return 400.0 - 45.0 - frac * (400.0 - 45.0 - 30.0)


def _curve_svg(curve: EnbcdsCurve, actual_spend: float | None) -> str:
    spends, values = curve.spends, curve.values
    s_lo, s_hi = min(spends), max(spends)
    v_lo = min(min(values), 0.0)
    v_hi = max(max(values), curve.peak_value, 0.0)
    pad = 0.05 * (v_hi - v_lo) or 1.0
    v_lo, v_hi = v_lo - pad, v_hi + pad
    pts = " ".join(f"{_svg_x(s, s_lo, s_hi):.2f},{_svg_y(v, v_lo, v_hi):.2f}" for s, v in curve.samples)
    zero_y = _svg_y(0.0, v_lo, v_hi)
    px = _svg_x(curve.s_star, s_lo, s_hi)
    py = _svg_y(curve.peak_value, v_lo, v_hi)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">',
        '<rect width="640" height="400" fill="white"/>',
        f'<text x="320" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">{curve.gdf_id}</text>',
        '<line x1="70" y1="30" x2="70" y2="355" stroke="black" stroke-width="1"/>',
        '<line x1="70" y1="355" x2="620" y2="355" stroke="black" stroke-width="1"/>',
        f'<line x1="70" y1="{zero_y:.2f}" x2="620" y2="{zero_y:.2f}" stroke="gray" stroke-width="0.5" stroke-dasharray="4,3"/>',
        f'<text x="66" y="{zero_y + 4:.2f}" text-anchor="end" font-family="sans-serif" font-size="10">0</text>',
        f'<text x="66" y="34" text-anchor="end" font-family="sans-serif" font-size="10">{v_hi:.6g}</text>',
        f'<text x="66" y="359" text-anchor="end" font-family="sans-serif" font-size="10">{v_lo:.6g}</text>',
        f'<text x="70" y="372" text-anchor="middle" font-family="sans-serif" font-size="10">{s_lo:.6g}</text>',
        f'<text x="620" y="372" text-anchor="middle" font-family="sans-serif" font-size="10">{s_hi:.6g}</text>',
        '<text x="345" y="390" text-anchor="middle" font-family="sans-serif" font-size="11">cyber-defense spend</text>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>',
        f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#d62728" class="peak-marker"/>',
        f'<text x="{px:.2f}" y="{py - 8:.2f}" text-anchor="middle" font-family="sans-serif" font-size="11">s*={curve.s_star:.6g}</text>',
    ]
    if actual_spend is not None and s_lo <= actual_spend <= s_hi:
        ax = _svg_x(actual_spend, s_lo, s_hi)
        parts += [
            f'<line x1="{ax:.2f}" y1="30" x2="{ax:.2f}" y2="355" stroke="#2ca02c" stroke-width="1" stroke-dasharray="6,3" class="actual-marker"/>',
            f'<text x="{ax:.2f}" y="44" text-anchor="middle" font-family="sans-serif" font-size="11">s^A={actual_spend:.6g}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _money(v: float | None) -> str:
    return "-" if v is None else f"{v:,.2f}"


def emit_report(
    p: Portfolio,
    optimal: dict[str, OptimalSpend],
    allocation: AllocationResult | None = None,
    values_at_actual: dict[str, float] | None = None,
) -> str:
    """Deterministic per-GDF comparison table with deployment advice.

    Columns: actual spend, solo-optimal spend and value, net benefit at the
    actual spend, budget-allocated spend, and the resulting recommendation
    (drop, increase, reduce, or keep).  Regenerating from identical inputs
    yields identical text.
    """
    header = (
        f"{'gdf':<28} {'mand':<5} {'s_actual':>14} {'s_star':>14} "
        f"{'value(s_star)':>16} {'value(s_actual)':>16} {'allocated':>14}  advice"
    )
    lines = ["GDF comparison", "=" * len(header), header, "-" * len(header)]
    tol = 0.01
    for g in p.gdfs:
        best = optimal[g.id]
        actual = g.actual_spend
        v_actual = values_at_actual.get(g.id) if values_at_actual else None
        allocated = allocation.spends.get(g.id) if allocation is not None else None
        dropped = allocation is not None and g.id in allocation.dropped
        if dropped:
            advice = "do not deploy"
        else:
            reference = allocated if allocated is not None else best.s_star
            span = max(abs(reference), abs(actual or 0.0), 1.0)
            if actual is None:
                advice = f"fund at {_money(reference)}"
            elif actual > reference + tol * span:
                advice = "reduce spend toward the allocated level"
            elif actual < reference - tol * span:
                advice = "increase spend toward the allocated level"
            else:
                advice = "spending is near the optimal level"
        lines.append(
            f"{g.id:<28} {('yes' if g.mandatory else 'no'):<5} {_money(actual):>14} "
            f"{_money(best.s_star):>14} {_money(best.value):>16} {_money(v_actual):>16} "
            f"{_money(allocated):>14}  {advice}"
        )
    if allocation is not None:
        lines.append("-" * len(header))
        dropped = ", ".join(sorted(allocation.dropped)) or "none"
        lines.append(f"dropped: {dropped}")
        lines.append(
            f"total objective: {_money(allocation.objective)}"
            f" (budget used {_money(allocation.budget_used)})"
        )
        if allocation.lam is not None:
            lines.append(f"shared marginal value of budget: {allocation.lam:.6g}")
    return "\n".join(lines) + "\n"


_BUNDLED = ("remote-scada", "three-gdfs-comparison", "smart-meters-vs-relays", "wifi-thermostats")


def bundled_scenario_names() -> tuple[str, ...]:
    return _BUNDLED


def bundled_scenario_text(name: str) -> str:
    if name not in _BUNDLED:
        raise KeyError(f"no bundled scenario {name!r}; available: {', '.join(_BUNDLED)}")
    return resources.files("enbcds").joinpath(f"scenarios/{name}.json").read_text(encoding="utf-8")


def bundled_scenario(name: str) -> ScenarioFile:
    return parse_scenario(bundled_scenario_text(name))


def optimal_to_dict(best: OptimalSpend) -> dict:
    return {"s_star": best.s_star, "value": best.value}


def curve_to_dict(curve: EnbcdsCurve) -> dict:
    return {
        "gdf": curve.gdf_id,
        "s_star": curve.s_star,
        "peak_value": curve.peak_value,
        "samples": [[s, v] for s, v in curve.samples],
    }


def allocation_to_dict(result: AllocationResult) -> dict:
    return {
        "spends": {k: result.spends[k] for k in sorted(result.spends)},
        "dropped": sorted(result.dropped),
        "objective": result.objective,
        "budget_used": result.budget_used,
        "marginal_at_solution": {
            k: result.marginal_at_solution[k] for k in sorted(result.marginal_at_solution)
        },
        "lam": result.lam,
        "interior": {k: result.interior[k] for k in sorted(result.interior)},
        "iterations": result.iterations,
    }


def stats_to_dict(stats: QuantityStats) -> dict:
    return {"mean": stats.mean, "std": stats.std, "p5": stats.p5, "p50": stats.p50, "p95": stats.p95}


def sensitivity_to_dict(report: SensitivityReport) -> dict:
    return {
        "draws": report.draws,
        "seed": report.seed,
        "param_stats": {k: stats_to_dict(v) for k, v in report.param_stats.items()},
        "clamp_events": dict(report.clamp_events),
        "spends_used": dict(report.spends_used),
        "enbcds_at_spend": {k: stats_to_dict(v) for k, v in report.enbcds_at_spend.items()},
        "s_star": {k: stats_to_dict(v) for k, v in report.s_star.items()},
        "allocation_objective": (
            stats_to_dict(report.allocation_objective)
            if report.allocation_objective is not None
            else None
        ),
        "drop_frequency": dict(report.drop_frequency),
    }
