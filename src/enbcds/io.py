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
import math
import re
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

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
    Table,
)
from .optimize import AllocationResult, OptimalSpend
from .sensitivity import (
    _PROB_FIELDS,
    Pert,
    Point,
    SensitivityError,
    Triangular,
    UncertainParam,
    Uniform,
    _resolve_parent,
    _targets_within,
    target_field,
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
    "curve_to_dict",
]

SCHEMA_VERSION = 1


class _PathError(ValueError):
    """A fault in a document; ``path`` is the JSON pointer of where."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class SchemaError(_PathError):
    """Document does not match the scenario schema."""


class ScenarioSyntaxError(SchemaError):
    """Document is not even well-formed JSON."""


class ValidationError(_PathError):
    """Schema-shaped document whose values violate domain rules."""


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


def _expect(kind: type, what: str) -> Callable:
    """Reader ``(value, path)`` that passes a ``kind`` through and fails on
    anything else, naming ``what`` it expected."""

    def read(v, path: str):
        if not isinstance(v, kind):
            _fail(path, f"expected {what}, got {type(v).__name__}")
        return v

    return read


_expect_dict = _expect(dict, "an object")
_expect_list = _expect(list, "an array")
_expect_string = _expect(str, "a string")
_expect_bool = _expect(bool, "true/false")


# characters that no output can print as read: a lone surrogate has no
# UTF-8 encoding, XML 1.0 forbids U+FFFE, U+FFFF and most C0 controls even
# escaped, and a newline or tab splits a row of the text tables
_UNPRINTABLE = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


def _expect_id(v, path: str) -> str:
    """An id: a string that holds no C0 control (U+0000-U+001F), lone
    surrogate, U+FFFE or U+FFFF, so that every output prints it."""
    if _UNPRINTABLE.search(_expect_string(v, path)) is not None:
        raise ValidationError(
            f"{path}: id {v!r} holds a control character, a lone surrogate or U+FFFE/U+FFFF", path=path
        )
    return v


def _expect_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    try:
        f = float(v)
    except OverflowError:
        _fail(path, "number does not fit a double")
    if not math.isfinite(f):  # 1e400 reads as inf; Infinity and NaN are JSON extensions
        _fail(path, f"expected a finite number, got {f!r}")
    return f


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


def _expect_optional_number(v, path: str) -> float | None:
    return None if v is None else _expect_number(v, path)


def _parse_knots(v, path: str, lenient: bool) -> tuple[tuple[float, float], ...]:
    knots = []
    for i, pair in enumerate(_expect_list(v, path)):
        pair = _expect_list(pair, f"{path}/{i}")
        if len(pair) != 2:
            _fail(f"{path}/{i}", "expected a [spend, multiplier] pair")
        knots.append((_expect_number(pair[0], f"{path}/{i}/0"), _expect_number(pair[1], f"{path}/{i}/1")))
    return tuple(knots)


def _parse_uplift(v, path: str, lenient: bool) -> dict[str, float]:
    return {
        _expect_string(k, path): _expect_number(u, f"{path}/{k}")
        for k, u in _expect_dict(v, path).items()
    }


class _Codec(NamedTuple):  # how a non-scalar field is read and written back
    parse: Callable  # (value, path, lenient) -> model value
    to_dict: Callable  # model value -> document value


_KNOTS = _Codec(_parse_knots, lambda knots: [list(knot) for knot in knots])
_UPLIFT = _Codec(_parse_uplift, lambda uplift: {k: uplift[k] for k in sorted(uplift)})

_REQUIRED = object()  # the document must give the field
_OPTIONAL = object()  # a missing field takes the model class's default


class _Record:
    """One object of the format: a model class and, in ``table``, its
    document fields in document order.  Each field is ``(name, codec,
    default)``: the codec is a scalar reader ``(value, path)`` whose value
    is written as is, or a :class:`_Codec`, :class:`_Record` or
    :class:`_TaggedUnion`.  The default is ``_REQUIRED``, ``_OPTIONAL``, or
    a function of the fields read before it.  A variant of a tagged union
    writes its ``head``, the ``{tag: value}`` pair, first.  Model and
    distribution errors from the class name the object's path."""

    def __init__(self, cls: type, table, head: dict | None = None):
        self.cls, self.head = cls, head or {}
        self.allowed = frozenset([*self.head, *(name for name, _, _ in table)])
        self.readers = tuple(
            (name, codec, False, default) if callable(codec) else (name, codec.parse, True, default)
            for name, codec, default in table
        )
        self.writers = tuple((name, None if callable(codec) else codec.to_dict) for name, codec, _ in table)

    def parse(self, obj, path: str, lenient: bool):
        obj = _expect_dict(obj, path)
        _check_unknown(obj, self.allowed, path, lenient)
        kwargs = {}
        for name, read, nested, default in self.readers:
            if name in obj:
                where = f"{path}/{name}"
                kwargs[name] = read(obj[name], where, lenient) if nested else read(obj[name], where)
            elif default is _REQUIRED:
                _fail(f"{path}/{name}", "missing required field")
            elif default is not _OPTIONAL:
                kwargs[name] = default(kwargs)
        try:
            return self.cls(**kwargs)
        except (ModelError, SensitivityError) as exc:
            raise ValidationError(f"{path}: {exc}", path=path) from exc

    def to_dict(self, value) -> dict:
        doc = dict(self.head)
        for name, write in self.writers:
            v = getattr(value, name)
            doc[name] = v if write is None else write(v)
        return doc


def _list_of(record: _Record) -> _Codec:
    return _Codec(
        lambda v, path, lenient: [
            record.parse(item, f"{path}/{i}", lenient) for i, item in enumerate(_expect_list(v, path))
        ],
        lambda items: [record.to_dict(item) for item in items],
    )


class _TaggedUnion:
    """One tagged union of the format: each value of the ``tag`` field names
    a model class, whose dataclass fields, in order, are that variant's
    document fields; a field without a default is required.  Every field is
    a number except ``knots``, a list of ``[spend, multiplier]`` pairs."""

    def __init__(self, tag: str, what: str, classes: dict[str, type]):
        self.tag, self.what = tag, what
        self.variants = {
            name: _Record(cls, [
                (f.name, _KNOTS if f.name == "knots" else _expect_number,
                 _REQUIRED if f.default is MISSING else _OPTIONAL)
                for f in fields(cls)
            ], head={tag: name})
            for name, cls in classes.items()
        }
        self.records = {record.cls: record for record in self.variants.values()}

    def parse(self, obj, path: str, lenient: bool):
        obj = _expect_dict(obj, path)
        name = _expect_string(_get(obj, self.tag, path), f"{path}/{self.tag}")
        if name not in self.variants:
            _fail(f"{path}/{self.tag}", f"unknown {self.what} {name!r}; expected one of {sorted(self.variants)}")
        return self.variants[name].parse(obj, path, lenient)

    def to_dict(self, value) -> dict:
        return self.records[type(value)].to_dict(value)


_BREACH = _TaggedUnion("family", "breach family", {
    "gordon-loeb-1": GordonLoebI,
    "gordon-loeb-2": GordonLoebII,
    "exponential": Exponential,
    "table": Table,
})
_DISTRIBUTION = _TaggedUnion("kind", "distribution", {
    "point": Point,
    "uniform": Uniform,
    "triangular": Triangular,
    "pert": Pert,
})
_ATTACK = _Record(AttackType, [
    ("id", _expect_id, _REQUIRED),
    ("baseline_prob", _expect_number, _REQUIRED),
    ("loss", _expect_number, _REQUIRED),
    ("breach", _BREACH, _REQUIRED),
    ("description", _expect_string, _OPTIONAL),
])
_ADVERSE = _Record(AdverseEvent, [
    ("id", _expect_id, _REQUIRED),
    ("prob", _expect_number, _REQUIRED),
    ("cost", _expect_number, _REQUIRED),
])
_GDF = _Record(Gdf, [
    ("id", _expect_id, _REQUIRED),
    ("name", _expect_string, lambda read: read["id"]),
    ("ben", _expect_number, _REQUIRED),
    ("dir_costs", _expect_number, _REQUIRED),
    ("mandatory", _expect_bool, _OPTIONAL),
    ("actual_spend", _expect_optional_number, _OPTIONAL),
    ("attacks", _list_of(_ATTACK), _OPTIONAL),
    ("adverse", _list_of(_ADVERSE), _OPTIONAL),
])
_EDGE = _Record(DependencyEdge, [
    ("source", _expect_string, _REQUIRED),
    ("target", _expect_string, _REQUIRED),
    ("uplift", _UPLIFT, _REQUIRED),
])
_UNCERTAINTY = _list_of(_Record(UncertainParam, [
    ("target", _expect_string, _REQUIRED),
    ("distribution", _DISTRIBUTION, _REQUIRED),
]))
_PORTFOLIO = _Record(Portfolio, [
    ("budget", _expect_optional_number, _REQUIRED),  # null = unconstrained
    ("gdfs", _list_of(_GDF), _REQUIRED),
    ("edges", _list_of(_EDGE), _OPTIONAL),
])


def parse_scenario(text: str, lenient: bool = False) -> ScenarioFile:
    """Parse and fully validate a scenario document.

    Raises ScenarioSyntaxError for malformed JSON (with line/column),
    SchemaError for structural problems (with the JSON path), and
    ValidationError when values break domain rules: every uncertainty
    target must resolve, then a draw with each non-probability target at
    its support's lower end must pass the checks every ``sample`` draw
    passes, or the shallowest target inside the failing part (the first
    such entry) is reported at its ``/uncertainty/<i>/distribution``.  ``lenient`` downgrades unknown
    fields from errors to SchemaWarnings.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}", path=""
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ScenarioSyntaxError(str(exc), path="") from exc
    doc = _expect_dict(doc, "")
    _check_unknown(doc, {"schema_version", "metadata", "portfolio", "uncertainty"}, "", lenient)
    version = _get(doc, "schema_version", "")
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        _fail("/schema_version", f"unsupported schema version {version!r}; this reader handles {SCHEMA_VERSION}")
    meta = _expect_dict(doc.get("metadata", {}), "/metadata")
    _check_unknown(meta, {"title", "notes"}, "/metadata", lenient)
    title = _expect_string(meta.get("title", ""), "/metadata/title")
    notes = _expect_string(meta.get("notes", ""), "/metadata/notes")
    portfolio = _PORTFOLIO.parse(_get(doc, "portfolio", ""), "/portfolio", lenient)
    uncertainty = _UNCERTAINTY.parse(doc.get("uncertainty", []), "/uncertainty", lenient)
    if uncertainty:  # every target resolves, then a draw at the lower ends passes
        drawn = {"portfolio": portfolio_to_dict(portfolio)}
        lows = {}  # target -> (index, lower end) of the last entry that writes it
        for i, param in enumerate(uncertainty):
            try:
                container, key = _resolve_parent(drawn, param.target)
            except SensitivityError as exc:
                raise ValidationError(f"/uncertainty/{i}: {exc}", path=f"/uncertainty/{i}") from exc
            if target_field(param.target) not in _PROB_FIELDS:  # those are clamped per draw
                container[key] = param.distribution.lo
                lows[param.target] = i, container[key]
        try:
            _PORTFOLIO.parse(drawn["portfolio"], "/portfolio", lenient=False)
        except ValidationError as exc:
            # a field of the failing object before a field of an object inside it
            target = min(_targets_within(exc.path, list(lows)), key=lambda t: t.count("/"))
            i, low = lows[target]
            path = f"/uncertainty/{i}/distribution"
            raise ValidationError(f"{path}: support of {target} reaches {low!r}: {exc}", path=path) from exc
    return ScenarioFile(
        schema_version=SCHEMA_VERSION,
        portfolio=portfolio,
        uncertainty=tuple(uncertainty),
        title=title,
        notes=notes,
    )


def portfolio_to_dict(p: Portfolio) -> dict:
    """Canonical JSON-able form of a portfolio (fixed key order)."""
    return _PORTFOLIO.to_dict(p)


def portfolio_from_dict(d: dict) -> Portfolio:
    """Rebuild a validated portfolio from its canonical dict form."""
    return _PORTFOLIO.parse(d, "/portfolio", lenient=False)


def serialize_scenario(sf: ScenarioFile) -> str:
    """Canonical text form; parse(serialize(sf)) == sf on validated files."""
    doc = {
        "schema_version": sf.schema_version,
        "metadata": {"title": sf.title, "notes": sf.notes},
        "portfolio": portfolio_to_dict(sf.portfolio),
        "uncertainty": _UNCERTAINTY.to_dict(sf.uncertainty),
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
    import html  # local import: it loads an entity table that only SVG output needs

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
        f'<text x="320" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">{html.escape(curve.gdf_id)}</text>',
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
    from importlib import resources  # local import: only bundled scenarios read package data

    return resources.files("enbcds").joinpath(f"scenarios/{name}.json").read_text(encoding="utf-8")


def bundled_scenario(name: str) -> ScenarioFile:
    return parse_scenario(bundled_scenario_text(name))


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
