"""Command-line front end.

Subcommands: validate, evaluate, curve, optimize, allocate, sample, report.
:func:`main` is the one pipeline: it loads the scenario once, runs
``_cmd_<name>(args, sf)``, which returns the ``--json`` payload and a
zero-argument renderer of the text output, and writes one of the two.
Exit codes: 0 success, 1 domain error (bad scenario, unknown GDF, ...),
2 usage error (argparse).  File outputs are written atomically (temp file
plus rename), so failures never leave partial files behind.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .evaluate import (
    ADDITIVE,
    LITERAL,
    EvalContext,
    EvaluationError,
    UnknownGdfError,
    _actual_spends,
    enb,
    enbcds_curve,
)
from .io import allocation_to_dict, curve_to_dict, emit_curve, emit_report, parse_scenario
from .model import Portfolio
from .optimize import OptimizationError, allocate, optimal_spend
from .sensitivity import SensitivityError, sample

__all__ = ["main"]


def _gdf(p: Portfolio, gdf_id: str):
    try:
        return p.gdf(gdf_id)
    except KeyError:
        raise UnknownGdfError(
            f"no gdf {gdf_id!r} in scenario; available: {', '.join(p.ids())}"
        ) from None


def _context(args, sf) -> EvalContext:
    """The context of evaluate, curve, optimize and report: each GDF at its
    recorded actual spend, else 0, in ``--mode``."""
    return EvalContext(sf.portfolio, _actual_spends(sf.portfolio), args.mode)


def _write(data: bytes | str, path: str | None) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
        return
    import tempfile  # local import: only ``-o`` writes a file

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".enbcds-tmp-")
    mask = os.umask(0)  # mkstemp makes the file 0600; give it a plain write's mode
    os.umask(mask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~mask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cmd_validate(args, sf):
    return {"ok": True}, lambda: "OK\n"


def _cmd_evaluate(args, sf):
    g = _gdf(sf.portfolio, args.gdf)
    ctx = _context(args, sf)
    spend = args.spend if args.spend is not None else ctx.spends[g.id]
    value = enb(g, spend, ctx)
    payload = {"gdf": g.id, "spend": spend, "enbcds": value}
    return payload, lambda: f"gdf {g.id}: enbcds({spend}) = {value}\n"


def _cmd_curve(args, sf):
    g = _gdf(sf.portfolio, args.gdf)
    curve = enbcds_curve(g, s_max=args.s_max, n_samples=args.samples, context=_context(args, sf))
    return curve_to_dict(curve), lambda: emit_curve(curve, args.format, actual_spend=g.actual_spend)


def _cmd_optimize(args, sf):
    g = _gdf(sf.portfolio, args.gdf)
    best = optimal_spend(g, context=_context(args, sf))
    return {"gdf": g.id, **best._asdict()}, (
        lambda: f"gdf {g.id}: s_star = {best.s_star}\nvalue at s_star = {best.value}\n"
    )


def _cmd_allocate(args, sf):
    result = allocate(sf.portfolio, budget=args.budget, mode=args.mode)
    kkt = result.kkt

    def render() -> str:
        zero_ok = {True: "yes", False: "no", None: "n/a"}[kkt["zero_spend_ok"]]
        lines = [f"{'gdf':<28} {'spend':>16} {'marginal':>14} {'interior':>9}  status"]
        for gid in sf.portfolio.ids():
            spend = result.spends[gid]
            marginal = result.marginal_at_solution.get(gid)
            interior = result.interior.get(gid, False)
            status = "dropped" if gid in result.dropped else "retained"
            lines.append(
                f"{gid:<28} {spend:>16,.2f} "
                f"{(f'{marginal:.6g}' if marginal is not None else '-'):>14} "
                f"{('yes' if interior else 'no'):>9}  {status}"
            )
        lines.append(f"objective = {result.objective}")
        lines.append(f"budget_used = {result.budget_used}")
        lines.append(f"lam = {result.lam}")
        lines.append(f"iterations = {result.iterations}")
        lines.append(
            "kkt: interior marginals "
            f"{kkt['interior_count']}, relative spread {kkt['marginal_spread_rel']:.3g}, "
            f"zero-spend marginals within lam+1e-4: {zero_ok}"
        )
        return "\n".join(lines) + "\n"

    return {**allocation_to_dict(result), "kkt": kkt}, render


def _cmd_sample(args, sf):
    report = sample(
        sf.portfolio,
        sf.uncertainty,
        draws=args.draws,
        seed=args.seed,
        budget=args.budget,
        threads=args.threads,
    )

    def stat_line(label, st, extra=""):
        return (
            f"{label:<44} mean={st.mean:.6g} std={st.std:.6g} "
            f"p5={st.p5:.6g} p50={st.p50:.6g} p95={st.p95:.6g}{extra}"
        )

    def render() -> str:
        lines = [f"draws = {report.draws}, seed = {report.seed}"]
        if report.param_stats:
            lines.append("sampled parameters (after clamping):")
            for target, st in report.param_stats.items():
                clamps = report.clamp_events.get(target, 0)
                lines.append("  " + stat_line(target, st, f" clamps={clamps}"))
        if report.enbcds_at_spend:
            lines.append("net benefit at given spends:")
            for gid, st in report.enbcds_at_spend.items():
                lines.append("  " + stat_line(gid, st))
        if report.s_star:
            lines.append("optimal spend per gdf:")
            for gid, st in report.s_star.items():
                lines.append("  " + stat_line(gid, st))
        if report.allocation_objective is not None:
            lines.append(stat_line("allocation objective", report.allocation_objective))
        if report.drop_frequency:
            lines.append("drop frequency:")
            for gid, freq in report.drop_frequency.items():
                lines.append(f"  {gid:<44} {freq:.4f}")
        return "\n".join(lines) + "\n"

    return asdict(report), render


def _cmd_report(args, sf):
    p = sf.portfolio
    if args.plots is not None:
        for g in p.gdfs:
            name = f"{g.id}.svg"
            # the reader refuses ids holding a NUL or another control
            if os.path.basename(name) != name or len(name.encode()) > 255:
                raise ValueError(f"gdf {g.id!r}: --plots needs gdf ids that are plain file names of at most 251 bytes")
    ctx = _context(args, sf)
    optimal = {g.id: optimal_spend(g, context=ctx) for g in p.gdfs}
    values_at_actual = {g.id: enb(g, ctx.spends[g.id], ctx) for g in p.gdfs}
    result = allocate(p, budget=args.budget, mode=args.mode)
    if args.plots is not None:
        os.makedirs(args.plots, exist_ok=True)
        for g in p.gdfs:
            curve = enbcds_curve(g, context=ctx)
            _write(
                emit_curve(curve, "svg", actual_spend=g.actual_spend),
                os.path.join(args.plots, f"{g.id}.svg"),
            )
    payload = {
        "gdfs": {
            g.id: {
                "actual_spend": g.actual_spend,
                "value_at_actual": values_at_actual[g.id],
                **optimal[g.id]._asdict(),
            }
            for g in p.gdfs
        },
        "allocation": allocation_to_dict(result),
    }
    return payload, lambda: emit_report(p, optimal, result, values_at_actual)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enbcds",
        description="Expected-net-benefit analysis and defense-budget allocation for grid digital functionalities",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--lenient", action="store_true", help="warn on unknown scenario fields instead of failing"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, mode=True):
        sp.add_argument("scenario", help="path to a scenario JSON file")
        if mode:
            sp.add_argument(
                "--mode",
                choices=(ADDITIVE, LITERAL),
                default=ADDITIVE,
                help="how defense spend enters the expected cyber cost",
            )
        sp.add_argument("-o", "--output", default=None, help="write output to a file (atomic)")

    sp = sub.add_parser("validate", help="check a scenario file")
    common(sp, mode=False)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("evaluate", help="net benefit of one GDF at a spend")
    common(sp)
    sp.add_argument("--gdf", required=True, help="gdf id")
    sp.add_argument("--spend", type=float, default=None, help="defense spend (default: actual)")
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("curve", help="sample the benefit-versus-spend curve")
    common(sp)
    sp.add_argument("--gdf", required=True, help="gdf id")
    sp.add_argument("--s-max", type=float, default=None, help="upper end of the spend window")
    sp.add_argument("--samples", type=int, default=200, help="number of samples (default 200)")
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp.set_defaults(func=_cmd_curve)

    sp = sub.add_parser("optimize", help="optimal spend for one GDF")
    common(sp)
    sp.add_argument("--gdf", required=True, help="gdf id")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("allocate", help="split the budget across the portfolio")
    common(sp)
    sp.add_argument("--budget", type=float, default=None, help="override the scenario budget")
    sp.set_defaults(func=_cmd_allocate)

    sp = sub.add_parser("sample", help="Monte Carlo over the scenario's uncertain parameters")
    common(sp, mode=False)
    sp.add_argument("--draws", type=int, required=True, help="number of draws")
    sp.add_argument("--seed", type=int, required=True, help="substream seed (reproducibility)")
    sp.add_argument("--budget", type=float, default=None, help="override the scenario budget")
    sp.add_argument(
        "--threads", type=int, default=None, help="accepted and ignored: draws run in one thread"
    )
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("report", help="full portfolio comparison report")
    common(sp)
    sp.add_argument("--budget", type=float, default=None, help="override the scenario budget")
    sp.add_argument("--plots", default=None, help="directory for per-GDF SVG curves")
    sp.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            sf = parse_scenario(fh.read(), lenient=args.lenient)
        payload, render = args.func(args, sf)
        if args.json:
            # NaN and Infinity are not JSON: such a result fails (ValueError) before anything is written
            _write(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
        else:
            _write(render(), args.output)
    except (ValueError, OSError, EvaluationError, OptimizationError, SensitivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
