#!/usr/bin/env python3
"""Sweep the shared budget and trace the allocation as it grows.

Writes one CSV row per budget level: the budget, the total net benefit,
the shared marginal value of budget (lam), and each GDF's allocated
spend.  Useful for seeing where each functionality starts to receive
funding and where the portfolio saturates (lam falls to zero).

Usage:
    python3 scripts/sweep_budget.py three-gdfs-comparison
    python3 scripts/sweep_budget.py path/to/scenario.json --steps 80 -o sweep.csv
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys

from enbcds import (
    EvaluationError,
    OptimizationError,
    allocate,
    bundled_scenario_names,
    bundled_scenario_text,
    optimal_spend,
    parse_scenario,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario file or bundled scenario name")
    parser.add_argument("--steps", type=int, default=40, help="number of budget levels")
    parser.add_argument("--max", type=float, default=None,
                        help="largest budget (default: sum of standalone optima)")
    parser.add_argument("-o", "--output", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error(f"--steps must be at least 1, got {args.steps}")
    if args.max is not None and not (math.isfinite(args.max) and args.max >= 0.0):
        parser.error(f"--max must be finite and >= 0, got {args.max!r}")

    try:
        return _sweep(args)
    except (ValueError, OSError, EvaluationError, OptimizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # a scenario error names its JSON path
        return 1


def _sweep(args: argparse.Namespace) -> int:
    if args.scenario in bundled_scenario_names():
        text = bundled_scenario_text(args.scenario)
    else:
        text = pathlib.Path(args.scenario).read_text(encoding="utf-8")
    p = parse_scenario(text).portfolio
    if not p.gdfs:
        raise ValueError("scenario has no GDFs")

    top = args.max if args.max is not None else sum(optimal_spend(x).s_star for x in p.gdfs)
    ids = sorted(p.ids())
    lines = ["budget,objective,lam," + ",".join(f"spend_{i}" for i in ids)]
    for k in range(args.steps + 1):
        budget = top * k / args.steps
        result = allocate(p, budget=budget)
        lam = "" if result.lam is None else repr(result.lam)
        row = [repr(budget), repr(result.objective), lam]
        row += [repr(result.spends[i]) for i in ids]
        lines.append(",".join(row))
    out = "\n".join(lines) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(out, encoding="utf-8")
        print(f"wrote {args.steps + 1} rows to {args.output}")
    else:
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
