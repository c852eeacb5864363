#!/usr/bin/env python3
"""Regenerate curve plots and text reports for scenario files.

With no arguments this renders every bundled scenario into out/figures/:
one SVG net-benefit curve per GDF (peak and, when recorded, actual spend
marked) plus the text report with allocation and spending advice.  Each
scenario is one ``enbcds report --plots`` call.

Usage:
    python3 scripts/make_figures.py
    python3 scripts/make_figures.py --out my-dir path/to/scenario.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from importlib import resources

from enbcds import bundled_scenario_names, cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenario",
        nargs="*",
        help="scenario files or bundled scenario names (default: all bundled)",
    )
    parser.add_argument("--out", default="out/figures", help="output directory")
    args = parser.parse_args(argv)

    for f in args.scenario or bundled_scenario_names():
        if f in bundled_scenario_names():
            name, source = f, resources.files("enbcds") / f"scenarios/{f}.json"
        else:
            name, source = pathlib.Path(f).stem, pathlib.Path(f)
        target = pathlib.Path(args.out) / name
        with resources.as_file(source) as path:
            status = cli.main(["report", str(path), "--plots", str(target), "-o", str(target / "report.txt")])
        if status:
            return status
        print(f"{name} -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
