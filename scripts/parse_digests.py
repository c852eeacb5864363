#!/usr/bin/env python3
"""Print a digest of every parse outcome over a corpus of scenario documents.

The corpus is the bundled scenarios, 12 seeded coupled random portfolios
and the ``sample-mc`` benchmark pool, each written by the benchmark's own
serializer (``perfbench/workloads.py``), plus every one-step mutation of
each: a node replaced by ``"x"``, -1, 2, null, ``[]``, ``{}``, true, 0.5,
0, 2**1024 (an integer too large for a double), or a number at the edge
of the double range (1e300, 1e-300, 1e308, the largest double, or the
smallest subnormal 5e-324); a key deleted; an unknown key added; or a key
deleted and an unknown key added.  Each document is parsed strict and
lenient, and one line is printed per parse: ``doc-id mode sha256``.  The
hash covers the outcome: the canonical text of the parsed scenario, or the
error's class, message and ``path``, plus every warning raised.  Run it on
two checkouts and diff the output to show that a change to the reader, the
model's checks or the canonical writer leaves every outcome as it was.
Exits 1 when a parse raises anything but ``SchemaError`` (syntax errors
included) or ``ValidationError``, naming the document and the exception's
class on stderr.

``--run`` prints, in place of the parse digests, the outcome of running
each strict-accepted document through the CLI in-process (the benchmark's
``call_cli``): ``--json allocate``, ``--json allocate --mode literal``,
``--json report``, ``--json sample --draws 3 --seed 0`` and, when the
document has a GDF, ``--json evaluate``, ``--json optimize`` and ``--json
curve``, each with ``--gdf`` set to the first GDF's id; one line each,
``doc-id command sha256``, the hash of the stdout or of the failure.  A
warning counts as raised, as in the test suite.  ``--dump`` and
``--against`` work as in ``op_digests.py``, on the run outputs.  Exits 1
when a run raises or fails naming a ``nan``; an ordinary error exit is an
outcome like any other.

Usage:
    python3 scripts/parse_digests.py
    python3 scripts/parse_digests.py bundled:wifi-thermostats
    python3 scripts/parse_digests.py --run 'bundled:*'   # the corpus' bundled part
    python3 scripts/parse_digests.py --run --dump before.json   # on the old checkout
    python3 scripts/parse_digests.py --run --against before.json   # on the new one
"""

from __future__ import annotations

import argparse
import copy
import fnmatch
import hashlib
import json
import pathlib
import re
import sys
import tempfile
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench", "scripts")]

import workloads  # noqa: E402
from enbcds import (  # noqa: E402
    SchemaError,
    ValidationError,
    bundled_scenario_names,
    bundled_scenario_text,
    cli,
    parse_scenario,
    serialize_scenario,
)
from harness import DEFAULT_SEED, call_cli  # noqa: E402
from op_digests import describe_change  # noqa: E402
from oracles import make_rng, random_portfolio  # noqa: E402

REPLACEMENTS = ("x", -1, 2, None, [], {}, True, 0.5, 0, 2**1024,
                1e300, 1e-300, 1e308, 1.7976931348623157e308, 5e-324)
UNKNOWN = "zz-unknown"
RUNS = {  # --run: command name -> CLI arguments around the document's path
    "allocate": ("allocate",),
    "allocate-literal": ("allocate", "--mode", "literal"),
    "report": ("report",),
    "sample": ("sample", "--draws", "3", "--seed", "0"),
    # run only on a document with a GDF, the first of which fills in {gdf}
    "evaluate": ("evaluate", "--gdf={gdf}"),
    "optimize": ("optimize", "--gdf={gdf}"),
    "curve": ("curve", "--gdf={gdf}"),
}


def base_documents() -> dict[str, str]:
    """Corpus id -> document text, before mutation."""
    docs = {f"bundled:{name}": bundled_scenario_text(name) for name in bundled_scenario_names()}
    for seed in range(12):
        p = random_portfolio(make_rng(seed), 2 + seed % 3, with_edges=True)
        docs[f"random:{seed}"] = workloads.scenario_text(p, title=f"random {seed}")
    for name, sc in workloads.build_pool("sample-mc", DEFAULT_SEED).scenarios.items():
        docs[f"sample-mc:{name}"] = sc.text
    return docs


def _nodes(node, path=()):
    """Every (path, value) below the root, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key), child
        yield from _nodes(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _pointer(path) -> str:
    return "".join(f"/{str(k).replace('~', '~0').replace('/', '~1').replace(' ', '%20')}" for k in path)


def mutations(text: str):
    """(suffix, document) for every one-step mutation of ``text``."""
    doc = json.loads(text)
    objects = [((), doc)] + [(path, v) for path, v in _nodes(doc) if isinstance(v, dict)]
    for path, _ in list(_nodes(doc)):
        for value in REPLACEMENTS:
            mutated = copy.deepcopy(doc)
            _at(mutated, path[:-1])[path[-1]] = copy.deepcopy(value)
            yield f"{_pointer(path)}={json.dumps(value, separators=(',', ':'))}", mutated
    for path, obj in objects:
        for key in obj:
            for add in (False, True):
                mutated = copy.deepcopy(doc)
                target = _at(mutated, path)
                del target[key]
                if add:
                    target[UNKNOWN] = 1
                yield f"{_pointer((*path, key))}:del{'+add' if add else ''}", mutated
        mutated = copy.deepcopy(doc)
        _at(mutated, path)[UNKNOWN] = 1
        yield f"{_pointer(path)}:add", mutated


def outcome(text: str, lenient: bool) -> tuple[str, str | None]:
    """The digest of parsing ``text``, and the class of the exception it
    raised if that is not one of the reader's own rejections (else None)."""
    surprise = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = serialize_scenario(parse_scenario(text, lenient=lenient))
        except Exception as exc:  # every failure is an outcome to compare
            result = f"{type(exc).__name__}\n{exc}\n{getattr(exc, 'path', None)!r}"
            if not isinstance(exc, (SchemaError, ValidationError)):
                surprise = type(exc).__name__
    notes = "".join(f"\n{w.category.__name__}: {w.message}" for w in caught)
    return hashlib.sha256((result + notes).encode("utf-8")).hexdigest(), surprise


def run(text: str, path: str, gdf: str | None):
    """(command, stdout text or ``{"failed": reason}``) for each of ``RUNS``
    on the document ``text``, written to ``path``, whose first GDF is
    ``gdf`` (None: it has none, and the runs that name one are skipped)."""
    pathlib.Path(path).write_text(text, encoding="utf-8")
    for name, (command, *rest) in RUNS.items():
        if gdf is None and any("{gdf}" in arg for arg in rest):
            continue
        rest = [arg.format(gdf=gdf) for arg in rest]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error, out = call_cli(cli.main, ["--json", command, path, *rest])
        yield name, {"failed": error} if error else out.decode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="*",
                        help="corpus ids or shell patterns, e.g. bundled:remote-scada or 'bundled:*' (default all)")
    parser.add_argument("--run", action="store_true", help="digest CLI runs of the strict-accepted documents")
    parser.add_argument("--dump", metavar="FILE", help="with --run, also write every run's output to FILE as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="with --run, print how each run's output moved from a --dump FILE, in place of the digests")
    args = parser.parse_args(argv)
    if not args.run and (args.dump or args.against):
        parser.error("--dump and --against need --run")
    before = None
    if args.against is not None:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)

    corpus = base_documents()
    unknown = [pattern for pattern in args.base if not fnmatch.filter(corpus, pattern)]
    if unknown:
        parser.error(f"unknown corpus id(s) {', '.join(unknown)}; available: {', '.join(corpus)}")
    outputs = {}
    bad = False
    with tempfile.TemporaryDirectory() as directory:
        path = str(pathlib.Path(directory) / "scenario.json")
        for base in [b for b in corpus if not args.base or any(fnmatch.fnmatch(b, p) for p in args.base)]:
            text = corpus[base]
            docs = [(base, text)] + [(f"{base}{suffix}", json.dumps(doc)) for suffix, doc in mutations(text)]
            if not args.run:
                for doc_id, doc_text in docs:
                    for mode in ("strict", "lenient"):
                        digest, surprise = outcome(doc_text, mode == "lenient")
                        print(doc_id, mode, digest)
                        if surprise is not None:
                            bad = True
                            print(doc_id, mode, "raised", surprise, file=sys.stderr)
                continue
            for doc_id, doc_text in docs:
                try:
                    gdfs = parse_scenario(doc_text).portfolio.gdfs
                except Exception:  # rejected: the parse digests cover it
                    continue
                for name, result in run(doc_text, path, gdfs[0].id if gdfs else None):
                    key = f"{doc_id} {name}"
                    if args.dump is not None:
                        outputs[key] = result
                    reason = result["failed"] if isinstance(result, dict) else None
                    if reason is not None and (reason.startswith("raised ") or re.search(r"\bnan\b", reason)):
                        bad = True
                        print(key, reason, file=sys.stderr)
                    if before is None:
                        digested = result if reason is None else f"failed\n{reason}"
                        print(key, hashlib.sha256(digested.encode("utf-8")).hexdigest())
                    elif before.get(key) != result:
                        print(key, describe_change(before.get(key), result))
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
