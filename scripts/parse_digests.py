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

Usage:
    python3 scripts/parse_digests.py
    python3 scripts/parse_digests.py bundled:wifi-thermostats
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import pathlib
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench")]

import workloads  # noqa: E402
from enbcds import bundled_scenario_names, bundled_scenario_text, parse_scenario, serialize_scenario  # noqa: E402
from harness import DEFAULT_SEED  # noqa: E402
from oracles import make_rng, random_portfolio  # noqa: E402

REPLACEMENTS = ("x", -1, 2, None, [], {}, True, 0.5, 0, 2**1024,
                1e300, 1e-300, 1e308, 1.7976931348623157e308, 5e-324)
UNKNOWN = "zz-unknown"


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


def outcome(text: str, lenient: bool) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = serialize_scenario(parse_scenario(text, lenient=lenient))
        except Exception as exc:  # every failure is an outcome to compare
            result = f"{type(exc).__name__}\n{exc}\n{getattr(exc, 'path', None)!r}"
    notes = "".join(f"\n{w.category.__name__}: {w.message}" for w in caught)
    return hashlib.sha256((result + notes).encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="*", help="corpus ids to run, e.g. bundled:remote-scada (default all)")
    args = parser.parse_args(argv)

    corpus = base_documents()
    unknown = sorted(set(args.base) - set(corpus))
    if unknown:
        parser.error(f"unknown corpus id(s) {', '.join(unknown)}; available: {', '.join(corpus)}")
    for base in args.base or corpus:
        text = corpus[base]
        docs = [(base, text)] + [(f"{base}{suffix}", json.dumps(doc)) for suffix, doc in mutations(text)]
        for doc_id, doc_text in docs:
            for mode in ("strict", "lenient"):
                print(doc_id, mode, outcome(doc_text, mode == "lenient"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
