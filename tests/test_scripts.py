"""The scripts under scripts/ run end to end on the bundled scenarios."""

import csv
import hashlib
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import enbcds
from enbcds import bundled_scenario, bundled_scenario_names, serialize_scenario

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _main(name: str):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_sweep_budget_writes_one_row_per_budget_level(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert _main("sweep_budget.py")(["three-gdfs-comparison", "--steps", "3", "-o", str(out)]) == 0
    header, *rows = list(csv.reader(out.read_text().splitlines()))
    ids = sorted(bundled_scenario("three-gdfs-comparison").portfolio.ids())
    assert header == ["budget", "objective", "lam"] + [f"spend_{i}" for i in ids]
    assert len(rows) == 4
    budgets = [float(row[0]) for row in rows]
    assert budgets[0] == 0.0
    assert all(a < b for a, b in zip(budgets, budgets[1:]))
    assert "wrote 4 rows" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--steps", "0"], "--steps must be at least 1, got 0"),
        (["--steps", "-1"], "--steps must be at least 1, got -1"),
        (["--max", "-5"], "--max must be finite and >= 0, got -5.0"),
        (["--max", "inf"], "--max must be finite and >= 0, got inf"),
        (["--max", "nan"], "--max must be finite and >= 0, got nan"),
    ],
)
def test_sweep_budget_rejects_a_step_count_or_top_budget_out_of_range(argv, message, capsys):
    # --steps 0 divided by zero, --max -5 ended in a BudgetInfeasibleError
    # traceback and --steps -1 printed only the header and exited 0
    with pytest.raises(SystemExit) as exit_:
        _main("sweep_budget.py")(["three-gdfs-comparison", *argv])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_sweep_budget_names_a_missing_file_in_one_error_line(tmp_path, capsys):
    # a FileNotFoundError traceback before
    assert _main("sweep_budget.py")([str(tmp_path / "nope.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "error: line 1 column 2: "),
        (json.dumps({"schema_version": 1, "portfolio": {"budget": None, "gdfs": [{"id": "a", "ben": "x"}]}}),
         "error: /portfolio/gdfs/0/ben: "),
    ],
)
def test_sweep_budget_names_the_json_path_of_a_scenario_that_fails_to_parse(tmp_path, capsys, text, message):
    # a SchemaError traceback before
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert _main("sweep_budget.py")([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_sweep_budget_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    # EncodingWarning, raised as an error, marks a file opened in the locale's encoding
    doc = json.loads(serialize_scenario(bundled_scenario("three-gdfs-comparison")))
    doc["portfolio"]["gdfs"][0]["id"] = "relais-protégé"
    src, out = tmp_path / "utf8.json", tmp_path / "sweep.csv"
    src.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    package = pathlib.Path(enbcds.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(SCRIPTS / "sweep_budget.py"), str(src), "--steps", "1", "-o", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr
    assert "spend_relais-protégé" in out.read_text(encoding="utf-8").splitlines()[0]


def test_make_figures_renders_every_bundled_scenario(tmp_path):
    assert _main("make_figures.py")(["--out", str(tmp_path)]) == 0
    for name in bundled_scenario_names():
        target = tmp_path / name
        ids = bundled_scenario(name).portfolio.ids()
        assert sorted(f.name for f in target.glob("*.svg")) == sorted(f"{i}.svg" for i in ids)
        assert (target / "report.txt").read_text().strip()


def test_op_digests_prints_one_digest_per_op(capsys):
    assert _main("op_digests.py")(["--workload", "alloc-coupled", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        seed, workload, op, digest = line.split(" ")
        assert (seed, workload) == ("1", "alloc-coupled")
        assert op.startswith("cpl-")
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_op_digests_dump_and_against_name_the_moved_number(tmp_path, capsys):
    main, dump = _main("op_digests.py"), tmp_path / "ops.json"
    argv = ["--workload", "alloc-coupled", "--seed", "1"]
    assert main(argv + ["--dump", str(dump)]) == 0
    digests = capsys.readouterr().out.splitlines()
    outputs = json.loads(dump.read_text())
    assert sorted(line.rsplit(" ", 1)[0] for line in digests) == sorted(outputs)
    assert main(argv + ["--against", str(dump)]) == 0
    assert capsys.readouterr().out == ""

    key = sorted(outputs)[0]
    doc = json.loads(outputs[key])
    doc["objective"] *= 1.0 + 1e-9
    outputs[key] = json.dumps(doc)
    dump.write_text(json.dumps(outputs))
    assert main(argv + ["--against", str(dump)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(key + " ")
    rel, path = line[len(key) + 1 :].split(" ")[:2]
    assert path == "/objective"
    assert float(rel) == pytest.approx(1e-9, rel=1e-3)


def test_op_digests_against_appends_the_signed_objective_change(tmp_path, capsys):
    main, dump = _main("op_digests.py"), tmp_path / "ops.json"
    argv = ["--workload", "alloc-coupled", "--seed", "1"]
    assert main(argv + ["--dump", str(dump)]) == 0
    capsys.readouterr()
    outputs = json.loads(dump.read_text())

    # the dumped objective a little below today's, and a spend moved further
    key = sorted(outputs)[0]
    doc = json.loads(outputs[key])
    doc["objective"] -= 1e-9 * abs(doc["objective"])
    gid = next(g for g, s in doc["spends"].items() if s > 0.0)
    doc["spends"][gid] *= 1.0 + 1e-6
    outputs[key] = json.dumps(doc)
    dump.write_text(json.dumps(outputs))
    assert main(argv + ["--against", str(dump)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(key + " ")
    rel, path, objective, objective_path = line[len(key) + 1 :].split(" ")
    assert (path, objective_path) == (f"/spends/{gid}", "/objective")
    assert float(rel) == pytest.approx(1e-6, rel=1e-3)
    assert objective.startswith("+") and float(objective) == pytest.approx(1e-9, rel=1e-3)

    # report carries it under allocation; a document without one gets none
    describe = runpy.run_path(str(SCRIPTS / "op_digests.py"))["describe_change"]
    old, new = ({"allocation": {"objective": v}, "n": 1} for v in (2.0, 1.0))
    assert describe(json.dumps(old), json.dumps(new)) == "0.5 /allocation/objective -0.5 /allocation/objective"
    assert describe('{"n": 1}', '{"n": 2}') == "0.5 /n"


def test_op_digests_exits_1_when_an_op_fails(monkeypatch, capsys):
    from enbcds import cli

    def fail(argv):
        raise RuntimeError("boom")

    main, argv = _main("op_digests.py"), ["--workload", "alloc-coupled", "--seed", "1"]
    monkeypatch.setattr(cli, "main", fail)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.endswith(" raised RuntimeError") for line in lines)


def test_parse_digests_prints_both_modes_of_every_mutation(capsys):
    assert _main("parse_digests.py")(["bundled:wifi-thermostats"]) == 0
    rows = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    assert [row[1] for row in rows] == ["strict", "lenient"] * (len(rows) // 2)
    ids = [row[0] for row in rows[::2]]
    assert ids[0] == "bundled:wifi-thermostats" and len(set(ids)) == len(ids) > 100
    canonical = serialize_scenario(bundled_scenario("wifi-thermostats"))
    assert rows[0][2] == rows[1][2] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_parse_digests_run_digests_every_command_per_accepted_document(tmp_path, capsys):
    main, dump = _main("parse_digests.py"), tmp_path / "runs.json"
    argv = ["--run", "bundled:wifi-*"]
    assert main(argv + ["--dump", str(dump)]) == 0
    rows = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    commands = ["allocate", "allocate-literal", "report", "sample", "evaluate", "optimize", "curve"]
    assert [row[1] for row in rows] == commands * (len(rows) // 7)
    ids = [row[0] for row in rows[::7]]
    assert ids[0] == "bundled:wifi-thermostats" and len(set(ids)) == len(ids) > 20
    outputs = json.loads(dump.read_text())
    assert sorted(outputs) == sorted(f"{row[0]} {row[1]}" for row in rows)
    key = "bundled:wifi-thermostats allocate"
    assert rows[0][2] == hashlib.sha256(outputs[key].encode("utf-8")).hexdigest()

    doc = json.loads(outputs[key])
    doc["objective"] *= 1.0 + 1e-9
    outputs[key] = json.dumps(doc)
    del outputs[f"{ids[1]} report"]
    dump.write_text(json.dumps(outputs))
    assert main(argv + ["--against", str(dump)]) == 0
    moved, missing = capsys.readouterr().out.splitlines()
    assert moved.startswith(key + " ") and moved.endswith(" /objective")
    assert missing == f"{ids[1]} report missing from the dump"


def test_parse_digests_run_skips_the_commands_naming_a_gdf_without_one(tmp_path):
    run = runpy.run_path(str(SCRIPTS / "parse_digests.py"))["run"]
    text = json.dumps({"schema_version": 1, "portfolio": {"budget": None, "gdfs": []}})
    names = [name for name, _ in run(text, str(tmp_path / "empty.json"), None)]
    assert names == ["allocate", "allocate-literal", "report", "sample"]


@pytest.mark.parametrize(
    "message,raises,status",
    [("boom", True, 1), ("error: spend must be finite and >= 0, got nan", False, 1), ("error: no budget", False, 0)],
)
def test_parse_digests_run_exits_1_on_a_traceback_or_a_nan(monkeypatch, capsys, message, raises, status):
    from enbcds import cli

    def fail(argv):
        if raises:
            raise RuntimeError(message)
        print(message, file=sys.stderr)
        return 1

    monkeypatch.setattr(cli, "main", fail)
    assert _main("parse_digests.py")(["--run", "bundled:wifi-*"]) == status
    err = capsys.readouterr().err.splitlines()
    assert bool(err) == bool(status)
    assert all(line.endswith("raised RuntimeError" if raises else message) for line in err)


def test_parse_digests_exits_1_on_a_parse_that_raises_past_the_readers_errors(monkeypatch, capsys):
    # a rejection (SchemaError or ValidationError) is an outcome like any
    # other; any other exception is a defect, named by document and mode
    import enbcds

    parse = enbcds.parse_scenario

    def broken(text, lenient=False):
        if lenient:
            raise KeyError("boom")
        return parse(text, lenient=lenient)

    monkeypatch.setattr(enbcds, "parse_scenario", broken)
    assert _main("parse_digests.py")(["bundled:wifi-thermostats"]) == 1
    out, err = capsys.readouterr()
    rows = [line.split(" ") for line in out.splitlines()]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    assert err.splitlines() == [f"{row[0]} lenient raised KeyError" for row in rows[1::2]]
