"""Tests of the benchmark itself: deterministic inputs, checks that reject
corrupted outputs, and statistics that count failed ops.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed, actual_spends, check_output, forward_coupled_enb, may_have_two_peaks  # noqa: E402
from enbcds import cli  # noqa: E402
from harness import CAL_REF_NS, HostSpeed, Record, call_cli, op_latencies_ms, ops_per_s, percentile  # noqa: E402
from oracles import oracle_coupled_enb  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.build_pool(workload, 7)
    again = workloads.build_pool(workload, 7)
    assert first.digests() == again.digests()
    assert [op.argv("x") for op in first.ops] == [op.argv("x") for op in again.ops]


def test_seed_changes_generated_inputs():
    a = workloads.build_pool("alloc-coupled", 7).digests()
    b = workloads.build_pool("alloc-coupled", 8).digests()
    assert set(a) == set(b)
    assert all(a[name] != b[name] for name in a)


def _run(tmp_path, p, op):
    path = tmp_path / "scenario.json"
    path.write_text(workloads.scenario_text(p))
    error, out = call_cli(cli.main, op.argv(str(path)))
    assert error is None
    check_output(op, p, out)  # the real output passes
    return json.loads(out)


def _rejects(op, p, doc, reference=None):
    with pytest.raises(CheckFailed):
        check_output(op, p, json.dumps(doc).encode(), reference)


def test_allocation_check_rejects_corrupted_results(tmp_path):
    p = workloads.coupled_portfolio(np.random.default_rng(3), "star", 3, "t")
    op = workloads.Op("alloc", "allocate", "t")
    doc = _run(tmp_path, p, op)

    over = json.loads(json.dumps(doc))
    gid = max(over["spends"], key=over["spends"].get)
    over["spends"][gid] += 0.01 * p.budget
    _rejects(op, p, over)

    perturbed = json.loads(json.dumps(doc))
    perturbed["objective"] *= 1.0 + 1e-6
    _rejects(op, p, perturbed)

    spread = json.loads(json.dumps(doc))
    spread["kkt"]["marginal_spread_rel"] = 1e-3
    _rejects(op, p, spread)


def test_evaluate_check_rejects_perturbed_value_on_a_chain(tmp_path):
    p = workloads.chain_portfolio(np.random.default_rng(4), 40, "t")
    op = workloads.Op("eval", "evaluate", "t", gdf=p.gdfs[-1].id)
    doc = _run(tmp_path, p, op)
    doc["enbcds"] += 1e-6 * abs(doc["enbcds"])
    _rejects(op, p, doc)


def _off_peak(p, op, doc):
    sink, spends = p.gdfs[-1], actual_spends(p)
    off = 0.5 * doc["s_star"]
    return dict(doc, s_star=off, value=oracle_coupled_enb(p, sink, {**spends, sink.id: off}))


def test_optimize_check_rejects_a_value_off_its_spend_and_an_off_peak_spend(tmp_path):
    p = workloads.separable_portfolio(np.random.default_rng(5), 2, "t")
    assert not p.edges
    op = workloads.Op("opt", "optimize", "t", gdf=p.gdfs[-1].id)
    doc = _run(tmp_path, p, op)
    assert doc["s_star"] > 0.0
    _rejects(op, p, dict(doc, value=doc["value"] + 1e-6 * abs(doc["value"])))
    _rejects(op, p, _off_peak(p, op, doc))


def test_optimize_check_notes_an_off_peak_spend_where_the_uplift_clamp_binds(tmp_path):
    p = workloads.star_portfolio(np.random.default_rng(5), 3, "t")
    sink = p.gdfs[-1]
    sink = dataclasses.replace(sink, attacks=tuple(dataclasses.replace(a, baseline_prob=0.9) for a in sink.attacks))
    p = dataclasses.replace(p, gdfs=p.gdfs[:-1] + (sink,))
    assert may_have_two_peaks(p, sink, "additive")
    op = workloads.Op("opt", "optimize", "t", gdf=sink.id)
    doc = _run(tmp_path, p, op)
    assert doc["s_star"] > 0.0
    notes = check_output(op, p, json.dumps(_off_peak(p, op, doc)).encode())
    assert notes and "not a peak" in notes[0]


def test_sample_check_rejects_a_changed_report():
    op = workloads.Op("mc", "sample", "t")
    reference = b'{"draws": 4, "seed": 1}\n'
    check_output(op, None, reference, reference)
    with pytest.raises(CheckFailed):
        check_output(op, None, b'{"draws": 4, "seed": 2}\n', reference)


def test_forward_reference_matches_enumeration_oracle():
    rng = np.random.default_rng(6)
    for shape in ("chain", "diamond", "star"):
        p = workloads.coupled_portfolio(rng, shape, 5, shape, spend_share=0.3)
        spends = {g.id: g.actual_spend for g in p.gdfs}
        forward = forward_coupled_enb(p, spends)
        for x in p.gdfs:
            assert forward[x.id] == pytest.approx(oracle_coupled_enb(p, x, spends), rel=1e-12)


def test_percentiles_count_failed_ops():
    ok = [Record(0, 1_000_000, None, b"") for _ in range(2)]
    failed = [Record(0, 100_000_000, "raised RecursionError", b"") for _ in range(3)]
    assert op_latencies_ms(ok)["op_p50_ms"] == 1.0
    assert op_latencies_ms(ok + failed)["op_p50_ms"] == 100.0
    assert op_latencies_ms(ok + failed)["op_p90_ms"] is None
    many = [Record(0, k * 1_000_000, None, b"") for k in range(1, 101)]
    assert op_latencies_ms(many)["op_p90_ms"] == pytest.approx(90.1)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_op_p50_weighs_every_pool_item_equally():
    small = [Record(0, ns, None, b"") for ns in (3_000_000, 1_000_000, 2_000_000)]
    large = [Record(1, ns, None, b"") for ns in (100_000_000, 120_000_000, 110_000_000)]
    assert op_latencies_ms(small + large)["op_p50_ms"] == pytest.approx((2.0 + 110.0) / 2)


def test_ops_per_s_counts_only_passing_ops_and_takes_the_median_cycle():
    cycles = [(100_000_000, 100_000_000), (100_000_000, 100_000_000), (500_000_000, 500_000_000)]
    records = [Record(i, ns, None, b"") for cycle in cycles for i, ns in enumerate(cycle)]
    assert ops_per_s(records, {}, 2) == pytest.approx(10.0)
    assert ops_per_s(records, {0: "raised RecursionError", 2: "raised RecursionError"}, 2) == pytest.approx(5.0)


def test_times_are_scaled_to_the_reference_host_speed():
    slowed = [Record(0, 2_000_000, None, b"", 2.0), Record(1, 4_000_000, None, b"", 2.0)]
    assert op_latencies_ms(slowed)["op_p50_ms"] == pytest.approx(1.5)
    assert ops_per_s(slowed, {}, 2) == pytest.approx(2 / 0.003)


def test_stretch_drops_rounds_inside_and_takes_their_speed():
    host = HostSpeed()
    for start, cpu in ((0, 1), (100, 2), (200, 2), (300, 2), (1000, 9)):
        host.samples.append((start, 10, cpu * CAL_REF_NS))
        host._starts.append(start)
    own, slow = host.stretch(50, 350)  # three rounds inside
    assert own == 300 - 30
    assert slow == pytest.approx(2.0)
    own, slow = host.stretch(110, 120)  # none inside: the three nearest
    assert own == 10
    assert slow == pytest.approx(5.0 / 3.0)


def test_held_out_seed_draws_other_structures():
    default = workloads.build_pool("alloc-separable", workloads.HELD_OUT_SEED - 1)
    held_out = workloads.build_pool("alloc-separable", workloads.HELD_OUT_SEED)
    def losses(pool):
        return [a.loss for sc in pool.scenarios.values() for x in sc.portfolio.gdfs for a in x.attacks]

    assert all(a != b for a, b in zip(losses(default), losses(held_out)))
    assert losses(default) == losses(workloads.build_pool("alloc-separable", 1))


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op", "cli"):
        with tracer.span("child", "io"):
            pass
    child, op = tracer.spans
    own = self_times(tracer.spans)
    assert child.parent == op.id and child.op == op.id
    assert own[op.id] == op.ns - child.ns
    assert own[child.id] == child.ns
