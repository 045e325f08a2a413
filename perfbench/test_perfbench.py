"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import speed
from checks import CheckFailed, check, expected_mass
from spans import (DUR, ITEMS, Tracer, layer_metrics, self_times)
from workloads import FINITE, ROOT, WORKLOADS, golden_op, ops

sys.path.insert(0, str(ROOT / "src"))


def _first(workload, seed, count=300, pass_no=0):
    return list(itertools.islice(ops(workload, seed, pass_no), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("workload", FINITE)
def test_passes_reshuffle_the_same_problems(workload):
    one, two = _first(workload, 7, 1000), _first(workload, 7, 1000, pass_no=1)
    assert one != two
    assert sorted(map(repr, (op.problem_key() for op in one))) == \
        sorted(map(repr, (op.problem_key() for op in two)))


@pytest.mark.parametrize("workload,count", [("ladder", 1000), ("fanout", 1000),
                                            ("sweep", 3000)])
def test_ops_within_a_stream_are_distinct(workload, count):
    stream = _first(workload, 3, count)
    keys = [op.problem_key() for op in stream]
    assert len(set(keys)) == len(keys)
    labels = [e["place"] for op in stream if op.name != "golden"
              for e in op.config["ramification"] if e["place"] != "infinity"]
    assert len(set(labels)) == len(labels)


def test_ladder_holds_the_golden_example_once():
    assert sum(op.name == "golden" for op in _first("ladder", 5)) == 1


def test_nearest_rank_and_tail_percentile():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank(values, 99) == 99
    assert run.nearest_rank(values, 100) == 100
    assert run.nearest_rank([3.0], 90) == 3.0
    assert run.tail_percentile(19) == 50
    assert run.tail_percentile(39) == 50   # p75 leaves 9 beyond
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75   # p90 leaves 9 beyond
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10 ** 6) == 99


def test_error_rate():
    assert run.error_rate(40, 0) == 0
    assert run.error_rate(40, 10) == 0.25
    assert run.error_rate(0, 0) == 1.0


def test_at_reference_scales_by_the_speed_loop():
    assert speed.at_reference(2.0, [speed.REF_S]) == 2.0
    assert speed.at_reference(2.0, [speed.REF_S, 2 * speed.REF_S, 9.0]) == 1.0
    assert speed.calibrate() > 0
    loops = [(0, 1.0), (3, 2.0), (4, 3.0), (9, 4.0), (9, 5.0), (12, 6.0),
             (15, 7.0)]
    assert speed.nearby(loops, 0, k=1) == [1.0, 2.0, 3.0]
    assert speed.nearby(loops, 5, k=1) == [2.0, 3.0, 4.0, 5.0]
    assert speed.nearby(loops, 14, k=1) == [5.0, 6.0, 7.0]


def _span(op, sid, parent, layer, name, dur, items=0, key=None):
    return [op, sid, parent, layer, name, dur, items, key]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0, None, "cli", "main", 10.0),
        _span(0, 1, 0, "classnum", "weight_class_numbers", 6.0),
        _span(0, 2, 1, "theta", "theta", 4.0),
        _span(0, 3, 0, "cli", "parse_config", 1.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 4.0, 1.0]


def test_layer_metrics_ratios_and_entries():
    # op 0: one solve with two level solves, three theta calls on two keys;
    # op 1: two solves that opened no level_rhs (memo hits), one theta call.
    k1, k2 = (2, 2, 1, (1, 1), 2), (2, 1, 12, (1,), 2)
    spans = [
        _span(0, 0, None, "cli", "main", 0.010),
        _span(0, 1, 0, "classnum", "weight_class_numbers", 0.008),
        _span(0, 2, 1, "classnum", "level_rhs", 0.004),
        _span(0, 3, 2, "theta", "theta", 0.001, key=k1),
        _span(0, 4, 2, "theta", "theta", 0.001, key=k2),
        _span(0, 5, 1, "classnum", "level_rhs", 0.003),
        _span(0, 6, 5, "theta", "theta", 0.001, key=k1),
        _span(1, 7, None, "cli", "main", 0.002),
        _span(1, 8, 7, "classnum", "weight_class_numbers", 0.0005),
        _span(1, 9, 7, "classnum", "weight_class_numbers", 0.0005),
        _span(1, 10, 7, "omega", "enumerate_omega", 0.0004, items=5),
        _span(1, 11, 10, "omega", "enumerate_omega", 0.0001, items=5),
        _span(1, 12, 7, "theta", "theta", 0.0002, key=k1),
    ]
    m = layer_metrics(spans, ops=2)
    assert m["theta.calls"] == 2.0                      # 4 calls / 2 ops
    assert m["theta.useful_ratio"] == 3 / 4             # {k1,k2} in op 0, {k1} in op 1
    assert m["classnum.solve_calls"] == 1.5
    assert m["classnum.level_solves"] == 1.0
    assert m["classnum.memo_hit_ratio"] == 2 / 3
    assert m["omega.calls"] == 0.5                      # the nested span is no entry
    assert m["omega.elements"] == 2.5                   # entries only
    assert m["omega.ms"] == pytest.approx(0.2)
    assert m["theta.self_ms"] == pytest.approx(1.6)
    assert m["cli.self_ms"] == pytest.approx((0.002 + 0.0004) * 1000 / 2)
    assert m["theta.self_share"] == pytest.approx(0.0032 / 0.012)


def test_tracer_reports_absent_hooks_and_times_generators():
    import csaclass.omega as omega_mod
    from csaclass.algebra import Place

    tracer = Tracer()
    tracer.install([("csaclass.no_such_module", "f"),
                    ("csaclass.classnum", "no_such_function"),
                    ("csaclass.cli", "enumerate_omega")])
    try:
        import csaclass.cli as cli
        assert tracer.absent == ["csaclass.no_such_module.f",
                                 "csaclass.classnum.no_such_function"]
        place = Place("v", 2, 1)
        expected = list(omega_mod.enumerate_omega(place, (1, 1, 1, 1), 2))
        assert list(cli.enumerate_omega(place, (1, 1, 1, 1), 2)) == expected
        assert tracer.spans == []          # no op active: nothing recorded
        tracer.op = 0
        assert list(cli.enumerate_omega(place, (1, 1, 1, 1), 2)) == expected
        tracer.op = None
        (span,) = tracer.spans
        assert span[ITEMS] == len(expected) and span[DUR] > 0
    finally:
        tracer.uninstall()
    assert cli.enumerate_omega is omega_mod.enumerate_omega


def _golden_stdout() -> str:
    import csaclass.cli as cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--config", str(ROOT / "configs" / "dvg-example.json"),
                         "classnum"]) == 0
    return out.getvalue()


def test_checks_accept_the_golden_report_and_reject_tampering():
    op = golden_op()
    assert expected_mass(op.config) == Fraction(169, 5)
    stdout = _golden_stdout()
    check(op, stdout)
    doc = json.loads(stdout)
    doc["h"]["1"] += 1
    doc["h_total"] += 1
    with pytest.raises(CheckFailed):
        check(op, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    with pytest.raises(CheckFailed):
        check(op, json.dumps(json.loads(stdout)) + "\n")   # not canonical
    with pytest.raises(CheckFailed):
        check(op, stdout, order_check=lambda _: 81)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failure_reasons():
    from pass_runner import _failure
    op = golden_op()
    stdout = _golden_stdout()
    assert _failure(op, 0, stdout, "", None) is None
    assert _failure(op, 4, "", "error: over budget\n", None) == \
        "exit 4: error: over budget"
    assert _failure(op, 0, "{}", "", None).startswith("check:")

    def broken_oracle(_):
        raise RuntimeError("oracle crashed")

    assert _failure(op, 0, stdout, "", broken_oracle).startswith("check raised")
