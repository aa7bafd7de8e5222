"""Tests of the benchmark itself: its checks reject corrupted outputs, traced
and untraced runs attempt the same items, and tiny runs end without failed
items."""

import dataclasses
import itertools
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import common
import currying
import desk
import oracles
import run
import sweep
import tracing


def tiny_state(module, seed=1):
    harness = run.Harness(module.__name__, seed, tiny=True)
    state, _ = harness.setup()
    module.check_setup(state)
    return state


def test_sweep_rejects_a_dropped_continuous_subset():
    cells = tiny_state(sweep)
    cell = next(c for c in cells if c[0].order == 3)
    out = sweep.run_item(cells, cell)
    sweep.check_item(cells, cell, out)
    report = out.report
    dropped = dataclasses.replace(report, continuous_sets=report.continuous_sets[:-1])
    with pytest.raises(oracles.CheckFailed):
        sweep.check_item(cells, cell, dataclasses.replace(out, report=dropped))


def test_currying_rejects_an_extra_hom():
    inputs = tiny_state(currying)
    item = next(i for i in inputs.items
                if inputs.exponentials[i[0]].y.size > 1 and i[1].size > 1)
    zx, plain, curried = currying.run_item(inputs, item)
    currying.check_item(inputs, item, (zx, plain, curried))
    y = inputs.exponentials[item[0]].y
    extra = next(f for f in itertools.product(range(y.size), repeat=zx.size)
                 if f not in plain)
    with pytest.raises(oracles.CheckFailed):
        currying.check_item(inputs, item, (zx, plain + (extra,), curried))


def desk_item_output(inputs, command):
    item = next(i for i in inputs.items if i.command == command)
    out = desk.run_item(inputs, item)
    desk.check_item(inputs, item, out)
    return item, out


def test_desk_rejects_a_wrong_completion_order():
    inputs = tiny_state(desk)
    item, (code, stdout, stderr) = desk_item_output(inputs, "complete")
    report = desk.json_report(stdout)
    report["L"]["elements"].append("[extra]")
    text = stdout[:stdout.rindex("\n{")] + "\n" + json.dumps(report, indent=2) + "\n"
    with pytest.raises(oracles.CheckFailed):
        desk.check_item(inputs, item, (code, text, stderr))


def test_desk_rejects_a_flipped_check_verdict():
    inputs = tiny_state(desk)
    item, (code, stdout, stderr) = desk_item_output(inputs, "check")
    report = desk.json_report(stdout)
    report["verdict"] = not report["verdict"]
    text = stdout[:stdout.rindex("\n{")] + "\n" + json.dumps(report, indent=2) + "\n"
    with pytest.raises(oracles.CheckFailed):
        desk.check_item(inputs, item, (1 - code, text, stderr))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_runs_end_without_failures(workload):
    result = run.Harness(workload, 3, tiny=True).run(0.0, False, rounds=1)
    assert result["failed"] == 0 and result["correct"], result["problems"]
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_attempt_the_same_items(workload):
    untraced = run.Harness(workload, 2, tiny=True).run(0.0, False, rounds=1)
    traced = run.Harness(workload, 2, tiny=True).run(0.0, True, rounds=1)
    assert traced["ids"] == untraced["ids"]
    assert traced["failed"] == 0 and traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    assert traced["metrics"]["trace.span_cover_ratio"]["value"] > 0.5


def test_tracer_uninstall_restores_the_package():
    from topact import catalog, cli, congruences
    before = (catalog.all_monoids, cli.main, congruences.enumerate_congruences)
    tracer = tracing.Tracer()
    tracer.install()
    assert congruences.enumerate_congruences is not before[2]
    tracer.uninstall()
    assert (catalog.all_monoids, cli.main, congruences.enumerate_congruences) == before


def test_host_clock_takes_its_samples_out_of_the_block():
    before = signal.getsignal(signal.SIGALRM)
    with common.HostClock() as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(clock.chunks) > 5 and clock.spent > 0
    assert abs(clock.elapsed + clock.spent - 0.2) < 0.02
    assert clock.reference_s > 0 and clock.factor(clock.mark()) > 0
    assert signal.getsignal(signal.SIGALRM) == before


def test_per_layer_metrics_match_benchmark_json():
    assert _benchmark()["per_layer"] == tracing.metric_specs()


def test_refuses_to_run_without_topact_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def _benchmark():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())
