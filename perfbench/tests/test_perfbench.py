"""Tests of the benchmark itself, at a small size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run  # noqa: E402
from perfbench.calibrate import kernel_seconds  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    ReplayTpccChannel,
    exact_quantile,
)

SCALE = 0.02
WORK = ROOT / ".bench_work"


@pytest.fixture
def workdir(request):
    path = WORK / f"test-{request.node.name}"
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


def small_run(name, trace, workdir, seed=3):
    lines = []
    result = harness.run_benchmark(
        name, seed, 0.01, trace, workdir, scale=SCALE, emit=lines.append
    )
    return result, lines


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == harness.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == harness.PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, workdir):
    result, _lines = small_run(name, trace, workdir)
    assert result["correct"], _lines
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, entry in result["metrics"].items():
        assert entry["unit"] == expected[key][0]
        assert isinstance(entry["value"], (int, float))
    json.dumps(result)


@pytest.mark.parametrize("cls", [*WORKLOADS.values(), ReplayTpccChannel])
def test_traced_and_untraced_simulations_match(cls, workdir):
    os.makedirs(workdir, exist_ok=True)
    workload = cls(5, SCALE, workdir)
    plain = workload.execute(workload.build(), workload.prepare(0))
    tracer = Tracer()
    _system, traced, _wall = workload.traced(tracer, workload.prepare(0))
    assert traced.signature == plain.signature
    assert traced.sim_cycles == plain.sim_cycles
    assert sum(tracer.calls.values()) > 0
    # time no inner layer takes is charged to the outermost entry point
    assert tracer.root_layer == ("serve" if cls.name == "serve_open" else "system")


def test_reference_kernel_leaves_the_collector_as_it_was():
    assert kernel_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert kernel_seconds() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_tracer_restores_the_classes():
    from repro.oram.path_oram import PathORAM
    from repro.sim.system import SecureSystem

    before = dict(vars(SecureSystem)), dict(vars(PathORAM))
    tracer = Tracer()
    with tracer.installed():
        assert "drain_stash" in vars(PathORAM)
    assert (dict(vars(SecureSystem)), dict(vars(PathORAM))) == before


def test_an_injected_wrong_result_fails_the_check(monkeypatch, workdir):
    from repro.sim.system import SecureSystem

    original = SecureSystem.run
    calls = []

    def drifting_run(self, trace, warmup_entries=0):
        result = original(self, trace, warmup_entries)
        calls.append(1)
        if len(calls) == 2:
            result.cycles += 1
        return result

    monkeypatch.setattr(SecureSystem, "run", drifting_run)
    result, lines = small_run("replay_locality", False, workdir)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("CHECK FAILED" in line for line in lines)


def test_a_wrong_reference_replay_fails_the_check(monkeypatch, workdir):
    from perfbench import workloads

    original = workloads.replay_issued_schedule

    def wrong_replay(*args, **kwargs):
        result = original(*args, **kwargs)
        result.cycles += 1
        return result

    monkeypatch.setattr(workloads, "replay_issued_schedule", wrong_replay)
    result, lines = small_run("serve_open", False, workdir)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("issued schedule" in line for line in lines)


def test_a_wrong_parallel_merge_fails_the_traced_run(monkeypatch, workdir):
    from perfbench import workloads

    original = workloads.run_serial_reference

    def wrong_reference(*args, **kwargs):
        result = original(*args, **kwargs)
        result.cycles += 1
        return result

    monkeypatch.setattr(workloads, "run_serial_reference", wrong_reference)
    result, lines = small_run("replay_locality", True, workdir)
    assert not result["correct"]
    assert result["metrics"]["failed_fraction"]["value"] > 0
    assert any("serial reference" in line for line in lines)


def test_a_failed_check_gives_a_nonzero_exit(monkeypatch, capsys):
    def wrong(*_args, **_kwargs):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    monkeypatch.setattr(harness, "run_benchmark", wrong)
    code = run.main(["--workload", "serve_open", "--seed", "1", "--seconds", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_without_the_sources_it_fails_and_prints_no_result(workdir):
    bare = Path(workdir)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "replay_locality",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_exact_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert exact_quantile(values, 0.5) == 50
    assert exact_quantile(values, 0.99) == 99
    assert exact_quantile(values, 1.0) == 100
    assert exact_quantile([], 0.5) == 0
