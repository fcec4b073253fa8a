"""Golden snapshot and work-count tests for the serving front end.

The front end's schedule (which request joins which batch, when each
batch closes, which accesses issue at which cycle) is pure bookkeeping
around the bank, so a refactor of that bookkeeping must leave it exactly
unchanged.  ``run() == run()`` on the same code cannot catch a drift, so
six scenarios are pinned against a stored snapshot: the report, every
request's outcome, the issued schedule and the ``collect_serve`` export.

The snapshot lives in ``tests/data/golden_serve.json``.  Regenerate it
(only after an *intentional* schedule change) with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_serve_golden.py

The work-count tests count calls rather than time them, so they hold on
any host: the coalescing key must be computed a bounded number of times
per request, and metric instruments must be bound once per run instead of
looked up by name on every event.
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import ServeConfig, SystemConfig
from repro.controller.sharded import ShardedORAMBank
from repro.health import HealthPolicy
from repro.observability import collect_serve
from repro.observability.metrics import MetricsRegistry
from repro.serve import ClosedLoopSource, OpenLoopSource, ServingFrontEnd

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_serve.json"


def _frontend(source, shards, serve_config=None, health_policy=None):
    return ServingFrontEnd.build(
        "dyn",
        source.footprint_blocks,
        SystemConfig(),
        shards,
        serve_config=serve_config,
        health_policy=health_policy,
        workload="golden",
    )


def open_weighted():
    """Open loop, 4 shards, weights 3/2/1; a tight footprint breaks super blocks."""
    source = OpenLoopSource.synthetic(
        3, 200, footprint_per_tenant=64, gap_mean=1000.0, locality=0.9,
        weights=[3, 2, 1], seed=9,
    )
    return _frontend(source, 4), source


def closed_loop():
    source = ClosedLoopSource(
        2, 3, 25, footprint_per_tenant=128, think_mean=1500.0, seed=4
    )
    return _frontend(source, 2), source


def overload():
    """One shard, small queues: sheds both on ``queue_full`` and ``backlog``."""
    source = OpenLoopSource.synthetic(
        3, 150, footprint_per_tenant=256, gap_mean=3000.0,
        weights=[4, 1, 1], seed=21,
    )
    serve_config = ServeConfig(queue_capacity=4, max_backlog=17)
    return _frontend(source, 1, serve_config), source


def quarantined_shard():
    """Shard 0 starts quarantined: reroutes, then probes at a degraded quota."""
    source = OpenLoopSource.synthetic(
        2, 150, footprint_per_tenant=128, gap_mean=700.0, seed=6
    )
    policy = HealthPolicy(quarantine_cooldown=12, probe_batch=8, probe_successes=4)
    frontend = _frontend(source, 2, health_policy=policy)
    frontend.bank.quarantine_shard(0)
    return frontend, source


def no_coalesce():
    source = OpenLoopSource.synthetic(
        2, 150, footprint_per_tenant=128, gap_mean=300.0, seed=11
    )
    return _frontend(source, 2, ServeConfig(coalesce=False)), source


def bypass():
    source = OpenLoopSource.synthetic(
        2, 150, footprint_per_tenant=128, gap_mean=300.0, seed=11
    )
    return _frontend(source, 2, ServeConfig(enabled=False)), source


SCENARIOS = {
    "open_weighted": open_weighted,
    "closed_loop": closed_loop,
    "overload": overload,
    "quarantined_shard": quarantined_shard,
    "no_coalesce": no_coalesce,
    "bypass": bypass,
}


def snapshot(name):
    """Everything a scenario's run produces, JSON-normalized."""
    frontend, source = SCENARIOS[name]()
    report = frontend.run(source)
    data = {
        "report": report.as_dict(),
        "requests": [
            [r.req_id, r.status, r.completion_cycle, r.coalesced, r.rerouted]
            for r in frontend.all_requests
        ],
        "issued": frontend.issued,
        "access_completions": frontend.access_completions,
        "registry": collect_serve(frontend).to_dict(),
    }
    return json.loads(json.dumps(data))


def _load_golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden snapshot {GOLDEN_PATH}; regenerate with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


class TestServeGolden:
    def test_regenerate(self):
        if not os.environ.get("REPRO_UPDATE_GOLDEN"):
            pytest.skip("set REPRO_UPDATE_GOLDEN=1 to regenerate the snapshot")
        golden = {name: snapshot(name) for name in SCENARIOS}
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True) + "\n")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_snapshot(self, name):
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            pytest.skip("snapshot being regenerated")
        expected = _load_golden()[name]
        actual = snapshot(name)
        assert set(actual) == set(expected)
        for part in ("report", "requests", "issued", "access_completions"):
            assert actual[part] == expected[part], f"{name}: {part} drifted"
        assert actual["registry"] == expected["registry"], (
            f"{name}: registry export drifted"
        )

    def test_scenarios_exercise_their_paths(self):
        golden = _load_golden()
        registry = {
            name: {k: v.get("value") for k, v in data["registry"].items()}
            for name, data in golden.items()
        }
        assert golden["open_weighted"]["report"]["sim"]["breaks"] > 0
        assert golden["open_weighted"]["report"]["coalesced"] > 0
        assert registry["overload"]["serve.shed_queue_full"] > 0
        assert registry["overload"]["serve.shed_backlog"] > 0
        assert registry["quarantined_shard"]["serve.rerouted"] > 0
        assert registry["quarantined_shard"]["serve.fallback_issues"] > 0
        assert registry["quarantined_shard"]["health.shard0.probes"] > 0
        assert golden["no_coalesce"]["report"]["coalesced"] == 0
        assert golden["bypass"]["report"]["batches"] == 0


# ------------------------------------------------------------- work counts
def _open_loop_run(requests_per_tenant):
    """4 tenants on a 4-shard bank at the repo benchmark's offered load."""
    source = OpenLoopSource.synthetic(
        4, requests_per_tenant, footprint_per_tenant=2_048,
        gap_mean=1000.0 * 4 / 1.67, seed=3,
    )
    frontend = _frontend(source, 4, ServeConfig())
    return frontend, source


def _count_calls(monkeypatch, cls, name):
    calls = [0]
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestWorkCounts:
    def test_coalesce_key_calls_per_request(self, monkeypatch):
        calls = _count_calls(monkeypatch, ShardedORAMBank, "coalesce_key")
        frontend, source = _open_loop_run(250)
        report = frontend.run(source)
        assert report.offered == 1_000
        assert calls[0] / report.offered <= 2.5

    def test_metric_lookups_do_not_grow_with_requests(self, monkeypatch):
        lookups = []
        for requests_per_tenant in (25, 50):
            frontend, source = _open_loop_run(requests_per_tenant)
            calls = _count_calls(monkeypatch, MetricsRegistry, "_get")
            frontend.run(source)
            lookups.append(calls[0])
            monkeypatch.undo()
        assert lookups[0] == lookups[1]

    def test_bypass_metric_lookups_do_not_grow_with_requests(self, monkeypatch):
        lookups = []
        for requests_per_tenant in (25, 50):
            source = OpenLoopSource.synthetic(
                4, requests_per_tenant, footprint_per_tenant=256, seed=3
            )
            frontend = _frontend(source, 2, ServeConfig(enabled=False))
            calls = _count_calls(monkeypatch, MetricsRegistry, "_get")
            frontend.run(source)
            lookups.append(calls[0])
            monkeypatch.undo()
        assert lookups[0] == lookups[1]
