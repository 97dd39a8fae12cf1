"""Fault-recovery benchmark for the process data plane.

Runs the full-semantic jobfinder publish stream against a 2-shard
worker-process fleet, once clean and once per chaos seed under a seeded
:class:`~repro.broker.supervision.FaultPlan` that kills, hangs, drops,
and corrupts workers mid-stream, and records per leg:

* ``events_per_second`` — observed wall-clock throughput (record-only,
  machine-dependent; the chaos legs pay re-forks and inline answers so
  their number is *expected* to trail the clean leg — the gap is the
  measured price of recovery, not a regression).
* the recovery counters (``worker_restarts``, ``degraded_publishes``,
  ``stale_replies_discarded``) and the derived operator-facing rates:
  ``restarts_per_1k_events``, ``degraded_publish_rate``, and
  ``mean_restart_seconds`` (fork the parent replica, read its ready
  reply — the data plane's measured MTTR).

Results land in ``BENCH_faults.json`` (``STOPSS_BENCH_FAULTS_OUTPUT``
redirects a fresh run).  Wall-clock numbers never gate; the in-test
assertions are deterministic and ARE the acceptance signal: every chaos
leg reproduces the clean leg's exact per-event ``(sub_id, generality)``
match lists (no publish lost, duplicated, or reordered by a fault), no
publish raises, every scheduled fault fires, the recovery counters are
non-zero under chaos and all-zero on the clean leg.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.broker.sharding import ShardedEngine
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.metrics import Table
from repro.model.subscriptions import Subscription
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHARDS = 2
SUBSCRIPTIONS = 300
EVENTS = 60
MATCHER = "counting"
#: chaos legs; each seed derives a distinct reproducible fault schedule
CHAOS_SEEDS = (11, 29, 47)
#: faults scheduled inside the publish window of each chaos leg — dense
#: enough that every run exercises disposal, inline answers and re-forks
FAULTS_PER_LEG = 8


def _fresh_subscription(subscription: Subscription) -> Subscription:
    return Subscription(
        subscription.predicates,
        sub_id=subscription.sub_id,
        max_generality=subscription.max_generality,
    )


def _run_leg(jobs_kb, subscriptions, events, fault_plan):
    engine = ShardedEngine(
        jobs_kb,
        shards=SHARDS,
        matcher=MATCHER,
        config=SemanticConfig(),
        executor="process",
        fault_plan=fault_plan,
    )
    try:
        for subscription in subscriptions:
            engine.subscribe(_fresh_subscription(subscription))
        # fork the fleet outside the timed window (a long-running broker
        # pays it once) so the chaos legs time *recovery*, not startup
        engine._ensure_plane()
        match_sets: list[list[tuple[str, int]]] = []
        started = time.perf_counter()
        for event in events:
            match_sets.append(
                [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]
            )
        elapsed = time.perf_counter() - started
        supervision = engine.supervision.snapshot()
    finally:
        engine.close()
    return match_sets, elapsed, supervision


def test_fault_recovery(benchmark, jobs_kb, capsys):
    """Clean-vs-chaos publish stream: identical match lists, measured
    recovery counters and rates per chaos seed."""
    generator = SemanticWorkloadGenerator(jobs_kb, SemanticSpec.jobs(seed=1707))
    subscriptions = generator.subscriptions(SUBSCRIPTIONS)
    events = generator.events(EVENTS)

    table = Table(
        f"Fault recovery — full-semantic publish ({EVENTS} events, "
        f"{SHARDS}-shard process fleet, {FAULTS_PER_LEG} faults/leg)",
        [
            "leg",
            "faults",
            "restarts",
            "degraded",
            "stale-drop",
            "ev/s",
            "rst/1k-ev",
            "degr-rate%",
            "mttr-ms",
        ],
    )
    payload: dict[str, object] = {
        "workload": "jobfinder",
        "configuration": "full",
        "matcher": MATCHER,
        "shards": SHARDS,
        "subscriptions": SUBSCRIPTIONS,
        "events": EVENTS,
        "faults_per_leg": FAULTS_PER_LEG,
        "cpu_count": os.cpu_count(),
        "recovery_model": (
            "every chaos leg must reproduce the clean leg's exact per-event "
            "(sub_id, generality) match lists with no publish raising; "
            "mean_restart_seconds is the re-fork of the parent replica per "
            "restart (measured MTTR); wall-clock rates are record-only"
        ),
        "legs": [],
    }

    def sweep():
        table.rows.clear()
        payload["legs"] = []
        baseline, clean_elapsed, clean_counters = _run_leg(
            jobs_kb, subscriptions, events, fault_plan=None
        )
        assert all(value == 0 for value in clean_counters.values()), (
            "clean leg recorded recovery interventions",
            clean_counters,
        )
        legs = [("clean", None, baseline, clean_elapsed, clean_counters)]
        for seed in CHAOS_SEEDS:
            plan = FaultPlan.seeded(
                seed, shards=SHARDS, ops=EVENTS, faults=FAULTS_PER_LEG
            )
            match_sets, elapsed, counters = _run_leg(
                jobs_kb, subscriptions, events, fault_plan=plan
            )
            assert match_sets == baseline, (
                "chaos leg diverged from the clean leg's match lists",
                seed,
            )
            assert plan.pending == 0, ("a scheduled fault never fired", seed)
            recoveries = counters["worker_restarts"] + counters["degraded_publishes"]
            assert recoveries > 0, ("faults fired but nothing was recovered", seed)
            legs.append((f"chaos-{seed}", plan, match_sets, elapsed, counters))
        for name, plan, match_sets, elapsed, counters in legs:
            rate = EVENTS / elapsed if elapsed else 0.0
            restarts = counters["worker_restarts"]
            mttr = counters["restart_seconds"] / restarts if restarts else 0.0
            degraded_rate = counters["degraded_publishes"] / EVENTS
            table.add(
                name,
                plan.planned if plan is not None else 0,
                restarts,
                counters["degraded_publishes"],
                counters["stale_replies_discarded"],
                round(rate, 1),
                round(1000.0 * restarts / EVENTS, 1),
                round(100.0 * degraded_rate, 1),
                round(1000.0 * mttr, 1),
            )
            payload["legs"].append({
                "leg": name,
                "faults_planned": plan.planned if plan is not None else 0,
                "faults_fired": dict(plan.fired) if plan is not None else {},
                "matches": sum(len(per_event) for per_event in match_sets),
                "supervision": counters,
                "publish_seconds": elapsed,
                "events_per_second": rate,
                "restarts_per_1k_events": 1000.0 * restarts / EVENTS,
                "degraded_publish_rate": degraded_rate,
                "mean_restart_seconds": mttr,
            })

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    out_path = pathlib.Path(
        os.environ.get("STOPSS_BENCH_FAULTS_OUTPUT", _REPO_ROOT / "BENCH_faults.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print()
        table.print()
        print(f"wrote {out_path}")
