"""Stress-world benchmark: build cost, publish throughput, and churn
sustained on the generated mega-ontology worlds (PR 10).

For every tier-1 world (jobfinder, mega-small, mega-deep) the sweep
records one gated row in ``BENCH_worlds.json``:

* the deterministic world-build counters (concepts, edges, leaves,
  depth, synonym spellings, rules, terms) — gated for **exact**
  equality by ``check_bench_regression.py``: a generated world that
  silently changes shape invalidates every number measured on it;
* ``batch_predicate_evaluations`` and ``closure_fill_steps`` (terms
  the concept table's descent kernel settled for the subscribes and
  the publish passes; both upper-gated) and ``probes_saved`` /
  ``candidates_pruned`` (lower-gated) for a seeded publish pass — the
  same deterministic cost/savings proxies the publish gate uses;
* record-only wall-clock: build seconds, cold/second-pass
  events-per-second (the second pass finds closure and matcher memos
  warm; its expansion re-runs), closure-memo and InterestIndex size
  trajectories, and the flash-crowd churn rate (≥1k subscribe/unsubscribe ops, with the
  leak-freedom assertion: the footprint must return to baseline).

The 100k+-term worlds run the same sweep into the record-only
``large_worlds`` section when ``STOPSS_WORLDS_LARGE=1`` (set when the
committed baseline is regenerated and in the nightly CI leg) — PR-path
CI skips them so the gate compares small-world rows only.

``STOPSS_BENCH_WORLDS_OUTPUT`` redirects a fresh run's payload.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.engine import SToPSS
from repro.metrics import Table
from repro.workload.worlds import FlashCrowdDriver, FlashCrowdSpec, build_world

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: gated rows (small worlds; PR-path CI rebuilds these)
CI_WORLDS = ("jobfinder", "mega-small", "mega-deep")
#: record-only rows (nightly / baseline regeneration only)
LARGE_WORLDS = ("mega-100k", "mega-wide-100k")

SUBSCRIPTIONS = 120
EVENTS = 30
#: the large worlds run a shorter stream — the cold pass fills 100k-term
#: closure memos, which is the cost being measured, not amortized
LARGE_SUBSCRIPTIONS = 60
LARGE_EVENTS = 10
WORKLOAD_SEED = 1709

CHURN = FlashCrowdSpec(residents=60, churn_ops=1_200, burst=60, warm_events=5, seed=17)


def _closure_memo_size(kb) -> int:
    stats = kb.concept_table().stats()
    return stats["up_closures"] + stats["down_closures"]


def _sweep_world(name: str, *, subscriptions: int, events: int) -> dict[str, object]:
    world = build_world(name)
    engine = SToPSS(world.kb)
    generator = world.generator(seed=WORKLOAD_SEED)

    memo_after_build = _closure_memo_size(world.kb)
    for subscription in generator.subscriptions(subscriptions):
        engine.subscribe(subscription)
    memo_after_subscribe = _closure_memo_size(world.kb)
    index_after_subscribe = engine.interest_info()["interest_index_size"]

    stream = generator.events(events)
    stats_before = engine.matcher.stats.predicate_evaluations
    started = time.perf_counter()
    cold_matches = sum(len(engine.publish(event)) for event in stream)
    cold_seconds = time.perf_counter() - started
    batch_evals = engine.matcher.stats.predicate_evaluations - stats_before
    # one-pass window like batch_evals: the second pass expands (and
    # prunes) all over again
    interest = engine.interest_info()

    started = time.perf_counter()
    warm_matches = sum(len(engine.publish(event)) for event in stream)
    warm_seconds = time.perf_counter() - started
    assert warm_matches == cold_matches, f"warm pass diverged on {name}"

    # read before the churn storm below fills through the same table
    closure_fill_steps = world.kb.concept_table().stats()["closure_fill_steps"]
    churn_report = FlashCrowdDriver(
        world.generator(seed=WORKLOAD_SEED + 1), CHURN
    ).run(SToPSS(world.kb))
    assert not churn_report.leaked, (
        f"flash-crowd storm leaked engine state on {name}",
        churn_report.as_dict(),
    )

    return {
        "configuration": f"world:{name}",
        "matcher": engine.stats()["matcher"],
        # deterministic shape counters — exact-gated
        **world.counters,
        # deterministic publish counters — tolerance-gated
        "batch_predicate_evaluations": batch_evals,
        "closure_fill_steps": closure_fill_steps,
        "probes_saved": engine.matcher.stats.probes_saved,
        "candidates_pruned": interest["candidates_pruned"],
        # record-only wall-clock and trajectories
        "subscriptions": subscriptions,
        "events": events,
        "matches": cold_matches,
        "build_seconds": world.build_seconds,
        "publish_seconds": warm_seconds,
        "cold_publish_seconds": cold_seconds,
        "events_per_second": events / warm_seconds if warm_seconds else 0.0,
        "cold_events_per_second": events / cold_seconds if cold_seconds else 0.0,
        "closure_memo_trajectory": {
            "after_build": memo_after_build,
            "after_subscribe": memo_after_subscribe,
            "after_publish": _closure_memo_size(world.kb),
        },
        "interest_index_trajectory": {
            "after_subscribe": index_after_subscribe,
            "after_publish": interest["interest_index_size"],
        },
        "churn": churn_report.as_dict(),
    }


def test_world_build_publish_and_churn(benchmark, capsys):
    """Per-world build/publish/churn sweep with deterministic shape and
    publish counters; the flash-crowd leak assertion is the acceptance
    signal, wall-clock is record-only."""
    run_large = os.environ.get("STOPSS_WORLDS_LARGE") == "1"
    table = Table(
        "stress worlds — build, publish, flash-crowd churn "
        f"({SUBSCRIPTIONS} subscriptions, {EVENTS} events, "
        f"{CHURN.churn_ops}-op storm)",
        [
            "world",
            "concepts",
            "terms",
            "rules",
            "build-s",
            "cold-ev/s",
            "2nd-pass-ev/s",
            "churn-ops/s",
            "pruned",
        ],
    )
    payload: dict[str, object] = {
        "workload_seed": WORKLOAD_SEED,
        "churn_spec": {
            "residents": CHURN.residents,
            "churn_ops": CHURN.churn_ops,
            "burst": CHURN.burst,
            "seed": CHURN.seed,
        },
        "cpu_count": os.cpu_count(),
        "gate_model": (
            "world_* shape counters are exact-gated; "
            "batch_predicate_evaluations/closure_fill_steps upper- and "
            "probes_saved/candidates_pruned lower-gated at the standard "
            "tolerance; "
            "build/publish/churn wall-clock and the large_worlds "
            "section are record-only (large rows regenerate only under "
            "STOPSS_WORLDS_LARGE=1)"
        ),
        "configurations": [],
        "large_worlds": [],
    }

    def sweep():
        table.rows.clear()
        payload["configurations"] = []
        payload["large_worlds"] = []
        legs = [
            (name, "configurations", SUBSCRIPTIONS, EVENTS) for name in CI_WORLDS
        ]
        if run_large:
            legs += [
                (name, "large_worlds", LARGE_SUBSCRIPTIONS, LARGE_EVENTS)
                for name in LARGE_WORLDS
            ]
        for name, section, subscriptions, events in legs:
            row = _sweep_world(name, subscriptions=subscriptions, events=events)
            payload[section].append(row)
            table.add(
                name,
                row["world_concepts"],
                row["world_terms"],
                row["world_rules"],
                round(row["build_seconds"], 3),
                round(row["cold_events_per_second"], 1),
                round(row["events_per_second"], 1),
                round(row["churn"]["churn_ops_per_second"], 0),
                row["candidates_pruned"],
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    out_path = pathlib.Path(
        os.environ.get("STOPSS_BENCH_WORLDS_OUTPUT", _REPO_ROOT / "BENCH_worlds.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print()
        table.print()
        if not run_large:
            print(
                f"large worlds ({', '.join(LARGE_WORLDS)}) skipped — "
                "set STOPSS_WORLDS_LARGE=1 to sweep them"
            )
        print(f"wrote {out_path}")
