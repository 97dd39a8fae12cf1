"""Subscription-scaling sweep for demand-driven expansion (PR 4).

The interest index makes expansion cost a function of *what the live
subscriptions can reach*, not of the knowledge base's full derivation
cross-product — so the interesting axis is the subscription-table
size.  This sweep grows the jobfinder full-semantic table 100→5000
subscriptions (each count a prefix of one seeded stream, so rows are
nested workloads) and records, per ``(subscriptions, matcher)`` row:
wall-clock events/s, the match volume, and the pruning counters
(``candidates_pruned`` / ``prune_checks`` / ``interest_index_size``).

Results land in ``BENCH_scale.json`` (``STOPSS_BENCH_SCALE_OUTPUT``
redirects a fresh run).  CI runs this as a **record-only artifact** —
wall-clock scaling is machine-dependent and the index shape moves with
any workload change, so no gate reads this file; the hard pruning gate
lives on ``BENCH_publish.json``'s deterministic counters
(``benchmarks/check_bench_regression.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.conftest import build_engine
from repro.core.config import SemanticConfig
from repro.metrics import Table
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: prefix sizes of one seeded subscription stream (nested workloads:
#: every count contains the previous count's subscriptions)
SUBSCRIPTION_COUNTS = (100, 400, 1000, 2000, 5000)
EVENTS = 40
#: matcher rows of the sweep (``BENCH_scale.json``)
PUBLISH_MATCHERS = ("counting",)


def test_scale_subscriptions(benchmark, jobs_kb, capsys):
    """Full-semantic publish throughput and pruning behavior as the
    subscription table grows.

    Deterministic shape assertions (counters, not wall-clock): pruning
    stays active at every size, and the derived-event volume is
    monotone in the table size — more subscribers can only widen the
    interest closure, never narrow it (prefix workloads make the
    comparison exact).
    """
    generator = SemanticWorkloadGenerator(jobs_kb, SemanticSpec.jobs(seed=1703))
    subscriptions = generator.subscriptions(max(SUBSCRIPTION_COUNTS))
    events = generator.events(EVENTS)

    table = Table(
        f"Scale — full-semantic publish vs subscription count ({EVENTS} events)",
        [
            "subs",
            "matcher",
            "matches",
            "derived",
            "pruned",
            "prune-hit%",
            "index size",
            "events/s",
        ],
    )
    payload: dict[str, object] = {
        "workload": "jobfinder",
        "configuration": "full",
        "events": EVENTS,
        "sweep": [],
    }

    def sweep():
        table.rows.clear()
        payload["sweep"] = []
        for count in SUBSCRIPTION_COUNTS:
            for matcher_name in PUBLISH_MATCHERS:
                engine = build_engine(
                    jobs_kb,
                    subscriptions[:count],
                    SemanticConfig(),
                    matcher=matcher_name,
                )
                matches = 0
                started = time.perf_counter()
                for event in events:
                    matches += len(engine.publish(event))
                elapsed = time.perf_counter() - started
                interest = engine.interest_info()
                derived = engine.counters.get("publish.derived_events")
                table.add(
                    count,
                    matcher_name,
                    matches,
                    derived,
                    interest["candidates_pruned"],
                    round(100 * interest["prune_hit_rate"], 1),
                    interest["interest_index_size"],
                    round(EVENTS / elapsed, 1) if elapsed else 0.0,
                )
                payload["sweep"].append({
                    "subscriptions": count,
                    "matcher": matcher_name,
                    "matches": matches,
                    "derived_events": derived,
                    "candidates_pruned": interest["candidates_pruned"],
                    "prune_checks": interest["prune_checks"],
                    "prune_hit_rate": interest["prune_hit_rate"],
                    "interest_index_size": interest["interest_index_size"],
                    # wall-clock: record-only, machine-dependent
                    "publish_seconds": elapsed,
                    "events_per_second": EVENTS / elapsed if elapsed else 0.0,
                })

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    out_path = pathlib.Path(
        os.environ.get("STOPSS_BENCH_SCALE_OUTPUT", _REPO_ROOT / "BENCH_scale.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print()
        table.print()
        print(f"wrote {out_path}")

    rows = payload["sweep"]
    per_matcher: dict[str, list[dict]] = {}
    for row in rows:
        assert row["candidates_pruned"] > 0, row
        assert row["matches"] > 0, row
        per_matcher.setdefault(row["matcher"], []).append(row)
    for matcher_rows in per_matcher.values():
        derived_counts = [row["derived_events"] for row in matcher_rows]
        assert derived_counts == sorted(derived_counts), (
            "interest closure narrowed as subscriptions grew", derived_counts
        )
        sizes = [row["interest_index_size"] for row in matcher_rows]
        assert sizes == sorted(sizes), ("interest index shrank", sizes)
