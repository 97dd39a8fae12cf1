"""Durability benchmark: journal overhead and recovery cost (PR 9).

Runs the full-semantic jobfinder publish stream through the broker
facade four ways — in-memory, write-ahead journaled, journaled with
``fsync`` per append, and journaled with aggressive snapshot
compaction — and then times :func:`~repro.broker.durability.recover`
against the journal-only and snapshot-compacted directories it left
behind.  Recorded per leg:

* ``events_per_second`` and the derived ``journal_overhead_pct`` vs the
  in-memory leg (record-only, machine-dependent — the overhead ratio is
  the number ``docs/PERFORMANCE.md`` quotes, not a gate);
* the journal counters: appends, bytes, compactions, and what the
  publish stream alone cost — ``journal_appends_per_event`` (the
  ``pub`` record, one ``outs`` and one ``acks`` for an event that
  delivers) and ``journal_bytes_per_event``, set-up records excluded;
* for the recovery legs: ``recover_seconds``, records replayed,
  deliveries dedup'd;
* memory, from a separate ``tracemalloc`` pass (tracing slows what it
  watches, so the timed legs run untraced): ``recover_peak_traced_mb``
  per recovery source, and on the compacting leg ``snapshot_bytes`` and
  ``compact_peak_traced_mb`` — the traced peak of one ``checkpoint()``
  over the recovered state.  Both are a few records' worth since the
  snapshot is a record stream, whatever ``snapshot_bytes`` is;
* ``retained_row_bytes`` (record-only), ``live`` after the publish
  stream and ``restored`` after the journal-only recovery: the traced
  bytes that forgetting every subscription releases, per retained
  delivery-log row — its columns plus its share of its publication's
  text.

Results land in ``BENCH_durability.json``
(``STOPSS_BENCH_DURABILITY_OUTPUT`` redirects a fresh run).  Wall-clock
numbers never gate; the deterministic assertions ARE the acceptance
signal: every durable leg reproduces the in-memory leg's exact
per-event ``(sub_id, generality)`` match lists and delivered-sequence
frontiers, and both recoveries rebuild those frontiers exactly with
every already-acked delivery dedup'd rather than re-sent.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
import tracemalloc

from repro.broker.broker import Broker
from repro.broker.durability import SNAPSHOT_NAME, Durability, recover
from repro.metrics import Table
from repro.model.subscriptions import Subscription
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SUBSCRIPTIONS = 300
EVENTS = 60
#: the fsync leg pays a real fsync(2) per journal append, so it runs a
#: shorter stream — the per-event cost is what the table reports
FSYNC_EVENTS = 15
MATCHER = "counting"


def _fresh_subscription(subscription: Subscription) -> Subscription:
    return Subscription(
        subscription.predicates,
        sub_id=subscription.sub_id,
        max_generality=subscription.max_generality,
    )


def _journal_volume(durability) -> tuple[int, int]:
    if durability is None:
        return 0, 0
    return durability.stats.journal_appends, durability.stats.journal_bytes


def _run_leg(jobs_kb, subscriptions, events, durability=None):
    """One publish stream through the broker facade; returns the
    per-event match lists, the publish wall-clock, the final delivered
    frontiers, and the journal ``(appends, bytes)`` the stream itself
    wrote (``(0, 0)`` in memory)."""
    broker = Broker(jobs_kb, matcher=MATCHER, durability=durability)
    try:
        broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-sub")
        broker.register_publisher("Feed", client_id="cl-pub")
        for subscription in subscriptions:
            broker.subscribe("cl-sub", _fresh_subscription(subscription))
        match_sets: list[list[tuple[str, int]]] = []
        appends, volume = _journal_volume(durability)
        started = time.perf_counter()
        for event in events:
            report = broker.publish("cl-pub", event)
            match_sets.append(
                [(m.subscription.sub_id, m.generality) for m in report.matches]
            )
        elapsed = time.perf_counter() - started
        appends_after, volume_after = _journal_volume(durability)
        frontiers = broker.notifier.delivery_frontiers()
    finally:
        broker.close()
    return match_sets, elapsed, frontiers, (appends_after - appends, volume_after - volume)


def _time_recover(jobs_kb, directory):
    started = time.perf_counter()
    broker = recover(directory, jobs_kb, matcher=MATCHER)
    elapsed = time.perf_counter() - started
    try:
        report = broker.recovery
        frontiers = broker.notifier.delivery_frontiers()
    finally:
        broker.close()
    return elapsed, report, frontiers


def _retained_row_bytes(broker, sub_ids) -> float:
    """Traced bytes per retained delivery-log row that forgetting every
    subscription in *sub_ids* releases (tracemalloc must have seen the
    rows allocated)."""
    notifier = broker.notifier
    rows = sum(len(notifier.delivery_log(sub_id)) for sub_id in sub_ids)
    held = tracemalloc.get_traced_memory()[0]
    for sub_id in sub_ids:
        notifier.forget(sub_id)
    return (held - tracemalloc.get_traced_memory()[0]) / rows


def _traced_row_bytes(jobs_kb, subscriptions, events, directory) -> dict[str, float]:
    """``retained_row_bytes`` of a traced in-memory publish stream
    (``live``) and of a traced recovery of *directory* (``restored``)."""
    sub_ids = [subscription.sub_id for subscription in subscriptions]
    tracemalloc.start()
    try:
        with Broker(jobs_kb, matcher=MATCHER) as broker:
            broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-sub")
            broker.register_publisher("Feed", client_id="cl-pub")
            for subscription in subscriptions:
                broker.subscribe("cl-sub", _fresh_subscription(subscription))
            for event in events:
                broker.publish("cl-pub", event)
            live = _retained_row_bytes(broker, sub_ids)
        with recover(directory, jobs_kb, matcher=MATCHER) as broker:
            restored = _retained_row_bytes(broker, sub_ids)
    finally:
        tracemalloc.stop()
    return {"live": live, "restored": restored}


def _traced_peaks(jobs_kb, directory):
    """``(recover_peak_mb, compact_peak_mb, snapshot_bytes)``: traced
    peak of recovering *directory*, then of one ``checkpoint()`` of the
    recovered broker (above what was live when it began), and the size
    of the snapshot that checkpoint wrote.  Rewrites the directory's
    snapshot, so it runs after the timed recoveries."""
    tracemalloc.start()
    try:
        broker = recover(directory, jobs_kb, matcher=MATCHER)
        try:
            recover_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            broker.checkpoint()
            compact_peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            broker.close()
    finally:
        tracemalloc.stop()
    snapshot_bytes = (pathlib.Path(directory) / SNAPSHOT_NAME).stat().st_size
    return recover_peak / 2**20, compact_peak / 2**20, snapshot_bytes


def test_durability_overhead_and_recovery(benchmark, jobs_kb, capsys):
    """In-memory vs journaled publish stream plus timed recovery:
    identical match lists and frontiers everywhere, measured journal
    overhead and replay cost."""
    generator = SemanticWorkloadGenerator(jobs_kb, SemanticSpec.jobs(seed=1709))
    subscriptions = generator.subscriptions(SUBSCRIPTIONS)
    events = generator.events(EVENTS)

    table = Table(
        f"Durability — full-semantic publish ({EVENTS} events, "
        f"{SUBSCRIPTIONS} subscriptions, single broker)",
        [
            "leg",
            "appends",
            "kb-journal",
            "appends/ev",
            "bytes/ev",
            "compactions",
            "ev/s",
            "overhead%",
        ],
    )
    recovery_table = Table(
        "Recovery — rebuild the broker from durable state",
        ["source", "replayed", "dedup", "resent", "snapshot", "ms"],
    )
    payload: dict[str, object] = {
        "workload": "jobfinder",
        "configuration": "full",
        "matcher": MATCHER,
        "subscriptions": SUBSCRIPTIONS,
        "events": EVENTS,
        "fsync_events": FSYNC_EVENTS,
        "cpu_count": os.cpu_count(),
        "durability_model": (
            "every durable leg must reproduce the in-memory leg's exact "
            "per-event (sub_id, generality) match lists and delivered "
            "frontiers; recovery must rebuild the frontiers exactly with "
            "acked deliveries dedup'd; events_per_second and "
            "journal_overhead_pct are record-only"
        ),
        "legs": [],
        "recoveries": [],
    }

    def sweep():
        table.rows.clear()
        recovery_table.rows.clear()
        payload["legs"] = []
        payload["recoveries"] = []
        with tempfile.TemporaryDirectory() as scratch:
            root = pathlib.Path(scratch)
            baseline, memory_elapsed, memory_frontiers, stream = _run_leg(
                jobs_kb, subscriptions, events
            )
            legs = [("in-memory", None, baseline, memory_elapsed, stream)]

            journaled = Durability(root / "journal", snapshot_every=0)
            match_sets, elapsed, frontiers, stream = _run_leg(
                jobs_kb, subscriptions, events, durability=journaled
            )
            assert match_sets == baseline, "journaling changed the match lists"
            assert frontiers == memory_frontiers, "journaling moved the frontiers"
            legs.append(("journaled", journaled, match_sets, elapsed, stream))

            fsynced = Durability(root / "fsync", snapshot_every=0, fsync=True)
            fsync_sets, fsync_elapsed, _, stream = _run_leg(
                jobs_kb, subscriptions, events[:FSYNC_EVENTS], durability=fsynced
            )
            assert fsync_sets == baseline[:FSYNC_EVENTS]
            legs.append(("journaled+fsync", fsynced, fsync_sets, fsync_elapsed, stream))

            compacted = Durability(root / "compacted", snapshot_every=100)
            compact_sets, compact_elapsed, compact_frontiers, stream = _run_leg(
                jobs_kb, subscriptions, events, durability=compacted
            )
            assert compact_sets == baseline
            assert compact_frontiers == memory_frontiers
            assert compacted.stats.snapshot_compactions > 0, (
                "the compaction leg never compacted"
            )
            legs.append(("compacting", compacted, compact_sets, compact_elapsed, stream))

            for name, durability, match_sets, elapsed, (appends_in_stream, bytes_in_stream) in legs:
                event_count = len(match_sets)
                rate = event_count / elapsed if elapsed else 0.0
                stats = durability.stats.snapshot() if durability else {}
                appends = stats.get("journal_appends", 0)
                journal_bytes = stats.get("journal_bytes", 0)
                overhead = 0.0
                if name != "in-memory" and memory_elapsed and event_count:
                    per_event = elapsed / event_count
                    overhead = 100.0 * (per_event / (memory_elapsed / EVENTS) - 1.0)
                table.add(
                    name,
                    appends,
                    round(journal_bytes / 1024, 1),
                    round(appends_in_stream / event_count, 2),
                    round(bytes_in_stream / event_count, 1),
                    stats.get("snapshot_compactions", 0),
                    round(rate, 1),
                    round(overhead, 1),
                )
                payload["legs"].append({
                    "leg": name,
                    "events": event_count,
                    "matches": sum(len(per_event) for per_event in match_sets),
                    "journal": stats,
                    "journal_appends_per_event": appends_in_stream / event_count,
                    "journal_bytes_per_event": bytes_in_stream / event_count,
                    "publish_seconds": elapsed,
                    "events_per_second": rate,
                    "journal_overhead_pct": overhead,
                })

            for name, directory in (
                ("journal-only", root / "journal"),
                ("snapshot+tail", root / "compacted"),
            ):
                recover_seconds, report, recovered_frontiers = _time_recover(
                    jobs_kb, directory
                )
                assert recovered_frontiers == memory_frontiers, (
                    "recovery lost or moved delivered frontiers",
                    name,
                )
                assert report.replayed_deliveries == 0, (
                    "a fully-acked journal re-sent deliveries",
                    name,
                )
                recovery_table.add(
                    name,
                    report.records_replayed,
                    report.dedup_drops,
                    report.replayed_deliveries,
                    "yes" if report.snapshot_loaded else "no",
                    round(1000.0 * recover_seconds, 1),
                )
                payload["recoveries"].append({
                    "source": name,
                    "records_replayed": report.records_replayed,
                    "dedup_drops": report.dedup_drops,
                    "replayed_deliveries": report.replayed_deliveries,
                    "snapshot_loaded": report.snapshot_loaded,
                    "recover_seconds": recover_seconds,
                })
            # the journal-only recovery settles every journaled delivery
            # from its acks record; the compacted one folded most of its
            # history into the snapshot instead
            assert payload["recoveries"][0]["dedup_drops"] > 0

            payload["retained_row_bytes"] = _traced_row_bytes(
                jobs_kb, subscriptions, events, root / "journal"
            )
            for entry, directory in zip(
                payload["recoveries"], (root / "journal", root / "compacted")
            ):
                recover_peak, compact_peak, snapshot_bytes = _traced_peaks(jobs_kb, directory)
                entry["recover_peak_traced_mb"] = recover_peak
            # the last pass checkpointed the compacting leg's directory
            payload["legs"][-1]["snapshot_bytes"] = snapshot_bytes
            payload["legs"][-1]["compact_peak_traced_mb"] = compact_peak

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    out_path = pathlib.Path(
        os.environ.get(
            "STOPSS_BENCH_DURABILITY_OUTPUT", _REPO_ROOT / "BENCH_durability.json"
        )
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print()
        table.print()
        print()
        recovery_table.print()
        rows = payload["retained_row_bytes"]
        print(f"retained row: {rows['live']:.1f} B live, {rows['restored']:.1f} B restored")
        print(f"wrote {out_path}")
