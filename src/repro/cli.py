"""Command-line interface: ``stopss``.

Subcommands:

``stopss demo``
    Run the job-finder demonstration scenario in both modes and print
    the comparison (paper §4 in one command).
``stopss match``
    Match one event against one subscription, explaining the result.
``stopss explain``
    Show the full semantic expansion of an event.
``stopss serve``
    Serve the demonstration web application over HTTP.
``stopss kb``
    Print knowledge-base statistics.
``stopss recover``
    Rebuild a broker from a ``--durable`` journal directory and print
    what recovery found.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.broker.broker import Broker
from repro.broker.durability import recover
from repro.broker.sharding import DEFAULT_REQUEST_TIMEOUT, EXECUTORS, ShardedBroker
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import ConfigError, ReproError
from repro.metrics.aggregate import (
    durability_summary,
    publish_path_summary,
    supervision_summary,
)
from repro.metrics.report import Table
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.domains import build_demo_knowledge_base, build_jobs_knowledge_base
from repro.webapp.app import JobFinderWebApp
from repro.workload.jobfinder import JobFinderScenario, JobFinderSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopss",
        description="S-ToPSS: Semantic Toronto Publish/Subscribe System (VLDB 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the job-finder demo in both modes")
    demo.add_argument("--companies", type=int, default=10)
    demo.add_argument("--candidates", type=int, default=30)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--shards",
        type=int,
        default=1,
        help="subscription-partitioned engine replicas behind the broker "
        "(1 = the plain single engine; values < 1 are rejected)",
    )
    demo.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="serial",
        help="publish fan-out executor when --shards > 1: serial = inline, "
        "process = one forked worker process per shard (real multicore "
        "wall-clock; see docs/CONCURRENCY.md)",
    )
    demo.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound on one shard-worker round-trip before the worker is "
        "presumed hung and disposed (process executor; default "
        f"{int(DEFAULT_REQUEST_TIMEOUT)}s)",
    )
    demo.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="run the demo trace under a seeded FaultPlan that kills, "
        "hangs, and corrupts shard workers mid-stream (requires "
        "--shards > 1 and --executor process) and print the recovery "
        "health columns; same seed, same faults — see docs/RESILIENCE.md",
    )
    demo.add_argument(
        "--durable",
        default=None,
        metavar="DIR",
        help="journal each mode's broker under DIR/<mode> (write-ahead "
        "journal + compacted snapshots); `stopss recover DIR/semantic` "
        "rebuilds it — see docs/DURABILITY.md.  The directory must not "
        "already hold state (recover it instead)",
    )

    match = sub.add_parser("match", help="match one event against one subscription")
    match.add_argument("subscription", help='e.g. "(university = Toronto) and (degree = PhD)"')
    match.add_argument("event", help='e.g. "(school, Toronto)(degree, PhD)"')
    match.add_argument("--syntactic", action="store_true", help="disable the semantic stage")
    match.add_argument("--max-generality", type=int, default=None)

    explain = sub.add_parser("explain", help="show an event's semantic expansion")
    explain.add_argument("event")
    explain.add_argument("--max-generality", type=int, default=None)

    serve = sub.add_parser("serve", help="serve the demo web application")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)

    sub.add_parser("kb", help="print knowledge-base statistics")

    recover_cmd = sub.add_parser(
        "recover", help="rebuild a broker from a durable journal directory"
    )
    recover_cmd.add_argument(
        "directory", help="a journal directory, e.g. DIR/semantic from `stopss demo --durable DIR`"
    )
    recover_cmd.add_argument(
        "--mode",
        choices=("semantic", "syntactic"),
        default="semantic",
        help="the configuration the journaled broker was *built* with "
        "(reconfigurations are journaled and replayed; the construction-"
        "time configuration is the operator's to repeat)",
    )
    recover_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        help="recover into a sharded broker with this many replicas "
        "(journaled churn replays through the normal subscribe path, so "
        "routing rebuilds for any shard count)",
    )

    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.chaos is not None and (args.shards < 2 or args.executor != "process"):
        raise ConfigError(
            "--chaos needs a worker fleet to fault: pass --shards > 1 "
            "and --executor process"
        )
    spec = JobFinderSpec(
        n_companies=args.companies, n_candidates=args.candidates, seed=args.seed
    )
    table = Table(
        "job-finder demo: semantic vs. syntactic",
        ["mode", "subscriptions", "resumes", "matches", "semantic-only", "delivered"],
    )
    publish_table = Table(
        "publish path (batched matching)",
        [
            "mode",
            "batches",
            "derived",
            "pruned",
            "prune-hit%",
            "pred-evals",
            "probes-saved",
            "memo-hits",
            "result-hit%",
        ],
    )
    shard_table = Table(
        f"per-shard view ({args.shards} shards, {args.executor} executor)",
        [
            "mode",
            "shard",
            "executor",
            "subs",
            "derived",
            "pruned",
            "pred-evals",
            "busy-cpu-ms",
        ],
    )
    health_table = Table(
        "data-plane health (recovery counters)"
        + (f" — chaos seed {args.chaos}" if args.chaos is not None else ""),
        ["mode", "restarts", "degraded", "stale-drop", "restart-ms"],
    )
    durable_table = Table(
        "durability (write-ahead journal)",
        ["mode", "appends", "bytes", "compactions", "torn", "replayed", "dedup"],
    )
    for mode, config in (
        ("semantic", SemanticConfig.semantic()),
        ("syntactic", SemanticConfig.syntactic()),
    ):
        durability = os.path.join(args.durable, mode) if args.durable else None
        scenario = JobFinderScenario(build_jobs_knowledge_base(), spec)
        if args.shards == 1:
            broker = Broker(build_jobs_knowledge_base(), config=config, durability=durability)
        else:
            # a FaultPlan is consumed as it fires, so each mode gets a
            # fresh plan derived from the same seed (identical schedule)
            fault_plan = (
                FaultPlan.seeded(
                    args.chaos,
                    shards=args.shards,
                    ops=args.companies + args.candidates,
                )
                if args.chaos is not None
                else None
            )
            # any other value routes through the sharded broker, whose
            # own validation rejects shards < 1 (exit 2, not a silent
            # fall-back to the single engine)
            broker = ShardedBroker(
                build_jobs_knowledge_base(),
                config=config,
                shards=args.shards,
                executor=args.executor,
                request_timeout=args.shard_timeout,
                fault_plan=fault_plan,
                durability=durability,
            )
        report = scenario.run(broker)
        table.add(
            mode,
            report.subscriptions,
            report.publications,
            report.matches,
            report.semantic_matches,
            report.deliveries,
        )
        # one defensive extraction path for every engine shape — the
        # plain engine, the sharded aggregate, and any variant that
        # lacks a counter renders as 0 instead of a KeyError.
        engine_stats = broker.engine.stats()
        summary = publish_path_summary(engine_stats, broker.dispatcher.result_cache_info())
        publish_table.add(
            mode,
            summary["batches"],
            summary["derived"],
            summary["pruned"],
            round(100.0 * summary["prune_hit_rate"], 1),
            summary["predicate_evaluations"],
            summary["probes_saved"],
            summary["memo_hits"],
            round(100.0 * summary["result_cache_hit_rate"], 1),
        )
        sharding = engine_stats.get("sharding")
        if isinstance(sharding, dict):
            health = supervision_summary(engine_stats)
            health_table.add(
                mode,
                health["worker_restarts"],
                health["degraded_publishes"],
                health["stale_replies_discarded"],
                round(1000.0 * health["restart_seconds"], 1),
            )
            for index, shard_stats in enumerate(sharding.get("shard_stats", ())):
                shard_summary = publish_path_summary(shard_stats)
                shard_table.add(
                    mode,
                    index,
                    sharding.get("executor", "?"),
                    shard_stats.get("subscriptions", 0),
                    shard_summary["derived"],
                    shard_summary["pruned"],
                    shard_summary["predicate_evaluations"],
                    round(1000.0 * sharding["busy_cpu_seconds"][index], 1),
                )
        if durability is not None:
            summary = durability_summary(broker.stats())
            durable_table.add(
                mode,
                summary["journal_appends"],
                summary["journal_bytes"],
                summary["snapshot_compactions"],
                summary["torn_tail_truncations"],
                summary["replayed_deliveries"],
                summary["dedup_drops"],
            )
        if hasattr(broker, "close"):
            broker.close()
    table.print()
    print()
    publish_table.print()
    if shard_table.rows:
        print()
        shard_table.print()
    if health_table.rows:
        print()
        health_table.print()
    if durable_table.rows:
        print()
        durable_table.print()
        print(f"journals written under {args.durable} — `stopss recover {args.durable}/semantic`")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    config = (
        SemanticConfig.syntactic()
        if args.syntactic
        else SemanticConfig(max_generality=args.max_generality)
    )
    engine = SToPSS(build_demo_knowledge_base(), config=config)
    subscription = parse_subscription(args.subscription, sub_id="cli-sub")
    engine.subscribe(subscription)
    matches = engine.publish(parse_event(args.event, event_id="cli-event"))
    if not matches:
        print("NO MATCH")
        return 1
    for match in matches:
        print("MATCH")
        print(match.explain())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    config = SemanticConfig(max_generality=args.max_generality)
    engine = SToPSS(build_demo_knowledge_base(), config=config)
    result = engine.explain(parse_event(args.event))
    print(f"{len(result.derived)} derived event(s), {result.iterations} iteration(s)")
    if result.truncated:
        print("WARNING: expansion truncated by max_derived_events")
    for derived in result.derived:
        print()
        print(derived.explain())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - interactive
    webapp = JobFinderWebApp(Broker(build_demo_knowledge_base()))
    webapp.serve(args.host, args.port)
    return 0


def _cmd_kb(args: argparse.Namespace) -> int:
    kb = build_demo_knowledge_base()
    stats = kb.stats()
    table = Table(
        f"knowledge base {stats['name']!r}",
        ["domain", "concepts", "edges", "roots", "leaves", "depth"],
    )
    for domain, tstats in stats["domains"].items():  # type: ignore[union-attr]
        table.add(
            domain,
            tstats["concepts"],
            tstats["edges"],
            tstats["roots"],
            tstats["leaves"],
            tstats["depth"],
        )
    table.print()
    print(f"attribute synonyms: {stats['attribute_synonyms']}")
    print(f"value synonyms:     {stats['value_synonyms']}")
    print(f"mapping rules:      {stats['mapping_rules']}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    config = (
        SemanticConfig.semantic() if args.mode == "semantic" else SemanticConfig.syntactic()
    )
    kb = build_jobs_knowledge_base()
    if args.shards == 1:
        broker = recover(args.directory, kb, config=config)
    else:
        broker = recover(
            args.directory,
            kb,
            broker_factory=lambda kb, **kw: ShardedBroker(
                kb, shards=args.shards, config=config, **kw
            ),
        )
    try:
        report = broker.recovery
        stats = broker.stats()
        frontiers = broker.notifier.delivery_frontiers()
        table = Table(
            f"recovered broker state ({args.directory})",
            ["clients", "subscriptions", "replayed-records", "frontier-subs", "max-frontier"],
        )
        table.add(
            stats["clients"],
            stats["subscriptions"],
            report.records_replayed,
            len(frontiers),
            max(frontiers.values(), default=0),
        )
        table.print()
        print()
        durable = Table(
            "recovery counters",
            ["snapshot", "torn-tails", "replayed-deliveries", "dedup-drops", "skips"],
        )
        durable.add(
            "loaded" if report.snapshot_loaded
            else "discarded" if report.snapshot_discarded
            else "none",
            report.torn_tail_truncations,
            report.replayed_deliveries,
            report.dedup_drops,
            report.replay_skips,
        )
        durable.print()
    finally:
        broker.close()
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "match": _cmd_match,
    "explain": _cmd_explain,
    "serve": _cmd_serve,
    "kb": _cmd_kb,
    "recover": _cmd_recover,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
