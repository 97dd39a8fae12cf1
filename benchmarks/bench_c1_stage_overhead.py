"""Experiment C1 — "the semantic stage … very fast without affecting
already good performance of the matching algorithms" (paper §3.2).

Measures publish latency over a 400-subscription table for each stage
configuration, and separately the bare matcher on the same root events,
isolating the semantic stage's overhead.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from benchmarks.conftest import build_engine
from repro.core.config import SemanticConfig
from repro.metrics import Table

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CONFIGS = {
    "syntactic": SemanticConfig.syntactic(),
    "synonyms": SemanticConfig.synonyms_only(),
    "syn+hier(g<=2)": SemanticConfig(enable_mappings=False, max_generality=2),
    "full(g<=2)": SemanticConfig(max_generality=2),
    "full": SemanticConfig(),
}

#: matcher rows of the batched-publish benchmark (``BENCH_publish.json``)
PUBLISH_MATCHERS = ("counting",)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_c1_publish_latency_by_configuration(benchmark, jobs_kb, semantic_workload, name):
    subscriptions, events = semantic_workload
    engine = build_engine(jobs_kb, subscriptions, CONFIGS[name])

    def run():
        total = 0
        for event in events[:25]:
            total += len(engine.publish(event))
        return total

    matches = benchmark(run)
    if name == "syntactic":
        assert matches >= 0
    else:
        assert matches > 0


def test_c1_overhead_table(benchmark, jobs_kb, semantic_workload, capsys):
    """Per-configuration work counters: match cost scales with derived
    events, not with stage bookkeeping (C1's hash-structure claim)."""
    import time

    subscriptions, events = semantic_workload
    table = Table(
        "C1 — semantic stage overhead (400 subscriptions, 100 events)",
        ["configuration", "matches", "derived/event", "ms/event"],
    )

    def sweep():
        table.rows.clear()
        for name, config in CONFIGS.items():
            engine = build_engine(jobs_kb, subscriptions, config)
            started = time.perf_counter()
            matches = 0
            derived = 0
            for event in events:
                derived += len(engine.explain(event).derived)
                matches += len(engine.publish(event))
            elapsed = time.perf_counter() - started
            table.add(name, matches, derived / len(events), 1000 * elapsed / len(events))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        table.print()


def _serial_publish_evals(engine, events) -> tuple[int, dict[str, int]]:
    """Replay the pre-batching publish loop (one ``match`` per derived
    event) and return its predicate-evaluation total and match minima.

    The expansion runs under the engine's *active* interest view — the
    same demand-driven batch ``publish`` matches — so the serial/batch
    ratio isolates *batching*, and the two paths see identical
    truncation behavior under ``max_derived_events``."""
    best: dict[str, int] = {}
    before = engine.matcher.stats.predicate_evaluations
    for event in events:
        result = engine.pipeline.process_event(event, interest=engine.active_interest)
        for derived in result.derived:
            generality = derived.generality
            for sub in engine.matcher.match(derived.event):
                known = best.get(sub.sub_id)
                if known is None or generality < known:
                    best[sub.sub_id] = generality
    return engine.matcher.stats.predicate_evaluations - before, best


def test_c1_batch_vs_serial_publish(benchmark, jobs_kb, semantic_workload, capsys):
    """The tentpole's proof: one batched publish pass evaluates ≥2x
    fewer predicates than the per-derived-event loop on the jobfinder
    workload, on the counting matcher in every stage configuration.
    Results (plus a per-event trajectory with the trace replayed once,
    exercising the matcher's cross-publication memo) are recorded in
    ``BENCH_publish.json``.
    """
    import time

    subscriptions, events = semantic_workload
    table = Table(
        "C1 — batched publish vs serial re-match (400 subscriptions, 100 events)",
        [
            "configuration",
            "matcher",
            "serial evals",
            "batch evals",
            "evals ratio",
            "probes saved",
            "pruned",
            "events/s",
        ],
    )
    payload: dict[str, object] = {
        "workload": "jobfinder",
        "subscriptions": len(subscriptions),
        "events": len(events),
        "configurations": [],
    }

    def sweep():
        table.rows.clear()
        payload["configurations"] = []
        for config_name, config in CONFIGS.items():
            for matcher_name in PUBLISH_MATCHERS:
                serial_engine = build_engine(jobs_kb, subscriptions, config, matcher=matcher_name)
                serial_evals, serial_best = _serial_publish_evals(serial_engine, events)

                engine = build_engine(jobs_kb, subscriptions, config, matcher=matcher_name)
                before = engine.matcher.stats.predicate_evaluations
                batch_best: dict[str, int] = {}
                started = time.perf_counter()
                trajectory = []
                first_pass_evals = 0
                first_pass_probes_saved = 0
                first_pass_seconds = 0.0
                interest: dict[str, object] = {}
                published = 0
                # replay the trace twice: the second pass repeats every
                # publication, exercising the cross-publication memos.
                for pass_index in range(2):
                    for index, event in enumerate(events):
                        for match in engine.publish(event):
                            sub_id = match.subscription.sub_id
                            known = batch_best.get(sub_id)
                            if known is None or match.generality < known:
                                batch_best[sub_id] = match.generality
                        published += 1
                        if index % 20 == 19:
                            trajectory.append({
                                "pass": pass_index,
                                "published": published,
                                "predicate_evaluations":
                                    engine.matcher.stats.predicate_evaluations - before,
                                "probes_saved": engine.matcher.stats.probes_saved,
                            })
                    if pass_index == 0:
                        # measured directly, in the same window as the
                        # serial baseline (one pass over the trace)
                        first_pass_evals = engine.matcher.stats.predicate_evaluations - before
                        first_pass_probes_saved = engine.matcher.stats.probes_saved
                        first_pass_seconds = time.perf_counter() - started
                        interest = engine.interest_info()
                elapsed = time.perf_counter() - started
                stats = engine.matcher.stats

                # tolerance-filtered serial minima must agree with publish
                originals = {s.sub_id: s for s in engine.subscriptions()}
                filtered = {
                    sub_id: generality
                    for sub_id, generality in serial_best.items()
                    if originals[sub_id].max_generality is None
                    or generality <= originals[sub_id].max_generality
                }
                assert batch_best == filtered, (
                    f"{config_name}/{matcher_name} batch diverged from serial"
                )

                ratio = serial_evals / max(first_pass_evals, 1)
                total_events = 2 * len(events)
                table.add(
                    config_name, matcher_name, serial_evals, first_pass_evals,
                    round(ratio, 2), first_pass_probes_saved,
                    interest["candidates_pruned"],
                    round(total_events / elapsed, 1) if elapsed else 0.0,
                )
                payload["configurations"].append({
                    "configuration": config_name,
                    "matcher": matcher_name,
                    # one-pass window, directly comparable to serial:
                    "serial_predicate_evaluations": serial_evals,
                    "batch_predicate_evaluations": first_pass_evals,
                    "evals_ratio": ratio,
                    "probes_saved": first_pass_probes_saved,
                    # demand-driven expansion (gated like probes_saved)
                    "candidates_pruned": interest["candidates_pruned"],
                    "prune_checks": interest["prune_checks"],
                    "prune_hit_rate": interest["prune_hit_rate"],
                    "interest_index_size": interest["interest_index_size"],
                    # two-pass fields (trace replayed once more to
                    # exercise the cross-publication memos):
                    "probes_saved_two_passes": stats.probes_saved,
                    "derived_histogram": {
                        str(k): v for k, v in sorted(
                            engine.derived_histogram().items()
                        )
                    },
                    # wall-clock throughput (record-only in CI: noisy
                    # across machines, but the trajectory the ROADMAP's
                    # "fast as the hardware allows" goal is steered by)
                    "publish_seconds": first_pass_seconds,
                    "events_per_second_first_pass":
                        len(events) / first_pass_seconds if first_pass_seconds else 0.0,
                    "publish_seconds_two_passes": elapsed,
                    "events_per_second":
                        total_events / elapsed if elapsed else 0.0,
                    "trajectory": trajectory,
                })

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    # the CI benchmark-regression gate redirects the fresh run so it
    # can be diffed against the committed baseline
    out_path = pathlib.Path(
        os.environ.get("STOPSS_BENCH_OUTPUT", _REPO_ROOT / "BENCH_publish.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print()
        table.print()
        print(f"wrote {out_path}")

    # acceptance: ≥2x fewer predicate evaluations wherever the semantic
    # stage actually multiplies events (expansion factor ≥ 2); where it
    # does not (syntactic / synonyms-only rewrites), batching must at
    # least never cost extra evaluations.
    for entry in payload["configurations"]:  # type: ignore[union-attr]
        histogram = {int(k): v for k, v in entry["derived_histogram"].items()}
        publications = sum(histogram.values())
        derived_per_event = sum(k * v for k, v in histogram.items()) / publications
        if derived_per_event >= 2.0:
            assert entry["evals_ratio"] >= 2.0, entry
        else:
            assert entry["evals_ratio"] >= 0.99, entry


# -- the matching kernel alone ----------------------------------------------------

#: kernel benchmark rows: each matcher name with its row key in
#: ``BENCH_kernel.json`` (the keys the regression gate matches against
#: the committed baseline)
KERNEL_ROWS = {"counting": "counting@python"}


def test_c1_kernel_backends(benchmark, jobs_kb, semantic_workload, capsys):
    """The matching kernel on the full-semantic jobfinder trace:
    ``match_batch`` over pre-expanded batches, with the matcher memo
    filled by a cold ``publish`` pass (end-to-end throughput is capped
    by expansion cost, which no matching kernel can touch, so the timed
    passes leave it out).  Emits ``BENCH_kernel.json``: wall-clock ev/s
    record-only, ``probes_saved`` deterministic and gated by
    ``check_bench_regression.py``."""
    import time

    subscriptions, events = semantic_workload
    table = Table(
        "C1 — kernel: match_batch over pre-expanded batches "
        "(full semantic, 400 subscriptions, 100 events)",
        [
            "matcher",
            "cold publish ev/s",
            "kernel ev/s",
        ],
    )
    payload: dict[str, object] = {
        "workload": "jobfinder",
        "configuration": "full",
        "subscriptions": len(subscriptions),
        "events": len(events),
        "configurations": [],
    }

    def sweep():
        table.rows.clear()
        payload["configurations"] = []
        for matcher_name, row_key in KERNEL_ROWS.items():
            engine = build_engine(jobs_kb, subscriptions, SemanticConfig(), matcher=matcher_name)
            started = time.perf_counter()
            for event in events:
                engine.publish(event)
            cold_seconds = time.perf_counter() - started
            # kernel passes: the same trace expanded once up front,
            # counters sampled over one pass (deterministic — the memo
            # is hot)
            batches = [
                engine.pipeline.process_event(event, interest=engine.active_interest)
                for event in events
            ]
            stats = engine.matcher.stats
            counters_before = stats.snapshot()
            warm_seconds = None
            for _ in range(3):
                started = time.perf_counter()
                for batch in batches:
                    engine.matcher.match_batch(batch)
                elapsed = time.perf_counter() - started
                if warm_seconds is None or elapsed < warm_seconds:
                    warm_seconds = elapsed
            counters_after = stats.snapshot()
            warm = {
                key: (counters_after.get(key, 0) - counters_before.get(key, 0)) // 3
                for key in counters_after
            }
            cold_rate = len(events) / cold_seconds if cold_seconds else 0.0
            warm_rate = len(events) / warm_seconds if warm_seconds else 0.0
            table.add(matcher_name, round(cold_rate, 1), round(warm_rate, 1))
            payload["configurations"].append({
                # the regression gate keys rows by (configuration,
                # matcher); the kernel dimension rides in "matcher"
                "configuration": "full",
                "matcher": row_key,
                "matcher_name": matcher_name,
                # deterministic kernel counters, one warm pass:
                "batch_predicate_evaluations": warm.get("predicate_evaluations", 0),
                "probes_saved": warm.get("probes_saved", 0),
                # wall-clock (record-only in CI): the cold publish
                # pass, then the best kernel pass under the field
                # names the regression report reads
                "publish_seconds": cold_seconds,
                "events_per_second_first_pass": cold_rate,
                "publish_seconds_two_passes": warm_seconds,
                "events_per_second": warm_rate,
            })

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    out_path = pathlib.Path(
        os.environ.get("STOPSS_KERNEL_BENCH_OUTPUT", _REPO_ROOT / "BENCH_kernel.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    with capsys.disabled():
        print()
        table.print()
        print(f"wrote {out_path}")
