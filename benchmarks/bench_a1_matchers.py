"""Ablation A1 — syntactic matcher scaling.

The substrate the semantic layer wraps: brute force vs. the counting
algorithm (paper ref [1]) as the subscription table grows.  Expected
shape: counting beats naive by a factor that widens with table size
(naive is O(S·P) per event; counting touches only satisfied
predicates).
"""

from __future__ import annotations

import time

import pytest

from repro.core.pipeline import PipelineResult
from repro.core.provenance import DerivationStep, DerivedEvent
from repro.matching import create_matcher
from repro.metrics import Table
from repro.model.subscriptions import Subscription

SIZES = (1_000, 5_000, 20_000)
MATCHERS = ("naive", "counting")
#: matchers that share work across a batch's derivations
BATCH_MATCHERS = ("counting",)


def _load(matcher, subscriptions):
    for subscription in subscriptions:
        matcher.insert(Subscription(subscription.predicates, sub_id=subscription.sub_id))


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s}subs")
@pytest.mark.parametrize("name", MATCHERS)
def test_a1_match_throughput(benchmark, synthetic_workload, name, size):
    subscriptions, events = synthetic_workload
    matcher = create_matcher(name)
    _load(matcher, subscriptions[:size])
    sample = events[:50]

    def run():
        return sum(len(matcher.match(event)) for event in sample)

    matches = benchmark(run)
    assert matches >= 0


def test_a1_scaling_table(benchmark, synthetic_workload, capsys):
    subscriptions, events = synthetic_workload
    sample = events[:50]
    table = Table(
        "A1 — matcher scaling (ms per event)",
        [
            "subscriptions",
            "naive",
            "counting",
            "naive/counting",
        ],
    )
    timings: dict[tuple[str, int], float] = {}

    def sweep():
        table.rows.clear()
        timings.clear()
        for size in SIZES:
            row: dict[str, float] = {}
            reference = None
            for name in MATCHERS:
                matcher = create_matcher(name)
                _load(matcher, subscriptions[:size])
                started = time.perf_counter()
                total = sum(len(matcher.match(event)) for event in sample)
                elapsed = (time.perf_counter() - started) / len(sample)
                row[name] = elapsed * 1000
                timings[(name, size)] = elapsed
                if reference is None:
                    reference = total
                else:
                    assert total == reference, f"{name} diverged at {size}"
            table.add(
                size, row["naive"], row["counting"],
                row["naive"] / max(row["counting"], 1e-9),
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        table.print()

    # shape: at the largest size the indexed matcher wins clearly.
    largest = SIZES[-1]
    assert timings[("naive", largest)] > timings[("counting", largest)]


# -- batched matching: cross-derivation predicate sharing -----------------------

_BATCH_WIDTH = 8  # siblings per publication, each rewriting one pair


def _synthetic_batches(events, width=_BATCH_WIDTH):
    """Expansion batches shaped like the semantic pipeline's output:
    each sibling rewrites exactly one attribute of the root (values
    borrowed from other events, so probes stay realistic)."""
    pools: dict[str, list] = {}
    for event in events:
        for attribute, value in event.items():
            pools.setdefault(attribute, []).append(value)
    batches = []
    for index, event in enumerate(events):
        root = DerivedEvent.original(event)
        derived = [root]
        attributes = event.attributes()
        for k in range(width):
            attribute = attributes[k % len(attributes)]
            pool = pools[attribute]
            alternative = pool[(index + k + 1) % len(pool)]
            if alternative == event[attribute]:
                continue
            step = DerivationStep(
                stage="hierarchy",
                description=f"rewrite {attribute}",
                attribute=attribute,
                generality=1 + k // len(attributes),
            )
            derived.append(root.extend(event.with_value(attribute, alternative), step))
        batches.append(PipelineResult.from_derived(event, derived))
    return batches


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s}subs")
@pytest.mark.parametrize("name", BATCH_MATCHERS)
def test_a1_batch_throughput(benchmark, synthetic_workload, name, size):
    subscriptions, events = synthetic_workload
    matcher = create_matcher(name)
    _load(matcher, subscriptions[:size])
    batches = _synthetic_batches(events[:50])

    def run():
        return sum(len(matcher.match_batch(batch)) for batch in batches)

    matches = benchmark(run)
    assert matches >= 0


def test_a1_batch_vs_serial_table(benchmark, synthetic_workload, capsys):
    """Predicate-evaluation and wall-clock comparison of one
    ``match_batch`` pass against the per-derived-event loop it
    replaced, at the largest table size."""
    subscriptions, events = synthetic_workload
    size = SIZES[-1]
    batches = _synthetic_batches(events[:50])
    table = Table(
        f"A1 — batched vs serial matching ({size} subscriptions, "
        f"{_BATCH_WIDTH + 1} derived/publication)",
        [
            "matcher",
            "serial evals",
            "batch evals",
            "evals ratio",
            "probes saved",
            "serial ms",
            "batch ms",
        ],
    )
    ratios: dict[str, float] = {}

    def sweep():
        table.rows.clear()
        ratios.clear()
        for name in BATCH_MATCHERS:
            matcher = create_matcher(name)
            _load(matcher, subscriptions[:size])

            matcher.stats.reset()
            started = time.perf_counter()
            serial_best: dict[str, int] = {}
            for batch in batches:
                for derived in batch.derived:
                    generality = derived.generality
                    for sub in matcher.match(derived.event):
                        known = serial_best.get(sub.sub_id)
                        if known is None or generality < known:
                            serial_best[sub.sub_id] = generality
            serial_elapsed = time.perf_counter() - started
            serial_evals = matcher.stats.predicate_evaluations

            matcher.stats.reset()
            started = time.perf_counter()
            batch_best: dict[str, int] = {}
            for batch in batches:
                for sub_id, (generality, _) in matcher.match_batch(batch).items():
                    known = batch_best.get(sub_id)
                    if known is None or generality < known:
                        batch_best[sub_id] = generality
            batch_elapsed = time.perf_counter() - started
            batch_evals = matcher.stats.predicate_evaluations

            assert batch_best == serial_best, f"{name} batch/serial diverged"
            ratio = serial_evals / max(batch_evals, 1)
            ratios[name] = ratio
            table.add(
                name,
                serial_evals,
                batch_evals,
                round(ratio, 2),
                matcher.stats.probes_saved,
                round(serial_elapsed * 1000, 2),
                round(batch_elapsed * 1000, 2),
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        table.print()

    # the acceptance bar: cross-derivation sharing at least halves the
    # predicate evaluations on sibling-heavy batches.
    assert ratios["counting"] >= 2.0
