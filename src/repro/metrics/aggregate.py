"""Merging engine statistics across shard replicas.

The sharded broker runs N independent engines, each with its own
counters, caches, and interest index.  Operators (and ``stopss demo``)
want one aggregate view with the same shape as a single
:meth:`~repro.core.engine.SToPSS.stats` snapshot, so per-shard and
aggregate views print through the same code path.

Merging rules:

* numeric counters **sum** across shards (work is additive);
* keys in :data:`MAX_KEYS` take the **max** — ``publications`` counts
  logical publications (every shard sees every publish, so summing
  would multiply by the shard count), ``capacity``/``version``/
  ``semantic_epoch`` are per-shard configuration, not work;
* booleans **or** together (``interest.enabled`` is true when any
  shard can prune);
* strings collapse to the common value, or ``"mixed"`` when shards
  disagree (a reconfigure that failed half-way would surface here);
* ``*_rate`` fields are never summed: the two rates whose numerator
  and denominator travel beside them (``hit_rate`` next to
  ``hits``/``misses``, ``prune_hit_rate`` next to
  ``candidates_pruned``/``prune_checks``) are **recomputed** from the
  merged counters; any other rate falls back to the plain mean across
  shards (approximate, but never the nonsense a sum would be);
* ``None`` values — a counter a codec-deserialized snapshot simply
  lacks — are skipped rather than poisoning the merge to ``"mixed"``.

Snapshots from the process-executor data plane merge as received: they
cross the pipe by pickle, which keeps int keys and tuples intact.

:func:`publish_path_summary` is the defensive extraction layer on top:
every field the ``stopss demo`` publish table prints, via ``.get`` with
zero defaults, so engine variants that lack a counter (third-party
engines, syntactic mode, merged shard views) render as 0 instead of
raising ``KeyError``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "merge_stats",
    "publish_path_summary",
    "supervision_summary",
]

#: keys whose values are configuration or logical counts shared by all
#: shards — merged by max, not sum
MAX_KEYS = frozenset({"publications", "capacity", "version", "semantic_epoch"})


def _merge_values(key: object, values: list[object]) -> object:
    # nested maps may key by non-strings (derived_histogram buckets)
    values = [value for value in values if value is not None]
    if not values:
        return None
    if all(isinstance(value, bool) for value in values):
        return any(values)
    if all(isinstance(value, (int, float)) for value in values):
        if key in MAX_KEYS:
            return max(values)
        if isinstance(key, str) and key.endswith("_rate"):
            # a summed rate is meaningless; the known rates are
            # recomputed from merged counters afterwards, unknown ones
            # keep the mean as the least-wrong aggregate.
            return sum(values) / len(values)
        return sum(values)
    if all(isinstance(value, Mapping) for value in values):
        return merge_stats(values)  # type: ignore[arg-type]
    if all(values[0] == value for value in values[1:]):
        return values[0]
    return "mixed"


def _recompute_rates(merged: dict[str, object]) -> None:
    """Replace summed ``*hit_rate`` fields with the ratio of the merged
    numerator and denominator sitting next to them."""
    if "hit_rate" in merged:
        hits = merged.get("hits", 0)
        lookups = hits + merged.get("misses", 0)  # type: ignore[operator]
        merged["hit_rate"] = (hits / lookups) if lookups else 0.0  # type: ignore[operator]
    if "prune_hit_rate" in merged:
        pruned = merged.get("candidates_pruned", 0)
        checks = merged.get("prune_checks", 0)
        merged["prune_hit_rate"] = (pruned / checks) if checks else 0.0  # type: ignore[operator]


def merge_stats(snapshots: Sequence[Mapping[str, object]]) -> dict[str, object]:
    """One aggregate stats dict over per-shard snapshots, preserving
    the union of their keys (see the module docstring for the
    per-field rules).  A single snapshot merges to a plain copy, so
    one code path serves sharded and unsharded views alike."""
    merged: dict[str, object] = {}
    # first-seen key order keeps the merged dict deterministic across
    # runs (a plain set union would inherit salted-hash ordering and
    # churn recorded JSON payloads; sorted() would choke on the
    # non-string histogram keys nested maps legitimately carry)
    for key in dict.fromkeys(key for snapshot in snapshots for key in snapshot):
        values = [snapshot[key] for snapshot in snapshots if key in snapshot]
        merged[key] = _merge_values(key, values)
    _recompute_rates(merged)
    return merged


def publish_path_summary(
    engine_stats: Mapping[str, object],
    result_cache: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """The ``stopss demo`` publish-table row for one engine-stats
    snapshot (single engine or merged shard aggregate), with zero
    defaults for any counter the engine variant does not expose."""

    def section(name: str) -> Mapping[str, object]:
        value = engine_stats.get(name)
        return value if isinstance(value, Mapping) else {}

    matcher = section("matcher_stats")
    interest = section("interest")
    cached = result_cache if result_cache is not None else {}
    return {
        "batches": matcher.get("batches", 0),
        "derived": engine_stats.get("derived_events", 0),
        "pruned": interest.get("candidates_pruned", 0),
        "prune_hit_rate": interest.get("prune_hit_rate", 0.0),
        "predicate_evaluations": matcher.get("predicate_evaluations", 0),
        "probes_saved": matcher.get("probes_saved", 0),
        "memo_hits": matcher.get("memo_hits", 0),
        "result_cache_hit_rate": cached.get("hit_rate", 0.0),
    }


def supervision_summary(engine_stats: Mapping[str, object]) -> dict[str, object]:
    """The ``stopss demo`` health-table row for one engine-stats
    snapshot: the sharded data plane's recovery counters, with safe
    defaults for engines that have no ``sharding`` section (a plain
    single engine).

    Counters are all zero exactly when the run never needed a recovery
    intervention — the chaos acceptance criteria assert on this."""

    def section(source: Mapping[str, object], name: str) -> Mapping[str, object]:
        value = source.get(name)
        return value if isinstance(value, Mapping) else {}

    supervision = section(section(engine_stats, "sharding"), "supervision")
    restarts = supervision.get("worker_restarts", 0)
    degraded = supervision.get("degraded_publishes", 0)
    return {
        "worker_restarts": restarts,
        "degraded_publishes": degraded,
        "stale_replies_discarded": supervision.get("stale_replies_discarded", 0),
        "restart_seconds": supervision.get("restart_seconds", 0.0),
        "recoveries": restarts + degraded,  # type: ignore[operator]
    }


def durability_summary(stats: Mapping[str, object]) -> dict[str, object]:
    """The durability health row for one broker-stats snapshot: the
    write-ahead journal and recovery counters, with safe all-zero
    defaults (and ``enabled: False``) for brokers that carry no
    ``durability`` section — an in-memory broker is simply a broker
    whose journal never needed to exist."""
    section = stats.get("durability")
    if not isinstance(section, Mapping):
        section = {}
    return {
        "enabled": bool(section),
        "journal_appends": section.get("journal_appends", 0),
        "journal_bytes": section.get("journal_bytes", 0),
        "snapshot_compactions": section.get("snapshot_compactions", 0),
        "torn_tail_truncations": section.get("torn_tail_truncations", 0),
        "replayed_deliveries": section.get("replayed_deliveries", 0),
        "dedup_drops": section.get("dedup_drops", 0),
        "replay_skips": section.get("replay_skips", 0),
    }
