"""Instrumentation counters shared by the matching algorithms.

The paper's performance argument (semantic stages must not disturb "the
already good performance of the matching algorithms") is checked in the
benchmarks by comparing these counters across configurations, not just
wall-clock time — counter deltas are deterministic and machine
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MatchStats"]


@dataclass
class MatchStats:
    """Mutable per-matcher counters.

    Attributes
    ----------
    events: number of ``match()`` calls served.
    predicate_evaluations: individual predicate evaluations performed
        (the dominant cost of naive matching).
    index_probes: hash/bisect probes into predicate indexes.
    candidates: subscriptions examined as potential matches after
        index filtering.  Per serial ``match()``: subscriptions with at
        least one satisfied predicate.  Per counting ``match_batch()``:
        subscriptions some value in the batch satisfies completely on
        at least one attribute, counted once per batch.
    matches: subscriptions returned.
    inserts / removals: subscription table churn.
    batches: number of ``match_batch()`` calls served.
    probes_saved: per-pair index probes / predicate evaluations a
        batch matcher answered from its memo instead of re-probing (0
        for serial matching).  The counting matcher looks each distinct
        pair of a batch up once, so sharing *within* a batch is
        structural and costs no lookup: its ``probes_saved`` counts
        reuse across publications only.
    memo_hits / memo_misses: lookups into the matcher's
        cross-publication satisfaction memo.  For the counting matcher
        ``memo_hits + memo_misses`` per batch is the number of distinct
        ``(attribute, value)`` pairs in the batch and ``memo_hits``
        equals ``probes_saved``; a miss is at most one index probe.
    memo_invalidations: times the cross-publication memo was dropped
        (subscription churn for payloads that embed subscription state,
        knowledge-base version changes propagated by the engine).
    batch_derived: derived events received across all ``match_batch``
        calls — the matcher-side view of the expansion volume, which
        is what the engine's demand-driven interest pruning shrinks
        (``batch_derived / batches`` is the mean batch size the matcher
        actually had to cover).
    """

    events: int = 0
    predicate_evaluations: int = 0
    index_probes: int = 0
    candidates: int = 0
    matches: int = 0
    inserts: int = 0
    removals: int = 0
    batches: int = 0
    probes_saved: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_invalidations: int = 0
    batch_derived: int = 0

    def reset(self) -> None:
        self.events = 0
        self.predicate_evaluations = 0
        self.index_probes = 0
        self.candidates = 0
        self.matches = 0
        self.inserts = 0
        self.removals = 0
        self.batches = 0
        self.probes_saved = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0
        self.batch_derived = 0

    def snapshot(self) -> dict[str, int]:
        """A flat dict view for reports and assertions."""
        return {
            "events": self.events,
            "predicate_evaluations": self.predicate_evaluations,
            "index_probes": self.index_probes,
            "candidates": self.candidates,
            "matches": self.matches,
            "inserts": self.inserts,
            "removals": self.removals,
            "batches": self.batches,
            "probes_saved": self.probes_saved,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_invalidations": self.memo_invalidations,
            "batch_derived": self.batch_derived,
        }
