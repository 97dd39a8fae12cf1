"""Vectorized (numpy) variant of the cluster matcher.

The cluster matcher walks a derivation batch with per-subscription
python loops; :class:`VectorizedClusterMatcher` (registry name
``"cluster-numpy"``) evaluates a whole
:meth:`~repro.matching.base.MatchingAlgorithm.match_batch` as columnar
numpy operations instead.  It encodes the batch as an
``(n_events, n_attributes)`` matrix of per-column dense value codes
(code 0 = attribute absent).  Candidate cluster members are
deduplicated by ``(cluster key, residual predicate keys)`` — sibling
subscriptions sharing access pair and residual shape evaluate once —
and each row's match mask is its access-equality column compare ANDed
with boolean lookup tables gathered per residual predicate.  LUT
entries are filled through the inherited cross-publication residual
memo, so every distinct ``(predicate, value)`` outcome is still
computed exactly once per memo lifetime.

It returns bit-identical results to the scalar ``"cluster"`` matcher —
the equivalence property tests pin match sets *and* reported
generalities across interning/pruning toggles.

A kernel is chosen by matcher name, never by configuration: ask for
``matcher="cluster-numpy"``.  numpy is a soft dependency: this module
imports cleanly without it and the name is simply not registered, so
asking for it is the usual unknown-matcher
:class:`~repro.errors.MatchingError`.  It is also a *lazy* one:
importing this module only asks whether numpy is installed; numpy
itself is imported by the first vectorized matcher constructed, so the
default configuration (``Broker(kb)``, scalar kernels) never pays its
import time or its resident memory.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.matching.base import register_matcher
from repro.matching.cluster import ClusterMatcher

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineResult
    from repro.core.provenance import DerivedEvent

__all__ = ["HAVE_NUMPY", "VectorizedClusterMatcher"]

#: Whether numpy is importable (and hence ``"cluster-numpy"`` registered).
HAVE_NUMPY = find_spec("numpy") is not None
#: the numpy module, bound by the first :func:`_require_numpy` call
np = None
#: masked-argmin filler: larger than any (generality, order) key
#: (bound with ``np``)
_SENTINEL = None

#: LUT-cache sentinel distinguishing "not computed" from a ``None``
#: result ("attribute absent from every event in the batch").
_UNSET = object()


def _require_numpy(name: str) -> None:
    """Import numpy on behalf of the vectorized matcher *name* being
    constructed (its constructor calls this before anything else)."""
    global np, _SENTINEL
    if np is not None:
        return
    try:
        import numpy
    except ImportError:
        raise MatchingError(
            f"matcher {name!r} requires numpy, which is not installed; "
            f"use the scalar 'cluster' matcher instead"
        ) from None
    np = numpy
    _SENTINEL = numpy.iinfo(numpy.int64).max


class VectorizedClusterMatcher(ClusterMatcher):
    """Cluster matcher with columnar batch evaluation (see module
    docstring).  Evaluated batch plans — per-row boolean match masks
    over the batch's events — are memoized across publications keyed
    by the batch's signature sequence; the inherited maintenance,
    rebind, and residual-memo lifetime rules apply unchanged."""

    name = "cluster-numpy"

    #: entry bound of the cross-publication batch-plan memo
    plan_capacity = 512

    def __init__(self) -> None:
        _require_numpy(self.name)
        super().__init__()
        #: root signature -> evaluated batch plan; embeds cluster
        #: membership, so unlike the residual memo it must drop on
        #: churn too — every invalidation reason clears it.
        self._batch_plans: dict[str, tuple] = {}

    def invalidate_memo(self, reason: str = "external") -> None:
        # the residual memo survives churn (pure predicate identity);
        # batch plans embed membership and drop on every reason.
        super().invalidate_memo(reason)
        self._batch_plans.clear()

    def memo_size(self) -> int:
        return len(self._residual_memo) + len(self._batch_plans)

    def _build_batch_plan(self, derived_list, count: int, signatures: tuple) -> tuple:
        """Evaluate one batch into ``(signatures, rows, row_count,
        candidates, pair_occurrences)`` where *rows* holds ``(match
        mask, member sub ids)`` per deduplicated candidate row (rows
        whose mask matched no event are dropped — they contribute
        nothing to any fold)."""
        stats = self.stats
        value_key = self._value_key
        memo = self._residual_memo

        # -- pass 1: per-attribute columns, per-column dense value codes
        column_of: dict[str, int] = {}
        codes: list[dict] = []  # per column: value key -> code (code 0 = absent)
        samples: list[list] = []  # per column: code -> (value key, raw value)
        coded: list[list[tuple[int, int]]] = []
        pair_occurrences = 0
        for derived in derived_list:
            entry = []
            for attribute, value in derived.event._pairs.items():
                pair_occurrences += 1
                column = column_of.get(attribute)
                if column is None:
                    column = column_of[attribute] = len(codes)
                    codes.append({})
                    samples.append([None])
                key = value_key(value)
                code = codes[column].get(key)
                if code is None:
                    code = codes[column][key] = len(samples[column])
                    samples[column].append((key, value))
                entry.append((column, code))
            coded.append(entry)
        matrix = np.zeros((count, len(codes)), dtype=np.int64)
        for position, entry in enumerate(coded):
            for column, code in entry:
                matrix[position, column] = code
        attributes: list[str] = [""] * len(codes)
        for attribute, column in column_of.items():
            attributes[column] = attribute

        # -- pass 2: candidate rows, deduplicated by (access, residual)
        # each subscription lives in exactly one cluster bucket with one
        # residual tuple (or in the scan pool), so the groups are
        # disjoint and a matched row maps to its members directly.
        candidate_rows: dict[tuple, tuple] = {}
        access_masks: dict[tuple[int, int], object] = {}
        candidates = 0
        clusters = self._clusters
        for column, code_map in enumerate(codes):
            attribute = attributes[column]
            for key, code in code_map.items():
                cluster = clusters.get((attribute, key))
                if not cluster:
                    continue
                mask = matrix[:, column] == code
                access_masks[(column, code)] = mask
                candidates += int(np.count_nonzero(mask)) * len(cluster)
                for sub_id, residual in cluster.items():
                    row_key = (column, code, tuple(p.key for p in residual))
                    row = candidate_rows.get(row_key)
                    if row is None:
                        candidate_rows[row_key] = (residual, [sub_id])
                    else:
                        row[1].append(sub_id)
        scan_rows: dict[tuple, tuple] = {}
        for sub_id, predicates in self._scan_pool.items():
            candidates += count
            row_key = tuple(p.key for p in predicates)
            row = scan_rows.get(row_key)
            if row is None:
                scan_rows[row_key] = (predicates, [sub_id])
            else:
                row[1].append(sub_id)

        # -- pass 3: evaluate rows via per-predicate boolean LUTs ------
        luts: dict[tuple, object] = {}

        def lut_for(predicate):
            """Boolean outcome table over the predicate's column codes
            (``None`` when its attribute appears in no batch event);
            entries fill through the shared cross-publication memo."""
            column = column_of.get(predicate.attribute)
            if column is None:
                return None
            cache_key = (predicate.key, column)
            table = luts.get(cache_key, _UNSET)
            if table is not _UNSET:
                return table
            column_samples = samples[column]
            table = np.zeros(len(column_samples), dtype=bool)  # code 0 stays False
            for code in range(1, len(column_samples)):
                key, value = column_samples[code]
                memo_key = (predicate.key, key)
                outcome = memo.get(memo_key)
                if outcome is None:
                    stats.predicate_evaluations += 1
                    stats.memo_misses += 1
                    outcome = predicate.evaluate(value)
                    if len(memo) >= self.memo_capacity:
                        memo.clear()
                        stats.memo_invalidations += 1
                    memo[memo_key] = outcome
                else:
                    stats.probes_saved += 1
                    stats.memo_hits += 1
                table[code] = outcome
            luts[cache_key] = table
            return table

        def residual_mask(mask, predicates):
            for predicate in predicates:
                table = lut_for(predicate)
                if table is None:
                    return None
                mask = mask & table[matrix[:, column_of[predicate.attribute]]]
            return mask

        rows: list[tuple] = []
        row_count = 0
        for (column, code, _), (residual, sub_ids) in candidate_rows.items():
            row_count += 1
            mask = residual_mask(access_masks[(column, code)], residual)
            if mask is not None and mask.any():
                rows.append((mask, sub_ids))
        if scan_rows:
            all_events = np.ones(count, dtype=bool)
            for predicates, sub_ids in scan_rows.values():
                row_count += 1
                mask = residual_mask(all_events, predicates)
                if mask is not None and mask.any():
                    rows.append((mask, sub_ids))
        return (signatures, rows, row_count, candidates, pair_occurrences)

    def _match_batch(self, result: "PipelineResult") -> dict[str, tuple[int, "DerivedEvent"]]:
        stats = self.stats
        derived_list = result.derived
        count = len(derived_list)
        if not count:
            return {}
        stats.bump("vectorized_batches")
        signatures = tuple(derived.event.signature for derived in derived_list)
        plan = self._batch_plans.get(signatures[0])
        if plan is None or plan[0] != signatures:
            plan = self._build_batch_plan(derived_list, count, signatures)
            if len(self._batch_plans) >= self.plan_capacity:
                self._batch_plans.clear()
                stats.memo_invalidations += 1
            self._batch_plans[signatures[0]] = plan
        _, rows, row_count, candidates, pair_occurrences = plan
        stats.bump("rows_evaluated", row_count * count)
        stats.index_probes += pair_occurrences
        stats.candidates += candidates
        stats.events += count

        best: dict[str, tuple[int, "DerivedEvent"]] = {}
        matched_total = 0
        generalities = np.fromiter(
            (derived.generality for derived in derived_list), dtype=np.int64, count=count
        )
        keyed = generalities * count + np.arange(count, dtype=np.int64)
        for mask, sub_ids in rows:
            matched_total += int(np.count_nonzero(mask)) * len(sub_ids)
            winner = int(np.where(mask, keyed, _SENTINEL).argmin())
            witness = (int(generalities[winner]), derived_list[winner])
            for sub_id in sub_ids:
                best[sub_id] = witness
        stats.matches += matched_total
        return best


if HAVE_NUMPY:
    register_matcher(VectorizedClusterMatcher.name, VectorizedClusterMatcher)
