"""Vectorized (numpy) backends for the indexed matchers.

After PR 3 the publish hot path runs on dense interned concept ids and
delta-encoded derivation batches — data that is already array-shaped —
yet the scalar matchers still walk it with per-subscription python
loops.  These backends evaluate a whole
:meth:`~repro.matching.base.MatchingAlgorithm.match_batch` as columnar
numpy operations instead:

* :class:`VectorizedCountingMatcher` keeps one int64 counter row per
  derived event over a compiled subscription layout (non-universal
  subscriptions in insertion order, with a per-column predicate-count
  threshold).  The batch root's row is built by fancy-indexed adds of
  per-pair *credit arrays*; each child row is its parent's row copied
  and adjusted by just the delta's credits — a walk down the batch's
  parent chains with one array copy per derived event.  The
  matched set for the entire batch then falls out of a single
  ``matrix == sizes`` comparison, and the per-subscription
  least-general-witness reduction is one masked ``argmin`` over a
  lexicographic ``(generality, discovery order)`` key.

  Credit arrays are resolved per distinct ``(attribute, value key)``
  pair and memoized across publications (same lifetime as the scalar
  satisfaction memo: dropped on every invalidation reason).  On a miss,
  attributes whose index holds *only* EQ/IN entries are answered by
  ``np.searchsorted`` into a sorted spelling-id array compiled at first
  use after subscribe/rebind; everything else — non-equality operators
  on the attribute, or an un-interned value identity (canonical tuple
  keys) — falls back to one scalar
  :meth:`~repro.matching.index.PredicateIndex.satisfied` probe, counted
  in ``scalar_fallbacks``.

* :class:`VectorizedClusterMatcher` encodes the batch as an
  ``(n_events, n_attributes)`` matrix of per-column dense value codes
  (code 0 = attribute absent).  Candidate cluster members are
  deduplicated by ``(cluster key, residual predicate keys)`` — sibling
  subscriptions sharing access pair and residual shape evaluate once —
  and each row's match mask is its access-equality column compare ANDed
  with boolean lookup tables gathered per residual predicate.  LUT
  entries are filled through the inherited cross-publication residual
  memo, so every distinct ``(predicate, value)`` outcome is still
  computed exactly once per memo lifetime.

Both backends return bit-identical results to their scalar parents —
the backend-equivalence property tests pin match sets *and* reported
generalities across engine designs and interning/pruning toggles.  When
a ``score`` function is active (the subscription-side engine's
chain-budget scorer), the evaluation stays vectorized and only the
final fold drops to the shared per-derivation reduction, preserving the
scorer's exact semantics.

numpy is a soft dependency: this module imports cleanly without it, the
``*-numpy`` registry names simply do not appear, and
:func:`~repro.matching.base.resolve_backend` degrades engine requests
to the scalar names.  It is also a *lazy* one: importing this module
only asks whether numpy is installed; numpy itself is imported by the
first vectorized matcher constructed, so the default configuration
(``Broker(kb)``, scalar kernels) never pays its import time or its
resident memory.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.matching.base import register_matcher
from repro.matching.cluster import ClusterMatcher
from repro.matching.counting import CountingMatcher

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineResult
    from repro.core.provenance import DerivedEvent

__all__ = ["HAVE_NUMPY", "VectorizedCountingMatcher", "VectorizedClusterMatcher"]

#: Whether the numpy backends are importable (and hence registered).
HAVE_NUMPY = find_spec("numpy") is not None
#: the numpy module, bound by the first :func:`_require_numpy` call
np = None
#: masked-argmin filler: larger than any (generality, order) key
#: (bound with ``np``)
_SENTINEL = None

#: eq-table sentinel: the attribute carries non-equality structures —
#: its pairs must resolve through the scalar index probe.
_IMPURE = object()
#: eq-table sentinel: no predicates indexed on the attribute at all —
#: the empty credit, no probe needed.
_UNINDEXED = object()
#: LUT-cache sentinel distinguishing "not computed" from a ``None``
#: result ("attribute absent from every event in the batch").
_UNSET = object()


def _require_numpy(name: str) -> None:
    """Import numpy on behalf of the vectorized matcher *name* being
    constructed (both constructors call this before anything else)."""
    global np, _SENTINEL
    if np is not None:
        return
    try:
        import numpy
    except ImportError:
        raise MatchingError(
            f"matcher {name!r} requires numpy, which is not installed; "
            f"use the scalar backend instead"
        ) from None
    np = numpy
    _SENTINEL = numpy.iinfo(numpy.int64).max


class VectorizedCountingMatcher(CountingMatcher):
    """Counting matcher with numpy counter rows (see module docstring)."""

    name = "counting-numpy"

    #: the columnar kernel counts per derived event: exhaustive batches only
    accepts_factored = False

    #: entry bound of the cross-publication batch-plan memo
    plan_capacity = 512

    def __init__(self) -> None:
        _require_numpy(self.name)
        super().__init__()
        #: compiled subscription layout ``(ordered sub ids, id ->
        #: column, per-column size thresholds)``; ``None`` = stale.
        self._layout: tuple | None = None
        #: attribute -> compiled equality lookup ``(sorted id array,
        #: per-id credit arrays)`` | ``_IMPURE`` | ``_UNINDEXED``.
        self._eq_tables: dict[str, object] = {}
        #: (attribute, value key) -> ``(column array, uses array)``;
        #: the vectorized analog of the scalar satisfaction memo, with
        #: the same lifetime (dropped on every invalidation reason).
        self._pair_credits: dict[tuple, tuple] = {}
        #: root signature -> evaluated batch plan; workload traces
        #: repeat publications, and a repeated batch's match matrix is
        #: a pure function of content + subscription state, so repeats
        #: skip row construction entirely and go straight to the fold.
        #: Guarded by the full batch signature sequence (an exhaustive
        #: ``explain`` batch and a pruned publish batch share a root).
        self._batch_plans: dict[str, tuple] = {}
        #: shared "this pair credits nobody" result
        empty = np.empty(0, dtype=np.int64)
        self._empty_credit = (empty, empty)

    def invalidate_memo(self, reason: str = "external") -> None:
        super().invalidate_memo(reason)
        if self._pair_credits:
            self._pair_credits.clear()
            self.stats.memo_invalidations += 1
        # the layout and batch plans embed subscription state, and the
        # eq tables embed both predicate sets and value identities:
        # every reason — churn, kb-version, rebind — can stale one of
        # them, and recompilation is cheap (first batch after the drop).
        self._layout = None
        self._eq_tables.clear()
        self._batch_plans.clear()

    def memo_size(self) -> int:
        return len(self._memo) + len(self._pair_credits) + len(self._batch_plans)

    # -- compilation -------------------------------------------------------------

    def _ensure_layout(self) -> tuple:
        layout = self._layout
        if layout is None:
            ids = [
                subscription.sub_id
                for subscription in self.subscriptions()
                if subscription.sub_id not in self._universal
            ]
            column_of = {sub_id: column for column, sub_id in enumerate(ids)}
            sizes = np.fromiter(
                (self._sizes[sub_id] for sub_id in ids), dtype=np.int64, count=len(ids)
            )
            layout = self._layout = (ids, column_of, sizes)
        return layout

    def _eq_table(self, attribute: str):
        table = self._eq_tables.get(attribute)
        if table is None:
            table = self._compile_eq_table(attribute)
            self._eq_tables[attribute] = table
        return table

    def _compile_eq_table(self, attribute: str):
        profile = self._index.equality_profile(attribute)
        if profile is None:
            return _UNINDEXED
        equalities, pure = profile
        if not pure:
            return _IMPURE
        interned = sorted(key for key in equalities if type(key) is int)
        ids = np.fromiter(interned, dtype=np.int64, count=len(interned))
        credits = [self._compile_credit(equalities[key]) for key in interned]
        return (ids, credits)

    def _compile_credit(self, predicate_keys) -> tuple:
        """Aggregate the ``{sub_id: uses}`` tables of *predicate_keys*
        into parallel (column, uses) arrays over the compiled layout."""
        _, column_of, _ = self._ensure_layout()
        credit: dict[int, int] = {}
        usages = self._usages
        for key in predicate_keys:
            for sub_id, uses in usages[key].items():
                column = column_of[sub_id]
                credit[column] = credit.get(column, 0) + uses
        if not credit:
            return self._empty_credit
        columns = np.fromiter(credit.keys(), dtype=np.int64, count=len(credit))
        uses = np.fromiter(credit.values(), dtype=np.int64, count=len(credit))
        return (columns, uses)

    # -- pair resolution ----------------------------------------------------------

    def _pair_credit(self, attribute: str, value) -> tuple:
        """The memoized counter credit of one ``(attribute, value)``
        pair: which layout columns it increments, and by how much."""
        stats = self.stats
        key = self._index.value_key(value)
        pair = (attribute, key)
        credit = self._pair_credits.get(pair)
        if credit is not None:
            stats.probes_saved += 1
            stats.memo_hits += 1
            return credit
        stats.memo_misses += 1
        table = self._eq_table(attribute)
        if table is _UNINDEXED:
            credit = self._empty_credit
        elif table is _IMPURE or type(key) is not int:
            credit = self._scalar_credit(attribute, value)
        else:
            ids, credits = table
            position = int(np.searchsorted(ids, key))
            if position < len(ids) and int(ids[position]) == key:
                credit = credits[position]
            else:
                credit = self._empty_credit
        if len(self._pair_credits) >= self.memo_capacity:
            self._pair_credits.clear()
            stats.memo_invalidations += 1
        self._pair_credits[pair] = credit
        return credit

    def _scalar_credit(self, attribute: str, value) -> tuple:
        """Scalar fallback: one full index probe for a pair the
        compiled tables cannot answer — non-equality structures on the
        attribute, or an un-interned value identity."""
        self.stats.bump("scalar_fallbacks")
        keys = tuple(self._index.satisfied(attribute, value))
        self.stats.predicate_evaluations += len(keys)
        if not keys:
            return self._empty_credit
        return self._compile_credit(keys)

    # -- batched matching ---------------------------------------------------------

    def _evaluate_batch(self, derived_list, width: int):
        """Counter rows for one batch (the construction path of a plan
        miss): a walk down the parent chains, one row copy per derived
        event plus fancy-indexed credit adjustments for its delta.
        Returns ``(matched bool matrix, candidates, matches)``."""
        probes_before = self._index.probes
        pair_credit = self._pair_credit

        #: event signature -> counter row; rows are frozen once stored
        #: (children copy before adjusting), so duplicate signatures in
        #: the batch share one row like the scalar state table.
        rows_of: dict = {}

        def row_for(derived: "DerivedEvent"):
            # climb to the nearest memoized ancestor, then come back
            # down applying each delta as a credit adjustment.
            chain = []
            node = derived
            row = None
            while True:
                known = rows_of.get(node.event.signature)
                if known is not None:
                    row = known
                    break
                chain.append(node)
                if node.parent is None:
                    break
                node = node.parent
            for node in reversed(chain):
                if row is None:  # batch root: full credit from its pairs
                    row = np.zeros(width, dtype=np.int64)
                    for attribute, value in node.event.items():
                        columns, uses = pair_credit(attribute, value)
                        if len(columns):
                            row[columns] += uses
                else:
                    row = row.copy()
                    parent_pairs = node.parent.event._pairs
                    pairs = node.event._pairs
                    for name in node.delta:
                        value = parent_pairs.get(name)
                        if value is not None:  # rewritten or dropped pair
                            columns, uses = pair_credit(name, value)
                            if len(columns):
                                row[columns] -= uses
                        value = pairs.get(name)
                        if value is not None:  # rewritten or added pair
                            columns, uses = pair_credit(name, value)
                            if len(columns):
                                row[columns] += uses
                rows_of[node.event.signature] = row
            return row

        rows = [row_for(derived) for derived in derived_list]
        self.stats.index_probes += self._index.probes - probes_before
        matrix = np.stack(rows)
        matched = matrix == self._layout[2]
        return matched, int(np.count_nonzero(matrix)), int(np.count_nonzero(matched))

    def _match_batch(self, result: "PipelineResult") -> dict[str, tuple[int, "DerivedEvent"]]:
        stats = self.stats
        derived_list = result.derived
        count = len(derived_list)
        if not count:
            return {}
        ids, _, sizes = self._ensure_layout()
        width = len(ids)
        stats.bump("vectorized_batches")
        stats.bump("rows_evaluated", count * width)
        stats.events += count
        if width:
            signatures = tuple(derived.event.signature for derived in derived_list)
            plan = self._batch_plans.get(signatures[0])
            if plan is not None and plan[0] == signatures:
                _, matched, candidates, matches = plan
            else:
                matched, candidates, matches = self._evaluate_batch(derived_list, width)
                if len(self._batch_plans) >= self.plan_capacity:
                    self._batch_plans.clear()
                    stats.memo_invalidations += 1
                self._batch_plans[signatures[0]] = (signatures, matched, candidates, matches)
            stats.candidates += candidates
        else:
            matched = None
            matches = 0
        universal = self._universal
        matches += len(universal) * count
        stats.matches += matches
        best: dict[str, tuple[int, "DerivedEvent"]] = {}
        if self._batch_score is not None:
            # arbitrary per-(sub, derived) scorer: evaluation stayed
            # vectorized, the fold drops to the shared reduction.
            for position, derived in enumerate(derived_list):
                generality = derived.generality
                if matched is not None:
                    matched_ids = [ids[c] for c in np.nonzero(matched[position])[0]]
                    self._reduce_batch_matches(best, derived, generality, matched_ids)
                self._reduce_batch_matches(best, derived, generality, universal)
            return best
        generalities = np.fromiter(
            (derived.generality for derived in derived_list), dtype=np.int64, count=count
        )
        # lexicographic (generality, discovery order) as one int key:
        # the masked per-column argmin below is then exactly the serial
        # fold's first-discovery-wins minimum.
        keyed = generalities * count + np.arange(count, dtype=np.int64)
        if matched is not None and matched.any():
            scored = np.where(matched, keyed[:, None], _SENTINEL)
            winners = scored.argmin(axis=0)
            for column in np.nonzero(matched.any(axis=0))[0]:
                winner = int(winners[column])
                best[ids[column]] = (int(generalities[winner]), derived_list[winner])
        if universal:
            winner = int(keyed.argmin())
            witness = (int(generalities[winner]), derived_list[winner])
            for sub_id in universal:
                best[sub_id] = witness
        return best


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
        if self._batch_score is not None:
            # arbitrary per-(sub, derived) scorer: the masks stand, the
            # fold drops to the shared per-derivation reduction.
            matched_by_event: list[list[str]] = [[] for _ in range(count)]
            for mask, sub_ids in rows:
                positions = np.nonzero(mask)[0]
                matched_total += len(positions) * len(sub_ids)
                for position in positions:
                    matched_by_event[position].extend(sub_ids)
            stats.matches += matched_total
            for position, derived in enumerate(derived_list):
                self._reduce_batch_matches(
                    best, derived, derived.generality, matched_by_event[position]
                )
            return best
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
    register_matcher(VectorizedCountingMatcher.name, VectorizedCountingMatcher)
    register_matcher(VectorizedClusterMatcher.name, VectorizedClusterMatcher)
