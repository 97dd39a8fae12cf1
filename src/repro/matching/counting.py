"""The counting algorithm (Aguilera et al., PODC 1999 — paper ref [1]).

Subscriptions are decomposed into predicates held in a shared
:class:`~repro.matching.index.PredicateIndex`.  Matching an event is:

1. for each event pair, fetch the satisfied predicate keys from the
   index (hash probes and bisect scans — no per-subscription work);
2. increment a per-subscription hit counter for every use of a
   satisfied predicate;
3. a subscription matches iff its counter reaches its predicate count.

Predicate sharing falls out naturally: a predicate used by ten thousand
subscriptions is evaluated once per event, then credited to each user.

The batched path (:meth:`CountingMatcher._match_batch`) extends the
sharing *across the semantic expansion and across publications*.  A
batch of hundreds of derived events holds only a few dozen distinct
``(attribute, value)`` pairs, so the work is factored by pair, not by
event: the derived events are ranked least general first and given one
bit each, every distinct pair gets the bitmask of the events carrying
it, and each pair is looked up **once** in a persistent
:class:`~repro.matching.index.SatisfactionCache` whose payload is the
subscriptions that pair satisfies on its attribute *completely* (all of
their predicates there).  OR-ing a pair's mask into its subscriptions
gives, per attribute, the events whose value satisfies each
subscription; a subscription matches the AND of those masks over the
attributes it constrains, and the lowest set bit is its least general
witness.  This is the counting rule, not an approximation of it:
predicates on different attributes are independent and an event has one
value per attribute, so a counter reaches the subscription's size
exactly when every constrained attribute is fully satisfied.  Because
the memoized payloads embed subscription ids, the memo is invalidated
on every subscription insert/remove (and on the engine-propagated
knowledge-base reasons); between churn events it stays warm, so trace
replays and sibling publications skip the index entirely for repeated
pairs.

A **factored** batch (PR 21, :attr:`CountingMatcher.accepts_factored`)
carries the attributes no mapping rule can touch beside the derived
events instead of multiplied into them: the events — the *core* — get a
bit each as above, and a free attribute contributes, per subscription,
the cheapest of its alternatives that satisfies the subscription
completely there, in place of more bits.  A subscription matches a core
event together with one such alternative per free attribute it
constrains, provided the substitutions add up within ``max_iterations``
and the charges within the budget (:meth:`CountingMatcher._recombine`).
Same answer as matching the product — independent attributes again —
from a sum-sized input.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import TYPE_CHECKING

from repro.matching.base import MatchingAlgorithm, register_matcher
from repro.matching.index import PredicateIndex, PredicateKey, SatisfactionCache
from repro.model.events import Event
from repro.model.subscriptions import Subscription

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineResult
    from repro.core.provenance import Witness

__all__ = ["CountingMatcher"]


class CountingMatcher(MatchingAlgorithm):
    """Counting-based matcher over a shared predicate index."""

    name = "counting"

    #: pair-table bound of the cross-publication satisfaction memo
    memo_capacity = 65536

    #: :meth:`_match_batch` recombines a factored expansion itself
    accepts_factored = True

    def __init__(self) -> None:
        super().__init__()
        self._index = PredicateIndex()
        #: predicate key -> the sub_ids using it, newest first: a removal
        #: scans only the users that came later (a crowd, not residents)
        self._users: dict[PredicateKey, list[str]] = {}
        #: subscriptions with zero predicates match every event
        self._universal: set[str] = set()
        #: attribute tuple -> [the tuple, how many records share it]
        self._shapes: dict[tuple, list] = {}
        #: (attribute, equality key) -> subscriptions the pair
        #: satisfies completely on that attribute; survives across
        #: match_batch calls until churn.  Every lookup passes
        #: :meth:`_fully_satisfied` as the transform: the memo does not
        #: hold it, so no matcher <-> memo cycle outlives the matcher.
        self._memo = SatisfactionCache(self._index, capacity=self.memo_capacity)

    def invalidate_memo(self, reason: str = "external") -> None:
        """The memo payload embeds subscription ids, so every reason —
        churn included — must drop it."""
        if self._memo.clear():
            self.stats.memo_invalidations += 1

    def memo_size(self) -> int:
        return len(self._memo)

    def _record(self, seq: int, subscription: Subscription) -> tuple:
        """``(seq, subscription, shape)``, the shape being the distinct
        constrained attributes: a shared tuple when each has one
        predicate, else ``{attribute: predicates on it}``."""
        attributes = subscription.attributes()
        if len(attributes) < len(subscription.predicates):
            return (seq, subscription, dict(Counter(p.attribute for p in subscription.predicates)))
        entry = self._shapes.setdefault(attributes, [attributes, 0])
        entry[1] += 1
        return (seq, subscription, entry[0])

    def _on_insert(self, subscription: Subscription) -> None:
        sub_id = subscription.sub_id
        if not subscription.predicates:
            self._universal.add(sub_id)
        users, add = self._users, self._index.add
        for predicate in subscription.predicates:
            key = add(predicate)
            using = users.get(key)
            if using is None:
                users[key] = [sub_id]
            else:
                using.insert(0, sub_id)

    def _on_remove(self, subscription: Subscription) -> None:
        sub_id = subscription.sub_id
        self._universal.discard(sub_id)
        shape = self._subscriptions[sub_id][2]
        if type(shape) is tuple:  # interned; a dict shape is its own
            entry = self._shapes[shape]
            entry[1] -= 1
            if not entry[1]:
                del self._shapes[shape]
        for predicate in subscription.predicates:
            key = self._index.discard(predicate)
            using = self._users.get(key)
            if using is not None:  # None: _on_insert refused this subscription
                using.remove(sub_id)
                if not using:
                    del self._users[key]

    def _match(self, event: Event) -> list[Subscription]:
        stats = self.stats
        probes_before = self._index.probes
        counters: dict[str, int] = {}
        users = self._users
        for key in self._index.satisfied_by_event(event):
            stats.predicate_evaluations += 1
            for sub_id in users[key]:
                counters[sub_id] = counters.get(sub_id, 0) + 1
        stats.index_probes += self._index.probes - probes_before
        table = self._subscriptions
        matched_ids = [s for s, count in counters.items() if count == len(table[s][1].predicates)]
        stats.candidates += len(counters)
        matched_ids.extend(self._universal)
        return [table[sub_id][1] for sub_id in matched_ids]

    # -- batched matching ---------------------------------------------------------

    def _fully_satisfied(self, attribute: str, keys: tuple) -> tuple:
        """The subscriptions whose predicates on *attribute* are **all**
        among the satisfied *keys* of one pair (the per-pair payload
        the batch memoizes)."""
        self.stats.predicate_evaluations += len(keys)
        users = self._users
        credit: dict[str, int] = {}
        for key in keys:
            for sub_id in users[key]:
                credit[sub_id] = credit.get(sub_id, 0) + 1
        # a tuple shape has one predicate on the attribute: any credit is all
        table = self._subscriptions
        return tuple(
            s
            for s, count in credit.items()
            if type(shape := table[s][2]) is tuple or shape[attribute] == count
        )

    def _match_batch(self, result: "PipelineResult") -> dict[str, tuple[int, "Witness"]]:
        stats = self.stats
        index = self._index
        cache = self._memo
        satisfied = cache.satisfied
        fully = self._fully_satisfied
        table = self._subscriptions
        charges = result.charges
        #: free attribute -> its alternatives (a factored result)
        free = result.free
        probes_before = index.probes
        hits_before, misses_before = cache.hits, cache.misses
        clears_before = cache.invalidations
        #: sub_id -> how many of its constrained attributes some value
        #: in the batch satisfies completely
        covered = Counter()
        #: sub_id -> the alternatives it matches through (one index per
        #: free attribute, 0 = the root value)
        through: dict[str, tuple[int, ...]] = {}
        if len(result) == 1 and not free:
            # one event, every mask would be 1: counting attributes is all
            ranked = [0]
            on_attribute = None
            for attribute, value in result.pairs(0):
                covered.update(satisfied(attribute, value, fully))
        else:
            # bit i = i-th least general row, discovery order on ties
            # (the sort is stable): a mask's lowest set bit is then the
            # witness the serial fold would keep
            ranked = sorted(range(len(result)), key=charges.__getitem__)
            #: attribute -> {value key: rows carrying the pair}
            carriers: dict[str, dict] = {}
            #: layout -> its attributes' carrier dicts, in its key order
            slots_of: dict = {}
            layouts, keys = result._layout, result._keys
            bit = 1
            for row in ranked:
                layout = layouts[row]
                slots = slots_of.get(layout)
                if slots is None:
                    slots = slots_of[layout] = [carriers.setdefault(a, {}) for a in layout.canon]
                for by_value, key in zip(slots, keys[row]):
                    by_value[key] = by_value.get(key, 0) | bit
                bit <<= 1
            #: attribute -> {sub_id: rows whose value fully satisfies it}
            on_attribute: dict[str, dict[str, int]] = {}
            for attribute, by_value in carriers.items():
                if attribute in free:
                    continue  # every row carries its root value
                satisfying = on_attribute[attribute] = {}
                for key, carried in by_value.items():
                    value = key
                    if type(key) is not str:
                        first = ranked[(carried & -carried).bit_length() - 1]
                        value = result.value(first, attribute)
                    for sub_id in satisfied(attribute, value, fully):
                        satisfying[sub_id] = satisfying.get(sub_id, 0) | carried
            for satisfying in on_attribute.values():
                covered.update(satisfying.keys())
        #: free attribute -> {sub_id: its cheapest satisfying alternatives}
        options = {
            attribute: self._cheapest_alternatives(attribute, alternatives)
            for attribute, alternatives in free.items()
        }
        for cheapest in options.values():
            covered.update(cheapest.keys())
        stats.candidates += len(covered)
        complete = [s for s, count in covered.items() if count == len(table[s][2])]
        #: sub_id -> bitmask of the ranked rows it matches
        masks: dict[str, int]
        if on_attribute is None:
            masks = dict.fromkeys(complete, 1)
        elif not free:
            masks = {}
            for sub_id in complete:
                mask = -1
                for attribute in table[sub_id][2]:
                    mask &= on_attribute[attribute][sub_id]
                if mask:
                    masks[sub_id] = mask
        else:
            masks, through = self._recombine(result, ranked, complete, on_attribute, options)
        if self._universal:
            masks.update(dict.fromkeys(self._universal, (1 << len(ranked)) - 1))

        best: dict[str, tuple[int, "Witness"]] = {}
        matches = 0
        #: lowest set bit (and choice of alternatives) -> the
        #: (generality, witness) its subscriptions share
        witnesses: dict[object, tuple[int, "Witness"]] = {}
        for sub_id, mask in masks.items():
            matches += mask.bit_count()
            low = mask & -mask
            choice = through.get(sub_id)
            key = low if choice is None else (low, choice)
            witness = witnesses.get(key)
            if witness is None:
                row = ranked[low.bit_length() - 1]
                if choice is None:
                    witness = (charges[row], result.witness(row))
                else:
                    witness = result.compose(row, choice)
                witnesses[key] = witness
            best[sub_id] = witness
        stats.events += len(ranked)
        stats.matches += matches
        stats.index_probes += index.probes - probes_before
        hits = cache.hits - hits_before
        stats.probes_saved += hits
        stats.memo_hits += hits
        stats.memo_misses += cache.misses - misses_before
        # capacity-overflow self-clears happen inside cache.satisfied;
        # count them like every other memo drop.
        stats.memo_invalidations += cache.invalidations - clears_before
        return best

    # -- factored batches --------------------------------------------------------

    def _cheapest_alternatives(self, attribute: str, alternatives: tuple) -> dict[str, tuple]:
        """Per subscription, the alternatives of one free attribute
        that satisfy it completely there and could be its cheapest way
        to: ``(charge, depth, index)`` entries — usually one; several,
        by rising depth and falling charge, where more substitutions
        buy a lower charge (which wins then depends on how many the
        rest of the match leaves)."""
        satisfied, fully = self._memo.satisfied, self._fully_satisfied
        cheapest: dict[str, tuple] = {}
        for position, (value, charge, depth, _) in enumerate(alternatives):
            entry = ((charge, depth, position),)
            for sub_id in satisfied(attribute, value, fully):
                known = cheapest.get(sub_id)
                if known is None:
                    cheapest[sub_id] = entry
                elif charge < known[-1][0]:
                    # alternatives arrive by depth: one no cheaper than
                    # a shallower one can never be preferred to it
                    if known[-1][1] == depth:
                        known = known[:-1]
                    cheapest[sub_id] = known + entry
        return cheapest

    def _recombine(
        self,
        result: "PipelineResult",
        ranked: list,
        complete: list[str],
        on_attribute: dict[str, dict[str, int]],
        options: dict[str, dict[str, tuple]],
    ) -> tuple[dict[str, int], dict[str, tuple[int, ...]]]:
        """Match a factored batch: per subscription the core rows it
        matches through (a bitmask over *ranked*) and the alternatives
        it takes on the free attributes it constrains.

        A core event discovered at iteration *n* combines with
        alternatives of depths ``d1, d2, …`` iff ``n + Σd`` stays
        within ``step_cap`` — substitutions add over independent
        attributes, and the cap counts them per chain — at generality
        ``core + Σcharge``, gated by ``budget``.  Among a
        subscription's ways to match, the least generality wins, then
        the earliest discovery: fewest substitutions, lowest core rank,
        first alternative."""
        cap = result.step_cap
        budget = result.budget
        charges, depths = result.charges, result.depths
        # within[k]: the core rows discovered by iteration k.  A core
        # row's chain is the root's plus one step per iteration.
        base = depths[0]
        within = [0] * (cap + 1)
        bit = 1
        for row in ranked:
            within[depths[row] - base] |= bit
            bit <<= 1
        for k in range(1, cap + 1):
            within[k] |= within[k - 1]
        slots = {attribute: slot for slot, attribute in enumerate(result.free)}
        table = self._subscriptions
        masks: dict[str, int] = {}
        through: dict[str, tuple[int, ...]] = {}
        for sub_id in complete:
            mask = within[cap]
            picks = []
            for attribute in table[sub_id][2]:
                cheapest = options.get(attribute)
                if cheapest is None:
                    mask &= on_attribute[attribute][sub_id]
                else:
                    picks.append((slots[attribute], cheapest[sub_id]))
            if not mask:
                continue
            if not picks:
                masks[sub_id] = mask
                continue
            chosen = None
            for combination in product(*(entries for _, entries in picks)):
                depth = sum(entry[1] for entry in combination)
                if depth > cap:
                    continue
                reach = mask & within[cap - depth]
                if not reach:
                    continue
                low = reach & -reach
                core = ranked[low.bit_length() - 1]
                charge = charges[core] + sum(entry[0] for entry in combination)
                rank = (charge, depths[core] + depth, low)
                if chosen is None or rank < chosen[0]:
                    chosen = (rank, reach, combination)
            if chosen is None or (budget is not None and chosen[0][0] > budget):
                continue
            _, reach, combination = chosen
            choice = [0] * len(slots)
            for (slot, _), entry in zip(picks, combination):
                choice[slot] = entry[2]
            masks[sub_id] = reach
            through[sub_id] = tuple(choice)
        return masks, through


register_matcher(CountingMatcher.name, CountingMatcher)
