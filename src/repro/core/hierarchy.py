"""Stage 2: concept-hierarchy generalization of events.

The paper's two matching rules (§3.1):

  (R1) events that contain **more specialized** concepts have to match
       subscriptions that contain **more generalized** terms of the
       same kind, and
  (R2) events that contain **more general** terms than those used in
       the subscriptions do **not** match.

Both rules fall out of expanding *events upward only*: every derived
event replaces one term with one of its generalizations (never a
specialization), so a subscription on "graduate degree" receives the
"PhD" resume (R1), while a subscription on "PhD" can never be reached
from a "graduate degree" event (R2).

Each expansion substitutes a *single* term; the Figure 1 fixpoint loop
composes multi-term generalizations across iterations, with the
per-chain ``generality_budget`` (the tolerance knob) bounding the total
climb.  Value spellings are canonicalized through value synonyms at
distance 0, and — because "a concept hierarchy contains all terms
within a specific domain, which includes both attributes and values" —
attribute *names* generalize too when the taxonomy knows them.

With ``interned=True`` (the default) the stage runs on the knowledge
base's :class:`~repro.ontology.concept_table.ConceptTable`: a value
resolves to a dense term id in one dict probe, its canonicalization is
one id lookup, and its generalizations come from the precomputed
ancestor closure array instead of a per-event breadth-first search —
the paper's "substitute each term with an internal identifier"
performance design.  Un-interned values (free text, numbers) take the
same no-expansion exit the string path takes; ``interned=False`` runs
the original string path end to end (the comparison baseline, pinned
equivalent by the interning property test).
"""

from __future__ import annotations

import logging
from array import array
from typing import Collection, Iterable, Iterator

from repro.core.interfaces import SemanticStage
from repro.core.provenance import STAGE_HIERARCHY, DerivationStep, DerivedEvent
from repro.model.attributes import normalize_attribute
from repro.model.events import Event
from repro.model.values import canonical_value_key
from repro.ontology.concept_table import pairs
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["HierarchyStage"]

_log = logging.getLogger(__name__)


class HierarchyStage(SemanticStage):
    """Upward single-substitution event expansion.

    With an interest view bound (see
    :meth:`~repro.core.interfaces.SemanticStage.bind_interest`), every
    *value* substitution is checked before the derived event is
    constructed: a candidate value that cannot reach any live predicate
    within the chain budget remaining after its own climb is counted in
    ``candidates_pruned`` and skipped.  Because a skipped candidate's
    only new matching power is its substituted pair — its parent
    already matched everything else more cheaply — and the interest
    closure covers every further built-in step, pruning never changes
    match sets or generalities (the hard interest-pruning property
    invariant).  Attribute *renames* are exempt: a rename also frees
    its old attribute name, which can unblock a sibling attribute's
    rename onto that name later in the fixpoint, so value reachability
    alone cannot prove a rename candidate worthless.
    """

    name = STAGE_HIERARCHY

    #: consults the bound interest view before every construction
    interest_safe = True

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        value_synonyms: bool = True,
        generalize_attributes: bool = True,
        interned: bool = True,
    ) -> None:
        super().__init__()
        self._kb = kb
        self._value_synonyms = value_synonyms
        self._generalize_attributes = generalize_attributes
        self._interned = interned
        #: the concept table, fetched once for one publication (set by
        #: begin_publication); direct expand() callers that never go
        #: through the pipeline fetch it per call.
        self._table = None
        #: (attribute, term id, budget) -> packed admission: the
        #: prune checks it took, then the admitted (distance, spelling
        #: id) pairs interleaved.  Interest admission is a pure function
        #: of the interest set and the concept table, so it is memoized
        #: across publications and keyed to both via ``_memo_stamp``
        #: (index generation + knowledge-base version).  The pipeline
        #: keeps each free pair's alternatives here too, under
        #: ``(attribute, value)`` — same inputs, same lifetime
        self._admit_memo: dict = {}
        self._memo_stamp: tuple | None = None
        #: attributes to leave at their root values (set by the
        #: pipeline for one fixpoint run: the publication's free
        #: attributes, which it carries as alternatives instead)
        self.skip: Collection[str] = ()

    def begin_publication(self) -> None:
        self._table = self._kb.concept_table() if self._interned else None

    def end_publication(self) -> None:
        # drop the pin: a later direct expand() (outside the pipeline)
        # must fetch the table itself, which drops its memos if the
        # knowledge base has moved since this publication
        self._table = None

    def _current_table(self):
        table = self._table
        return self._kb.concept_table() if table is None else table

    def expand(
        self, derived: DerivedEvent, *, generality_budget: int | None = None
    ) -> Iterator[DerivedEvent]:
        self.stats.events_in += 1
        event = derived.event
        produced = 0
        expand_value = self._expand_value_interned if self._interned else self._expand_value
        expand_attribute = (
            self._expand_attribute_interned if self._interned else self._expand_attribute
        )
        skip = self.skip
        for attribute, value in event.items():
            if attribute in skip:
                continue
            if isinstance(value, str):
                produced += yield from expand_value(
                    derived, attribute, value, generality_budget
                )
            if self._generalize_attributes:
                produced += yield from expand_attribute(derived, attribute, generality_budget)
        self.stats.events_out += produced

    # -- interned fast path -------------------------------------------------------

    def _expand_value_interned(
        self,
        derived: DerivedEvent,
        attribute: str,
        value: str,
        budget: int | None,
    ) -> Iterator[DerivedEvent]:
        """Closure-array substitutions of one value term: the term
        resolves to a dense id once; canonicalization and every
        generalization are then array/dict reads."""
        table = self._current_table()
        interest = self._interest
        dedup = self._dedup
        count = 0
        self.stats.lookups += 1
        tid = table.term_id_of_value(value)
        if tid is None:
            return count
        event = derived.event
        generality = derived.generality
        depth = derived.depth + 1
        #: the substituted pair is the only one that changes, so every
        #: candidate's signature is base ∪ {new pair} — computed here
        #: once and reused both for the dedup probe and the derived
        #: Event itself (skipping with_value's re-derivation)
        base_signature = (
            None
            if dedup is None
            else event.signature.difference(((attribute, canonical_value_key(value)),))
        )

        def construct(new_value: str, distance: int, canonicalized: bool):
            if base_signature is None:
                child = event.with_value(attribute, new_value)
            else:
                signature = base_signature.union(
                    ((attribute, canonical_value_key(new_value)),)
                )
                if dedup.should_skip(signature, generality + distance, depth):
                    return None
                values = dict(event._pairs)
                values[attribute] = new_value
                child = Event._derived(values, signature, event.publisher_id)
            if canonicalized:
                description = (
                    f"value {value!r} of {attribute!r} canonicalized to "
                    f"synonym {new_value!r}"
                )
            else:
                description = f"value {value!r} of {attribute!r} generalized to {new_value!r}"
            step = DerivationStep(
                stage=self.name,
                description=description,
                attribute=attribute,
                generality=distance,
            )
            return derived.extend(child, step)

        if self._value_synonyms:
            canonical = table.canonical_spelling(tid)
            if canonical is not None and canonical != value:
                if interest is None or self._admit(interest, attribute, canonical, budget):
                    candidate = construct(canonical, 0, True)
                    if candidate is not None:
                        yield candidate
                        count += 1
        if budget is not None and budget <= 0:
            return count
        if interest is None:
            admitted = (
                (distance, sid)
                for sid, distance in pairs(table.ancestors(tid))
                if budget is None or distance <= budget
            )
        else:
            admitted = self._admitted_ancestors(interest, table, attribute, tid, budget)
        spelling = table.spelling
        for distance, sid in admitted:
            candidate = construct(spelling(sid), distance, False)
            if candidate is not None:
                yield candidate
                count += 1
        return count

    def _admitted_ancestors(
        self, interest, table, attribute: str, tid: int, budget: int | None
    ) -> Iterable[tuple[int, int]]:
        """Budget-filtered, interest-admitted ``(distance, spelling
        id)`` generalizations of one term under one attribute, memoized
        across publications.

        Admission is a pure function of (interest set, concept table,
        attribute, term, remaining budget), so each combination is
        decided once, against the attribute's one
        :meth:`~repro.core.interest.InterestIndex.reach` — probed by
        spelling id, which is a known spelling's value key; the memo is
        dropped whenever the interest index's generation moves
        (subscription churn, knowledge-base motion) or the concept
        table's version moves with a write.  Check/prune counters are
        replayed on every hit so the stats stay exactly what the
        unmemoized per-candidate consultation would have reported."""
        memo = self.memo(interest, table)
        key = (attribute, tid, budget)
        entry = memo.get(key)
        if entry is None:
            reach = interest.reach(attribute)
            entry = array("i", (0,))
            checks = 0
            for sid, distance in pairs(table.ancestors(tid)):
                if budget is not None and distance > budget:
                    continue
                checks += 1
                if reach is not None:
                    depth = reach.get(sid)
                    if depth is None or (budget is not None and depth > budget - distance):
                        continue
                entry.append(distance)
                entry.append(sid)
            entry[0] = checks
            memo[key] = entry
        checks = entry[0]
        if checks:
            self.stats.bump("prune_checks", checks)
            pruned = checks - len(entry) // 2
            if pruned:
                self.stats.bump("candidates_pruned", pruned)
        admitted = iter(entry)
        next(admitted)  # the checks
        return zip(admitted, admitted)

    def memo(self, interest, table=None) -> dict:
        """The cross-publication memo, emptied first if *interest* (the
        view and its generation) or the knowledge base moved since it
        was filled.  The concept table follows the knowledge base in
        place, so its identity says nothing: the stamp carries the
        version the entries were derived under.  A drop is logged at
        DEBUG with its cause and the entries it dropped."""
        version = self._kb.version if table is None else table.version
        stamp = (interest, None if interest is None else interest.generation, version)
        if stamp != self._memo_stamp:
            if self._memo_stamp is not None and _log.isEnabledFor(logging.DEBUG):
                self._log_drop(stamp)
            self._memo_stamp = stamp
            self._admit_memo = {}
        return self._admit_memo

    def _log_drop(self, stamp: tuple) -> None:
        interest, generation, version = stamp
        old_interest, old_generation, old_version = self._memo_stamp
        causes = []
        if interest is not old_interest:
            causes.append("interest index replaced")
        elif generation != old_generation:
            causes.append(f"interest generation {old_generation} -> {generation}")
        if version != old_version:
            causes.append(f"knowledge base v{old_version} -> v{version}")
        _log.debug(
            "%s hierarchy memo dropped (%s): %d entries",
            self._kb.name,
            ", ".join(causes),
            len(self._admit_memo),
        )

    def memo_size(self) -> int:
        """Live entries of the memo: admissions and alternatives."""
        return len(self._admit_memo)

    def renameable(self, attribute: str) -> bool:
        """Whether the taxonomy knows a generalization of *attribute*
        as a name (so :meth:`expand` may rename it)."""
        if not self._interned:
            return bool(self._kb.generalizations(attribute))
        table = self._current_table()
        tid = table.term_id_of_value(attribute)
        return tid is not None and bool(table.ancestors(tid))

    def _admit(self, interest, attribute: str, value, remaining) -> bool:
        """One un-memoized interest consultation: whether the candidate
        pair ``attribute = value`` can still reach a live predicate
        within *remaining* further levels; counts checks and prunes."""
        self.stats.bump("prune_checks")
        if interest.value_interesting(attribute, value, remaining):
            return True
        self.stats.bump("candidates_pruned")
        return False

    def _expand_attribute_interned(
        self, derived: DerivedEvent, attribute: str, budget: int | None
    ) -> Iterator[DerivedEvent]:
        """Closure-array substitutions of one attribute *name*."""
        count = 0
        if budget is not None and budget <= 0:
            return count
        table = self._current_table()
        self.stats.lookups += 1
        tid = table.term_id_of_value(attribute)
        if tid is None:
            return count
        for sid, distance in pairs(table.ancestors(tid)):
            if budget is not None and distance > budget:
                continue
            general_attribute = table.attribute_form(sid)
            if general_attribute is None:
                # the string path would raise here; keep that contract
                normalize_attribute(table.spelling(sid).replace(" ", "_"))
                continue  # pragma: no cover - normalize_attribute raised
            if general_attribute == attribute or general_attribute in derived.event:
                continue
            # attribute renames are never interest-pruned: beyond its
            # carried value, a rename *frees the old name*, which can
            # unblock a sibling attribute's rename onto it later in the
            # fixpoint — value reachability alone cannot prove the
            # candidate worthless
            value = derived.event[attribute]
            if self._dedup is not None:
                value_key = canonical_value_key(value)
                signature = derived.event.signature.difference(
                    ((attribute, value_key),)
                ).union(((general_attribute, value_key),))
                if self._dedup.should_skip(
                    signature, derived.generality + distance, derived.depth + 1
                ):
                    continue
            step = DerivationStep(
                stage=self.name,
                description=(
                    f"attribute {attribute!r} generalized to "
                    f"{general_attribute!r}"
                ),
                attribute=general_attribute,
                generality=distance,
            )
            renamed = derived.event.with_renamed_attributes({attribute: general_attribute})
            yield derived.extend(renamed, step)
            count += 1
        return count

    # -- string reference path ----------------------------------------------------

    def _expand_value(
        self,
        derived: DerivedEvent,
        attribute: str,
        value: str,
        budget: int | None,
    ) -> Iterator[DerivedEvent]:
        """Substitutions of one value term; yields and counts."""
        kb = self._kb
        interest = self._interest
        count = 0
        self.stats.lookups += 1
        if self._value_synonyms:
            canonical = kb.canonical_term(value)
            if canonical is not None and canonical != value:
                if interest is None or self._admit(interest, attribute, canonical, budget):
                    step = DerivationStep(
                        stage=self.name,
                        description=(
                            f"value {value!r} of {attribute!r} canonicalized to "
                            f"synonym {canonical!r}"
                        ),
                        attribute=attribute,
                        generality=0,
                    )
                    yield derived.extend(derived.event.with_value(attribute, canonical), step)
                    count += 1
        if budget is not None and budget <= 0:
            return count
        for general, distance in kb.generalizations(value, max_levels=budget).items():
            if interest is not None and not self._admit(
                interest,
                attribute,
                general,
                None if budget is None else budget - distance,
            ):
                continue
            step = DerivationStep(
                stage=self.name,
                description=(
                    f"value {value!r} of {attribute!r} generalized to "
                    f"{general!r}"
                ),
                attribute=attribute,
                generality=distance,
            )
            yield derived.extend(derived.event.with_value(attribute, general), step)
            count += 1
        return count

    def _expand_attribute(
        self, derived: DerivedEvent, attribute: str, budget: int | None
    ) -> Iterator[DerivedEvent]:
        """Substitutions of one attribute *name*; yields and counts."""
        kb = self._kb
        count = 0
        if budget is not None and budget <= 0:
            return count
        self.stats.lookups += 1
        generalizations = kb.generalizations(attribute, max_levels=budget)
        for general, distance in generalizations.items():
            general_attribute = normalize_attribute(general.replace(" ", "_"))
            if general_attribute == attribute or general_attribute in derived.event:
                continue
            # never interest-pruned: renaming frees the old attribute
            # name for later renames (see the interned path)
            step = DerivationStep(
                stage=self.name,
                description=(
                    f"attribute {attribute!r} generalized to "
                    f"{general_attribute!r}"
                ),
                attribute=general_attribute,
                generality=distance,
            )
            renamed = derived.event.with_renamed_attributes({attribute: general_attribute})
            yield derived.extend(renamed, step)
            count += 1
        return count
