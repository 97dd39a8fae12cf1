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

The stage runs on the knowledge base's
:class:`~repro.ontology.concept_table.ConceptTable` — the paper's
"substitute each term with an internal identifier": a value resolves to
a term id in one dict probe, canonicalization is one id lookup, and
generalizations are the memoized ancestor closure array.  Values the
table does not know (free text, numbers) expand to nothing.  The string
lookups live on only in :mod:`repro.core.reference`, the exhaustive
oracle ``SemanticConfig(interning=False)`` builds instead.  Candidates
go straight to the publication's derivation table
(:mod:`repro.core.derivation`) as a values tuple and a compact step.
"""

from __future__ import annotations

import logging
from array import array
from typing import Collection, Iterable, Iterator

from repro.core.derivation import PipelineResult
from repro.core.interfaces import SemanticStage
from repro.core.provenance import CANON, GENERAL, RENAME, STAGE_HIERARCHY
from repro.model.attributes import normalize_attribute
from repro.ontology.concept_table import pairs
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["HierarchyStage"]

_log = logging.getLogger(__name__)


class HierarchyStage(SemanticStage):
    """Upward single-substitution event expansion.

    With an interest view bound (see
    :meth:`~repro.core.interfaces.SemanticStage.bind_interest`), every
    *value* substitution is checked before it is offered to the
    derivation table: a candidate value that cannot reach any live
    predicate within the chain budget remaining after its own climb is
    counted in ``candidates_pruned`` and skipped.  Because a
    skipped candidate's only new matching power is its substituted pair
    — its parent already matched everything else more cheaply — and the
    interest closure covers every further built-in step, pruning never
    changes match sets or generalities (the hard interest-pruning
    property invariant).  Attribute *renames* are exempt: a rename also frees
    its old attribute name, which can unblock a sibling attribute's
    rename onto that name later in the fixpoint, so value reachability
    alone cannot prove a rename candidate worthless.
    """

    name = STAGE_HIERARCHY

    #: consults the bound interest view before every value substitution
    interest_safe = True

    def __init__(self, kb: KnowledgeBase) -> None:
        super().__init__()
        self._kb = kb
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
        self._table = self._kb.concept_table()

    def end_publication(self) -> None:
        # drop the pin: a later direct expand() (outside the pipeline)
        # must fetch the table itself, which drops its memos if the
        # knowledge base has moved since this publication
        self._table = None

    def _current_table(self):
        table = self._table
        return self._kb.concept_table() if table is None else table

    def expand_row(self, result: PipelineResult, row: int, budget: int | None) -> None:
        """Offer every single substitution of *row* to its table, in
        the row's attribute order: a value's synonym and generalizations,
        then the attribute name's generalizations."""
        self.stats.events_in += 1
        layout = result._layout[row]
        values = result._values[row]
        skip = self.skip
        produced = 0
        for attribute, index in zip(layout.names, layout.perm):
            if attribute in skip:
                continue
            value = values[index]
            if isinstance(value, str):
                substitutions = self._values(attribute, value, budget)
                produced += self._substitute(result, row, index, attribute, substitutions)
            if not result.truncated:
                produced += self._rename(result, row, attribute, self._names(attribute, budget))
            if result.truncated:
                break
        self.stats.events_out += produced

    @staticmethod
    def _substitute(result, row, index, attribute, substitutions) -> int:
        """Offer each ``(kind, distance, new value)`` substitution of the
        value at *index* of *row*; returns how many the table took."""
        layout, values, keys = result._layout[row], result._values[row], result._keys[row]
        generality, depth = result.charges[row], result.depths[row] + 1
        head, tail = values[:index], values[index + 1 :]
        # a new value is a string, its own key: an all-string row stays one
        mixed = keys is not values
        if mixed:
            key_head, key_tail = keys[:index], keys[index + 1 :]
        count = 0
        for kind, distance, new in substitutions:
            new_values = (*head, new, *tail)
            new_keys = (*key_head, new, *key_tail) if mixed else new_values
            step = (kind, attribute, distance, new)
            if result.offer(row, layout, new_values, new_keys, step, generality + distance, depth):
                count += 1
            if result.truncated:
                break
        return count

    @staticmethod
    def _rename(result, row, attribute, renames) -> int:
        """Offer each ``(distance, new name)`` rename of *attribute* in
        *row* onto a name it does not hold yet; returns how many the
        table took.  Never interest-pruned (see the class docstring)."""
        layout, values, keys = result._layout[row], result._values[row], result._keys[row]
        count = 0
        for distance, general in renames:
            if general == attribute or general in layout.names:
                continue
            renamed = result.layout(
                tuple(general if name == attribute else name for name in layout.names)
            )
            # the renamed sorted order, as indexes into this row's
            at = [layout.perm[index] for index in renamed.order]
            moved = tuple(map(values.__getitem__, at))
            new_keys = moved if keys is values else tuple(map(keys.__getitem__, at))
            step = (RENAME, general, distance, attribute)
            generality, depth = result.charges[row] + distance, result.depths[row] + 1
            if result.offer(row, renamed, moved, new_keys, step, generality, depth):
                count += 1
            if result.truncated:
                break
        return count

    # -- lookups ----------------------------------------------------------------

    def _values(self, attribute: str, value: str, budget: int | None) -> Iterator[tuple]:
        """Closure-array substitutions of one value term: the term
        resolves to a dense id once; canonicalization and every
        generalization are then array/dict reads."""
        table = self._current_table()
        interest = self._interest
        self.stats.lookups += 1
        tid = table.term_id_of_value(value)
        if tid is None:
            return
        canonical = table.canonical_spelling(tid)
        if canonical is not None and canonical != value:
            if interest is None or self._admit(interest, attribute, canonical, budget):
                yield CANON, 0, canonical
        if budget is not None and budget <= 0:
            return
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
            yield GENERAL, distance, spelling(sid)

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

    def _names(self, attribute: str, budget: int | None) -> Iterator[tuple]:
        """Closure-array generalizations of one attribute *name*."""
        if budget is not None and budget <= 0:
            return
        table = self._current_table()
        self.stats.lookups += 1
        tid = table.term_id_of_value(attribute)
        if tid is None:
            return
        for sid, distance in pairs(table.ancestors(tid)):
            if budget is not None and distance > budget:
                continue
            general = table.attribute_form(sid)
            if general is None:
                # the reference raises here; keep that contract
                normalize_attribute(table.spelling(sid).replace(" ", "_"))
                continue  # pragma: no cover - normalize_attribute raised
            yield distance, general
