"""Interned concept identifiers: the paper's internal-identifier fast path.

S-ToPSS argues (§3) that semantic matching can approach syntactic speed
by substituting "each term with an internal identifier" at subscription
and publication time, so synonym and taxonomy handling become identifier
lookups instead of string work.  This module is that layer, in two
parts:

* :class:`TermStore` is a knowledge base's **id space** and its only
  term store.  A term gets a dense integer id (by normalized term key)
  the first time any write names it, and keeps it for the store's life.
  The taxonomies and thesauri intern straight into it and keep their
  structure on its ids — is-a rows, membership, synonym roots — so no
  second copy of a term or of the graph exists anywhere.
* :class:`ConceptTable` serves the two closures the semantic stages ask
  for over that structure, memoized per term, and the lookups over the
  store the hot path needs.

Two id spaces, deliberately distinct:

* **term ids** identify concepts up to :func:`~repro.ontology.concepts.
  term_key` normalization ("PhD" and "phd" share one) — the identity
  the hierarchy/synonym stages operate on;
* **spelling ids** identify exact strings ("PhD" and "phd" differ) —
  the identity predicate equality operates on, the key
  :meth:`ConceptTable.value_key` gives the interest index's reaches
  (the matcher keys a plain string by itself, which is the same
  identity: a spelling id stands for exactly one string).  A
  spelling that is its own term key ("phd", "car") has its term's id as
  its spelling id; every other known spelling ("PhD",
  "graduate_degree") has a negative id of its own.  So the common case
  stores no second string, dict entry or id, and the spelling ids are
  ``range(len(table) - spelling_count, len(table))``.  Conflating the
  two spaces would make a subscription on ``"phd"`` match an event
  carrying ``"PhD"``, which the string path correctly rejects.

Two closure semantics, deliberately distinct:

* **descent** (:meth:`ConceptTable.descent_depths`) is *transitive and
  synonym-bridged*: the spellings an event may carry to reach any of a
  set of terms, across every domain, where a value-synonym hop costs 0
  and an is-a edge costs 1.  It is a 0-1 shortest path over the
  taxonomies' child rows and the value-synonym groups, and a pass
  interns nothing.  :func:`descent_closure` is the string reference of
  the same closure, per term: the test oracle.
* **ancestors** (:meth:`ConceptTable.ancestors`) is *per-domain and not
  transitive across synonyms*: the upward walks of each domain from the
  seed's equivalents, merged by minimum, in the order
  :meth:`KnowledgeBase.generalizations <repro.ontology.knowledge_base.
  KnowledgeBase.generalizations>` (its string reference) reports them;
  cross-domain chains compose in the pipeline's fixpoint instead.  The
  order decides which candidates survive ``max_derived_events``
  truncation.

They are one relation unless a term bridges two domains (see
:mod:`repro.core.reference`).

The ancestor closure is memoized **packed**: one ``array('i')`` per
term with ``(spelling id, distance)`` interleaved, read pairwise with
:func:`pairs` — ids are what the table derives, so ids are what it
keeps.

The knowledge base creates its store and its table at construction,
and every write interns into the store directly: there is nothing to
build and nothing to catch up.  The knowledge base only ever grows, so
**an id, once handed out, means the same term or spelling for the life
of the knowledge base**.  A ``version`` move is seen by the next
:meth:`KnowledgeBase.concept_table <repro.ontology.knowledge_base.
KnowledgeBase.concept_table>` fetch, which drops every closure memo
(which closures a write can reach is not worked out) and logs one
DEBUG record saying so — unless only mapping rules were added, which
touch no term.  Holders that re-fetch per operation (the
engine does, once per publish) can never observe a stale closure; what
a holder derived *from* the closures or the value keys it must key on
``table.version``, not on the table's identity, which never changes.
Ancestor closures are memoized per term on first access — large
ontologies only pay for the terms their traffic actually touches — and
the multi-source :meth:`~ConceptTable.descent_depths` is not memoized
here at all (the interest index keeps its one result per attribute, a
:class:`Reach`: sorted spelling ids and their depths packed in two
``array('i')``, probed by bisection).

The table holds the store, the taxonomies and the value thesaurus; they
hold the store and nothing holds the table but its knowledge base, so
no cycle runs through any of them and a dropped knowledge base is freed
by reference counting, table and all.

One table is shared by every engine on a knowledge base, all driven
from one thread (a process executor's workers each hold a forked copy),
so the lazy fills take no lock: each closure is filled once and the
fill counters stay exact.  A memo drop swaps whole dicts.  A
knowledge-base *write* edits the store and the rows in place, so it must
not overlap a publish at all (``docs/CONCURRENCY.md``).

Values the store does not know (free text, numbers, spellings the
knowledge base has not been taught yet) have no id:
:meth:`~ConceptTable.term_id_of_value` returns ``None`` (the stages
derive nothing from them) and :meth:`~ConceptTable.value_key` returns
the plain :func:`~repro.model.values.canonical_value_key`.
"""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, KeysView

from repro.errors import InvalidAttributeError
from repro.model.attributes import normalize_attribute
from repro.model.values import Value, canonical_value_key
from repro.ontology.concepts import term_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kb imports us)
    from repro.ontology.knowledge_base import KnowledgeBase
    from repro.ontology.taxonomy import Taxonomy
    from repro.ontology.thesaurus import Thesaurus

__all__ = ["ConceptTable", "Reach", "TermStore", "descent_closure", "pairs"]

_log = logging.getLogger(__name__)


def pairs(packed: array) -> Iterator[tuple[int, int]]:
    """The pairs of a packed closure (:meth:`ConceptTable.ancestors`),
    in order: ``(spelling id, distance)`` for each entry."""
    flat = iter(packed)
    return zip(flat, flat)


class Reach(Mapping):
    """A read-only ``{value key: min depth}`` map, packed: the int keys
    (spelling ids) sorted in one ``array('i')`` and their depths in a
    parallel one, probed by bisection — 8 bytes an entry, where a dict
    pays a hash slot and a boxed ``int``.  The few other keys (the
    :func:`~repro.model.values.canonical_value_key` of an unknown term,
    which is the plain string itself, and the tuple of a non-string
    value) sit in a small side dict.
    Equal to any mapping with the same items, a ``dict`` included."""

    __slots__ = ("_ids", "_depths", "_other")

    def __init__(self, depths: dict[int, int], other: dict) -> None:
        """Pack *depths* (spelling id -> depth) beside the *other* keys."""
        ids = sorted(depths)
        self._ids = array("i", ids)
        # from a list, so the array is allocated to size
        self._depths = array("i", list(map(depths.__getitem__, ids)))
        self._other = other

    def get(self, key, default=None):
        if type(key) is int:
            ids = self._ids
            index = bisect_left(ids, key)
            if index < len(ids) and ids[index] == key:
                return self._depths[index]
            return default
        return self._other.get(key, default)

    def __getitem__(self, key):
        depth = self.get(key)
        if depth is None:
            raise KeyError(key)
        return depth

    def __iter__(self) -> Iterator:
        return chain(self._ids, self._other)

    def __len__(self) -> int:
        return len(self._ids) + len(self._other)

    def __repr__(self) -> str:
        return f"Reach({dict(self.items())!r})"

    @property
    def nbytes(self) -> int:
        """Bytes of the two packed arrays' items."""
        return 2 * self._ids.itemsize * len(self._ids)


def descent_closure(kb: "KnowledgeBase", term: str, bound: int | None) -> dict[str, int]:
    """Every spelling an event may carry to reach *term* within
    *bound* generalization levels, with its minimum total ascent depth
    (``bound=None`` = unbounded).

    This is the downward mirror of the event-side pipeline's fixpoint:
    a breadth-first closure over taxonomy descent composed with
    distance-0 value-synonym hops, across all domains — so a chain that
    climbs through domain A, crosses a synonym spelling, and continues
    in domain B is charged its summed hierarchy distance exactly as the
    event-side engine charges it.

    The string reference :meth:`ConceptTable.descent_depths` is tested
    against.  The id side filters the unbounded closure by depth, which
    is equivalent because recorded depths are minimal: any spelling
    within the bound is reachable by a path whose prefixes stay in it.
    """
    taxonomies = [kb.taxonomy(domain) for domain in kb.domains()]
    depths: dict[str, int] = {}
    queue: deque[tuple[str, int]] = deque()
    for spelling in kb.value_equivalents(term):
        depths[spelling] = 0
        queue.append((spelling, 0))
    while queue:
        spelling, depth = queue.popleft()
        if depths.get(spelling, depth) < depth:
            continue  # a cheaper path to this spelling was found later
        remaining = None if bound is None else bound - depth
        if remaining is not None and remaining <= 0:
            continue
        for taxonomy in taxonomies:
            if spelling not in taxonomy:
                continue
            for descendant, distance in taxonomy.descendants(spelling, remaining).items():
                total = depth + distance
                known = depths.get(descendant)
                if known is None or known > total:
                    depths[descendant] = total
                    # this walk already covered the whole same-domain
                    # subtree below `descendant` at minimum distances;
                    # re-enqueue only when the closure can continue
                    # elsewhere — the term also lives in another domain.
                    if any(
                        other is not taxonomy and descendant in other
                        for other in taxonomies
                    ):
                        queue.append((descendant, total))
                for equivalent in kb.value_equivalents(descendant):
                    if equivalent == descendant:
                        continue
                    known = depths.get(equivalent)
                    if known is None or known > total:
                        # a synonym bridge: descent may resume from the
                        # equivalent spelling in any domain that knows it.
                        depths[equivalent] = total
                        queue.append((equivalent, total))
    return depths


class TermStore:
    """The id space of one knowledge base: term ids by term key, and
    the spellings the writes gave them.

    Append-only: :meth:`intern` is the one write, and an id never
    changes its meaning.  The taxonomies and thesauri of a knowledge base
    share one store and keep only ids; a standalone one makes its own.
    """

    __slots__ = ("_tid_by_key", "_keys", "_names", "_odd", "_odd_spellings", "_odd_tid")

    def __init__(self) -> None:
        #: term key -> term id, and term id -> term key (the key string
        #: is also the spelling of the spelling id equal to the term id)
        self._tid_by_key: dict[str, int] = {}
        self._keys: list[str] = []
        #: term id -> first spelling, for the few terms whose first
        #: spelling is not their key ("PhD"); every other term is
        #: displayed as its key
        self._names: dict[int, str] = {}
        #: spelling -> index into the two columns below, for the known
        #: spellings that are not their own key; -1 for the few keys
        #: that are not their own key ("_a" has the key " a", whose key
        #: is "a"), which name their term by key only
        self._odd: dict[str, int] = {}
        #: odd index -> spelling and term id; the spelling id is ``~index``
        self._odd_spellings: list[str] = []
        self._odd_tid = array("i")

    def intern(self, display: str, key: str) -> int:
        """The id of the term *key* names — a new one past the others
        when the key is new, displayed as *display* — with *display*
        known as a spelling of it from now on.  *display* is a
        normalized term and *key* its :func:`term_key`."""
        tid = self._tid_by_key.get(key)
        if tid is None:
            tid = len(self._keys)
            self._tid_by_key[key] = tid
            self._keys.append(key)
            if display != key:
                self._names[tid] = display
            # an edge or doubled underscore leaves spaces term_key trims
            if "_" in display and key != " ".join(key.split()):
                self._odd[key] = -1
        if display != key and display not in self._odd:
            self._odd[display] = len(self._odd_spellings)
            self._odd_spellings.append(display)
            self._odd_tid.append(tid)
        return tid

    def find(self, key: str) -> int | None:
        """The id of the term *key* names, ``None`` when none has one."""
        return self._tid_by_key.get(key)

    def key(self, tid: int) -> str:
        return self._keys[tid]

    def display(self, tid: int) -> str:
        """The first spelling a write gave the term."""
        return self._names.get(tid) or self._keys[tid]

    def spelling_id(self, spelling: str) -> int | None:
        """The id of a known spelling, ``None`` for any other string."""
        index = self._odd.get(spelling)
        if index is None:
            return self._tid_by_key.get(spelling)
        return ~index if index >= 0 else None

    def spelling(self, sid: int) -> str:
        return self._keys[sid] if sid >= 0 else self._odd_spellings[~sid]

    def known_id(self, spelling: str) -> int | None:
        """The id of the term a known spelling names, by dict probes
        alone: a stored key not in ``_odd`` is its own key, and an odd
        spelling names its column's term.  ``None`` for anything else —
        an odd key ("_a"'s key " a") or a spelling to normalize first."""
        index = self._odd.get(spelling)
        if index is None:
            return self._tid_by_key.get(spelling)
        return self._odd_tid[index] if index >= 0 else None

    def term_id_of_value(self, value: str) -> int | None:
        """See :meth:`ConceptTable.term_id_of_value`."""
        tid = self.known_id(value)
        return tid if tid is not None else self._tid_by_key.get(term_key(value))

    def _respelled(self) -> KeysView[int]:
        """The term ids displayed other than as their key (a set-like
        view)."""
        return self._names.keys()

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def spelling_count(self) -> int:
        return len(self._keys) + len(self._odd_spellings)


class ConceptTable:
    """The closures of one knowledge base over its :class:`TermStore`.

    Built empty with the knowledge base and never rebuilt: the store,
    the taxonomies (the knowledge base's own ``{domain: Taxonomy}``
    dict, which it adds domains to) and the value thesaurus are read
    live.  The per-term generalization closures are computed on demand
    and memoized until :meth:`follow` sees the version move.
    """

    __slots__ = (
        "name",
        "version",
        "_terms",
        "_taxonomies",
        "_value_synonyms",
        "attribute_roots",
        "_fill_steps",
        "_dropped",
        "_terms_version",
        "_canonical",
        "_up_closure",
        "_attr_form",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        terms: TermStore,
        taxonomies: dict[str, "Taxonomy"],
        value_synonyms: "Thesaurus",
    ) -> None:
        self.name = name
        self.version = 0
        self._terms = terms
        self._taxonomies = taxonomies
        self._value_synonyms = value_synonyms
        #: normalized attribute name -> normalized root attribute (only
        #: synonym-group members; the stage skips identical entries),
        #: kept by the knowledge base's attribute-synonym writes
        self.attribute_roots: dict[str, str] = {}
        #: terms settled by descent passes so far — a deterministic work
        #: counter (same operations, same count, any machine)
        self._fill_steps = 0
        #: closures dropped by version moves so far
        self._dropped = 0
        #: the knowledge base's version less its mapping rules, when the
        #: memos were last dropped: a rule write touches no term
        self._terms_version = 0
        #: term id -> canonical display spelling (None = none), lazy
        self._canonical: dict[int, str | None] = {}
        #: term id -> packed (spelling id, min distance) ancestors, lazy
        self._up_closure: dict[int, array] = {}
        #: spelling id -> attribute-normalized form (None = does not
        #: normalize; the stage falls back to raising exactly as the
        #: string path would), lazy; a spelling id never changes, so
        #: this memo is never dropped
        self._attr_form: dict[int, str | None] = {}

    def follow(self, version: int, terms_version: int) -> None:
        """Follow a knowledge base now at *version*, of which
        *terms_version* counts the writes to its taxonomies and thesauri
        (:meth:`KnowledgeBase.concept_table` calls this when the version
        has moved; nobody else should).  The closure memos are dropped
        when *terms_version* has moved — a mapping rule moves only the
        version and keeps them."""
        if self.version == version:
            return
        previous, dropped = self.version, None
        if terms_version != self._terms_version:
            dropped = len(self._up_closure)
            self._canonical = {}
            self._up_closure = {}
            self._dropped += dropped
            self._terms_version = terms_version
        self.version = version
        if dropped is not None:
            _log.debug(
                "%s v%d -> v%d: dropped %d closures", self.name, previous, version, dropped
            )

    # -- identity lookups --------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct terms in the store."""
        return len(self._terms)

    @property
    def spelling_count(self) -> int:
        return self._terms.spelling_count

    def term_id_of_value(self, value: str) -> int | None:
        """The term id for an event/subscription value, ``None`` for
        values the store does not know (free text, numbers).  Exact known
        spellings resolve by dict probes alone (a spelling that is its
        own term key is found by key); variant spellings pay one
        :func:`~repro.ontology.concepts.term_key` normalization (which
        raises on malformed terms exactly as the string path does)."""
        return self._terms.term_id_of_value(value)

    def term_id_of_key(self, key: str) -> int | None:
        return self._terms.find(key)

    def spelling(self, sid: int) -> str:
        return self._terms.spelling(sid)

    def term_display(self, tid: int) -> str:
        return self._terms.display(tid)

    def _value_term_id(self, value: str) -> int | None:
        """:meth:`term_id_of_value` restricted to the value substrate (a
        taxonomy or a value-synonym group): ``None`` too for terms known
        only as attribute synonyms."""
        tid = self._terms.term_id_of_value(value)
        if tid is None:
            return None
        if self._value_synonyms._has(tid) or any(
            taxonomy._has(tid) for taxonomy in self._taxonomies.values()
        ):
            return tid
        return None

    # -- value identity ------------------------------------------------------------

    def value_key(self, value: Value):
        """Interned identity of *value*, the key of the closures this
        table derives: the spelling id for exactly-known string
        spellings, the plain :func:`~repro.model.values.
        canonical_value_key` for everything else — an unknown plain
        string is its own key, any other value a tuple.  Int ids,
        strings and tuples never collide (numbers key as tuples, never
        as bare ints), so a map may mix the key forms as long as every
        probe goes through this function."""
        if type(value) is str:
            sid = self._terms.spelling_id(value)
            if sid is not None:
                return sid
        return canonical_value_key(value)

    # -- closure arrays -----------------------------------------------------------

    def canonical_spelling(self, tid: int) -> str | None:
        """Canonical display spelling of a term (value-synonym root,
        else taxonomy spelling) — the id form of
        :meth:`KnowledgeBase.canonical_term`: one column read, then a
        membership test per domain, memoized."""
        try:
            return self._canonical[tid]
        except KeyError:
            pass
        synonyms = self._value_synonyms
        root = synonyms._root_of(tid)
        if root >= 0:
            canonical = synonyms._name(root)
        else:
            canonical = next((t._name(tid) for t in self._taxonomies.values() if t._has(tid)), None)
        self._canonical[tid] = canonical
        return canonical

    def ancestors(self, tid: int) -> array:
        """Every generalization of the term, packed: ``(spelling id, min
        distance)`` interleaved (read with :func:`pairs`), in the
        knowledge base's enumeration order — the full (unbounded)
        closure; budget-bounded callers filter by distance, which is
        equivalent because distances are minimal."""
        closure = self._up_closure.get(tid)
        if closure is None:
            closure = array("i", chain.from_iterable(self._generalize(tid).items()))
            self._up_closure[tid] = closure
        return closure

    def _generalize(self, tid: int) -> dict[int, int]:
        """``{spelling id: min distance}`` of the term's generalizations:
        :meth:`KnowledgeBase.generalizations` of its display spelling,
        entry for entry, on ids.  The seeds are the spellings of its
        value equivalents (its synonym group's, its own, and each
        domain's of each), walked in sorted spelling order — one walk
        per term, at its first spelling — every domain in turn; the
        equivalents themselves are not generalizations."""
        terms, synonyms = self._terms, self._value_synonyms
        taxonomies = list(self._taxonomies.values())
        seeds = {terms.display(tid): tid}
        for member in synonyms._group(tid):
            seeds[synonyms._name(member)] = member
        for taxonomy in taxonomies:
            for member in tuple(seeds.values()):
                if taxonomy._has(member):
                    seeds[taxonomy._name(member)] = member
        equivalents = set(seeds.values())
        order = list(dict.fromkeys(seeds[spelling] for spelling in sorted(seeds)))
        merged: dict[int, int] = {}
        for taxonomy in taxonomies:
            name = taxonomy._name
            for seed in order:
                if not taxonomy._has(seed):
                    continue
                for ancestor, distance in taxonomy._ancestor_ids(seed).items():
                    if ancestor not in equivalents:
                        sid = terms.spelling_id(name(ancestor))
                        if merged.get(sid, distance + 1) > distance:
                            merged[sid] = distance
        return merged

    def attribute_form(self, sid: int) -> str | None:
        """The spelling as a normalized attribute name (for attribute
        generalization), ``None`` when it does not normalize."""
        form = self._attr_form.get(sid, False)
        if form is False:
            try:
                form = normalize_attribute(self.spelling(sid).replace(" ", "_"))
            except InvalidAttributeError:
                form = None
            self._attr_form[sid] = form
        return form

    def _reported(self, tid: int) -> list[int]:
        """The spelling ids the string path reports for a value term:
        each domain's spelling of it and its synonym group's, sorted."""
        terms, synonyms = self._terms, self._value_synonyms
        spellings = {
            taxonomy._name(tid) for taxonomy in self._taxonomies.values() if taxonomy._has(tid)
        }
        if synonyms._has(tid):
            spellings.add(synonyms._name(tid))
        return sorted(map(terms.spelling_id, spellings))

    def _descend(self, sources: Iterable[int]) -> tuple[dict[int, int], int]:
        """``{spelling id: min depth}`` below the *sources* term ids,
        and how many terms the walk settled: a 0-1 breadth-first search
        over the taxonomies' child rows and the value-synonym groups.
        Synonym hops weigh 0 and groups are cliques, so settling a term
        settles its group on the same level and one level-by-level pass
        finds the shortest paths; child edges weigh 1 and open the next
        level.  The rows are walked in declaration order, which no hash
        seed moves.  Reads the rows only; the caller adds the settled
        count to ``_fill_steps``."""
        taxonomies = list(self._taxonomies.values())
        synonyms = self._value_synonyms
        settled: dict[int, int] = {}
        level = list(sources)
        depth = 0
        while level:
            frontier = []
            groups = synonyms._groups_of(level)
            for tid in level:
                if tid in settled:
                    continue
                settled[tid] = depth
                frontier.append(tid)
                for peer in groups.get(tid, ()):
                    if peer not in settled:
                        settled[peer] = depth
                        frontier.append(peer)
            level = []
            if frontier:
                low, high = min(frontier), max(frontier)
                for taxonomy in taxonomies:
                    level.extend(taxonomy._children(frontier, low, high))
            depth += 1
        # a term no write spelled other than as its key reports that key,
        # whose spelling id is the term id; the rest ask every domain
        respelled = [self._terms._respelled(), synonyms._respelled()]
        respelled.extend(taxonomy._respelled() for taxonomy in taxonomies)
        respelled = [ids for ids in respelled if ids]
        if not respelled:
            return settled, len(settled)
        depths: dict[int, int] = {}
        for tid, depth in settled.items():
            for ids in respelled:
                if tid in ids:
                    for sid in self._reported(tid):
                        depths[sid] = depth
                    break
            else:
                depths[tid] = depth
        return depths, len(settled)

    def descent_depths(self, terms: Iterable[str], keys: Iterable = ()) -> Reach:
        """The :class:`Reach` of *terms*: ``{value key: min depth}`` of
        every spelling an event may carry to reach *any* of them — the
        key-wise minimum of their :func:`descent_closure`, in one
        multi-source pass, packed once at the end.  Keys are
        :meth:`value_key` identities; each literal term reports itself
        at depth 0, which is all an unknown term contributes (one known
        only as an attribute synonym counts as unknown, as it does to the
        reference's ``value_equivalents`` seeds), and so does each of the
        further value *keys* (of non-string operands).  Not memoized:
        the one caller (the interest index) keeps the result per
        attribute."""
        terms = tuple(terms)
        sources = [tid for tid in map(self._value_term_id, terms) if tid is not None]
        depths, steps = self._descend(sources)
        self._fill_steps += steps
        other = dict.fromkeys(keys, 0)
        for term in terms:
            key = self.value_key(term)
            (depths if type(key) is int else other)[key] = 0
        return Reach(depths, other)

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "version": self.version,
            "terms": len(self._terms),
            "spellings": self._terms.spelling_count,
            "attribute_roots": len(self.attribute_roots),
            "up_closures": len(self._up_closure),
            "down_closures": 0,  # no descent memo; bench/harness.py sums it
            "closure_fill_steps": self._fill_steps,
            "closures_dropped": self._dropped,
        }
