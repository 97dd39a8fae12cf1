"""Interned concept identifiers: the paper's internal-identifier fast path.

S-ToPSS argues (§3) that semantic matching can approach syntactic speed
by substituting "each term with an internal identifier" at subscription
and publication time, so synonym and taxonomy handling become identifier
lookups instead of string work.  :class:`ConceptTable` is that layer: a
table that assigns **dense integer IDs** to every term (by normalized
term key) and every exact display spelling, holds
the **value graph** over those ids, and serves the two closures the
semantic stages ask for without re-normalizing a string it has seen
before.

Two id spaces, deliberately distinct:

* **term ids** identify concepts up to :func:`~repro.ontology.concepts.
  term_key` normalization ("PhD" and "phd" share one) — the identity
  the hierarchy/synonym stages operate on;
* **spelling ids** identify exact strings ("PhD" and "phd" differ) —
  the identity predicate equality operates on, used by
  :meth:`value_key` for matcher-level interning.  Conflating the two
  would make a subscription on ``"phd"`` match an event carrying
  ``"PhD"``, which the string path correctly rejects.

Two closure semantics, deliberately distinct:

* **descent** (:meth:`ConceptTable.descent`, :meth:`~ConceptTable.
  descent_depths`) is *transitive and synonym-bridged*: the spellings an
  event may carry to reach a term, across every domain, where a
  value-synonym hop costs 0 and an is-a edge costs 1.  It is a 0-1
  shortest path, and it runs on ids: construction builds, per term id,
  the child term ids (union over domains), the value-synonym peer term
  ids and the spelling ids the string path reports for the term
  (taxonomy display per domain, synonym display) — sorted, so the walk
  is the same under every hash seed — and a fill is one breadth-first
  pass over those tuples that interns nothing.  :func:`descent_closure`
  is the string reference of the same closure: the
  ``interning=False`` path and the test oracle.
* **ancestors** (:meth:`ConceptTable.ancestors`) is *per-domain and not
  transitive across synonyms*: the upward walks of each domain from the
  seed's equivalents, merged by minimum
  (:meth:`KnowledgeBase.generalizations <repro.ontology.knowledge_base.
  KnowledgeBase.generalizations>`); cross-domain chains compose in the
  pipeline's fixpoint instead.  It stays on the string path on purpose:
  those semantics differ from the graph's, its enumeration order decides
  which candidates survive ``max_derived_events`` truncation, and it is
  a few percent of a cold start.

Both closures are memoized **packed**: one ``array('i')`` per term with
``(spelling id, distance)`` interleaved, read pairwise with
:func:`pairs` — ids are what the table derives, so ids are what it
keeps.

A table **follows** its knowledge base; it is not a snapshot of it.
The knowledge base only ever grows (concepts, is-a edges and synonym
members are added, never removed), so a ``version`` move is always an
append: the first :meth:`KnowledgeBase.concept_table
<repro.ontology.knowledge_base.KnowledgeBase.concept_table>` call builds
the table and every later one returns that same object, caught up in
place by :meth:`ConceptTable.catch_up` when the version has moved — new
term and spelling ids go past the high-water marks, the touched graph
rows are replaced, and **an id, once handed out, means the same term or
spelling for the life of the knowledge base**.  No second table is ever
alive beside the first.  Holders that re-fetch per operation (the engine
does, once per publish) can never observe a stale id space or a stale
graph; what a holder derived *from* the graph it must key on
``table.version`` (or on ``spelling_count``, for value identities), not
on the table's identity, which no longer changes.  Per-term closures are
memoized on first access — large ontologies only pay for the terms their
traffic actually touches — and a catch-up that appended anything drops
all of them (which closures a write can reach is not worked out); the
multi-source :meth:`~ConceptTable.descent_depths` is not memoized here
at all (the interest index keeps its one result per attribute).
``ConceptTable(kb)`` itself stays a plain full build: it is the first
build, and the oracle the catch-up is tested against.

The knowledge base owns its table and the table holds the knowledge base
only through a weak reference, so no cycle runs between them: a dropped
knowledge base is freed by reference counting, table and all, without
waiting for a cyclic collection.  The table reads the knowledge base
only while it builds, catches up, or fills a closure the graph does not
hold (:meth:`ConceptTable.ancestors`,
:meth:`ConceptTable.canonical_spelling`); a table kept beyond its
knowledge base serves what it already holds and raises
:class:`~repro.errors.DetachedTableError` for anything else.

One table is shared by many engines publishing concurrently (every
engine on a knowledge base holds it, and callers may drive them from
different threads), so the lazy fills are guarded by a lock: without
it, two threads missing on the same spelling could intern it twice
under *different* dense ids, and a closure built against the first id
would disagree with :meth:`value_key` returning the second — silently
breaking matcher equality and interest-index probes.  Reads of
already-memoized entries stay lock-free (dict/list access is atomic
under the interpreter lock, and a memoized value is never changed once
stored).
A catch-up takes the same lock; it swaps whole rows and whole memo
dicts, so a lock-free reader sees an old or a new one, never a torn
one — but a knowledge-base *write* must not overlap a publish at all
(the knowledge base's own dicts are unguarded; ``docs/CONCURRENCY.md``).

Values that intern to nothing (free text, numbers, spellings the
knowledge base has not been taught yet) transparently fall back to the
string path everywhere: :meth:`term_id_of_value` returns ``None`` and
:meth:`value_key` returns the plain
:func:`~repro.model.values.canonical_value_key`.
"""

from __future__ import annotations

import logging
import threading
import weakref
from array import array
from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import DetachedTableError, InvalidAttributeError
from repro.model.attributes import normalize_attribute
from repro.model.values import Value, canonical_value_key
from repro.ontology.concepts import term_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kb imports us)
    from repro.ontology.knowledge_base import KnowledgeBase
    from repro.ontology.taxonomy import Taxonomy

__all__ = ["ConceptTable", "descent_closure", "pairs"]

_log = logging.getLogger(__name__)


def pairs(packed: array) -> Iterator[tuple[int, int]]:
    """The pairs of a packed closure (:meth:`ConceptTable.ancestors`,
    :meth:`ConceptTable.descent`), in order: ``(spelling id, distance)``
    for each entry."""
    flat = iter(packed)
    return zip(flat, flat)


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

    The string reference: the ``interning=False`` path of the interest
    index calls it per term with the live bound, and the differential
    tests hold
    :meth:`ConceptTable.descent` — the same closure on dense ids — to
    it.  The interned side computes the unbounded closure and serves
    bounded queries by depth-filtering — equivalent because the
    recorded depths are minimal, so any spelling within the bound is
    reachable by a path whose prefix depths also stay within it.
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


class ConceptTable:
    """Dense ids and the value graph of one knowledge base, following
    it from version to version.

    Construction enumerates every known term and spelling (taxonomy
    concepts across all domains, value- and attribute-synonym group
    members) into dense id ranges and wires the value graph over them;
    :meth:`catch_up` appends what the knowledge base has added since.
    The per-term generalization and descent closures are computed on
    demand and memoized until the next catch-up.
    """

    __slots__ = (
        "_kb",
        "version",
        "_term_display",
        "_tid_by_key",
        "_tid_by_spelling",
        "_spellings",
        "_sid_by_spelling",
        "attribute_roots",
        "_children",
        "_peers",
        "_term_sid",
        "_more_sids",
        "_fill_steps",
        "_canonical_sid",
        "_up_closure",
        "_down_closure",
        "_attr_form",
        "_fill_lock",
        "_followed",
        "__weakref__",
    )

    def __init__(self, kb: "KnowledgeBase") -> None:
        #: the knowledge base followed, held weakly: it owns this table
        self._kb = weakref.ref(kb)
        self.version = kb.version
        #: term id -> first-registered display spelling of the term
        self._term_display: list[str] = []
        #: term key -> term id
        self._tid_by_key: dict[str, int] = {}
        #: exact spelling -> term id for the few spellings that are not
        #: their own term key, and -1 for the few keys that are not
        #: their own term key ("_a" has the key " a", whose key is "a");
        #: every other spelling is found in ``_tid_by_key`` as it is — a
        #: fast path skipping term_key()
        self._tid_by_spelling: dict[str, int] = {}
        #: spelling id -> exact spelling
        self._spellings: list[str] = []
        #: exact spelling -> spelling id
        self._sid_by_spelling: dict[str, int] = {}
        #: normalized attribute name -> normalized root attribute (only
        #: synonym-group members; the stage skips identical entries)
        self.attribute_roots: dict[str, str] = {}
        #: the value graph descent runs on, one sorted tuple per term
        #: id: specializations (union over domains) and value-synonym
        #: peers ...
        self._children: list[tuple[int, ...]] = []
        self._peers: list[tuple[int, ...]] = []
        #: ... and the spellings the string path reports for the term
        #: (taxonomy display per domain, synonym display): the first one
        #: per term id (-1 = none), and the whole sorted set for the few
        #: terms that report more than one.  Only terms of the *value*
        #: substrate (taxonomies, value-synonym groups) report any:
        #: attribute-synonym spellings are interned too (for the stage-1
        #: rewrite), but the string path never unifies value spellings
        #: through attribute synonyms, so descent/subscription
        #: expansion must not either.
        self._term_sid = array("i")
        self._more_sids: dict[int, tuple[int, ...]] = {}
        #: terms settled by descent fills so far — a deterministic work
        #: counter (same operations, same count, any machine)
        self._fill_steps = 0
        #: term id -> canonical display spelling id (-1 = none), lazy
        self._canonical_sid: dict[int, int] = {}
        #: term id -> packed (spelling id, min distance) ancestors, lazy
        self._up_closure: dict[int, array] = {}
        #: term id -> packed (spelling id, min depth) descent set, lazy
        self._down_closure: dict[int, array] = {}
        #: spelling id -> attribute-normalized form (None = does not
        #: normalize; the stage falls back to raising exactly as the
        #: string path would), lazy
        self._attr_form: dict[int, str | None] = {}
        #: guards every lazy fill and a catch-up (interning is
        #: append-only and id assignment must be race-free when shard
        #: replicas share the table); the memoized-hit path never
        #: takes it.
        self._fill_lock = threading.Lock()
        #: what following the knowledge base has cost so far (see
        #: :meth:`catch_up`), reported by :meth:`stats`
        self._followed = dict.fromkeys(
            ("catch_ups", "appended_terms", "appended_spellings", "closures_dropped"), 0
        )
        self._extend(
            [kb.taxonomy(domain) for domain in kb.domains()],
            (),
            kb.value_synonym_groups(),
            kb.attribute_synonym_groups(),
        )
        _log.debug(
            "%s built at v%d: %d terms %d spellings",
            kb.name,
            self.version,
            len(self._term_display),
            len(self._spellings),
        )

    # -- construction -----------------------------------------------------------

    def _knowledge_base(self) -> "KnowledgeBase":
        kb = self._kb()
        if kb is None:
            raise DetachedTableError(
                "the knowledge base this concept table followed has been freed"
            )
        return kb

    def _intern_spelling(self, spelling: str, tid: int = -1) -> int:
        sid = self._sid_by_spelling.get(spelling)
        if sid is None:
            sid = len(self._spellings)
            if sid == tid:
                sid = tid  # equal ids share one int object
            self._spellings.append(spelling)
            self._sid_by_spelling[spelling] = sid
        return sid

    def _intern_term(self, spelling: str, key: str | None = None) -> int:
        if key is None:
            key = term_key(spelling)
        tid = self._tid_by_key.get(key)
        if tid is None:
            tid = len(self._term_display)
            self._term_display.append(spelling)
            self._term_sid.append(-1)
            self._tid_by_key[key] = tid
            # an edge or doubled underscore leaves spaces term_key trims
            if "_" in spelling and key != " ".join(key.split()):
                self._tid_by_spelling[key] = -1
        if spelling != key:
            self._tid_by_spelling.setdefault(spelling, tid)
        self._intern_spelling(spelling, tid)
        return tid

    def _report(self, tid: int, spelling: str, known: int) -> None:
        """Record that the string path reports *spelling* for the term.
        A term's first spelling id never changes and a second replaces
        its whole sorted set in ``_more_sids``, which lock-free readers
        probe first.  A term among the first *known* that reports its
        first spelling here was an attribute synonym only: a build reads
        the value substrate first, so the term takes this display."""
        sid = self._sid_by_spelling[spelling]
        first = self._term_sid[tid]
        if first < 0:
            if tid < known:
                self._term_display[tid] = spelling
            self._term_sid[tid] = sid
        elif first != sid:
            sids = self._more_sids.get(tid, (first,))
            if sid not in sids:
                self._more_sids[tid] = tuple(sorted((*sids, sid)))

    def _extend(
        self,
        taxonomies: Iterable["Taxonomy"],
        concepts_and_edges: Iterable,
        value_groups: Iterable[frozenset[str]],
        attribute_groups: Iterable[frozenset[str]],
    ) -> None:
        """Append to the id spaces and the graph — the one routine
        behind the first build (everything the knowledge base holds)
        and a catch-up (what it appended since).

        The first build reads whole *taxonomies* through their rows:
        each concept's ``(display, key)`` and each child row of local
        indexes, mapped through the term ids the concept pass
        assigned.  A catch-up passes none and *concepts_and_edges*
        instead: taxonomy :class:`~repro.ontology.concepts.Concept`
        nodes mixed with ``(specialized key, generalized key)`` is-a
        pairs, an edge after both its concepts.  The groups are synonym
        groups as they stand now, whole.  New ids go past the
        high-water marks; a row that gains a neighbour is replaced by a
        new sorted tuple, never edited, so a lock-free reader holding
        the old one finishes on it.  Each edge and each reported
        spelling goes straight into its term's row: nothing is
        collected as pairs first.
        """
        tid_of = self._tid_by_key
        known = len(self._term_display)
        intern, report = self._intern_term, self._report
        #: parent term id -> child term ids the edges add, in order
        children: dict[int, list[int]] = {}
        synsets: list[tuple[int, ...]] = []
        for taxonomy in taxonomies:
            tids = []
            # a concept's key is the term key of its display spelling
            for display, key in taxonomy.concept_rows():
                tid = intern(display, key)
                report(tid, display, known)
                tids.append(tid)
            for parent, row in taxonomy.child_rows():
                parent_tid, added = tids[parent], [tids[child] for child in row]
                if parent_tid in children:
                    children[parent_tid].extend(added)
                else:
                    children[parent_tid] = added
        for item in concepts_and_edges:
            if type(item) is tuple:
                child, parent = item
                row = children.get(tid_of[parent])
                if row is None:
                    children[tid_of[parent]] = [tid_of[child]]
                else:
                    row.append(tid_of[child])
            else:
                report(intern(item.term, item.key), item.term, known)
        for group in value_groups:
            members = set()
            for spelling in sorted(group):
                tid = self._intern_term(spelling)
                members.add(tid)
                report(tid, spelling, known)
            synsets.append(tuple(sorted(members)))
        for group in attribute_groups:
            spellings = sorted(group)
            root = self._knowledge_base().root_attribute(spellings[0])
            for spelling in spellings:
                self._intern_term(spelling)
                self.attribute_roots[normalize_attribute(spelling)] = root
        grown = [()] * (len(self._term_display) - len(self._children))
        self._children.extend(grown)
        self._peers.extend(grown)
        _merge_rows(self._children, children)
        # synonym groups are disjoint: every member shares its group's
        # one tuple (itself included — walks skip settled terms anyway)
        for synset in synsets:
            for tid in synset:
                self._peers[tid] = synset

    def catch_up(
        self,
        concepts_and_edges: list,
        value_groups: list[frozenset[str]],
        attribute_groups: list[frozenset[str]],
    ) -> None:
        """Follow the knowledge base to its current version, given what
        it appended since this table last looked
        (:meth:`KnowledgeBase.concept_table` calls this, under its own
        lock; nobody else should).

        The graph is patched by :meth:`_extend` and the lazy closure
        memos are dropped whole — which of them a write can reach is
        not worked out — unless nothing was appended here at all (a
        mapping rule moves the version and touches no term).
        ``version`` moves last: a lock-free ``table.version !=
        kb.version`` fetch that sees the new number sees a finished
        table."""
        kb = self._knowledge_base()
        with self._fill_lock:
            terms, spellings = len(self._term_display), len(self._spellings)
            dropped = 0
            if concepts_and_edges or value_groups or attribute_groups:
                self._extend((), concepts_and_edges, value_groups, attribute_groups)
                dropped = (
                    len(self._canonical_sid) + len(self._up_closure) + len(self._down_closure)
                )
                self._canonical_sid = {}
                self._up_closure = {}
                self._down_closure = {}
            new_terms = len(self._term_display) - terms
            new_spellings = len(self._spellings) - spellings
            followed = self._followed
            followed["catch_ups"] += 1
            followed["appended_terms"] += new_terms
            followed["appended_spellings"] += new_spellings
            followed["closures_dropped"] += dropped
            previous, self.version = self.version, kb.version
        if _log.isEnabledFor(logging.DEBUG):
            edges = sum(type(item) is tuple for item in concepts_and_edges)
            _log.debug(
                "%s caught up v%d -> v%d: taxonomies +%d concepts +%d is-a edges, "
                "%d value-synonym and %d attribute-synonym groups touched; "
                "appended %d terms %d spellings, dropped %d closures",
                kb.name,
                previous,
                self.version,
                len(concepts_and_edges) - edges,
                edges,
                len(value_groups),
                len(attribute_groups),
                new_terms,
                new_spellings,
                dropped,
            )

    # -- identity lookups --------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct terms interned."""
        return len(self._term_display)

    @property
    def spelling_count(self) -> int:
        return len(self._spellings)

    def term_id_of_value(self, value: str) -> int | None:
        """The term id for an event/subscription value, ``None`` for
        un-interned values (the string-path fallback).  Exact known
        spellings resolve by dict probes alone (a spelling that is its
        own term key is found by key); variant spellings pay one
        :func:`~repro.ontology.concepts.term_key` normalization (which
        raises on malformed terms exactly as the string path does)."""
        tid = self._tid_by_spelling.get(value)
        if tid is None:
            tid = self._tid_by_key.get(value)
            if tid is not None:
                return tid
        elif tid >= 0:
            return tid
        return self._tid_by_key.get(term_key(value))

    def term_id_of_key(self, key: str) -> int | None:
        return self._tid_by_key.get(key)

    def _value_term_id(self, value: str) -> int | None:
        """:meth:`term_id_of_value` restricted to the value substrate:
        ``None`` too for terms known only as attribute synonyms."""
        tid = self.term_id_of_value(value)
        if tid is None or self._term_sid[tid] < 0:
            return None
        return tid

    def spelling(self, sid: int) -> str:
        return self._spellings[sid]

    def term_display(self, tid: int) -> str:
        return self._term_display[tid]

    # -- matcher-level value interning --------------------------------------------

    def value_key(self, value: Value):
        """Matching identity of *value*: the dense spelling id for
        exactly-known string spellings, the plain
        :func:`~repro.model.values.canonical_value_key` for everything
        else.  Int ids and the tuple-shaped canonical keys can never
        collide, so indexes may mix both key forms in one table as long
        as every probe goes through the same function."""
        if type(value) is str:
            sid = self._sid_by_spelling.get(value)
            if sid is not None:
                return sid
        return canonical_value_key(value)

    # -- closure arrays -----------------------------------------------------------

    def canonical_spelling(self, tid: int) -> str | None:
        """Canonical display spelling of a term (value-synonym root,
        else taxonomy spelling) — the interned form of
        :meth:`KnowledgeBase.canonical_term`."""
        sid = self._canonical_sid.get(tid)
        if sid is None:
            with self._fill_lock:
                sid = self._canonical_sid.get(tid)
                if sid is None:
                    canonical = self._knowledge_base().canonical_term(self._term_display[tid])
                    sid = -1 if canonical is None else self._intern_spelling(canonical)
                    self._canonical_sid[tid] = sid
        return None if sid < 0 else self._spellings[sid]

    def ancestors(self, tid: int) -> array:
        """Every generalization of the term, packed: ``(spelling id, min
        distance)`` interleaved (read with :func:`pairs`), in the
        knowledge base's enumeration order — the full (unbounded)
        closure; budget-bounded callers filter by distance, which is
        equivalent because distances are minimal."""
        closure = self._up_closure.get(tid)
        if closure is None:
            with self._fill_lock:
                closure = self._up_closure.get(tid)
                if closure is None:
                    kb, intern = self._knowledge_base(), self._intern_spelling
                    closure = array("i")
                    for general, distance in kb.generalizations(self._term_display[tid]).items():
                        closure.append(intern(general))
                        closure.append(distance)
                    self._up_closure[tid] = closure
        return closure

    def attribute_form(self, sid: int) -> str | None:
        """The spelling as a normalized attribute name (for attribute
        generalization), ``None`` when it does not normalize."""
        form = self._attr_form.get(sid, False)
        if form is False:
            with self._fill_lock:
                form = self._attr_form.get(sid, False)
                if form is False:
                    try:
                        form = normalize_attribute(self._spellings[sid].replace(" ", "_"))
                    except InvalidAttributeError:
                        form = None
                    self._attr_form[sid] = form
        return form

    def _descend(self, sources: Iterable[int]) -> tuple[dict[int, int], int]:
        """``{spelling id: min depth}`` below the *sources* term ids,
        and how many terms the walk settled: a 0-1 breadth-first search
        over the value graph.  Value-synonym hops weigh 0 and synonym
        groups are cliques, so settling a term settles its peers on the
        same level and one level-by-level pass finds the shortest
        paths; child edges weigh 1 and open the next level.  Reads the
        graph's rows only, and a catch-up replaces a row, never edits
        one — safe without the fill lock; the caller adds the settled
        count to ``_fill_steps`` under it."""
        children, peers = self._children, self._peers
        settled: dict[int, int] = {}
        level = list(sources)
        depth = 0
        while level:
            frontier = []
            for tid in level:
                if tid in settled:
                    continue
                settled[tid] = depth
                frontier.append(tid)
                for peer in peers[tid]:
                    if peer not in settled:
                        settled[peer] = depth
                        frontier.append(peer)
            level = [child for tid in frontier for child in children[tid] if child not in settled]
            depth += 1
        first, more = self._term_sid, self._more_sids
        depths: dict[int, int] = {}
        for tid, depth in settled.items():
            sids = more.get(tid)
            if sids is None:
                sid = first[tid]
                if sid == tid:
                    depths[tid] = depth  # the shared int: nothing allocated
                elif sid >= 0:
                    depths[sid] = depth
            else:
                for sid in sids:
                    depths[sid] = depth
        return depths, len(settled)

    def descent(self, tid: int) -> array:
        """Every spelling an event may carry to reach the term, packed:
        ``(spelling id, min total depth)`` interleaved (read with
        :func:`pairs`) — the unbounded closure :func:`descent_closure`
        defines, computed on ids and memoized once per term.  Bounded
        queries filter by depth."""
        closure = self._down_closure.get(tid)
        if closure is None:
            with self._fill_lock:
                closure = self._down_closure.get(tid)
                if closure is None:
                    depths, steps = self._descend((tid,))
                    self._fill_steps += steps
                    # the string BFS seeds from the literal term too
                    depths.setdefault(self._sid_by_spelling[self._term_display[tid]], 0)
                    closure = array("i", chain.from_iterable(depths.items()))
                    self._down_closure[tid] = closure
        return closure

    def descent_depths(self, terms: Iterable[str]) -> dict:
        """``{value key: min depth}`` of every spelling an event may
        carry to reach *any* of *terms*: the key-wise minimum over the
        terms' :meth:`descent_map`, found in one multi-source pass (every
        known value term seeded at depth 0) instead of one closure per
        term.  Keys are :meth:`value_key` identities; each literal term
        reports itself at depth 0, which is all an unknown or
        attribute-synonym-only term contributes — exactly as
        :meth:`descent_map` has it.  Nothing is memoized here: the one
        caller (the interest index) keeps the result per attribute."""
        terms = tuple(terms)
        sources = [tid for tid in map(self._value_term_id, terms) if tid is not None]
        depths, steps = self._descend(sources)
        with self._fill_lock:
            self._fill_steps += steps
        for term in terms:
            depths[self.value_key(term)] = 0
        return depths

    def descent_map(self, term: str, bound: int | None) -> dict[str, int]:
        """``{spelling: min depth}`` within *bound* for *term* — the
        interned equivalent of the :func:`descent_closure` BFS.
        Unknown terms report themselves at depth 0 (matching the BFS,
        whose seed set always contains the literal term).  Terms known
        *only* as attribute-synonym spellings count as unknown here:
        the string path's seeds (``value_equivalents``) never consult
        attribute synonyms, so unifying a spelling variant through one
        would rewrite predicates the reference path leaves alone."""
        tid = self._value_term_id(term)
        if tid is None:
            return {term: 0}
        spellings = self._spellings
        result = {
            spellings[sid]: depth
            for sid, depth in pairs(self.descent(tid))
            if bound is None or depth <= bound
        }
        # the BFS seeds from value_equivalents(term) ∪ {term}: the exact
        # queried spelling is always admissible at depth 0.
        result.setdefault(term, 0)
        return result

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "version": self.version,
            "terms": len(self._term_display),
            "spellings": len(self._spellings),
            "attribute_roots": len(self.attribute_roots),
            "up_closures": len(self._up_closure),
            "down_closures": len(self._down_closure),
            "closure_fill_steps": self._fill_steps,
            **self._followed,
        }


def _merge_rows(rows: list[tuple[int, ...]], found: dict[int, list[int]]) -> None:
    """Add the neighbours *found* per term id to the per-term neighbour
    tuples *rows*, replacing each touched row with a new tuple —
    sorted so graph walks enumerate in one order under every hash seed,
    de-duplicated because domains may repeat an edge."""
    for tid, row in found.items():
        row.extend(rows[tid])
        rows[tid] = (row[0],) if len(row) == 1 else tuple(sorted(set(row)))
