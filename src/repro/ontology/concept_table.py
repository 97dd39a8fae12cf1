"""Interned concept identifiers: the paper's internal-identifier fast path.

S-ToPSS argues (§3) that semantic matching can approach syntactic speed
by substituting "each term with an internal identifier" at subscription
and publication time, so synonym and taxonomy handling become identifier
lookups instead of string work.  :class:`ConceptTable` is that layer: a
knowledge-base snapshot that assigns **dense integer IDs** to every
term (by normalized term key) and every exact display spelling, holds
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

A table is an immutable snapshot: it records the knowledge-base
``version`` it was built from and :meth:`KnowledgeBase.concept_table
<repro.ontology.knowledge_base.KnowledgeBase.concept_table>` rebuilds
it whenever that version moves, so holders that re-fetch per operation
(the engine does, once per publish) can never observe a stale id space
or a stale graph.  Per-term closures are memoized on first access —
large ontologies only pay for the terms their traffic actually touches
— and the multi-source :meth:`~ConceptTable.descent_depths` is not
memoized here at all (the interest index keeps its one result per
attribute).

One snapshot may be shared by many engines publishing concurrently
(every engine on a knowledge base holds the same table, and callers
may drive them from different threads), so the lazy fills are guarded
by a lock: without it, two threads missing on the same
spelling could intern it twice under *different* dense ids, and a
closure built against the first id would disagree with
:meth:`value_key` returning the second — silently breaking matcher
equality and interest-index probes.  Reads of already-memoized entries
stay lock-free (dict/list access is atomic under the interpreter
lock, and memoized values are immutable tuples); the graph is written
once, before the table is published, and only read afterwards.

Values that intern to nothing (free text, numbers, spellings added to
the knowledge base after the snapshot) transparently fall back to the
string path everywhere: :meth:`term_id_of_value` returns ``None`` and
:meth:`value_key` returns the plain
:func:`~repro.model.values.canonical_value_key`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro.model.attributes import normalize_attribute
from repro.model.values import Value, canonical_value_key
from repro.ontology.concepts import term_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kb imports us)
    from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["ConceptTable", "descent_closure"]


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

    The string reference: the ``interning=False`` paths
    (``subexpand._descend``, the interest index) call it per term with
    the live bound, and the differential tests hold
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
    """Dense-id snapshot of one knowledge base version.

    Construction enumerates every known term and spelling (taxonomy
    concepts across all domains, value- and attribute-synonym group
    members) into dense id ranges and wires the value graph over them;
    the per-term generalization and descent closures are computed on
    demand and memoized for the life of the snapshot.
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
        "_term_sids",
        "_fill_steps",
        "_canonical_sid",
        "_up_closure",
        "_down_closure",
        "_attr_form",
        "_fill_lock",
        "_wire_base",
    )

    def __init__(self, kb: "KnowledgeBase") -> None:
        self._kb = kb
        self.version = kb.version
        #: term id -> first-registered display spelling of the term
        self._term_display: list[str] = []
        #: term key -> term id
        self._tid_by_key: dict[str, int] = {}
        #: exact spelling -> term id (fast path skipping term_key())
        self._tid_by_spelling: dict[str, int] = {}
        #: spelling id -> exact spelling
        self._spellings: list[str] = []
        #: exact spelling -> spelling id
        self._sid_by_spelling: dict[str, int] = {}
        #: normalized attribute name -> normalized root attribute (only
        #: synonym-group members; the stage skips identical entries)
        self.attribute_roots: dict[str, str] = {}
        #: the value graph descent runs on, one sorted tuple per term
        #: id: specializations (union over domains), value-synonym
        #: peers, and the spellings the string path reports for the
        #: term (taxonomy display per domain, synonym display).  Only
        #: terms of the *value* substrate (taxonomies, value-synonym
        #: groups) report any: attribute-synonym spellings are interned
        #: too (for the stage-1 rewrite), but the string path never
        #: unifies value spellings through attribute synonyms, so
        #: descent/subscription expansion must not either.
        self._children: list[tuple[int, ...]] = []
        self._peers: list[tuple[int, ...]] = []
        self._term_sids: list[tuple[int, ...]] = []
        #: terms settled by descent fills so far — a deterministic work
        #: counter (same operations, same count, any machine)
        self._fill_steps = 0
        #: term id -> canonical display spelling id (-1 = none), lazy
        self._canonical_sid: dict[int, int] = {}
        #: term id -> ((spelling id, min distance), ...) ancestors, lazy
        self._up_closure: dict[int, tuple[tuple[int, int], ...]] = {}
        #: term id -> ((spelling id, min depth), ...) descent set, lazy
        self._down_closure: dict[int, tuple[tuple[int, int], ...]] = {}
        #: spelling id -> attribute-normalized form (None = does not
        #: normalize; the stage falls back to raising exactly as the
        #: string path would), lazy
        self._attr_form: dict[int, str | None] = {}
        #: guards every lazy fill (interning is append-only and id
        #: assignment must be race-free when shard replicas share the
        #: snapshot); the memoized-hit path never takes it.
        self._fill_lock = threading.Lock()
        self._populate(kb)
        #: spelling ids below this boundary were assigned during
        #: construction, deterministically from knowledge-base content —
        #: two tables built from equal-content KBs agree on all of them.
        #: Ids at or above it were interned lazily (closure fills) in
        #: *this* process and mean nothing elsewhere; the wire codec
        #: refuses to emit them.
        self._wire_base = len(self._spellings)

    # -- construction -----------------------------------------------------------

    def _intern_spelling(self, spelling: str) -> int:
        sid = self._sid_by_spelling.get(spelling)
        if sid is None:
            sid = len(self._spellings)
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
            self._tid_by_key[key] = tid
        self._tid_by_spelling.setdefault(spelling, tid)
        self._intern_spelling(spelling)
        return tid

    def _populate(self, kb: "KnowledgeBase") -> None:
        sid_of = self._sid_by_spelling
        tid_of = self._tid_by_key
        #: (term id, spelling id) the string path reports, and the graph
        #: edges, collected as pairs while the id space is still growing
        reported: list[tuple[int, int]] = []
        isa: list[tuple[int, int]] = []
        synsets: list[tuple[int, ...]] = []
        for domain in kb.domains():
            taxonomy = kb.taxonomy(domain)
            # a concept's key is the term key of its display spelling
            for concept in taxonomy:
                tid = self._intern_term(concept.term, concept.key)
                reported.append((tid, sid_of[concept.term]))
            isa.extend((tid_of[parent], tid_of[child]) for child, parent in taxonomy.isa_edges())
        for group in kb.value_synonym_groups():
            members = set()
            for spelling in sorted(group):
                tid = self._intern_term(spelling)
                members.add(tid)
                reported.append((tid, sid_of[spelling]))
            synsets.append(tuple(sorted(members)))
        for group in kb.attribute_synonym_groups():
            spellings = sorted(group)
            root = kb.root_attribute(spellings[0])
            for spelling in spellings:
                self._intern_term(spelling)
                self.attribute_roots[normalize_attribute(spelling)] = root
        terms = len(self._term_display)
        self._children = _adjacency(terms, isa)
        # synonym groups are disjoint: every member shares its group's
        # one tuple (itself included — walks skip settled terms anyway)
        self._peers = [()] * terms
        for synset in synsets:
            for tid in synset:
                self._peers[tid] = synset
        self._term_sids = _adjacency(terms, reported)

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
        spellings resolve in one dict probe; variant spellings pay one
        :func:`~repro.ontology.concepts.term_key` normalization (which
        raises on malformed terms exactly as the string path does)."""
        tid = self._tid_by_spelling.get(value)
        if tid is not None:
            return tid
        return self._tid_by_key.get(term_key(value))

    def term_id_of_key(self, key: str) -> int | None:
        return self._tid_by_key.get(key)

    def _value_term_id(self, value: str) -> int | None:
        """:meth:`term_id_of_value` restricted to the value substrate:
        ``None`` too for terms known only as attribute synonyms."""
        tid = self.term_id_of_value(value)
        if tid is None or not self._term_sids[tid]:
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

    def wire_sid(self, value: str) -> int | None:
        """The spelling id of *value* if it is safe to send to another
        process as a bare int, else ``None``.

        Only construction-time ids qualify: they are assigned by
        :meth:`_populate`'s deterministic enumeration of knowledge-base
        content, so any table built from an equal-content KB (a forked
        or respawned worker replica at the same ``version``) decodes
        them to the identical spelling.  Lazily interned ids are
        process-local and never cross the wire."""
        sid = self._sid_by_spelling.get(value)
        if sid is not None and sid < self._wire_base:
            return sid
        return None

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
                    canonical = self._kb.canonical_term(self._term_display[tid])
                    sid = -1 if canonical is None else self._intern_spelling(canonical)
                    self._canonical_sid[tid] = sid
        return None if sid < 0 else self._spellings[sid]

    def ancestors(self, tid: int) -> tuple[tuple[int, int], ...]:
        """``(spelling id, min distance)`` pairs for every
        generalization of the term, in the knowledge base's enumeration
        order — the full (unbounded) closure; budget-bounded callers
        filter by distance, which is equivalent because distances are
        minimal."""
        closure = self._up_closure.get(tid)
        if closure is None:
            with self._fill_lock:
                closure = self._up_closure.get(tid)
                if closure is None:
                    closure = tuple(
                        (self._intern_spelling(general), distance)
                        for general, distance in self._kb.generalizations(
                            self._term_display[tid]
                        ).items()
                    )
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
                    except Exception:
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
        immutable graph only — safe without the fill lock; the caller
        adds the settled count to ``_fill_steps`` under it."""
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
        term_sids = self._term_sids
        depths = {sid: depth for tid, depth in settled.items() for sid in term_sids[tid]}
        return depths, len(settled)

    def descent(self, tid: int) -> tuple[tuple[int, int], ...]:
        """``(spelling id, min total depth)`` pairs for every spelling
        an event may carry to reach the term — the unbounded closure
        :func:`descent_closure` defines, computed on ids and memoized
        once per term.  Bounded queries filter by depth."""
        closure = self._down_closure.get(tid)
        if closure is None:
            with self._fill_lock:
                closure = self._down_closure.get(tid)
                if closure is None:
                    depths, steps = self._descend((tid,))
                    self._fill_steps += steps
                    # the string BFS seeds from the literal term too
                    depths.setdefault(self._sid_by_spelling[self._term_display[tid]], 0)
                    closure = tuple(depths.items())
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
        interned equivalent of the subscription-side ``_descend`` BFS.
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
            for sid, depth in self.descent(tid)
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
        }


def _adjacency(terms: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Per-term sorted neighbour tuples from ``(term id, neighbour)``
    pairs — sorted so graph walks enumerate in one order under every
    hash seed, de-duplicated because domains may repeat an edge."""
    found: dict[int, list[int]] = {}
    for tid, neighbour in pairs:
        row = found.get(tid)
        if row is None:
            found[tid] = [neighbour]
        else:
            row.append(neighbour)
    rows: list[tuple[int, ...]] = [()] * terms
    for tid, row in found.items():
        rows[tid] = (row[0],) if len(row) == 1 else tuple(sorted(set(row)))
    return rows

