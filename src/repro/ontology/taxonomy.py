"""Concept hierarchies: specialization/generalization DAGs.

"Taxonomies represent a way of organizing ontological knowledge using
specialization and generalization relationships between different
concepts … more general terms are higher up in the hierarchy and are
linked to more specialized terms situated lower" (paper §3.1).

A :class:`Taxonomy` is a rooted-or-forest DAG over :class:`Concept`
nodes with *is-a* edges from the specialized child to the generalized
parent.  Multiple parents are allowed (a "station wagon" is-a "car" and
is-a "family vehicle"), cycles are rejected at insertion time, and all
upward/downward traversals report the *minimum* hop distance — the
"level of match generality" that the tolerance knob bounds.

Storage follows the paper's rule to "substitute each term with an
internal identifier": a concept is the id its term has in the
knowledge base's :class:`~repro.ontology.concept_table.TermStore`
(shared by every domain and both thesauri), and the is-a relation is
rows of those ids in ``array('i')``.  A :class:`Concept` is a value
built when one is asked for, never stored.
"""

from __future__ import annotations

from array import array
from typing import Iterator, KeysView, Sequence

from repro.errors import (
    DuplicateConceptError,
    InvalidValueError,
    TaxonomyCycleError,
    UnknownConceptError,
)
from repro.ontology.concept_table import TermStore
from repro.ontology.concepts import Concept, term_and_key, term_key

__all__ = ["Taxonomy"]


def _row(first: array, more: dict[int, array], tid: int, base: int) -> Sequence[int]:
    """The neighbours of member *tid* in declaration order: the whole
    overflow row when it has more than one, else its first slot
    (``first`` covers the ids from *base* on)."""
    head = first[tid - base]
    if head < 0:
        return ()
    return more.get(tid) or (head,)


def _append(first: array, more: dict[int, array], tid: int, base: int, neighbour: int) -> None:
    slot = tid - base
    head = first[slot]
    if head < 0:
        first[slot] = neighbour
    elif tid in more:
        more[tid].append(neighbour)
    else:
        more[tid] = array("i", (head, neighbour))


#: the row slots of an id the domain does not hold
_ABSENT = -2


class Taxonomy:
    """A single domain's concept hierarchy.

    All term arguments accept any spelling variant; results are reported
    in canonical display form.  The structure is append-only (concepts
    and edges can be added, not removed) which keeps derived caches in
    the semantic stages simple to invalidate: they key on
    :attr:`version`, bumped on every mutation.
    """

    def __init__(self, domain: str = "", terms: TermStore | None = None) -> None:
        self.domain = domain
        #: the id space concepts are interned into: the knowledge
        #: base's, or one of its own for a standalone taxonomy
        self._terms = TermStore() if terms is None else terms
        #: the member ids in registration order
        self._order = array("i")
        #: member id -> this domain's display spelling, where it is not
        #: the store's (first spelling wins, per domain)
        self._display: dict[int, str] = {}
        #: member id -> description, for the concepts that have one
        self._descriptions: dict[int, str] = {}
        #: the is-a rows: per concept its first parent / first child
        #: (-1 = none, -2 = not a member), and for the few concepts with
        #: more than one the whole row in an overflow dict.  The first
        #: slots cover only the span of ids this domain holds — slot
        #: ``tid - _base``; ids outside it are not members — so a domain
        #: costs its own span, not the whole store.  Rows keep
        #: declaration order (walks never enumerate in the hash order of
        #: a set — which candidates a truncated expansion reaches must
        #: not depend on ``PYTHONHASHSEED``)
        self._base = 0
        self._up = array("i")
        self._up_more: dict[int, array] = {}
        self._down = array("i")
        self._down_more: dict[int, array] = {}
        self.version = 0

    # -- construction ----------------------------------------------------------

    def _intern(self, term: str, description: str = "") -> int:
        """The id of *term*'s concept, registering it when new to this
        domain (first spelling and first description win)."""
        terms = self._terms
        # a member is looked up, not interned: a write that registers
        # nothing teaches the store no spelling (the version would not
        # move, and maps keyed on spelling ids would not be rebuilt).
        # A known spelling is probed as given; any other is normalized.
        tid = terms.known_id(term) if isinstance(term, str) else None
        if tid is not None and self._has(tid):
            return tid
        display, key = term_and_key(term)
        tid = terms.find(key)
        if tid is not None and self._has(tid):
            return tid
        tid = terms.intern(display, key)
        self._open(tid)
        self._order.append(tid)
        if display != terms.display(tid):
            self._display[tid] = display
        if description:
            self._descriptions[tid] = description
        self.version += 1
        return tid

    def _open(self, tid: int) -> None:
        """Give *tid* empty rows, widening the first slots to cover it.
        Growing downward pads by at least the current span, so a domain
        that registers ids in falling order still copies amortized O(1)."""
        up, down = self._up, self._down
        if not self._order:
            self._base = tid
        base = self._base
        if tid < base:
            start = max(0, min(tid, base - len(up)))
            pad = array("i", (_ABSENT,)) * (base - start)
            self._up, self._down = up, down = pad + up, pad + down
            self._base = base = start
        slot, size = tid - base, len(up)
        if slot < size:
            up[slot] = down[slot] = -1
            return
        if slot > size:
            pad = array("i", (_ABSENT,)) * (slot - size)
            up.extend(pad)
            down.extend(pad)
        up.append(-1)
        down.append(-1)

    def add_concept(self, term: str, description: str = "") -> Concept:
        """Register a concept; re-registering the same key is a no-op and
        returns an equal node (first spelling wins)."""
        return self._concept(self._intern(term, description))

    def add_isa(self, specialized: str, generalized: str) -> None:
        """Add an is-a edge: *specialized* is a kind of *generalized*.

        Both concepts are auto-registered.  Raises
        :class:`~repro.errors.TaxonomyCycleError` if the edge would make
        the hierarchy cyclic, and
        :class:`~repro.errors.DuplicateConceptError` for self-loops.
        """
        child, parent = self._intern(specialized), self._intern(generalized)
        name = self._name
        if child == parent:
            raise DuplicateConceptError(f"concept {name(child)!r} cannot be its own generalization")
        base = self._base
        if parent in _row(self._up, self._up_more, child, base):
            return
        # a child nobody specializes yet is no one's ancestor, so the
        # new edge cannot close a cycle: skip the upward walk (exact,
        # and what keeps leaf-by-leaf builds of deep spines linear)
        if self._down[child - base] >= 0 and self._reaches(parent, child):
            raise TaxonomyCycleError(
                f"edge {name(child)!r} -> {name(parent)!r} would create a cycle"
            )
        _append(self._up, self._up_more, child, base, parent)
        _append(self._down, self._down_more, parent, base, child)
        self.version += 1

    def add_chain(self, *terms: str) -> None:
        """Convenience: ``add_chain("sedan", "car", "vehicle")`` declares
        each term a specialization of the next."""
        for specialized, generalized in zip(terms, terms[1:]):
            self.add_isa(specialized, generalized)

    def _reaches(self, start: int, target: int) -> bool:
        """Whether *target* is reachable walking upward from *start*."""
        if start == target:
            return True
        up, more, base = self._up, self._up_more, self._base
        stack, seen = [start], {start}
        while stack:
            for parent in _row(up, more, stack.pop(), base):
                if parent == target:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return False

    # -- lookup ------------------------------------------------------------------

    def _has(self, tid: int) -> bool:
        """Whether the term id is a concept of this domain."""
        up, slot = self._up, tid - self._base
        return 0 <= slot < len(up) and up[slot] != _ABSENT

    def _name(self, tid: int) -> str:
        """This domain's display spelling of a member id."""
        return self._display.get(tid) or self._terms.display(tid)

    def _concept(self, tid: int) -> Concept:
        return Concept._finished(
            self._name(tid),
            self._terms.key(tid),
            self.domain,
            self._descriptions.get(tid, ""),
        )

    def _find(self, term: str) -> int | None:
        """The id of *term*'s concept; ``None`` when not a member or
        when *term* does not normalize."""
        try:
            tid = self._terms.find(term_key(term))
        except InvalidValueError:
            return None
        return tid if tid is not None and self._has(tid) else None

    def _lookup(self, term: str) -> int:
        tid = self._terms.find(term_key(term))
        if tid is None or not self._has(tid):
            raise UnknownConceptError(
                f"term {term!r} is not in the {self.domain or 'anonymous'} taxonomy"
            )
        return tid

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, term: str) -> bool:
        return self._find(term) is not None

    def __iter__(self) -> Iterator[Concept]:
        return map(self._concept, self._order)

    def concept(self, term: str) -> Concept:
        return self._concept(self._lookup(term))

    def canonical(self, term: str) -> str:
        """Canonical display spelling of *term*."""
        return self._name(self._lookup(term))

    def terms(self) -> tuple[str, ...]:
        return tuple(map(self._name, self._order))

    def _sorted_terms(self, tids) -> tuple[str, ...]:
        return tuple(sorted(map(self._name, tids)))

    def parents(self, term: str) -> tuple[str, ...]:
        """Immediate generalizations, canonical spelling."""
        return self._sorted_terms(_row(self._up, self._up_more, self._lookup(term), self._base))

    def children(self, term: str) -> tuple[str, ...]:
        """Immediate specializations, canonical spelling."""
        return self._sorted_terms(
            _row(self._down, self._down_more, self._lookup(term), self._base)
        )

    def _edges(self) -> Iterator[tuple[int, int]]:
        """Every is-a edge as a ``(specialized, generalized)`` id pair,
        in :meth:`isa_edges` order."""
        up, more, base = self._up, self._up_more, self._base
        for tid in self._order:
            head = up[tid - base]
            if head >= 0:
                for parent in more.get(tid) or (head,):
                    yield tid, parent

    def isa_edges(self) -> Iterator[tuple[str, str]]:
        """Every is-a edge as a ``(specialized key, generalized key)``
        pair of :attr:`Concept.key` values, in declaration order,
        grouped by specialized concept in registration order."""
        key = self._terms.key
        for child, parent in self._edges():
            yield key(child), key(parent)

    def roots(self) -> tuple[str, ...]:
        """Concepts without generalizations (hierarchy tops)."""
        up, base = self._up, self._base
        return self._sorted_terms(tid for tid in self._order if up[tid - base] < 0)

    def leaves(self) -> tuple[str, ...]:
        """Concepts without specializations."""
        down, base = self._down, self._base
        return self._sorted_terms(tid for tid in self._order if down[tid - base] < 0)

    # -- id reads (the concept table's) -------------------------------------------

    def _respelled(self) -> KeysView[int]:
        """The member ids this domain spells other than the store
        displays them (a set-like view)."""
        return self._display.keys()

    def _children(self, tids: Sequence[int], low: int, high: int) -> list[int]:
        """The child ids of each of *tids* this domain holds, row by
        row in declaration order (ids it does not hold add nothing);
        *low* and *high* are the least and greatest of *tids*, so a
        domain whose span they miss answers without a scan."""
        first, more, base = self._down, self._down_more, self._base
        size = len(first)
        found: list[int] = []
        if high < base or low >= base + size:
            return found
        for tid in tids:
            slot = tid - base
            if 0 <= slot < size:
                head = first[slot]
                if head >= 0:
                    found.extend(more.get(tid) or (head,))
        return found

    def _ancestor_ids(self, tid: int) -> dict[int, int]:
        """``{id: minimum hop distance}`` of every generalization of
        member *tid*, in :meth:`ancestors` order."""
        return self._walk(tid, self._up, self._up_more, None)

    # -- traversal -------------------------------------------------------------------

    def _walk(
        self, start: int, first: array, more: dict[int, array], max_distance: int | None
    ) -> dict[int, int]:
        """``{id: minimum hop distance}`` of every concept reached
        from *start* along the rows, in breadth-first discovery order
        (*start* itself excluded)."""
        found = {start: 0}
        level, distance, base = [start], 0, self._base
        while level and (max_distance is None or distance < max_distance):
            distance += 1
            reached = []
            for node in level:
                head = first[node - base]
                if head < 0:
                    continue
                for nxt in more.get(node) or (head,):
                    if nxt not in found:
                        found[nxt] = distance
                        reached.append(nxt)
            level = reached
        del found[start]
        return found

    def _named(self, distances: dict[int, int]) -> dict[str, int]:
        name = self._name
        return {name(tid): d for tid, d in distances.items()}

    def ancestors(self, term: str, max_distance: int | None = None) -> dict[str, int]:
        """All generalizations with their minimum upward hop distance.

        ``max_distance`` bounds the walk (the tolerance knob); the term
        itself is not included.
        """
        return self._named(self._walk(self._lookup(term), self._up, self._up_more, max_distance))

    def ancestors_keyed(
        self, term: str, max_distance: int | None = None
    ) -> list[tuple[str, str, int]]:
        """:meth:`ancestors` as ``(display, key, distance)`` triples in
        the same order — empty when *term* is not a member."""
        tid = self._find(term)
        if tid is None:
            return []
        name, key = self._name, self._terms.key
        return [
            (name(i), key(i), d)
            for i, d in self._walk(tid, self._up, self._up_more, max_distance).items()
        ]

    def descendants(self, term: str, max_distance: int | None = None) -> dict[str, int]:
        """All specializations with minimum downward hop distance."""
        return self._named(
            self._walk(self._lookup(term), self._down, self._down_more, max_distance)
        )

    def is_generalization_of(self, general: str, specific: str) -> bool:
        """Paper rule R1's test: is *general* an ancestor of *specific*?"""
        try:
            g, s = self._lookup(general), self._lookup(specific)
        except UnknownConceptError:
            return False
        return g != s and self._reaches(s, g)

    def generalization_distance(self, specific: str, general: str) -> int | None:
        """Minimum upward hops from *specific* to *general*; ``None`` if
        *general* is not an ancestor.  Distance 0 means the same concept."""
        s, g = self._lookup(specific), self._lookup(general)
        if s == g:
            return 0
        return self._walk(s, self._up, self._up_more, None).get(g)

    def depth(self) -> int:
        """Length of the longest is-a chain in the hierarchy.

        Iterative post-order over the parent rows, so a chain of any
        length costs heap, not interpreter stack."""
        up, more, base = self._up, self._up_more, self._base
        # indexed by slot, as the rows are
        height = array("i", [-1]) * len(up)
        for start in self._order:
            if height[start - base] >= 0:
                continue
            # (id, parents settled?) — a concept is finished after
            # all of its parents, which sit above it on the stack
            stack = [(start, False)]
            while stack:
                node, settled = stack.pop()
                parents = _row(up, more, node, base)
                if settled:
                    height[node - base] = (
                        1 + max(height[p - base] for p in parents) if parents else 0
                    )
                elif height[node - base] < 0:
                    # cycle guard (structure is acyclic by construction)
                    height[node - base] = 0
                    stack.append((node, True))
                    stack.extend((p, False) for p in parents if height[p - base] < 0)
        return max(height, default=0) if self._order else 0

    # -- maintenance ----------------------------------------------------------------

    def merge(self, other: "Taxonomy") -> None:
        """Union another taxonomy's concepts and edges into this one,
        each concept's parents in the order *other* declared them."""
        name = other._name
        for tid in other._order:
            self._intern(name(tid), other._descriptions.get(tid, ""))
        for child, parent in other._edges():
            self.add_isa(name(child), name(parent))

    def validate(self) -> list[str]:
        """Structural diagnostics (empty = healthy).  The invariants are
        enforced at construction; this re-checks them for tests: every
        row entry names a concept, every edge is in both the parent and
        the child row, and the parent rows are acyclic."""
        problems: list[str] = []
        key, member, base = self._terms.key, self._has, self._base
        up, up_more, down, down_more = self._up, self._up_more, self._down, self._down_more
        up_edges = list(self._edges())
        down_edges = [(c, p) for p in self._order for c in _row(down, down_more, p, base)]
        ups, downs = set(up_edges), set(down_edges)
        for child, parent in up_edges:
            if not member(parent):
                problems.append(f"dangling parent #{parent} of {key(child)!r}")
            elif (child, parent) not in downs:
                problems.append(f"asymmetric edge {key(child)!r} -> {key(parent)!r}")
        for child, parent in down_edges:
            if not member(child):
                problems.append(f"dangling child #{child} of {key(parent)!r}")
            elif (child, parent) not in ups:
                problems.append(f"asymmetric edge {key(child)!r} -> {key(parent)!r}")
        # cycle check via DFS coloring, iterative: one stack frame per
        # level would overflow on deep chains
        WHITE, GRAY, BLACK = 0, 1, 2
        color = bytearray(len(up))  # by slot
        for start in self._order:
            if color[start - base] != WHITE:
                continue
            color[start - base] = GRAY
            stack = [(start, iter(_row(up, up_more, start, base)))]
            while stack:
                node, pending = stack[-1]
                for parent in pending:
                    # a dangling parent is reported above
                    shade = color[parent - base] if member(parent) else BLACK
                    if shade == GRAY:
                        problems.append(f"cycle reachable from {key(start)!r}")
                        return problems
                    if shade == WHITE:
                        color[parent - base] = GRAY
                        stack.append((parent, iter(_row(up, up_more, parent, base))))
                        break
                else:
                    color[node - base] = BLACK
                    stack.pop()
        return problems

    def stats(self) -> dict[str, int]:
        """Size metrics used by the taxonomy-shape ablation (A3); roots
        and leaves are the concepts whose first slot is empty, counted
        without listing them."""
        concepts = len(self._order)
        roots = self._up.count(-1)
        return {
            "concepts": concepts,
            "edges": concepts - roots + sum(len(row) - 1 for row in self._up_more.values()),
            "roots": roots,
            "leaves": self._down.count(-1),
            "depth": self.depth(),
        }
