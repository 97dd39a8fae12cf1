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
internal identifier": a concept is a dense local index in registration
order, and the is-a relation is rows of indexes in ``array('i')``.  A
:class:`Concept` is a value built when one is asked for, never stored.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro.errors import (
    DuplicateConceptError,
    InvalidValueError,
    TaxonomyCycleError,
    UnknownConceptError,
)
from repro.ontology.concepts import Concept, term_and_key, term_key

__all__ = ["Taxonomy"]


def _row(first: array, more: dict[int, array], index: int) -> Sequence[int]:
    """The neighbours of *index* in declaration order: the whole
    overflow row when it has more than one, else its first slot."""
    head = first[index]
    if head < 0:
        return ()
    return more.get(index) or (head,)


def _append(first: array, more: dict[int, array], index: int, neighbour: int) -> None:
    head = first[index]
    if head < 0:
        first[index] = neighbour
    elif index in more:
        more[index].append(neighbour)
    else:
        more[index] = array("i", (head, neighbour))


class Taxonomy:
    """A single domain's concept hierarchy.

    All term arguments accept any spelling variant; results are reported
    in canonical display form.  The structure is append-only (concepts
    and edges can be added, not removed) which keeps derived caches in
    the semantic stages simple to invalidate: they key on
    :attr:`version`, bumped on every mutation.
    """

    def __init__(self, domain: str = "") -> None:
        self.domain = domain
        #: term key -> local index; indexes are dense, in registration order
        self._index: dict[str, int] = {}
        #: local index -> display spelling and term key (one shared
        #: string when the two are equal)
        self._display: list[str] = []
        self._keys: list[str] = []
        #: local index -> description, for the concepts that have one
        self._descriptions: dict[int, str] = {}
        #: the is-a rows: per concept its first parent / first child
        #: (-1 = none), and for the few concepts with more than one the
        #: whole row in an overflow dict.  Rows keep declaration order
        #: (walks never enumerate in the hash order of a set — which
        #: candidates a truncated expansion reaches must not depend on
        #: ``PYTHONHASHSEED``)
        self._up = array("i")
        self._up_more: dict[int, array] = {}
        self._down = array("i")
        self._down_more: dict[int, array] = {}
        self.version = 0
        #: what was appended since :meth:`take_appended` last ran — a
        #: :class:`Concept` per new concept, a ``(specialized key,
        #: generalized key)`` pair per new edge, in order; ``None``
        #: until someone follows this taxonomy, so building one logs
        #: and retains nothing
        self._appended: list | None = None

    # -- construction ----------------------------------------------------------

    def _intern(self, term: str, description: str = "") -> int:
        """The index of *term*'s concept, registering it when new
        (first spelling and first description win)."""
        display, key = term_and_key(term)
        index = self._index.get(key)
        if index is None:
            index = len(self._keys)
            self._index[key] = index
            self._display.append(display)
            self._keys.append(key)
            if description:
                self._descriptions[index] = description
            self._up.append(-1)
            self._down.append(-1)
            self.version += 1
            if self._appended is not None:
                self._appended.append(self._concept(index))
        return index

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
        display = self._display
        if child == parent:
            raise DuplicateConceptError(
                f"concept {display[child]!r} cannot be its own generalization"
            )
        if parent in _row(self._up, self._up_more, child):
            return
        # a child nobody specializes yet is no one's ancestor, so the
        # new edge cannot close a cycle: skip the upward walk (exact,
        # and what keeps leaf-by-leaf builds of deep spines linear)
        if self._down[child] >= 0 and self._reaches(parent, child):
            raise TaxonomyCycleError(
                f"edge {display[child]!r} -> {display[parent]!r} would create a cycle"
            )
        _append(self._up, self._up_more, child, parent)
        _append(self._down, self._down_more, parent, child)
        self.version += 1
        if self._appended is not None:
            self._appended.append((self._keys[child], self._keys[parent]))

    def add_chain(self, *terms: str) -> None:
        """Convenience: ``add_chain("sedan", "car", "vehicle")`` declares
        each term a specialization of the next."""
        for specialized, generalized in zip(terms, terms[1:]):
            self.add_isa(specialized, generalized)

    def take_appended(self) -> list:
        """Everything appended since the previous call, in order: a
        :class:`Concept` per new concept, a ``(specialized key,
        generalized key)`` pair per new is-a edge (the shapes
        ``iter(self)`` and :meth:`isa_edges` yield).  The first call
        starts the recording and hands back nothing — the concept
        table that follows this taxonomy has just read all of it."""
        appended, self._appended = self._appended or [], []
        return appended

    def _reaches(self, start: int, target: int) -> bool:
        """Whether *target* is reachable walking upward from *start*."""
        if start == target:
            return True
        up, more = self._up, self._up_more
        stack, seen = [start], {start}
        while stack:
            for parent in _row(up, more, stack.pop()):
                if parent == target:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return False

    # -- lookup ------------------------------------------------------------------

    def _concept(self, index: int) -> Concept:
        return Concept._finished(
            self._display[index],
            self._keys[index],
            self.domain,
            self._descriptions.get(index, ""),
        )

    def _find(self, term: str) -> int | None:
        """The index of *term*'s concept; ``None`` when unknown or when
        *term* does not normalize."""
        try:
            return self._index.get(term_key(term))
        except InvalidValueError:
            return None

    def _lookup(self, term: str) -> int:
        index = self._index.get(term_key(term))
        if index is None:
            raise UnknownConceptError(
                f"term {term!r} is not in the {self.domain or 'anonymous'} taxonomy"
            )
        return index

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, term: str) -> bool:
        return self._find(term) is not None

    def __iter__(self) -> Iterator[Concept]:
        return map(self._concept, range(len(self._keys)))

    def concept(self, term: str) -> Concept:
        return self._concept(self._lookup(term))

    def canonical(self, term: str) -> str:
        """Canonical display spelling of *term*."""
        return self._display[self._lookup(term)]

    def terms(self) -> tuple[str, ...]:
        return tuple(self._display)

    def _sorted_terms(self, indexes) -> tuple[str, ...]:
        display = self._display
        return tuple(sorted(display[i] for i in indexes))

    def parents(self, term: str) -> tuple[str, ...]:
        """Immediate generalizations, canonical spelling."""
        return self._sorted_terms(_row(self._up, self._up_more, self._lookup(term)))

    def children(self, term: str) -> tuple[str, ...]:
        """Immediate specializations, canonical spelling."""
        return self._sorted_terms(_row(self._down, self._down_more, self._lookup(term)))

    def concept_rows(self) -> Iterator[tuple[str, str]]:
        """``(display spelling, term key)`` per concept, by local index
        (registration order) — what the concept table interns."""
        return zip(self._display, self._keys)

    def child_rows(self) -> Iterator[tuple[int, Sequence[int]]]:
        """``(index, child indexes)`` for every concept with children,
        indexes being :meth:`concept_rows` positions — what the concept
        table's child rows are built from."""
        down, more = self._down, self._down_more
        for index, head in enumerate(down):
            if head >= 0:
                yield index, more.get(index) or (head,)

    def _edges(self) -> Iterator[tuple[int, int]]:
        """Every is-a edge as a ``(specialized, generalized)`` index
        pair, in :meth:`isa_edges` order."""
        up, more = self._up, self._up_more
        for index, head in enumerate(up):
            if head >= 0:
                for parent in more.get(index) or (head,):
                    yield index, parent

    def isa_edges(self) -> Iterator[tuple[str, str]]:
        """Every is-a edge as a ``(specialized key, generalized key)``
        pair of :attr:`Concept.key` values, in declaration order,
        grouped by specialized concept in registration order."""
        keys = self._keys
        for child, parent in self._edges():
            yield keys[child], keys[parent]

    def roots(self) -> tuple[str, ...]:
        """Concepts without generalizations (hierarchy tops)."""
        return tuple(sorted(t for t, head in zip(self._display, self._up) if head < 0))

    def leaves(self) -> tuple[str, ...]:
        """Concepts without specializations."""
        return tuple(sorted(t for t, head in zip(self._display, self._down) if head < 0))

    # -- traversal -------------------------------------------------------------------

    def _walk(
        self, start: int, first: array, more: dict[int, array], max_distance: int | None
    ) -> dict[int, int]:
        """``{index: minimum hop distance}`` of every concept reached
        from *start* along the rows, in breadth-first discovery order
        (*start* itself excluded)."""
        found = {start: 0}
        level, distance = [start], 0
        while level and (max_distance is None or distance < max_distance):
            distance += 1
            reached = []
            for node in level:
                head = first[node]
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
        display = self._display
        return {display[i]: d for i, d in distances.items()}

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
        index = self._find(term)
        if index is None:
            return []
        display, keys = self._display, self._keys
        return [
            (display[i], keys[i], d)
            for i, d in self._walk(index, self._up, self._up_more, max_distance).items()
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
        up, more = self._up, self._up_more
        height = array("i", [-1]) * len(up)
        for start in range(len(up)):
            if height[start] >= 0:
                continue
            # (index, parents settled?) — a concept is finished after
            # all of its parents, which sit above it on the stack
            stack = [(start, False)]
            while stack:
                node, settled = stack.pop()
                parents = _row(up, more, node)
                if settled:
                    height[node] = 1 + max(height[p] for p in parents) if parents else 0
                elif height[node] < 0:
                    height[node] = 0  # cycle guard (structure is acyclic by construction)
                    stack.append((node, True))
                    stack.extend((p, False) for p in parents if height[p] < 0)
        return max(height, default=0)

    # -- maintenance ----------------------------------------------------------------

    def merge(self, other: "Taxonomy") -> None:
        """Union another taxonomy's concepts and edges into this one,
        each concept's parents in the order *other* declared them."""
        display = other._display
        for index, term in enumerate(display):
            self._intern(term, other._descriptions.get(index, ""))
        for child, parent in other._edges():
            self.add_isa(display[child], display[parent])

    def validate(self) -> list[str]:
        """Structural diagnostics (empty = healthy).  The invariants are
        enforced at construction; this re-checks them for tests: every
        row entry names a concept, every edge is in both the parent and
        the child row, and the parent rows are acyclic."""
        problems: list[str] = []
        keys, count = self._keys, len(self._keys)
        up, up_more, down, down_more = self._up, self._up_more, self._down, self._down_more
        up_edges = list(self._edges())
        down_edges = [(c, p) for p in range(count) for c in _row(down, down_more, p)]
        ups, downs = set(up_edges), set(down_edges)
        for child, parent in up_edges:
            if not 0 <= parent < count:
                problems.append(f"dangling parent #{parent} of {keys[child]!r}")
            elif (child, parent) not in downs:
                problems.append(f"asymmetric edge {keys[child]!r} -> {keys[parent]!r}")
        for child, parent in down_edges:
            if not 0 <= child < count:
                problems.append(f"dangling child #{child} of {keys[parent]!r}")
            elif (child, parent) not in ups:
                problems.append(f"asymmetric edge {keys[child]!r} -> {keys[parent]!r}")
        # cycle check via DFS coloring, iterative: one stack frame per
        # level would overflow on deep chains
        WHITE, GRAY, BLACK = 0, 1, 2
        color = bytearray(count)
        for start in range(count):
            if color[start] != WHITE:
                continue
            color[start] = GRAY
            stack = [(start, iter(_row(up, up_more, start)))]
            while stack:
                node, pending = stack[-1]
                for parent in pending:
                    # a dangling parent is reported above
                    shade = color[parent] if 0 <= parent < count else BLACK
                    if shade == GRAY:
                        problems.append(f"cycle reachable from {keys[start]!r}")
                        return problems
                    if shade == WHITE:
                        color[parent] = GRAY
                        stack.append((parent, iter(_row(up, up_more, parent))))
                        break
                else:
                    color[node] = BLACK
                    stack.pop()
        return problems

    def stats(self) -> dict[str, int]:
        """Size metrics used by the taxonomy-shape ablation (A3); roots
        and leaves are the concepts whose first slot is empty, counted
        without listing them."""
        concepts = len(self._keys)
        roots = self._up.count(-1)
        return {
            "concepts": concepts,
            "edges": concepts - roots + sum(len(row) - 1 for row in self._up_more.values()),
            "roots": roots,
            "leaves": self._down.count(-1),
            "depth": self.depth(),
        }
