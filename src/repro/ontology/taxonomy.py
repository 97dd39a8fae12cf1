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
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping, Sequence

from repro.errors import (
    DuplicateConceptError,
    TaxonomyCycleError,
    UnknownConceptError,
)
from repro.ontology.concepts import Concept, term_and_key, term_key

__all__ = ["Taxonomy"]


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
        self._concepts: dict[str, Concept] = {}
        #: key -> neighbour keys in the order the edges were declared
        #: (walks never enumerate in the hash order of a set of strings —
        #: which candidates a truncated expansion reaches must not depend
        #: on ``PYTHONHASHSEED``).  Sparse: a concept without parents has
        #: no ``_parents`` entry, one without children no ``_children``
        #: entry, so storage grows with edges, not with concepts
        self._parents: dict[str, tuple[str, ...]] = {}
        self._children: dict[str, list[str]] = {}
        self.version = 0
        #: what was appended since :meth:`take_appended` last ran — a
        #: :class:`Concept` per new concept, a ``(specialized key,
        #: generalized key)`` pair per new edge, in order; ``None``
        #: until someone follows this taxonomy, so building one logs
        #: and retains nothing
        self._appended: list | None = None

    # -- construction ----------------------------------------------------------

    def add_concept(self, term: str, description: str = "") -> Concept:
        """Register a concept; re-registering the same key is a no-op and
        returns the existing node (first spelling wins)."""
        display, key = term_and_key(term)
        existing = self._concepts.get(key)
        if existing is not None:
            return existing
        concept = Concept._finished(display, key, self.domain, description)
        self._concepts[key] = concept
        self.version += 1
        if self._appended is not None:
            self._appended.append(concept)
        return concept

    def add_isa(self, specialized: str, generalized: str) -> None:
        """Add an is-a edge: *specialized* is a kind of *generalized*.

        Both concepts are auto-registered.  Raises
        :class:`~repro.errors.TaxonomyCycleError` if the edge would make
        the hierarchy cyclic, and
        :class:`~repro.errors.DuplicateConceptError` for self-loops.
        """
        child = self.add_concept(specialized)
        parent = self.add_concept(generalized)
        if child.key == parent.key:
            raise DuplicateConceptError(f"concept {child.term!r} cannot be its own generalization")
        parents = self._parents.get(child.key, ())
        if parent.key in parents:
            return
        # a child nobody specializes yet is no one's ancestor, so the
        # new edge cannot close a cycle: skip the upward walk (exact,
        # and what keeps leaf-by-leaf builds of deep spines linear)
        if child.key in self._children and self._reaches(parent.key, child.key):
            raise TaxonomyCycleError(f"edge {child.term!r} -> {parent.term!r} would create a cycle")
        self._parents[child.key] = parents + (parent.key,)
        self._children.setdefault(parent.key, []).append(child.key)
        self.version += 1
        if self._appended is not None:
            self._appended.append((child.key, parent.key))

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

    def _reaches(self, start_key: str, target_key: str) -> bool:
        """Whether *target* is reachable walking upward from *start*."""
        if start_key == target_key:
            return True
        stack, seen = [start_key], {start_key}
        while stack:
            node = stack.pop()
            for parent in self._parents.get(node, ()):
                if parent == target_key:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return False

    # -- lookup ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, term: str) -> bool:
        try:
            return term_key(term) in self._concepts
        except Exception:
            return False

    def __iter__(self) -> Iterator[Concept]:
        return iter(self._concepts.values())

    def concept(self, term: str) -> Concept:
        try:
            return self._concepts[term_key(term)]
        except KeyError:
            raise UnknownConceptError(
                f"term {term!r} is not in the {self.domain or 'anonymous'} taxonomy"
            ) from None

    def canonical(self, term: str) -> str:
        """Canonical display spelling of *term*."""
        return self.concept(term).term

    def terms(self) -> tuple[str, ...]:
        return tuple(c.term for c in self._concepts.values())

    def parents(self, term: str) -> tuple[str, ...]:
        """Immediate generalizations, canonical spelling."""
        node = self.concept(term)
        return tuple(sorted(self._concepts[k].term for k in self._parents.get(node.key, ())))

    def children(self, term: str) -> tuple[str, ...]:
        """Immediate specializations, canonical spelling."""
        node = self.concept(term)
        return tuple(sorted(self._concepts[k].term for k in self._children.get(node.key, ())))

    def isa_edges(self) -> Iterator[tuple[str, str]]:
        """Every is-a edge as a ``(specialized key, generalized key)``
        pair of :attr:`Concept.key` values, in declaration order — the
        bulk export the concept table builds its id graph from, grouped
        by specialized concept in registration order."""
        parents_of = self._parents
        for key in self._concepts:
            for parent in parents_of.get(key, ()):
                yield key, parent

    def roots(self) -> tuple[str, ...]:
        """Concepts without generalizations (hierarchy tops)."""
        return tuple(sorted(c.term for k, c in self._concepts.items() if k not in self._parents))

    def leaves(self) -> tuple[str, ...]:
        """Concepts without specializations."""
        return tuple(sorted(c.term for k, c in self._concepts.items() if k not in self._children))

    # -- traversal -------------------------------------------------------------------

    def _walk(
        self, term: str, edges: Mapping[str, Sequence[str]], max_distance: int | None
    ) -> dict[str, int]:
        start = self.concept(term)
        distances: dict[str, int] = {}
        queue: deque[tuple[str, int]] = deque([(start.key, 0)])
        seen = {start.key: 0}
        while queue:
            key, dist = queue.popleft()
            if max_distance is not None and dist >= max_distance:
                continue
            for nxt in edges.get(key, ()):
                if nxt not in seen or seen[nxt] > dist + 1:
                    seen[nxt] = dist + 1
                    distances[self._concepts[nxt].term] = dist + 1
                    queue.append((nxt, dist + 1))
        return distances

    def ancestors(self, term: str, max_distance: int | None = None) -> dict[str, int]:
        """All generalizations with their minimum upward hop distance.

        ``max_distance`` bounds the walk (the tolerance knob); the term
        itself is not included.
        """
        return self._walk(term, self._parents, max_distance)

    def descendants(self, term: str, max_distance: int | None = None) -> dict[str, int]:
        """All specializations with minimum downward hop distance."""
        return self._walk(term, self._children, max_distance)

    def is_generalization_of(self, general: str, specific: str) -> bool:
        """Paper rule R1's test: is *general* an ancestor of *specific*?"""
        try:
            g, s = self.concept(general), self.concept(specific)
        except UnknownConceptError:
            return False
        return self._reaches(s.key, g.key) and g.key != s.key

    def generalization_distance(self, specific: str, general: str) -> int | None:
        """Minimum upward hops from *specific* to *general*; ``None`` if
        *general* is not an ancestor.  Distance 0 means the same concept."""
        s = self.concept(specific)
        g = self.concept(general)
        if s.key == g.key:
            return 0
        return self.ancestors(specific).get(g.term)

    def depth(self) -> int:
        """Length of the longest is-a chain in the hierarchy.

        Iterative post-order over the parent edges, so a chain of any
        length costs heap, not interpreter stack."""
        parents_of = self._parents
        height: dict[str, int] = {}
        for start in self._concepts:
            if start in height:
                continue
            # (key, parents settled?) — a key is finished after all of
            # its parents, which sit above it on the stack
            stack = [(start, False)]
            while stack:
                key, settled = stack.pop()
                parents = parents_of.get(key, ())
                if settled:
                    height[key] = 1 + max(height[p] for p in parents) if parents else 0
                elif key not in height:
                    height[key] = 0  # cycle guard (structure is acyclic by construction)
                    stack.append((key, True))
                    stack.extend((p, False) for p in parents if p not in height)
        return max(height.values(), default=0)

    # -- maintenance ----------------------------------------------------------------

    def merge(self, other: "Taxonomy") -> None:
        """Union another taxonomy's concepts and edges into this one."""
        for concept in other:
            self.add_concept(concept.term, concept.description)
        for concept in other:
            for parent in other.parents(concept.term):
                self.add_isa(concept.term, parent)

    def validate(self) -> list[str]:
        """Structural diagnostics (empty = healthy).  The invariants are
        enforced at construction; this re-checks them for tests."""
        problems: list[str] = []
        down = {(child, parent) for parent, children in self._children.items() for child in children}
        for key, parents in self._parents.items():
            for parent in parents:
                if parent not in self._concepts:
                    problems.append(f"dangling parent {parent!r} of {key!r}")
                if (key, parent) not in down:
                    problems.append(f"asymmetric edge {key!r} -> {parent!r}")
        # cycle check via DFS coloring, iterative: one stack frame per
        # level would overflow on deep chains
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(self._concepts, WHITE)
        for start in self._concepts:
            if color[start] != WHITE:
                continue
            color[start] = GRAY
            stack = [(start, iter(self._parents.get(start, ())))]
            while stack:
                node, pending = stack[-1]
                for parent in pending:
                    shade = color.get(parent, BLACK)  # dangling: reported above
                    if shade == GRAY:
                        problems.append(f"cycle reachable from {start!r}")
                        return problems
                    if shade == WHITE:
                        color[parent] = GRAY
                        stack.append((parent, iter(self._parents.get(parent, ()))))
                        break
                else:
                    color[node] = BLACK
                    stack.pop()
        return problems

    def stats(self) -> dict[str, int]:
        """Size metrics used by the taxonomy-shape ablation (A3); roots
        and leaves are the concepts the sparse adjacency has no entry
        for, counted without listing them."""
        concepts = len(self._concepts)
        return {
            "concepts": concepts,
            "edges": sum(map(len, self._parents.values())),
            "roots": concepts - len(self._parents),
            "leaves": concepts - len(self._children),
            "depth": self.depth(),
        }
