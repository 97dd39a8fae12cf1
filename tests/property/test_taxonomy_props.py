"""Properties of the taxonomy structure on random DAGs."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import DuplicateConceptError, TaxonomyCycleError
from repro.ontology.concepts import Concept, term_key
from repro.ontology.taxonomy import Taxonomy

_TERMS = [f"n{i}" for i in range(10)]


@st.composite
def random_taxonomies(draw) -> Taxonomy:
    taxonomy = Taxonomy("t")
    for term in _TERMS:
        taxonomy.add_concept(term)
    edge_count = draw(st.integers(min_value=0, max_value=18))
    for _ in range(edge_count):
        child = draw(st.integers(min_value=1, max_value=len(_TERMS) - 1))
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        taxonomy.add_isa(_TERMS[child], _TERMS[parent])
    return taxonomy


@given(taxonomy=random_taxonomies())
def test_structure_always_validates(taxonomy):
    assert taxonomy.validate() == []


@given(taxonomy=random_taxonomies(), data=st.data())
def test_ancestor_descendant_duality(taxonomy, data):
    term = data.draw(st.sampled_from(_TERMS))
    for ancestor, distance in taxonomy.ancestors(term).items():
        descendants = taxonomy.descendants(ancestor)
        assert term in descendants
        assert descendants[term] == distance


@given(taxonomy=random_taxonomies(), data=st.data())
def test_generalization_is_a_strict_partial_order(taxonomy, data):
    a = data.draw(st.sampled_from(_TERMS))
    b = data.draw(st.sampled_from(_TERMS))
    # antisymmetry
    if taxonomy.is_generalization_of(a, b):
        assert not taxonomy.is_generalization_of(b, a)
    # irreflexivity
    assert not taxonomy.is_generalization_of(a, a)


@given(taxonomy=random_taxonomies(), data=st.data())
def test_transitivity(taxonomy, data):
    a = data.draw(st.sampled_from(_TERMS))
    ups = taxonomy.ancestors(a)
    assume(ups)
    b = data.draw(st.sampled_from(sorted(ups)))
    ups_b = taxonomy.ancestors(b)
    for c in ups_b:
        assert taxonomy.is_generalization_of(c, a)
        # triangle inequality on minimum distances
        assert taxonomy.ancestors(a)[c] <= ups[b] + ups_b[c]


@given(taxonomy=random_taxonomies(), data=st.data())
def test_closing_a_cycle_always_raises(taxonomy, data):
    term = data.draw(st.sampled_from(_TERMS))
    ancestors = taxonomy.ancestors(term)
    assume(ancestors)
    ancestor = data.draw(st.sampled_from(sorted(ancestors)))
    with pytest.raises(TaxonomyCycleError):
        taxonomy.add_isa(ancestor, term)


@given(taxonomy=random_taxonomies())
def test_depth_bounds_all_distances(taxonomy):
    depth = taxonomy.depth()
    for term in _TERMS:
        for distance in taxonomy.ancestors(term).values():
            assert distance <= depth


@given(taxonomy=random_taxonomies(), data=st.data())
def test_a_merged_taxonomy_equals_its_source(taxonomy, data):
    """Merging re-declares every edge in the source's order, so the
    copy enumerates edges and each concept's ancestors exactly as the
    source does — into an empty taxonomy or one that already holds
    some of the concepts."""
    merged = Taxonomy("t")
    for term in data.draw(st.lists(st.sampled_from(_TERMS), unique=True)):
        merged.add_concept(term)
    merged.merge(taxonomy)
    assert sorted(merged.isa_edges()) == sorted(taxonomy.isa_edges())
    for term in _TERMS:
        assert list(merged.ancestors(term).items()) == list(taxonomy.ancestors(term).items())
    fresh = Taxonomy("t")
    fresh.merge(taxonomy)
    assert list(fresh.isa_edges()) == list(taxonomy.isa_edges())
    assert list(fresh) == list(taxonomy)


class _DictOfDictsTaxonomy:
    """The reference model: every concept owns an insertion-ordered
    dict-set of parents and one of children from birth, and every edge
    pays the upward cycle walk — the layout the compact
    :class:`Taxonomy` must be indistinguishable from."""

    def __init__(self, domain: str) -> None:
        self.domain = domain
        self.concepts: dict[str, Concept] = {}
        self.up: dict[str, dict[str, None]] = {}
        self.down: dict[str, dict[str, None]] = {}
        self.version = 0

    def add_concept(self, term: str) -> Concept:
        key = term_key(term)
        if key not in self.concepts:
            self.concepts[key] = Concept.of(term, self.domain)
            self.up[key], self.down[key] = {}, {}
            self.version += 1
        return self.concepts[key]

    def add_isa(self, specialized: str, generalized: str) -> None:
        child, parent = self.add_concept(specialized), self.add_concept(generalized)
        if child.key == parent.key:
            raise DuplicateConceptError(child.term)
        if parent.key in self.up[child.key]:
            return
        if child.key in self._walk(parent.key, self.up, None):
            raise TaxonomyCycleError(child.term)
        self.up[child.key][parent.key] = None
        self.down[parent.key][child.key] = None
        self.version += 1

    def _walk(self, key: str, edges, max_distance: int | None) -> dict[str, int]:
        distances: dict[str, int] = {}
        queue, seen = deque([(key, 0)]), {key: 0}
        while queue:
            node, dist = queue.popleft()
            if max_distance is not None and dist >= max_distance:
                continue
            for nxt in edges[node]:
                if nxt not in seen or seen[nxt] > dist + 1:
                    seen[nxt] = dist + 1
                    distances[nxt] = dist + 1
                    queue.append((nxt, dist + 1))
        return distances

    def walk_terms(self, term: str, edges, max_distance: int | None) -> list[tuple[str, int]]:
        found = self._walk(term_key(term), edges, max_distance)
        return [(self.concepts[k].term, d) for k, d in found.items()]

    def isa_edges(self) -> list[tuple[str, str]]:
        return [(key, parent) for key, parents in self.up.items() for parent in parents]

    def neighbours(self, term: str, edges) -> tuple[str, ...]:
        return tuple(sorted(self.concepts[k].term for k in edges[term_key(term)]))

    def without(self, edges) -> tuple[str, ...]:
        return tuple(sorted(c.term for k, c in self.concepts.items() if not edges[k]))


#: spelling variants of a few keys ("x_y" / "x y" / " X  Y " share one)
_SPELLINGS = ["alpha", "Alpha", " ALPHA ", "beta", "Beta", "gamma", "delta",
              "x_y", "x y", " X  Y ", "Eps", "zeta"]

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("concept"), st.sampled_from(_SPELLINGS)),
        st.tuples(st.just("isa"), st.sampled_from(_SPELLINGS), st.sampled_from(_SPELLINGS)),
    ),
    max_size=40,
)


@given(operations=_OPERATIONS)
def test_compact_taxonomy_equals_the_dict_of_dicts_model(operations):
    """Sparse adjacency changes storage, never behaviour: after any
    sequence of registrations, edges (duplicate, multi-parent, cyclic,
    self-loop, respelled), every reader returns the same
    items in the same order as the dict-per-concept layout."""
    compact, model = Taxonomy("t"), _DictOfDictsTaxonomy("t")
    for operation in operations:
        kind, *terms = operation
        if kind == "concept":
            assert compact.add_concept(*terms) == model.add_concept(*terms)
        else:
            outcomes = []
            for taxonomy in (compact, model):
                try:
                    taxonomy.add_isa(*terms)
                    outcomes.append(None)
                except (TaxonomyCycleError, DuplicateConceptError) as error:
                    outcomes.append(type(error))
            assert outcomes[0] is outcomes[1]
        assert compact.version == model.version
    assert list(compact) == list(model.concepts.values())
    assert list(compact.isa_edges()) == model.isa_edges()
    assert compact.roots() == model.without(model.up)
    assert compact.leaves() == model.without(model.down)
    assert compact.validate() == []
    for term in compact.terms():
        assert compact.parents(term) == model.neighbours(term, model.up)
        assert compact.children(term) == model.neighbours(term, model.down)
        for bound in (None, 1, 2):
            up = list(compact.ancestors(term, bound).items())
            down = list(compact.descendants(term, bound).items())
            assert up == model.walk_terms(term, model.up, bound)
            assert down == model.walk_terms(term, model.down, bound)
