"""``KnowledgeBase.generalizations`` filters by the keys the taxonomy
walk already holds — output identical, in order and distances, to
normalizing every ancestor's display spelling again."""

from __future__ import annotations

import dataclasses

import pytest

from repro.ontology.concepts import term_key
from repro.ontology.knowledge_base import KnowledgeBase
from repro.workload.worlds import build_world, world_spec

#: the end-to-end benchmark's ``kb-evolve`` world: ``mega-100k``'s shape
#: at 24,000 concepts
KB_EVOLVE = dataclasses.replace(world_spec("mega-100k"), concepts=24_000)


def _renormalizing_generalizations(kb, term):
    """The formula the key filter replaced: walk, merge, then drop
    every ancestor whose display normalizes to a seed's key."""
    merged: dict[str, int] = {}
    seeds = sorted(kb.value_equivalents(term))
    for domain in kb.domains():
        taxonomy = kb.taxonomy(domain)
        for seed in seeds:
            if seed not in taxonomy:
                continue
            for ancestor, distance in taxonomy.ancestors(seed).items():
                if ancestor not in merged or merged[ancestor] > distance:
                    merged[ancestor] = distance
    self_keys = {term_key(s) for s in seeds}
    return {t: d for t, d in merged.items() if term_key(t) not in self_keys}


@pytest.mark.parametrize(
    "world",
    ["jobfinder", "mega-small", "mega-deep", KB_EVOLVE],
    ids=lambda world: world if isinstance(world, str) else f"{world.name}@{world.concepts}",
)
def test_key_filter_equals_renormalizing_every_ancestor(world):
    kb = build_world(world).kb
    checked = 0
    for domain in kb.domains():
        for concept in kb.taxonomy(domain):
            # the filter is exact because a concept's key is the term
            # key of its display
            assert term_key(concept.term) == concept.key
            expected = _renormalizing_generalizations(kb, concept.term)
            assert list(kb.generalizations(concept.term).items()) == list(expected.items())
            checked += 1
    assert checked == sum(len(kb.taxonomy(d)) for d in kb.domains()) > 0


def test_a_seed_that_is_its_own_ancestor_is_filtered_out():
    """The case the filter exists for: a value synonym of the term sits
    above it in a taxonomy, so the walk reaches a seed's own key."""
    kb = KnowledgeBase()
    kb.add_value_synonyms(["Car", "auto"], root="Car")
    vehicles = kb.add_domain("vehicles")
    vehicles.add_chain("auto", "CAR", "vehicle")
    vehicles.add_isa("auto", "motor vehicle")
    expected = _renormalizing_generalizations(kb, "auto")
    assert list(kb.generalizations("auto").items()) == list(expected.items())
    assert list(expected.items()) == [("vehicle", 1), ("motor vehicle", 1)]
