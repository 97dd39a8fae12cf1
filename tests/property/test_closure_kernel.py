"""Differential tests for the interned closure kernel.

:meth:`ConceptTable.descent` (one 0-1 BFS on dense ids) and
:meth:`ConceptTable.descent_depths` (the multi-source pass the interest
index asks for) must report exactly what the string reference
:func:`~repro.ontology.concept_table.descent_closure` reports — same
spellings, same minimum depths — on the shipped worlds and on a small
hand-built knowledge base that has every awkward case at once: two
domains, a synonym ring bridging them, spelling variants, an unknown
term, and a term known only as an attribute synonym.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.ontology.concept_table import descent_closure
from repro.ontology.knowledge_base import KnowledgeBase
from repro.workload.worlds import build_world

BOUNDS = (0, 1, 3, None)


def bridged_kb() -> KnowledgeBase:
    """Two domains joined by a value-synonym ring.  "doctorate" climbs
    to "graduate degree" in *education*; its synonym "PhD" continues
    below "research_role" in *jobs* under a different display spelling
    (``_`` vs space), and "Ph.D." is in the ring but in no taxonomy."""
    kb = KnowledgeBase("bridged")
    education = kb.add_domain("education")
    education.add_chain("doctorate", "graduate degree", "degree")
    education.add_chain("masters", "graduate degree")
    education.add_chain("DPhil", "doctorate")
    jobs = kb.add_domain("jobs")
    jobs.add_chain("postdoc", "PhD", "research_role", "role")
    jobs.add_chain("research fellow", "postdoc")
    # the same concept key under another display spelling per domain
    jobs.add_chain("Graduate_Degree", "qualification")
    kb.add_value_synonyms(["doctorate", "PhD", "Ph.D."], root="PhD")
    kb.add_attribute_synonyms(["school", "university"], root="university")
    return kb


BRIDGED_TERMS = (
    "degree",
    "graduate degree",
    "Graduate_Degree",
    "GRADUATE  DEGREE",
    "doctorate",
    "PhD",
    "phd",
    "Ph.D.",
    "research role",
    "role",
    "qualification",
    "postdoc",
    "hovercraft",  # unknown
    "school",  # attribute-synonym-only
    "School",  # ... under a variant spelling
)


def value_term_ids(table) -> list[int]:
    """Term ids of the value substrate (attribute-synonym-only terms
    report no spellings and have no value closure to compare)."""
    return [tid for tid in range(len(table)) if table._term_sids[tid]]


def sample_terms(kb: KnowledgeBase, limit: int = 120) -> list[str]:
    """A deterministic spread of the table's value terms (every n-th in
    id order), plus an unknown one."""
    table = kb.concept_table()
    tids = value_term_ids(table)
    stride = max(1, len(tids) // limit)
    return [table.term_display(tid) for tid in tids[::stride]] + ["no such term"]


@pytest.fixture(scope="module", params=["bridged", "jobfinder", "mega-small", "mega-deep"])
def world(request):
    if request.param == "bridged":
        return bridged_kb(), BRIDGED_TERMS
    kb = build_world(request.param).kb
    return kb, sample_terms(kb)


def as_spellings(table, closure) -> dict[str, int]:
    return {table.spelling(sid): depth for sid, depth in closure}


def test_descent_equals_string_bfs(world):
    kb, _ = world
    table = kb.concept_table()
    for tid in value_term_ids(table):
        term = table.term_display(tid)
        assert as_spellings(table, table.descent(tid)) == descent_closure(kb, term, None), term
    assert table.stats()["closure_fill_steps"] > 0


@pytest.mark.parametrize("bound", BOUNDS)
def test_descent_map_equals_bounded_string_bfs(world, bound):
    kb, terms = world
    table = kb.concept_table()
    for term in terms:
        expected = descent_closure(kb, term, bound)
        expected.setdefault(term, 0)
        assert table.descent_map(term, bound) == expected, (term, bound)


def test_multi_source_is_keywise_min_of_single_source(world):
    kb, terms = world
    table = kb.concept_table()
    for chosen in (terms, terms[::3], terms[:1], ()):
        expected: dict = {}
        for term in chosen:
            for spelling, depth in table.descent_map(term, None).items():
                key = table.value_key(spelling)
                expected[key] = min(depth, expected.get(key, depth))
        assert table.descent_depths(chosen) == expected


def test_bridged_world_crosses_domains_and_keeps_spellings_apart():
    kb = bridged_kb()
    table = kb.concept_table()
    down = table.descent_map("degree", None)
    # education: degree > graduate degree > doctorate ~ PhD; jobs: PhD >
    # postdoc > research fellow — the ring carries the descent across
    assert down["doctorate"] == down["PhD"] == down["Ph.D."] == 2
    assert down["postdoc"] == 3 and down["research fellow"] == 4
    # both display spellings of the shared concept, each from its domain
    assert down["graduate degree"] == down["Graduate_Degree"] == 1
    # variants are the same term but not the same spelling
    assert table.descent_map("phd", 0) == {"phd": 0, "PhD": 0, "doctorate": 0, "Ph.D.": 0}
    # unknown and attribute-synonym-only terms report only themselves
    assert table.descent_map("hovercraft", None) == {"hovercraft": 0}
    assert table.descent_map("School", None) == {"School": 0}
    assert table.descent_depths(["hovercraft", "School"]) == {
        table.value_key("hovercraft"): 0,
        table.value_key("School"): 0,
    }


def test_fills_intern_nothing():
    kb = build_world("mega-small").kb
    table = kb.concept_table()
    for tid in range(len(table)):
        table.ancestors(tid)
        table.descent(tid)
    table.descent_depths(sample_terms(kb))
    assert table.spelling_count == table._wire_base


def test_version_bump_builds_a_fresh_graph():
    kb = bridged_kb()
    before = kb.concept_table()
    below_role = before.descent_map("role", None)
    assert "fellowship" not in below_role
    kb.add_domain("jobs").add_isa("fellowship", "grant")
    kb.add_value_synonyms(["postdoc", "fellowship"])
    after = kb.concept_table()
    assert after is not before and after.version > before.version
    # the new synonym hop is a distance-0 bridge in the new graph only
    assert after.descent_map("role", None)["fellowship"] == below_role["postdoc"]
    for term in (*BRIDGED_TERMS, "fellowship", "grant"):
        expected = descent_closure(kb, term, None)
        expected.setdefault(term, 0)
        assert after.descent_map(term, None) == expected, term
    # the superseded snapshot still answers from its own graph
    assert "fellowship" not in before.descent_map("role", None)


def test_threads_filling_one_shared_table_agree():
    """Many threads missing on the same closures at once: every thread
    must read the same answers a single-threaded fill gives, and no
    fill may intern a spelling (ids past ``_wire_base`` are
    process-local and would break the wire codec's boundary)."""
    kb = build_world("mega-small").kb
    terms = sample_terms(kb, limit=60)
    reference = build_world("mega-small").kb.concept_table()
    expected_maps = {term: reference.descent_map(term, None) for term in terms}
    expected_depths = {
        reference.spelling(key) if isinstance(key, int) else key: depth
        for key, depth in reference.descent_depths(terms).items()
    }

    table = kb.concept_table()
    workers = 8
    barrier = threading.Barrier(workers)
    results: list = [None] * workers
    errors: list = []

    def fill(slot: int) -> None:
        try:
            barrier.wait(timeout=30)
            # each thread walks the terms from a different offset, so
            # misses on one closure collide
            order = terms[slot:] + terms[:slot]
            maps = {term: table.descent_map(term, None) for term in order}
            depths = table.descent_depths(order)
            results[slot] = (maps, depths)
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    for maps, depths in results:
        assert maps == expected_maps
        assert {
            table.spelling(key) if isinstance(key, int) else key: depth
            for key, depth in depths.items()
        } == expected_depths
    assert table.spelling_count == table._wire_base
    # the per-term memo filled each closure exactly once
    assert table.stats()["down_closures"] == reference.stats()["down_closures"]
