"""Differential tests for the interned closure kernel.

:meth:`ConceptTable.descent` (one 0-1 BFS on dense ids) and
:meth:`ConceptTable.descent_depths` (the multi-source pass the interest
index asks for) must report exactly what the string reference
:func:`~repro.ontology.concept_table.descent_closure` reports — same
spellings, same minimum depths — on the shipped worlds and on a small
hand-built knowledge base that has every awkward case at once: two
domains, a synonym ring bridging them, spelling variants, an unknown
term, and a term known only as an attribute synonym.

The interleaving legs hold a knowledge base whose one table was read
— closures filled, memos dropped — between every two writes of a
random sequence to one that took the same writes before its first
read: same term and spelling ids, same closures, same order; and an
engine that lived through the writes to a fresh engine on a freshly
built equal-content knowledge base.
"""

from __future__ import annotations

import sys
import threading
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import InvalidValueError, OntologyError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.concept_table import descent_closure, pairs
from repro.ontology.concepts import term_key
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule
from repro.workload.worlds import build_world

from tests.third_party import MATCHERS, matcher_arg

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


def is_value_term(table, tid: int) -> bool:
    """Whether the term is in the value substrate (a taxonomy or a
    value-synonym group): attribute-synonym-only terms have no canonical
    value spelling and no value closure to compare."""
    return table.canonical_spelling(tid) is not None


def value_term_ids(table) -> list[int]:
    return [tid for tid in range(len(table)) if is_value_term(table, tid)]


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


def spelling_ids(table) -> range:
    """Every spelling id: the odd spellings' negative ones, then the
    term ids (each naming its term's key)."""
    return range(len(table) - table.spelling_count, len(table))


def as_spellings(table, closure) -> dict[str, int]:
    return {table.spelling(sid): depth for sid, depth in pairs(closure)}


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


def test_ancestors_are_the_generalizations_in_their_order(world):
    """The packed closure is ``kb.generalizations`` of the term's display
    spelling, entry for entry: its order decides what survives
    ``max_derived_events``."""
    kb, _ = world
    table = kb.concept_table()
    for tid in range(0, len(table), max(1, len(table) // 400)):
        display = table.term_display(tid)
        closure = [(table.spelling(sid), distance) for sid, distance in pairs(table.ancestors(tid))]
        assert closure == list(kb.generalizations(display).items()), display


def test_term_ids_of_spellings_keys_and_variants(world):
    """Every known spelling, its key and its case and underscore
    variants resolve to the term their key names (or raise as its key
    does): the exact-spelling fast path never answers differently."""
    kb, terms = world
    table = kb.concept_table()

    def by_key(value):
        try:
            return table.term_id_of_key(term_key(value))
        except InvalidValueError:
            return "raises"

    def by_value(value):
        try:
            return table.term_id_of_value(value)
        except InvalidValueError:
            return "raises"

    spellings = [table.spelling(sid) for sid in spelling_ids(table)]
    for spelling in (*spellings, *terms):
        for value in (
            spelling,
            term_key(spelling),
            spelling.swapcase(),
            spelling.replace(" ", "_"),
            f"_{spelling}_",
        ):
            assert by_value(value) == by_key(value), value
    assert None not in map(table.term_id_of_value, spellings)


@pytest.mark.parametrize("name", ["jobfinder", "mega-small", "mega-deep"])
def test_derived_state_is_packed_after_a_warm_up(name):
    world = build_world(name)
    engine = SToPSS(world.kb)
    generator = world.generator(seed=7)
    for subscription in generator.subscriptions(40):
        engine.subscribe(subscription)
    for event in generator.events(10):
        engine.publish(event)
    table = world.kb.concept_table()
    table.descent(value_term_ids(table)[0])
    closures = [*table._up_closure.values(), *table._down_closure.values()]
    admissions = [
        entry for key, entry in engine.pipeline.hierarchy._admit_memo.items() if len(key) == 3
    ]
    assert closures and admissions
    assert all(type(entry) is array for entry in closures + admissions)


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
    spellings = table.spelling_count
    for tid in range(len(table)):
        table.ancestors(tid)
        table.descent(tid)
    table.descent_depths(sample_terms(kb))
    assert table.spelling_count == spellings


def test_version_bump_patches_the_graph_in_place():
    kb = bridged_kb()
    table = kb.concept_table()
    below_role = table.descent_map("role", None)
    assert "fellowship" not in below_role
    postdoc = table.value_key("postdoc")
    kb.add_domain("jobs").add_isa("fellowship", "grant")
    kb.add_value_synonyms(["postdoc", "fellowship"])
    assert kb.concept_table() is table and table.version == kb.version
    assert table.stats()["closures_dropped"] > 0
    # ids handed out before the write still mean what they meant
    assert table.value_key("postdoc") == postdoc
    # the new synonym hop is a distance-0 bridge in the patched graph
    assert table.descent_map("role", None)["fellowship"] == below_role["postdoc"]
    for term in (*BRIDGED_TERMS, "fellowship", "grant"):
        expected = descent_closure(kb, term, None)
        expected.setdefault(term, 0)
        assert table.descent_map(term, None) == expected, term


# ---------------------------------------------------------------------------
# interleaved reads ≡ reads after the writes
# ---------------------------------------------------------------------------

#: value spellings the writes draw from: plain terms, case and ``_`` /
#: space variants of them (one term key, several spellings), and two
#: attribute names (a term may be an attribute synonym first and join
#: the value substrate later)
_SPELLINGS = ["a", "b", "c", "d", "e", "A", "b c", "b_c", "B  C", "syn", "new", "u", "w"]
_ATTRIBUTES = ["u", "w", "x", "b_c", "new"]
_DOMAINS = ["d1", "d2"]
_BOUNDS = (0, 1, None)

_spelling = st.sampled_from(_SPELLINGS)


def _simple_writes(spelling, attribute, root):
    """One write of any kind but ``merge``, as data (see :func:`_apply`)."""
    domain = st.sampled_from(_DOMAINS)
    return st.one_of(
        st.tuples(st.just("concept"), domain, spelling),
        st.tuples(st.just("isa"), domain, spelling, spelling),
        st.tuples(st.just("chain"), domain, st.lists(spelling, min_size=2, max_size=4)),
        # a new group, an extension, or — two known groups named at
        # once — a merge; a root may conflict, which the thesaurus must
        # reject whole
        st.tuples(
            st.just("value-synonyms"),
            st.lists(spelling, min_size=1, max_size=3),
            st.none() | spelling,
        ),
        st.tuples(st.just("attribute-synonyms"), st.lists(attribute, min_size=1, max_size=3), root),
        st.tuples(st.just("rule"), st.integers(0, 3), spelling),
    )


_table_writes = _simple_writes(
    _spelling, st.sampled_from(_ATTRIBUTES), st.none() | st.sampled_from(_ATTRIBUTES)
)
_writes = st.one_of(
    _table_writes,
    # a whole knowledge base unioned in, new domain included
    st.tuples(st.just("merge"), st.lists(_table_writes, min_size=1, max_size=4)),
)


def _apply(kb: KnowledgeBase, write: tuple) -> None:
    """One write; a rejected one (cycle, self-loop, conflicting roots,
    duplicate rule name) is part of the interleaving — whatever it
    appended before raising, it appended to every knowledge base the
    same write is replayed on."""
    kind, *args = write
    try:
        if kind == "concept":
            kb.add_domain(args[0]).add_concept(args[1])
        elif kind == "isa":
            kb.add_domain(args[0]).add_isa(args[1], args[2])
        elif kind == "chain":
            kb.add_domain(args[0]).add_chain(*args[1])
        elif kind == "value-synonyms":
            kb.add_value_synonyms(args[0], root=args[1])
        elif kind == "attribute-synonyms":
            kb.add_attribute_synonyms(args[0], root=args[1])
        elif kind == "rule":
            kb.add_rule(MappingRule.equivalence(f"r{args[0]}", {"u": args[1]}, {"v": "a"}))
        else:
            other = KnowledgeBase("other")
            other.add_domain("d3")
            for inner in args[0]:
                _apply(other, inner)
            kb.merge(other)
    except (OntologyError, ValueError):
        pass


def _view(table) -> dict:
    """Everything a table answers, on its raw ids."""
    ids = spelling_ids(table)
    view: dict = {
        "spellings": [table.spelling(sid) for sid in ids],
        "displays": [table.term_display(tid) for tid in range(len(table))],
        "attribute_roots": dict(table.attribute_roots),
        "interned": [table.value_key(value) for value in _SPELLINGS],
        "known": [table.term_id_of_value(value) for value in _SPELLINGS],
    }
    for tid in range(len(table)):
        view[tid] = (
            table.canonical_spelling(tid),
            # in order: it decides which candidates survive truncation
            list(table.ancestors(tid)),
            # the attribute-synonym-only terms have no value closure
            list(table.descent(tid)) if is_value_term(table, tid) else None,
        )
    for term in (*_SPELLINGS, "never heard of it"):
        view["map", term] = [table.descent_map(term, bound) for bound in _BOUNDS]
    for terms in (_SPELLINGS, _SPELLINGS[::3], ["a", "never heard of it"]):
        view["depths", tuple(terms)] = table.descent_depths(terms)
    return view


#: one term in two domains from the start, so every sequence has a
#: shared concept for the writes to build on
_SHARED = [("chain", "d1", ["a", "b"]), ("chain", "d2", ["a", "c"])]


@given(writes=st.lists(_writes, min_size=1, max_size=10))
def test_interleaved_reads_equal_reads_after_the_writes(writes):
    """Random sequences of every kind of write, with the table read —
    every closure filled — after each one: the table answers, id for
    id, what the table of a knowledge base that took the same writes
    before its first read answers.  Every write interns into the one
    store, so ids are the order the writes named the terms, however
    the reads were interleaved."""
    kb = KnowledgeBase("live")
    table = kb.concept_table()
    done = list(_SHARED)
    for write in _SHARED:
        _apply(kb, write)
    for write in writes:
        _view(kb.concept_table())  # fill every memo the write must drop
        _apply(kb, write)
        done.append(write)
        assert kb.concept_table() is table and table.version == kb.version
        batch = KnowledgeBase("batch")
        for earlier in done:
            _apply(batch, earlier)
        assert _view(table) == _view(batch.concept_table()), write
        # ... and both answer what the string path answers, in order
        for tid in range(len(table)):
            display = table.term_display(tid)
            assert [
                (table.spelling(sid), distance) for sid, distance in pairs(table.ancestors(tid))
            ] == list(kb.generalizations(display).items()), display
        for term in _SPELLINGS:
            expected = descent_closure(kb, term, None)
            expected.setdefault(term, 0)
            assert table.descent_map(term, None) == expected, term
    # no write and no fill interns a spelling twice under two ids
    ids = [table.value_key(value) for value in _SPELLINGS]
    interned = [key for key in ids if isinstance(key, int)]
    assert len(set(interned)) == len(interned)
    assert [table.spelling(key) for key in interned] == [
        value for value, key in zip(_SPELLINGS, ids) if isinstance(key, int)
    ]


#: the engine leg draws from a pool small enough that subscriptions,
#: events and writes keep meeting, and keeps attribute synonyms off the
#: attributes subscriptions name: a stored root form derived before
#: such a write is stale in any engine, which is not this suite's
#: question
_engine_spelling = st.sampled_from(["a", "b", "c", "A", "b c", "new"])
_engine_writes = _simple_writes(_engine_spelling, st.sampled_from(["x", "y", "new"]), st.none())
_pairs = st.lists(
    st.tuples(st.sampled_from(["u", "v"]), _engine_spelling),
    min_size=1,
    max_size=2,
    unique_by=lambda pair: pair[0],
)


def _engine(kb: KnowledgeBase, matcher, subs, pruning: bool = True) -> SToPSS:
    engine = SToPSS(kb, matcher=matcher, config=SemanticConfig(interest_pruning=pruning))
    for index, (pairs, bound) in enumerate(subs):
        engine.subscribe(
            Subscription(
                [Predicate.eq(attribute, value) for attribute, value in pairs],
                sub_id=f"s{index}",
                max_generality=bound,
            )
        )
    return engine


def _match_list(engine: SToPSS, pairs) -> list[tuple[str, int]]:
    return [(m.subscription.sub_id, m.generality) for m in engine.publish(Event(pairs))]


@given(
    before=st.lists(_engine_writes, max_size=5),
    after=st.lists(_engine_writes, min_size=1, max_size=5),
    subs=st.lists(st.tuples(_pairs, st.sampled_from([None, None, 0, 1])), min_size=1, max_size=5),
    events=st.lists(_pairs, min_size=1, max_size=4),
    matcher=st.sampled_from(["counting", "naive"]),
    pruning=st.booleans(),
)
def test_engine_that_lived_through_writes_equals_fresh_engine(
    before, after, subs, events, matcher, pruning
):
    """After each write, an engine whose matcher keys, interest closure
    and admission memo were all built *before* it reports the match
    sets and generalities of a fresh engine on a freshly built
    equal-content knowledge base.  The subscriptions are made first, so
    an operand the knowledge base does not know yet is indexed under
    its canonical fallback and must be re-keyed when a write teaches
    the table its spelling; with pruning off there is no interest
    generation to move, and the expansion memo's stamp has only the
    version to go by."""
    kb = KnowledgeBase("live")
    for write in before:
        _apply(kb, write)
    table = kb.concept_table()
    engine = _engine(kb, matcher, subs, pruning)
    for pairs in events:
        _match_list(engine, pairs)  # warm every memo under the old version
    for done in range(1, len(after) + 1):
        _apply(kb, after[done - 1])
        fresh_kb = KnowledgeBase("fresh")
        for write in (*before, *after[:done]):
            _apply(fresh_kb, write)
        fresh = _engine(fresh_kb, matcher, subs, pruning)
        for pairs in events:
            assert _match_list(engine, pairs) == _match_list(fresh, pairs), (after[:done], pairs)
        assert kb.concept_table() is table


@pytest.mark.parametrize("matcher", MATCHERS)
def test_operand_learned_after_subscribing_is_rekeyed(matcher):
    """A learned spelling needs no re-key, pinned: "lorry" is free text
    when the subscription is indexed; once the knowledge base learns it,
    ``value_key("lorry")`` is an int under the *same* table, yet the
    matcher's equality key for a plain string is the string itself, so
    the subscription indexed before the write must go on matching."""
    kb = KnowledgeBase("t")
    kb.add_domain("vehicles").add_chain("truck", "vehicle")
    subs = [([("kind", "lorry")], None), ([("kind", "vehicle")], None)]
    engine = _engine(kb, matcher_arg(matcher), subs)
    table = kb.concept_table()
    spellings = table.spelling_count
    assert _match_list(engine, [("kind", "lorry")]) == [("s0", 0)]
    kb.add_value_synonyms(["truck", "lorry"])
    assert _match_list(engine, [("kind", "lorry")]) == [("s0", 0), ("s1", 1)]
    assert _match_list(engine, [("kind", "truck")]) == [("s1", 1)]
    assert kb.concept_table() is table and table.spelling_count == spellings + 1


def test_alternatives_memo_is_stamped_with_the_version():
    """Pruning off: no interest index, so no generation moves with a
    write — a free attribute's memoised alternatives must still be
    re-derived, and the table's identity no longer says so."""
    kb = KnowledgeBase("t")
    kb.add_domain("vehicles").add_chain("truck", "vehicle")
    engine = _engine(kb, "counting", [([("kind", "machine")], None)], pruning=False)
    assert _match_list(engine, [("kind", "truck")]) == []
    assert engine.pipeline.hierarchy.memo_size() > 0  # ("kind", "truck") is memoised
    kb.taxonomy("vehicles").add_isa("vehicle", "machine")
    assert _match_list(engine, [("kind", "truck")]) == [("s0", 2)]


def test_threads_filling_one_shared_table_agree():
    """Many threads missing on the same closures at once: every thread
    must read the same answers a single-threaded fill gives, and no
    fill may intern a spelling (the engine re-keys its matcher
    whenever ``spelling_count`` moves)."""
    kb = build_world("mega-small").kb
    terms = sample_terms(kb, limit=60)
    reference = build_world("mega-small").kb.concept_table()
    expected_maps = {term: reference.descent_map(term, None) for term in terms}
    expected_depths = {
        reference.spelling(key) if isinstance(key, int) else key: depth
        for key, depth in reference.descent_depths(terms).items()
    }

    table = kb.concept_table()
    spellings = table.spelling_count
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
    assert table.spelling_count == spellings
    # the per-term memo filled each closure exactly once
    assert table.stats()["down_closures"] == reference.stats()["down_closures"]


def _late_writes(kb: KnowledgeBase, root: str) -> None:
    kb.add_value_synonyms([root, f"{root}~late"])
    kb.add_domain("late").add_chain("late leaf", f"{root}~late")


def test_threads_racing_to_one_memo_drop_agree():
    """After a write, every replica's next fetch finds the version
    moved at once: exactly one of them drops the memos, under the
    table's lock, and every thread — fetching, then filling closures
    the drop took away — reads what a knowledge base that took the
    write before its first read answers."""
    kb = build_world("mega-small").kb
    table = kb.concept_table()
    terms = sample_terms(kb, limit=40)
    for term in terms:
        table.descent_map(term, None)  # memos for the drop
    filled = table.stats()["down_closures"]
    root = terms[0]
    _late_writes(kb, root)
    batch = build_world("mega-small").kb
    _late_writes(batch, root)
    oracle = batch.concept_table()
    terms = [*terms, f"{root}~late", "late leaf"]
    expected = {term: oracle.descent_map(term, None) for term in terms}

    workers = 8
    barrier = threading.Barrier(workers)
    results: list = [None] * workers
    errors: list = []

    def fetch_and_fill(slot: int) -> None:
        try:
            barrier.wait(timeout=30)
            fetched = kb.concept_table()
            order = terms[slot:] + terms[:slot]
            results[slot] = (fetched, {term: fetched.descent_map(term, None) for term in order})
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fetch_and_fill, args=(slot,)) for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    for fetched, maps in results:
        assert fetched is table
        assert maps == expected
    # one drop: a second would have taken the refilled memos too
    assert table.stats()["closures_dropped"] == filled > 0
    assert table.spelling_count == oracle.spelling_count
