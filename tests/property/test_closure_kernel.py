"""Differential tests for the interned closure kernel.

:meth:`ConceptTable.descent_depths` (the multi-source 0-1 BFS on dense
ids the interest index asks for) must report exactly what the string
reference :func:`~repro.ontology.concept_table.descent_closure` reports
— same spellings, same minimum depths — on the shipped worlds and on a
small hand-built knowledge base that has every awkward case at once:
two domains, a synonym ring bridging them, spelling variants, an
unknown term, and a term known only as an attribute synonym.  Read
downward, descent is the ancestor closure, one step for one pair,
unless a term bridges two domains.

The interleaving legs hold a knowledge base whose one table was read
— closures filled, memos dropped — between every two writes of a
random sequence to one that took the same writes before its first
read: same term and spelling ids, same closures, same order; and an
engine that lived through the writes to a fresh engine on a freshly
built equal-content knowledge base.
"""

from __future__ import annotations

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
from tests.unit.test_concept_table import descent_map

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


def string_descent(kb: KnowledgeBase, term: str, bound: int | None) -> dict[str, int]:
    """The string BFS, with the literal term at depth 0 (which the
    kernel always reports)."""
    expected = descent_closure(kb, term, bound)
    expected.setdefault(term, 0)
    return expected


def test_descent_equals_string_bfs(world):
    kb, _ = world
    table = kb.concept_table()
    for tid in value_term_ids(table):
        term = table.term_display(tid)
        assert descent_map(table, term, None) == descent_closure(kb, term, None), term
    assert table.stats()["closure_fill_steps"] > 0


@pytest.mark.parametrize("bound", BOUNDS)
def test_descent_map_equals_bounded_string_bfs(world, bound):
    kb, terms = world
    table = kb.concept_table()
    for term in terms:
        assert descent_map(table, term, bound) == string_descent(kb, term, bound), (term, bound)


def test_multi_source_is_keywise_min_of_single_source(world):
    kb, terms = world
    table = kb.concept_table()
    for chosen in (terms, terms[::3], terms[:1], ()):
        expected: dict = {}
        for term in chosen:
            for spelling, depth in string_descent(kb, term, None).items():
                key = table.value_key(spelling)
                expected[key] = min(depth, expected.get(key, depth))
        assert table.descent_depths(chosen) == expected


def class_relations(table) -> tuple[dict, dict]:
    """Both closures as relations over value-synonym classes (a class is
    named by its canonical spelling): ``{(general, specific): distance}``
    of every descent pair at a positive depth, and of every ancestors
    pair, each at its minimum."""

    def named(sid: int) -> str:
        return table.canonical_spelling(table.term_id_of_value(table.spelling(sid)))

    down: dict = {}
    up: dict = {}
    for tid in value_term_ids(table):
        term = table.canonical_spelling(tid)
        for sid, depth in table.descent_depths([table.term_display(tid)]).items():
            if depth:
                pair = (term, named(sid))
                down[pair] = min(depth, down.get(pair, depth))
        for sid, distance in pairs(table.ancestors(tid)):
            pair = (named(sid), term)
            up[pair] = min(distance, up.get(pair, distance))
    return down, up


def test_descent_is_one_ancestors_step_unless_a_term_bridges_domains(world):
    """The two closure semantics: descent is transitive and bridged
    through synonyms, ancestors walks each domain on its own and leaves
    cross-domain chains to the fixpoint.  Every ancestors step is a
    descent pair at the same distance; a descent pair is one ancestors
    step unless its path crosses a term two domains share."""
    kb, _ = world
    down, up = class_relations(kb.concept_table())
    assert down and up.items() <= down.items()
    apart = {pair for pair, depth in down.items() if up.get(pair) != depth}
    if kb.name != "bridged":
        assert not apart
        return
    # e.g. postdoc reaches graduate degree at 2, but only through the
    # doctorate ~ PhD ring: two fixpoint steps, not one
    assert ("graduate degree", "postdoc") in apart and (len(apart), len(down)) == (11, 30)

    def distance(general: str, specific: str) -> float:
        return 0 if general == specific else down.get((general, specific), float("inf"))

    for general, specific in apart:
        assert any(
            distance(general, bridge) + distance(bridge, specific) == down[general, specific]
            for bridge in ("PhD", "graduate degree")
        ), (general, specific)


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
    closures = list(world.kb.concept_table()._up_closure.values())
    admissions = [
        entry for key, entry in engine.pipeline.hierarchy._admit_memo.items() if len(key) == 3
    ]
    assert closures and admissions
    assert all(type(entry) is array for entry in closures + admissions)


def test_bridged_world_crosses_domains_and_keeps_spellings_apart():
    kb = bridged_kb()
    table = kb.concept_table()
    down = descent_map(table, "degree", None)
    # education: degree > graduate degree > doctorate ~ PhD; jobs: PhD >
    # postdoc > research fellow — the ring carries the descent across
    assert down["doctorate"] == down["PhD"] == down["Ph.D."] == 2
    assert down["postdoc"] == 3 and down["research fellow"] == 4
    # both display spellings of the shared concept, each from its domain
    assert down["graduate degree"] == down["Graduate_Degree"] == 1
    # variants are the same term but not the same spelling
    assert descent_map(table, "phd", 0) == {"phd": 0, "PhD": 0, "doctorate": 0, "Ph.D.": 0}
    # unknown and attribute-synonym-only terms report only themselves
    assert descent_map(table, "hovercraft", None) == {"hovercraft": 0}
    assert descent_map(table, "School", None) == {"School": 0}
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
        table.descent_depths([table.term_display(tid)])
    table.descent_depths(sample_terms(kb))
    assert table.spelling_count == spellings


def test_version_bump_patches_the_graph_in_place():
    kb = bridged_kb()
    table = kb.concept_table()
    below_role = descent_map(table, "role", None)
    assert "fellowship" not in below_role
    postdoc = table.value_key("postdoc")
    table.ancestors(table.term_id_of_value("postdoc"))  # a memo the writes drop
    kb.add_domain("jobs").add_isa("fellowship", "grant")
    kb.add_value_synonyms(["postdoc", "fellowship"])
    assert kb.concept_table() is table and table.version == kb.version
    assert table.stats()["closures_dropped"] > 0
    # ids handed out before the write still mean what they meant
    assert table.value_key("postdoc") == postdoc
    # the new synonym hop is a distance-0 bridge in the patched graph
    assert descent_map(table, "role", None)["fellowship"] == below_role["postdoc"]
    for term in (*BRIDGED_TERMS, "fellowship", "grant"):
        assert descent_map(table, term, None) == string_descent(kb, term, None), term


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
        )
    for term in (*_SPELLINGS, "never heard of it"):
        view["map", term] = [descent_map(table, term, bound) for bound in _BOUNDS]
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
            assert descent_map(table, term, None) == string_descent(kb, term, None), term
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

