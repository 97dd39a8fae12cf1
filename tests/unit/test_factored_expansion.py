"""Fixed cases for PR 21's factored expansion — each fails if the rule
is mis-read (steps add and are capped; charges add and are budgeted;
a rule cycle still factors; what a rule can touch stays in the core).

"The parent" below is the exhaustive product every PR before 21
computed: the same pipeline loop with nothing free, which a matcher
that declines factored results still gets.
"""

from __future__ import annotations

import logging
from array import array

import pytest

from repro.broker.broker import Broker
from repro.broker.sharding import ShardedBroker
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.interfaces import SemanticStage
from repro.matching.counting import CountingMatcher
from repro.model.events import Event
from repro.model.parser import parse_event, parse_subscription
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

from tests.third_party import ScanMatcher


class _ProductCounting(CountingMatcher):
    name = "counting-product"
    accepts_factored = False


def _ladder_kb(rungs: int = 6) -> KnowledgeBase:
    """``r0`` is-a ``r1`` is-a … one domain, nothing else."""
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain(*(f"r{i}" for i in range(rungs)))
    return kb


def _engines(kb, **config):
    config = SemanticConfig(**config)
    return SToPSS(kb, config=config), SToPSS(kb, matcher=_ProductCounting(), config=config)


def _matches(engine, event) -> dict[str, int]:
    return {m.subscription.sub_id: m.generality for m in engine.publish(event)}


def _expansion(engine, event):
    """What the engine's publish path asks the pipeline for."""
    captured = []
    process_event = engine.pipeline.process_event

    def recording(event, **kwargs):
        captured.append(process_event(event, **kwargs))
        return captured[-1]

    engine.pipeline.process_event = recording
    try:
        engine.publish(event)
    finally:
        del engine.pipeline.process_event
    return captured[0]


# -- (a) the step cap counts substitutions per chain -----------------------------


@pytest.mark.parametrize("iterations, expected", [(4, {}), (5, {"s": 5})])
def test_five_substitutions_need_five_iterations(iterations, expected):
    kb = _ladder_kb()
    event = Event({f"a{i}": "r0" for i in range(5)})
    needs_five = Subscription([Predicate.eq(f"a{i}", "r1") for i in range(5)], sub_id="s")
    factored, parent = _engines(kb, max_iterations=iterations)
    for engine in (factored, parent):
        engine.subscribe(needs_five)
    assert _expansion(factored, event).free.keys() == {f"a{i}" for i in range(5)}
    assert _matches(factored, event) == _matches(parent, event) == expected


def test_core_substitutions_draw_on_the_same_cap():
    """Two rule steps in the core leave two substitutions for the free
    attributes under ``max_iterations=4`` — not four."""
    kb = _ladder_kb()
    kb.add_rule(MappingRule.equivalence("first", {"a": "go"}, {"b": "went"}))
    kb.add_rule(MappingRule.equivalence("second", {"b": "went"}, {"c": "gone"}))
    event = Event({"a": "go", "x": "r0", "y": "r0", "z": "r0"})
    factored, parent = _engines(kb)
    subs = [
        Subscription(
            [Predicate.eq("c", "gone"), Predicate.eq("x", "r1"), Predicate.eq("y", "r2")],
            sub_id="two-more",
        ),
        Subscription(
            [Predicate.eq("c", "gone")] + [Predicate.eq(name, "r1") for name in "xyz"],
            sub_id="three-more",
        ),
    ]
    for engine in (factored, parent):
        for sub in subs:
            engine.subscribe(sub)
    expansion = _expansion(factored, event)
    assert set(expansion.free) == {"x", "y", "z"} and len(expansion.derived) == 3
    assert _matches(factored, event) == _matches(parent, event) == {"two-more": 3}


# -- charges add and are budgeted; cheaper-at-more-steps is kept -----------------


def test_system_budget_gates_the_summed_charge():
    kb = _ladder_kb()
    event = Event({"x": "r0", "y": "r0"})
    factored, parent = _engines(kb, max_generality=3)
    subs = [
        Subscription([Predicate.eq("x", "r2"), Predicate.eq("y", "r1")], sub_id="three"),
        Subscription([Predicate.eq("x", "r2"), Predicate.eq("y", "r2")], sub_id="four"),
        Subscription(
            [Predicate.eq("x", "r1"), Predicate.eq("y", "r1")], sub_id="bounded", max_generality=1
        ),
    ]
    for engine in (factored, parent):
        for sub in subs:
            engine.subscribe(sub)
    assert _matches(factored, event) == _matches(parent, event) == {"three": 3}


def _bridged_kb() -> KnowledgeBase:
    """``low`` climbs to ``mid`` then ``far`` in one domain; ``mid``'s
    synonym ``bridge`` continues to ``beyond`` in another — reachable
    from ``low`` only in two substitutions, at charge 2, while ``far``
    costs 3 in one."""
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("low", "mid", "step", "far")
    kb.add_domain("e").add_chain("bridge", "beyond")
    kb.add_value_synonyms(["mid", "bridge"], root="mid")
    return kb


@pytest.mark.parametrize("iterations, expected", [(1, 3), (2, 2), (4, 2)])
def test_cheaper_alternative_at_more_substitutions(iterations, expected):
    factored, parent = _engines(_bridged_kb(), max_iterations=iterations)
    either = Subscription([Predicate.isin("x", ["far", "beyond"])], sub_id="either")
    for engine in (factored, parent):
        engine.subscribe(either)
    event = Event({"x": "low"})
    assert _matches(factored, event) == _matches(parent, event) == {"either": expected}


def test_cheaper_alternative_loses_when_the_core_used_the_steps():
    """``beyond`` (charge 2, two substitutions) is only affordable while
    the core leaves two: with three rule steps in the witness the
    subscription falls back on ``far`` (charge 3, one substitution)."""
    kb = _bridged_kb()
    kb.add_rule(MappingRule.equivalence("one", {"a": "go"}, {"b": "went"}))
    kb.add_rule(MappingRule.equivalence("two", {"b": "went"}, {"c": "gone"}))
    kb.add_rule(MappingRule.equivalence("three", {"c": "gone"}, {"d": "done"}))
    factored, parent = _engines(kb)
    subs = [
        Subscription(
            [Predicate.eq(name, value), Predicate.isin("x", ["far", "beyond"])], sub_id=name
        )
        for name, value in (("a", "go"), ("c", "gone"), ("d", "done"))
    ]
    for engine in (factored, parent):
        for sub in subs:
            engine.subscribe(sub)
    event = Event({"a": "go", "x": "low"})
    assert _matches(factored, event) == _matches(parent, event) == {"a": 2, "c": 2, "d": 3}


def test_two_predicates_and_open_predicates_on_one_free_attribute():
    kb = _ladder_kb()
    factored, parent = _engines(kb)
    subs = [
        Subscription([Predicate.ne("x", "r0"), Predicate.ne("x", "r1")], sub_id="not-low"),
        Subscription([Predicate.between("x", "r2", "r3"), Predicate.ne("x", "r2")], sub_id="r3"),
        Subscription([Predicate.ge("x", "r4"), Predicate.eq("y", "r0")], sub_id="high"),
        Subscription([Predicate.eq("x", "r1"), Predicate.eq("x", "r2")], sub_id="never"),
        Subscription([], sub_id="universal"),
    ]
    for engine in (factored, parent):
        for sub in subs:
            engine.subscribe(sub)
    event = Event({"x": "r0", "y": "r0"})
    assert _matches(factored, event) == _matches(parent, event) == {
        "not-low": 2,
        "r3": 3,
        "high": 4,
        "universal": 0,
    }


# -- (b) a rule cycle that re-derives known content still factors --------------


def test_jobfinder_cobol_cycle_factors():
    """COBOL skill ⇒ mainframe position ⇒ COBOL skill: the rule cycle
    re-derives known content over a cheaper chain.  Rows are written
    once, so the core's answer does not depend on which chain came
    first: the publication factors and matches what the product does."""
    kb = build_jobs_knowledge_base()
    factored, parent = _engines(kb)
    texts = [
        # three that match only through the cycle's cheaper chains
        "(skill = software development) and (university = US university) and (degree = degree)"
        " and (position = employee) and (graduation_year >= 1970)",
        "(position = engineer) and (skill = software development) and (university = university)"
        " and (degree = \"bachelor's degree\") and (graduation_year <= 1994)",
        "(university = university) and (degree = undergraduate degree)"
        " and (skill = software development) and (position = engineer)"
        " and (graduation_year <= 1998)",
        "(position = mainframe developer)",
        "(skill = COBOL programming) and (degree = degree)",
        "(era = legacy)",
    ]
    for engine in (factored, parent):
        for index, text in enumerate(texts):
            engine.subscribe(parse_subscription(text, sub_id=f"s{index}"))
    event = parse_event(
        "(position, junior java developer)(university, Berkeley)"
        "(competency, COBOL programming)(degree, bachelor of science)(graduation_year, 1990)"
    )
    expansion = _expansion(factored, event)
    assert set(expansion.free) == {"university", "degree"}
    assert len(expansion.derived) < len(_expansion(parent, event).derived)
    observed = _matches(factored, event)
    assert observed == _matches(parent, event)
    assert {"s0", "s1", "s2"} <= observed.keys()


# -- (c) what leaves the free set empty --------------------------------------------


class _Passive(SemanticStage):
    name = "passive"
    interest_safe = True


def _free_of(engine, event) -> set[str]:
    return set(engine.pipeline._free_attributes(engine.pipeline.synonyms.rewrite_event(event)[0]))


def test_untouched_attributes_are_free_and_rule_inputs_are_not():
    kb = _ladder_kb()
    kb.add_rule(MappingRule.computed("age", "age", "present_year - born"))
    kb.add_rule(MappingRule.equivalence("absent", {"nowhere": "r0"}, {"x": "r1"}))
    engine = SToPSS(kb)
    event = Event({"born": 1990, "x": "r0", "y": "r0"})
    # `absent` can never fire on this event: its trigger is missing
    assert _free_of(engine, event) == {"x", "y"}


@pytest.mark.parametrize(
    "spoil",
    [
        lambda kb: kb.add_rule(
            MappingRule.function("fn", ["x"], lambda event, context: None, reads=["x"])
        ),
        lambda kb: kb.add_rule(MappingRule.function("opaque", ["x"], lambda event, context: None)),
        lambda kb: kb.taxonomy("d").add_chain("y", "yy"),
    ],
    ids=["eligible-fn-rule", "reads-none-rule", "renameable-name"],
)
def test_nothing_is_free_when_the_outcome_cannot_be_bounded(spoil):
    kb = _ladder_kb()
    event = Event({"x": "r0", "y": "r0"})
    assert _free_of(SToPSS(kb), event) == {"x", "y"}
    spoil(kb)
    engine = SToPSS(kb)
    assert _free_of(engine, event) == set()
    assert not _expansion(engine, event).free


def test_an_ineligible_fn_rule_spoils_nothing():
    kb = _ladder_kb()
    kb.add_rule(MappingRule.function("fn", ["elsewhere"], lambda event, context: None))
    assert _free_of(SToPSS(kb), Event({"x": "r0"})) == {"x"}


@pytest.mark.parametrize(
    "build",
    [
        lambda kb: SToPSS(kb, extra_stages=(_Passive(),)),
        lambda kb: SToPSS(kb, matcher="naive"),
        lambda kb: SToPSS(kb, matcher=ScanMatcher()),
    ],
    ids=["extra-stages", "naive", "third-party"],
)
def test_other_engines_and_matchers_keep_the_product(build):
    kb = _ladder_kb()
    event = Event({"x": "r0", "y": "r0"})
    engine = build(kb)
    engine.subscribe(Subscription([Predicate.eq("x", "r2"), Predicate.eq("y", "r1")], sub_id="s"))
    expansion = _expansion(engine, event)
    product = engine.pipeline.process_event(event, interest=engine.active_interest)
    assert not expansion.free
    assert len(expansion.derived) == len(product.derived)
    assert len(product.derived) == 6  # (r0 | r1 | r2) x (r0 | r1)
    assert _matches(engine, event) == {"s": 3}


def test_explain_stays_exhaustive():
    kb = _ladder_kb()
    engine = SToPSS(kb)
    event = Event({"x": "r0", "y": "r0"})
    assert len(_expansion(engine, event).derived) == 1
    explained = engine.explain(event)
    assert not explained.free and len(explained.derived) == 36


# -- (d) a rule that writes a present attribute keeps it in the core ---------------


def test_an_attribute_a_rule_overwrites_stays_in_the_core():
    kb = _ladder_kb()
    kb.add_rule(MappingRule.equivalence("onto", {"a": "go"}, {"x": "r3"}))
    factored, parent = _engines(kb)
    subs = [
        Subscription([Predicate.eq("x", "r4"), Predicate.eq("y", "r1")], sub_id="via-rule"),
        Subscription([Predicate.eq("x", "r1")], sub_id="via-climb"),
    ]
    for engine in (factored, parent):
        for sub in subs:
            engine.subscribe(sub)
    event = Event({"a": "go", "x": "r0", "y": "r0"})
    assert _free_of(factored, event) == {"y"}
    # r0 -> r4 costs 4 from the event's own value, 1 after the rule
    assert _matches(factored, event) == _matches(parent, event) == {"via-rule": 2, "via-climb": 1}


# -- (e) a product past the cap whose core is not ------------------------------------


def test_large_product_small_core_is_no_longer_truncated():
    kb = _ladder_kb(6)
    names = ["w", "x", "y", "z"]
    event = Event({name: "r0" for name in names})
    factored, parent = _engines(kb)
    subs = [
        Subscription([Predicate.eq(name, f"r{rung}") for name in names], sub_id=f"all-r{rung}")
        for rung in range(6)
    ] + [Subscription([Predicate.eq("z", "r5"), Predicate.eq("y", "r4")], sub_id="late")]
    for engine in (factored, parent):
        for sub in subs:
            engine.subscribe(sub)
    complete = _matches(factored, event)
    cut = _matches(parent, event)
    assert parent.last_truncated and not factored.last_truncated
    assert factored.stats()["truncations"] == 0 and parent.stats()["truncations"] == 1
    # 6**4 events in the product, 1 + 4 * 5 built
    assert factored.stats()["derived_events"] == 21
    assert cut.items() < complete.items()
    assert complete == {f"all-r{rung}": 4 * rung for rung in range(6)} | {"late": 9}


# -- the memo lives and dies with the admission memo --------------------------------


def test_alternatives_share_the_admission_memos_lifetime():
    kb = _ladder_kb()
    engine = SToPSS(kb)
    engine.subscribe(Subscription([Predicate.eq("x", "r2")], sub_id="s"))
    hierarchy = engine.pipeline.hierarchy
    event = Event({"x": "r0", "y": "r0"})
    engine.publish(event)
    assert ("x", "r0") in hierarchy._admit_memo and ("y", "r0") in hierarchy._admit_memo
    filled = hierarchy.memo_size()
    engine.publish(event)
    assert hierarchy.memo_size() == filled
    engine.subscribe(Subscription([Predicate.eq("y", "r1")], sub_id="t"))  # generation moves
    assert _matches(engine, event) == {"s": 2, "t": 1}
    engine.unsubscribe("t")
    kb.add_value_synonyms(["r3", "rung three"], root="r3")  # snapshot moves
    assert _matches(engine, event) == {"s": 2}
    assert hierarchy.memo_size() == filled


def test_admissions_are_packed_ids():
    kb = _ladder_kb()
    engine = SToPSS(kb)
    engine.subscribe(Subscription([Predicate.eq("x", "r2")], sub_id="s"))
    engine.publish(Event({"x": "r0", "w": "r1"}))
    table, memo = kb.concept_table(), engine.pipeline.hierarchy._admit_memo
    admissions = {key: entry for key, entry in memo.items() if len(key) == 3}
    # "w" has no predicate: its four ancestors are checked and pruned
    entry = admissions["w", table.term_id_of_value("r1"), None]
    assert type(entry) is array and list(entry) == [4]
    # "x": five ancestors checked, only r1 and r2 can still reach "r2"
    entry = admissions["x", table.term_id_of_value("r0"), None]
    assert entry[0] == 5
    admitted = [(d, table.spelling(sid)) for d, sid in zip(entry[1::2], entry[2::2])]
    assert admitted == [(1, "r1"), (2, "r2")]


def test_a_memo_drop_is_logged_with_its_cause(caplog):
    kb = _ladder_kb()
    engine = SToPSS(kb)
    engine.subscribe(Subscription([Predicate.eq("x", "r2")], sub_id="s"))
    hierarchy = engine.pipeline.hierarchy
    event = Event({"x": "r0", "y": "r0"})
    with caplog.at_level(logging.DEBUG, logger="repro.core.hierarchy"):
        engine.publish(event)
        engine.publish(event)
        assert caplog.records == []  # a first fill and a hit drop nothing
        filled = hierarchy.memo_size()
        engine.subscribe(Subscription([Predicate.eq("y", "r1")], sub_id="t"))
        engine.publish(event)
        refilled = hierarchy.memo_size()
        kb.add_value_synonyms(["r3", "rung three"], root="r3")
        engine.publish(event)
    churn, write = [record.getMessage() for record in caplog.records]
    assert churn.endswith(f": {filled} entries") and "interest generation" in churn
    assert "knowledge base" not in churn
    assert write.endswith(f": {refilled} entries") and "knowledge base v" in write


# -- satellites: truncation is visible; nothing is encoded for no journal ------------


def _wide_broker(broker):
    broker.register_subscriber("sub", tcp="sub:1", client_id="sub")
    broker.register_publisher("pub", client_id="pub")
    broker.subscribe("sub", Subscription([Predicate.eq("w", "r1")], sub_id="s"))
    # open predicates: interest pruning cannot shrink the expansion
    broker.subscribe("sub", Subscription([Predicate.exists(name) for name in "wxyz"], sub_id="o"))
    return broker


def _over_the_cap(value: str = "r0") -> Event:
    return Event({name: value for name in "wxyz"})


def test_publish_report_says_truncated_and_the_cache_repeats_it():
    # the naive matcher keeps the product, which overflows the cap
    broker = _wide_broker(Broker(_ladder_kb(), matcher="naive"))
    broker.publish("pub", _over_the_cap())  # a first sighting stores nothing
    first = broker.publish("pub", _over_the_cap())
    again = broker.publish("pub", _over_the_cap())
    small = broker.publish("pub", Event({"w": "r0"}))
    assert (first.truncated, again.truncated, small.truncated) == (True, True, False)
    stats = broker.stats()
    assert stats["result_cache"]["hits"] == 1
    assert stats["publications_truncated"] == 3
    assert stats["engine"]["truncations"] == 2


def test_factored_broker_reports_the_same_publication_complete():
    broker = _wide_broker(Broker(_ladder_kb()))
    assert broker.publish("pub", _over_the_cap()).truncated is False
    assert broker.stats()["publications_truncated"] == 0


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_sharded_brokers_report_truncation(executor):
    with ShardedBroker(_ladder_kb(), shards=2, executor=executor, matcher="naive") as broker:
        _wide_broker(broker)
        assert broker.publish("pub", _over_the_cap()).truncated is True
        assert broker.publish("pub", Event({"w": "r0"})).truncated is False
        assert broker.stats()["publications_truncated"] == 1


def test_a_broker_without_a_store_encodes_no_journal_record(monkeypatch, tmp_path):
    import repro.broker.broker as broker_module

    encoded = []
    for name in ("_encode_client", "_encode_subscription", "_encode_event", "_encode_config"):
        original = getattr(broker_module, name)

        def counting(*args, _original=original, _name=name):
            encoded.append(_name)
            return _original(*args)

        monkeypatch.setattr(broker_module, name, counting)

    def drive(broker):
        _wide_broker(broker)
        broker.publish("pub", Event({"w": "r0"}))
        broker.reconfigure(SemanticConfig(max_generality=2))
        broker.unsubscribe("s")
        broker.remove_client("sub")

    drive(Broker(_ladder_kb()))
    assert encoded == []
    durable = Broker(_ladder_kb(), durability=tmp_path)
    drive(durable)
    durable.close()
    assert sorted(set(encoded)) == [
        "_encode_client",
        "_encode_config",
        "_encode_event",
        "_encode_subscription",
    ]
    assert durable.durability.stats.snapshot()["journal_appends"] >= 7
