"""Unit tests specific to the counting matcher, and cases both
matchers must agree on."""

from __future__ import annotations

from enum import StrEnum

import pytest

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.pipeline import PipelineResult, SemanticPipeline
from repro.core.provenance import (
    CANON,
    GENERAL,
    MAPPING,
    RENAME,
    SYNONYM,
    DerivationStep,
    DerivedEvent,
    Witness,
)
from repro.matching.base import MatchingAlgorithm
from repro.matching.counting import CountingMatcher
from repro.matching.naive import NaiveMatcher
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule
from repro.workload.worlds import build_world


def _sub(sub_id, *preds, **kwargs):
    return Subscription(list(preds), sub_id=sub_id, **kwargs)


class TestCountingMatcher:
    def test_counter_must_reach_size(self):
        matcher = CountingMatcher()
        matcher.insert(_sub("s", Predicate.eq("a", 1), Predicate.eq("b", 2), Predicate.eq("c", 3)))
        assert matcher.match_ids(Event({"a": 1, "b": 2})) == []
        assert matcher.match_ids(Event({"a": 1, "b": 2, "c": 3})) == ["s"]

    def test_two_predicates_same_attribute(self):
        matcher = CountingMatcher()
        matcher.insert(_sub("band", Predicate.ge("x", 10), Predicate.le("x", 20)))
        assert matcher.match_ids(Event({"x": 15})) == ["band"]
        assert matcher.match_ids(Event({"x": 25})) == []
        assert matcher.match_ids(Event({"x": 5})) == []

    def test_predicate_sharing_across_subscriptions(self):
        matcher = CountingMatcher()
        for i in range(50):
            matcher.insert(_sub(f"s{i}", Predicate.eq("hot", 1)))
        # one logical predicate indexed once
        assert len(matcher._index) == 1
        assert len(matcher.match(Event({"hot": 1}))) == 50

    def test_removal_updates_usages(self):
        matcher = CountingMatcher()
        matcher.insert(_sub("s1", Predicate.eq("a", 1)))
        matcher.insert(_sub("s2", Predicate.eq("a", 1)))
        matcher.remove("s2")
        assert len(matcher._index) == 1
        assert matcher._users == {Predicate.eq("a", 1).key: ["s1"]}
        matcher.remove("s1")
        assert len(matcher._index) == 0
        assert matcher._users == {} and matcher._shapes == {}
        assert matcher.match(Event({"a": 1})) == []

    def test_universal_subscriptions(self):
        matcher = CountingMatcher()
        matcher.insert(_sub("all"))
        matcher.insert(_sub("some", Predicate.eq("a", 1)))
        assert matcher.match_ids(Event({})) == ["all"]
        assert matcher.match_ids(Event({"a": 1})) == ["all", "some"]
        matcher.remove("all")
        assert matcher.match_ids(Event({})) == []

    def test_index_probe_stats(self):
        matcher = CountingMatcher()
        matcher.insert(_sub("s", Predicate.eq("a", 1)))
        matcher.match(Event({"a": 1, "b": 2}))
        assert matcher.stats.index_probes >= 1


class _SerialCounting(CountingMatcher):
    """The counting matcher on the per-row serial fallback."""

    name = "serial-counting"
    _match_batch = MatchingAlgorithm._match_batch


def _batch_and_serial(subscriptions, result):
    """One batch through the factored kernel and through the serial
    fold: same subscriptions, same generalities, the same witnesses
    (both answer the row's :meth:`PipelineResult.witness`).  Returns
    the kernel's answer."""
    answers = []
    for matcher in (CountingMatcher(), _SerialCounting()):
        for subscription in subscriptions:
            matcher.insert(subscription)
        answers.append(matcher.match_batch(result))
    batch, serial = answers
    assert batch.keys() == serial.keys()
    for sub_id, (generality, witness) in batch.items():
        assert generality == serial[sub_id][0], sub_id
        assert witness == serial[sub_id][1], sub_id
    return batch


class TestCountingBatchKernel:
    """Fixed cases for what the factored ``match_batch`` rests on."""

    def test_batches_wider_than_a_machine_word(self):
        # mega-small publications expand to 81 and to 512 derived
        # events (truncated): masks of several words, and a batch cut
        # short by max_derived_events is matched as far as it goes.
        world = build_world("mega-small")
        generator = world.generator(seed=20)
        pipeline = SemanticPipeline(world.kb, SemanticConfig())
        subscriptions = [
            pipeline.process_subscription(subscription)
            for subscription in generator.subscriptions(40)
        ] + [_sub("everything")]
        widths = []
        truncated = 0
        matched = 0
        for event in generator.events(12):
            result = pipeline.process_event(event)
            widths.append(len(result.derived))
            truncated += result.truncated
            best = _batch_and_serial(subscriptions, result)
            assert best["everything"] == (0, result.witness(0))
            matched += len(best) - 1
        assert max(widths) == 512 and truncated
        assert any(64 < width < 512 for width in widths)
        assert matched

    def test_truncated_batch(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("a0", "a1", "a2", "a3", "a4")
        pipeline = SemanticPipeline(kb, SemanticConfig(max_derived_events=6))
        result = pipeline.process_event(Event({"x": "a0", "y": "a0", "z": "a0"}))
        assert result.truncated and len(result.derived) == 6
        subscriptions = [
            _sub("near", Predicate.eq("x", "a1")),
            _sub("cut-off", Predicate.eq("x", "a4"), Predicate.eq("y", "a4")),
            _sub("root", Predicate.eq("z", "a0"), Predicate.exists("y")),
        ]
        best = _batch_and_serial(subscriptions, result)
        assert best["near"][0] == 1 and best["root"][0] == 0
        assert "cut-off" not in best

    def test_attribute_only_a_mapping_rule_adds(self):
        kb = KnowledgeBase()
        kb.add_rule(
            MappingRule.computed(
                "exp", "professional_experience", "present_year - graduation_year"
            )
        )
        pipeline = SemanticPipeline(kb, SemanticConfig(present_year=2003))
        result = pipeline.process_event(Event({"graduation_year": 1990, "school": "Toronto"}))
        assert "professional_experience" not in result.derived[0].event
        subscriptions = [
            _sub("mapped", Predicate.ge("professional_experience", 4)),
            _sub(
                "both",
                Predicate.eq("school", "Toronto"),
                Predicate.ge("professional_experience", 4),
                Predicate.lt("professional_experience", 20),
            ),
            _sub(
                "too-long",
                Predicate.eq("school", "Toronto"),
                Predicate.gt("professional_experience", 13),
            ),
            _sub(
                "half-a-band",
                Predicate.ge("professional_experience", 4),
                Predicate.lt("professional_experience", 10),
            ),
            _sub("root-only", Predicate.eq("school", "Toronto")),
        ]
        best = _batch_and_serial(subscriptions, result)
        assert set(best) == {"mapped", "both", "root-only"}
        assert best["root-only"][1] == result.witness(0)
        assert best["mapped"][1] is best["both"][1] != result.witness(0)

    @staticmethod
    def _tie_batch():
        """Discovery order: root (0), ``far`` (2), then ``first`` and
        ``second`` (1 each) — generality does not follow discovery."""
        root = DerivedEvent.original(Event({"a": "leaf", "b": 1}))

        def child(value, generality):
            step = DerivationStep("hierarchy", f"a -> {value}", "a", generality)
            return root.extend(root.event.with_value("a", value), step)

        derived = [root, child("far", 2), child("first", 1), child("second", 1)]
        return PipelineResult.from_derived(root.event, derived)

    def test_ties_go_to_the_first_discovered(self):
        result = self._tie_batch()
        subscriptions = [
            _sub("not-leaf", Predicate.ne("a", "leaf"), Predicate.eq("b", 1)),
            _sub("late", Predicate.isin("a", ["second", "far"])),
            _sub("all"),
        ]
        best = _batch_and_serial(subscriptions, result)
        root, first, second = map(result.witness, (0, 2, 3))
        assert best == {"not-leaf": (1, first), "late": (1, second), "all": (0, root)}
        assert first != second


@pytest.mark.parametrize("world", ["jobfinder", "mega-small"])
@pytest.mark.parametrize(
    "matcher_class, factored",
    [
        (NaiveMatcher, False),
        (CountingMatcher, False),
        (CountingMatcher, True),
        (_SerialCounting, False),
    ],
    ids=["naive", "counting-flat", "counting-factored", "serial-fallback"],
)
def test_every_answer_is_a_witness_of_single_steps(matcher_class, factored, world):
    """Whatever the matcher and the batch's form, ``match_batch``
    answers a :class:`Witness` of single built-in steps that charges
    the answered generality, and whose replay on the publication is
    content the (root-rewritten) subscription matches.  A factored
    batch composes some of them from free attributes' alternatives."""
    built = build_world(world)
    generator = built.generator(seed=7)
    pipeline = SemanticPipeline(built.kb, SemanticConfig())
    matcher = matcher_class()
    subscriptions = {}
    for subscription in generator.subscriptions(60):
        rewritten = pipeline.process_subscription(subscription)
        subscriptions[rewritten.sub_id] = rewritten
        matcher.insert(rewritten)
    answered = semantic = composed = 0
    for event in generator.events(10):
        result = pipeline.process_event(event, factored=factored)
        for sub_id, (generality, witness) in matcher.match_batch(result).items():
            assert type(witness) is Witness, sub_id
            assert all(step[0] in (CANON, GENERAL, RENAME, SYNONYM, MAPPING) for step in witness)
            assert witness.generality == generality, sub_id
            derived = witness.derived(event)
            assert derived.depth == len(witness), sub_id
            assert subscriptions[sub_id].matches(derived.event), (sub_id, witness)
            answered += 1
            semantic += not witness.is_original
            free = result.free
            composed += any(step[0] in (CANON, GENERAL) and step[1] in free for step in witness)
    assert answered and semantic and (composed or not factored)


class TestCrossAlgorithmAgreement:
    """Hand-picked tricky cases where both matchers must agree."""

    CASES = [
        # (subscription predicates, event pairs, expected)
        ([Predicate.eq("a", 4)], {"a": 4.0}, True),
        ([Predicate.ne("a", 4)], {"a": "four"}, True),
        ([Predicate.ge("a", 4)], {"a": "tall"}, False),
        ([Predicate.exists("a")], {"a": False}, True),
        ([Predicate.exists("a")], {"b": 1}, False),
        ([Predicate.prefix("s", "To")], {"s": "Toronto"}, True),
        ([Predicate.between("a", 1, 5), Predicate.ne("a", 3)], {"a": 3}, False),
        ([Predicate.between("a", 1, 5), Predicate.ne("a", 3)], {"a": 4}, True),
        ([Predicate.isin("a", ["x", "y"])], {"a": "y"}, True),
    ]

    def test_agreement(self):
        for index, (preds, pairs, expected) in enumerate(self.CASES):
            event = Event(pairs)
            for matcher_cls in (NaiveMatcher, CountingMatcher):
                matcher = matcher_cls()
                matcher.insert(Subscription(preds, sub_id=f"case{index}"))
                got = bool(matcher.match(event))
                assert got is expected, (
                    f"{matcher_cls.name} case {index}: expected {expected}, got {got}"
                )


class _Kind(StrEnum):
    LORRY = "lorry"


@pytest.mark.parametrize("subclass_on", ["neither", "event", "operand", "both"])
@pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])
@pytest.mark.parametrize("interning", [True, False], ids=["interned", "strings"])
def test_str_subclass_values_match_as_the_naive_oracle(interning, known, subclass_on):
    """A ``StrEnum`` member is its plain-string spelling once an event
    or a predicate holds it (a journal record spells it that way, so
    live and recovered brokers must agree), on the naive reference and
    the counting matcher alike, whether or not the spelling is one the
    knowledge base knows (a known spelling has a concept-table id, an
    unknown one is free text) and with interning on or off."""
    kb = KnowledgeBase("t")
    kb.add_domain("vehicles").add_chain("truck", "vehicle")
    if known:
        kb.add_value_synonyms(["truck", "lorry"])
    operand = _Kind.LORRY if subclass_on in ("operand", "both") else "lorry"
    value = _Kind.LORRY if subclass_on in ("event", "both") else "lorry"
    matched = {}
    for name in ("counting", "naive"):
        engine = SToPSS(kb, matcher=name, config=SemanticConfig(interning=interning))
        engine.subscribe(_sub("s", Predicate.eq("kind", operand)))
        matched[name] = [m.subscription.sub_id for m in engine.publish(Event({"kind": value}))]
    assert matched["counting"] == matched["naive"] == ["s"]


def test_str_subclass_operand_is_its_spelling():
    """Predicates on a ``StrEnum`` member and on its plain spelling are
    one predicate, holding the builtin ``str``; an event value is held
    the same way, so either spelling matches both."""
    assert Predicate.eq("kind", _Kind.LORRY) == Predicate.eq("kind", "lorry")
    assert type(Predicate.eq("kind", _Kind.LORRY).operand) is str
    assert type(Event({"kind": _Kind.LORRY})["kind"]) is str
    subscriptions = [
        _sub("enum", Predicate.eq("kind", _Kind.LORRY)),
        _sub("plain", Predicate.eq("kind", "lorry")),
        _sub("not-enum", Predicate.ne("kind", _Kind.LORRY)),
        _sub("not-plain", Predicate.ne("kind", "lorry")),
    ]
    for value in ("lorry", _Kind.LORRY):
        event = Event({"kind": value})
        for matcher_cls in (NaiveMatcher, CountingMatcher):
            matcher = matcher_cls()
            for subscription in subscriptions:
                matcher.insert(subscription)
            assert matcher.match_ids(event) == ["enum", "plain"], matcher_cls.name
