"""Unit tests for repro.core.provenance."""

from __future__ import annotations

from repro.core.provenance import GENERAL, DerivationStep, DerivedEvent, SemanticMatch, Witness
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription


def _step(stage="hierarchy", generality=0, rule=""):
    return DerivationStep(stage=stage, description="test step", generality=generality, rule=rule)


class TestDerivedEvent:
    def test_original(self):
        event = Event({"a": 1})
        derived = DerivedEvent.original(event)
        assert derived.is_original
        assert derived.generality == 0
        assert derived.depth == 0
        assert "original event" in derived.explain()

    def test_extend_accumulates(self):
        root = DerivedEvent.original(Event({"a": 1}))
        one = root.extend(Event({"a": 2}), _step(generality=1))
        two = one.extend(Event({"a": 3}), _step(generality=2))
        assert two.generality == 3
        assert two.depth == 2
        assert not two.is_original
        assert root.depth == 0  # immutable chain

    def test_extended_event_is_the_constructed_one(self):
        """``extend`` builds its child without ``__init__``; the child
        is equal to, hashes like and prints like the event the
        constructor makes — ``_generality`` and ``parent`` stay out of
        ``==`` and ``repr``."""
        root = DerivedEvent.original(Event({"a": 1}))
        one = root.extend(Event({"a": 2}), _step(generality=1))
        two = one.extend(Event({"a": 3}), _step(generality=2))
        built = DerivedEvent(two.event, two.steps)
        assert two == built and hash(two) == hash(built) and repr(two) == repr(built)
        assert "_generality" not in repr(two) and "parent" not in repr(two)
        assert (two.parent, one.parent, built.parent) == (one, root, None)
        assert two._generality == built._generality == 3

    def test_used_rule(self):
        root = DerivedEvent.original(Event({"a": 1}))
        derived = root.extend(Event({"a": 2}), _step(stage="mapping", rule="r1"))
        assert derived.used_rule("r1")
        assert not derived.used_rule("r2")
        assert not root.used_rule("r1")

    def test_explain_lists_steps(self):
        root = DerivedEvent.original(Event({"a": 1}))
        derived = root.extend(Event({"a": 2}), _step(generality=2))
        text = derived.explain()
        assert "1." in text and "+2 levels" in text

    def test_singular_level_formatting(self):
        assert "+1 level)" in str(_step(generality=1))


class TestSemanticMatch:
    def _match(self, semantic: bool, generality: int = 0) -> SemanticMatch:
        event = Event({"degree": "PhD"}, event_id="e-test")
        sub = Subscription([Predicate.eq("degree", "graduate degree")], sub_id="s-test")
        via = Witness([(GENERAL, "degree", generality, "graduate degree")] if semantic else ())
        return SemanticMatch(subscription=sub, event=event, via=via, generality=generality)

    def test_syntactic_match_explanation(self):
        match = self._match(semantic=False)
        assert not match.is_semantic
        assert "exact syntactic match" in match.explain()

    def test_semantic_match_explanation(self):
        match = self._match(semantic=True, generality=1)
        assert match.is_semantic
        text = match.explain()
        assert "s-test" in text and "e-test" in text and "derived event" in text

    def test_match_equality_ignores_derivation(self):
        assert self._match(True, 1) == self._match(True, 1)
