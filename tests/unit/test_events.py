"""Unit tests for repro.model.events."""

from __future__ import annotations

import pytest

from repro.errors import DuplicateAttributeError, InvalidValueError
from repro.model.events import Event


class TestConstruction:
    def test_from_dict(self):
        event = Event({"school": "Toronto", "degree": "PhD"})
        assert event["school"] == "Toronto"
        assert len(event) == 2

    def test_from_pairs(self):
        event = Event([("a", 1), ("b", 2)])
        assert event.attributes() == ("a", "b")

    def test_attribute_normalization(self):
        event = Event({"Work Experience": True})
        assert "work_experience" in event
        assert event["WORK EXPERIENCE"] is True

    def test_duplicate_conflicting_rejected(self):
        with pytest.raises(DuplicateAttributeError):
            Event([("a", 1), ("a", 2)])

    def test_duplicate_identical_tolerated(self):
        assert len(Event([("a", 1), ("a", 1)])) == 1

    def test_duplicate_via_normalization(self):
        with pytest.raises(DuplicateAttributeError):
            Event([("Work Experience", 1), ("work_experience", 2)])

    def test_invalid_value_rejected(self):
        with pytest.raises(InvalidValueError):
            Event({"a": [1, 2]})  # type: ignore[dict-item]

    def test_auto_event_ids_unique(self):
        assert Event({}).event_id != Event({}).event_id

    def test_explicit_event_id(self):
        assert Event({}, event_id="e-42").event_id == "e-42"

    def test_empty_event_allowed(self):
        assert len(Event({})) == 0


class TestMappingInterface:
    def test_get_with_default(self):
        event = Event({"a": 1})
        assert event.get("a") == 1
        assert event.get("missing") is None
        assert event.get("missing", 7) == 7

    def test_contains_invalid_name(self):
        assert "" not in Event({"a": 1})

    def test_items(self):
        event = Event({"a": 1, "b": "x"})
        assert event.items() == (("a", 1), ("b", "x"))

    def test_iteration(self):
        assert list(Event({"a": 1, "b": 2})) == ["a", "b"]


class TestIdentity:
    def test_signature_equality(self):
        assert Event({"a": 4}) == Event({"a": 4.0})
        assert hash(Event({"a": 4})) == hash(Event({"a": 4.0}))

    def test_order_insensitive(self):
        assert Event([("a", 1), ("b", 2)]) == Event([("b", 2), ("a", 1)])

    def test_ids_do_not_affect_equality(self):
        assert Event({"a": 1}, event_id="x") == Event({"a": 1}, event_id="y")

    def test_different_content_differs(self):
        assert Event({"a": 1}) != Event({"a": 2})
        assert Event({"a": 1}) != Event({"b": 1})


class TestDerivation:
    def test_rename_with_mapping(self):
        event = Event({"school": "Toronto", "degree": "PhD"})
        renamed = event.with_renamed_attributes({"school": "university"})
        assert "university" in renamed and "school" not in renamed
        assert renamed["degree"] == "PhD"
        assert "school" in event  # original untouched

    def test_rename_noop_returns_self(self):
        event = Event({"a": 1})
        assert event.with_renamed_attributes({"other": "thing"}) is event

    def test_rename_with_callable(self):
        event = Event({"a": 1, "b": 2})
        renamed = event.with_renamed_attributes(lambda name: f"x_{name}")
        assert renamed.attributes() == ("x_a", "x_b")

    def test_rename_collision_conflicting_values(self):
        event = Event({"a": 1, "b": 2})
        with pytest.raises(DuplicateAttributeError):
            event.with_renamed_attributes({"a": "b"})

    def test_rename_preserves_publisher(self):
        event = Event({"a": 1}, publisher_id="p9")
        assert event.with_renamed_attributes(lambda n: n.upper().lower()).publisher_id == "p9"

    def test_with_value_adds(self):
        derived = Event({"a": 1}).with_value("b", 2)
        assert derived["b"] == 2 and len(derived) == 2

    def test_with_value_replaces(self):
        assert Event({"a": 1}).with_value("a", 9)["a"] == 9

    def test_with_pairs(self):
        derived = Event({"a": 1}).with_pairs({"b": 2, "a": 3})
        assert derived["a"] == 3 and derived["b"] == 2

    def test_without(self):
        event = Event({"a": 1, "b": 2})
        assert "a" not in event.without("a")
        assert event.without("missing") is event


class TestPresentation:
    def test_format_paper_notation(self):
        event = Event([("school", "Toronto"), ("degree", "PhD")])
        assert event.format() == "(school, Toronto)(degree, PhD)"

    def test_repr_contains_id(self):
        event = Event({"a": 1}, event_id="e-7")
        assert "e-7" in repr(event)
