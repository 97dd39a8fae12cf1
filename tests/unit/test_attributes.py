"""Unit tests for repro.model.attributes."""

from __future__ import annotations

import pytest

from repro.errors import InvalidAttributeError
from repro.model.attributes import (
    normalize_attribute,
    qualify,
    split_qualified,
    strip_qualifier,
)


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("university", "university"),
            ("Work Experience", "work_experience"),
            ("  professional experience ", "professional_experience"),
            ("Graduation-Year", "graduation_year"),
            ("UPPER", "upper"),
            ("a__b___c", "a_b_c"),
            ("_leading_", "leading"),
            ("jobs:degree", "jobs:degree"),
            ("Jobs:Graduation Year", "jobs:graduation_year"),
            ("tab\tseparated", "tab_separated"),
        ],
    )
    def test_normalizes(self, raw, expected):
        assert normalize_attribute(raw) == expected

    def test_idempotent(self):
        once = normalize_attribute("Work  Experience")
        assert normalize_attribute(once) == once

    @pytest.mark.parametrize("raw", ["", "   ", "___", "a:b:c", "per/cent", "naïve"])
    def test_rejects(self, raw):
        with pytest.raises(InvalidAttributeError):
            normalize_attribute(raw)

    def test_rejects_non_string(self):
        with pytest.raises(InvalidAttributeError):
            normalize_attribute(42)  # type: ignore[arg-type]


class TestQualifiers:
    def test_qualify(self):
        assert qualify("jobs", "degree") == "jobs:degree"

    def test_qualify_replaces_existing(self):
        assert qualify("vehicles", "jobs:degree") == "vehicles:degree"

    def test_qualify_normalizes(self):
        assert qualify("Jobs", "Graduation Year") == "jobs:graduation_year"

    def test_qualify_rejects_qualified_domain(self):
        with pytest.raises(InvalidAttributeError):
            qualify("a:b", "x")

    def test_split_qualified(self):
        assert split_qualified("jobs:degree") == ("jobs", "degree")
        assert split_qualified("degree") == (None, "degree")

    def test_strip_qualifier(self):
        assert strip_qualifier("jobs:degree") == "degree"
        assert strip_qualifier("degree") == "degree"
