"""Unit tests for repro.webapp.forms."""

from __future__ import annotations

import pytest

from repro.errors import FormValidationError
from repro.webapp.forms import (
    optional,
    optional_int,
    required,
    required_choice,
)


class TestRequired:
    def test_present(self):
        assert required({"name": " Ada "}, "name") == "Ada"

    @pytest.mark.parametrize("form", [{}, {"name": ""}, {"name": "   "}])
    def test_missing(self, form):
        with pytest.raises(FormValidationError) as exc_info:
            required(form, "name")
        assert exc_info.value.field == "name"


class TestChoice:
    def test_valid(self):
        choice = required_choice({"role": "Publisher"}, "role", ("publisher", "subscriber"))
        assert choice == "publisher"

    def test_invalid(self):
        with pytest.raises(FormValidationError):
            required_choice({"role": "admin"}, "role", ("publisher", "subscriber"))


class TestOptional:
    def test_defaults(self):
        assert optional({}, "x") == ""
        assert optional({}, "x", "d") == "d"
        assert optional({"x": " v "}, "x") == "v"


class TestOptionalInt:
    def test_parsing(self):
        assert optional_int({"n": "42"}, "n") == 42
        assert optional_int({}, "n") is None
        assert optional_int({}, "n", default=7) == 7

    def test_bounds(self):
        assert optional_int({"n": "5"}, "n", minimum=0, maximum=10) == 5
        with pytest.raises(FormValidationError):
            optional_int({"n": "-1"}, "n", minimum=0)
        with pytest.raises(FormValidationError):
            optional_int({"n": "11"}, "n", maximum=10)

    def test_whitespace_stripped(self):
        assert optional_int({"n": " 7 "}, "n") == 7
        assert optional_int({"n": "   "}, "n", default=3) == 3

    def test_non_integer(self):
        with pytest.raises(FormValidationError):
            optional_int({"n": "many"}, "n")

