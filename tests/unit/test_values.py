"""Unit tests for repro.model.values."""

from __future__ import annotations

import pytest

from repro.errors import IncomparableValuesError, InvalidValueError
from repro.model.values import (
    PRESENT,
    Period,
    canonical_value_key,
    check_value,
    compare_values,
    format_value,
    is_valid_value,
    parse_value_literal,
    value_type_name,
    values_comparable,
    values_equal,
)


class TestPeriod:
    def test_closed_period_duration(self):
        assert Period(1994, 1997).duration(2003) == 3

    def test_open_period_duration_uses_present_year(self):
        assert Period(1999, None).duration(2003) == 4

    def test_parse_closed(self):
        assert Period.parse("1994-1997") == Period(1994, 1997)

    def test_parse_open(self):
        assert Period.parse("1999-present") == Period(1999, None)

    def test_parse_open_case_insensitive(self):
        assert Period.parse("1999-PRESENT") == Period(1999, None)

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidValueError):
            Period.parse("not-a-period")

    def test_parse_rejects_bad_end(self):
        with pytest.raises(InvalidValueError):
            Period.parse("1990-soon")

    def test_end_before_start_rejected(self):
        with pytest.raises(InvalidValueError):
            Period(2000, 1990)

    def test_non_int_start_rejected(self):
        with pytest.raises(InvalidValueError):
            Period("1990", 2000)  # type: ignore[arg-type]

    def test_str_round_trips(self):
        for period in (Period(1994, 1997), Period(1999, None)):
            assert Period.parse(str(period)) == period

    def test_closed_end(self):
        assert Period(1999).closed_end(2003) == 2003
        assert Period(1999, 2001).closed_end(2003) == 2001

    def test_sort_key_orders_open_last(self):
        assert Period(1990, 1995).sort_key() < Period(1990, None).sort_key()

    def test_present_constant(self):
        assert PRESENT == "present"


class TestValidity:
    @pytest.mark.parametrize("value", ["x", 1, 1.5, True, False, Period(1990, 1995)])
    def test_valid_values(self, value):
        assert is_valid_value(value)
        assert check_value(value) == value

    @pytest.mark.parametrize("value", [None, [1], {"a": 1}, (1, 2), object()])
    def test_invalid_values(self, value):
        assert not is_valid_value(value)
        with pytest.raises(InvalidValueError):
            check_value(value)

    def test_nan_rejected(self):
        assert not is_valid_value(float("nan"))

    def test_type_names(self):
        assert value_type_name(True) == "bool"
        assert value_type_name(1) == "int"
        assert value_type_name(1.5) == "float"
        assert value_type_name("x") == "string"
        assert value_type_name(Period(1990)) == "period"


class TestEquality:
    def test_int_float_equal(self):
        assert values_equal(4, 4.0)

    def test_bool_not_equal_to_int(self):
        assert not values_equal(True, 1)
        assert not values_equal(0, False)

    def test_string_not_equal_to_number(self):
        assert not values_equal("4", 4)

    def test_periods_equal(self):
        assert values_equal(Period(1990, 1995), Period(1990, 1995))
        assert not values_equal(Period(1990, 1995), Period(1990, None))


class TestComparison:
    def test_numbers_comparable(self):
        assert values_comparable(1, 2.5)
        assert compare_values(1, 2.5) == -1
        assert compare_values(3, 3.0) == 0
        assert compare_values(4, 3) == 1

    def test_strings_comparable(self):
        assert compare_values("apple", "banana") == -1

    def test_periods_comparable(self):
        assert compare_values(Period(1990, 1995), Period(1994, 1997)) == -1

    def test_bool_never_orderable(self):
        assert not values_comparable(True, False)
        with pytest.raises(IncomparableValuesError):
            compare_values(True, False)

    def test_mixed_types_raise(self):
        with pytest.raises(IncomparableValuesError):
            compare_values("4", 4)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("-17", -17),
            ("3.5", 3.5),
            ("true", True),
            ("False", False),
            ("Toronto", "Toronto"),
            ("mainframe developer", "mainframe developer"),
            ("1994-1997", Period(1994, 1997)),
            ("1999-present", Period(1999, None)),
            ('"1990"', "1990"),
            ("'quoted str'", "quoted str"),
            ("0", 0),
            ("  42  ", 42),
            ("1e3", 1000.0),
            ("yes", "yes"),
            ("1994 - 1997", Period(1994, 1997)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_value_literal(text) == expected

    def test_quoted_preserves_type(self):
        value = parse_value_literal('"true"')
        assert value == "true" and isinstance(value, str)

    def test_empty_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_value_literal("   ")

    def test_infinity_stays_string(self):
        assert parse_value_literal("inf") == "inf"

    @pytest.mark.parametrize(
        "value",
        [
            42,
            -17,
            3.5,
            True,
            False,
            "Toronto",
            "hello world",
            Period(1994, 1997),
            Period(1999, None),
            "1990",
            "true",
            "a,b",
            "",
        ],
    )
    def test_format_round_trips(self, value):
        assert parse_value_literal(format_value(value)) == value


class TestCanonicalKey:
    def test_int_float_collide(self):
        assert canonical_value_key(4) == canonical_value_key(4.0)

    def test_bool_does_not_collide_with_int(self):
        assert canonical_value_key(True) != canonical_value_key(1)

    def test_string_distinct_from_number(self):
        assert canonical_value_key("4") != canonical_value_key(4)

    def test_period_key(self):
        assert canonical_value_key(Period(1990)) == ("period", (1990, None))

    def test_float_fraction_preserved(self):
        assert canonical_value_key(4.5) == ("num", 4.5)
