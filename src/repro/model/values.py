"""Typed attribute values for publications and subscriptions.

The S-ToPSS data model is attribute/value based: an event is a set of
``(attribute, value)`` pairs and a subscription is a conjunction of
predicates over attribute values.  This module defines which Python types
are legal values, how literals are parsed and formatted, and the ordering
rules predicates rely on.

Supported value types
---------------------

``str``
    Free text and concept terms ("Toronto", "mainframe developer").
``int`` / ``float``
    Numeric values ("graduation_year = 1990").  Numerics compare across
    the two types.
``bool``
    Flags ("work_experience, true").  Booleans only support equality.
:class:`Period`
    A year interval such as ``1994-1997`` or ``1999-present``, used by
    the job-finder domain of the paper ("(job1, IBM)(period, 1994-1997)").

The module deliberately avoids implicit coercion between strings and
numbers: a subscription on ``x = "4"`` does not match an event carrying
``x = 4``.  Workloads that want coercion should normalize before they
build the event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.errors import IncomparableValuesError, InvalidValueError

__all__ = [
    "Period",
    "Value",
    "PRESENT",
    "is_valid_value",
    "check_value",
    "value_type_name",
    "values_equal",
    "values_comparable",
    "compare_values",
    "parse_value_literal",
    "format_value",
    "canonical_value_key",
]

#: Sentinel year used by :class:`Period` for open-ended intervals
#: ("1999-present").  The paper's job-finder mapping function treats
#: "present" as the evaluation date, supplied by the caller.
PRESENT = "present"


@dataclass(frozen=True, slots=True)
class Period:
    """A closed or right-open interval of years, e.g. ``1994-1997``.

    ``end is None`` encodes an interval that extends to the present
    ("1999-present").  Periods are value objects: immutable, hashable and
    comparable for equality.  Ordering between periods is defined by the
    start year (ties broken by end year, with open intervals sorting
    last) so range predicates over periods are well defined.
    """

    start: int
    end: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or isinstance(self.start, bool):
            raise InvalidValueError(f"period start must be an int, got {self.start!r}")
        if self.end is not None:
            if not isinstance(self.end, int) or isinstance(self.end, bool):
                raise InvalidValueError(f"period end must be an int or None, got {self.end!r}")
            if self.end < self.start:
                raise InvalidValueError(f"period end {self.end} precedes start {self.start}")

    def duration(self, present_year: int) -> int:
        """Length of the period in years, closing open intervals at
        *present_year*."""
        end = self.end if self.end is not None else present_year
        if end < self.start:
            return 0
        return end - self.start

    def closed_end(self, present_year: int) -> int:
        """The end year, substituting *present_year* for ``present``."""
        return self.end if self.end is not None else present_year

    def sort_key(self) -> tuple[int, int]:
        end = self.end if self.end is not None else 10**9
        return (self.start, end)

    def __str__(self) -> str:
        end = PRESENT if self.end is None else str(self.end)
        return f"{self.start}-{end}"

    @classmethod
    def parse(cls, text: str) -> "Period":
        """Parse ``"1994-1997"`` or ``"1999-present"`` into a Period."""
        raw = text.strip()
        sep = raw.find("-", 1)  # skip a leading minus sign
        if sep < 0:
            raise InvalidValueError(f"not a period literal: {text!r}")
        start_text, end_text = raw[:sep].strip(), raw[sep + 1:].strip()
        try:
            start = int(start_text)
        except ValueError as exc:
            raise InvalidValueError(f"bad period start in {text!r}") from exc
        if end_text.lower() == PRESENT:
            return cls(start, None)
        try:
            end = int(end_text)
        except ValueError as exc:
            raise InvalidValueError(f"bad period end in {text!r}") from exc
        return cls(start, end)


#: Union of all legal attribute-value types.
Value = Union[str, int, float, bool, Period]

_NUMERIC_TYPES = (int, float)


def is_valid_value(value: object) -> bool:
    """Whether *value* is one of the supported value types."""
    if isinstance(value, bool):
        return True
    if isinstance(value, _NUMERIC_TYPES):
        # NaN breaks the total-order contract predicates rely on.
        return not (isinstance(value, float) and math.isnan(value))
    return isinstance(value, (str, Period))


def check_value(value: object) -> Value:
    """Validate *value*, returning it unchanged or raising
    :class:`~repro.errors.InvalidValueError`."""
    if not is_valid_value(value):
        raise InvalidValueError(f"unsupported value {value!r} of type {type(value).__name__}")
    return value  # type: ignore[return-value]


def value_type_name(value: Value) -> str:
    """A stable short name for a value's type.

    Booleans are reported before ints because ``bool`` subclasses
    ``int`` in Python.
    """
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, Period):
        return "period"
    if isinstance(value, str):
        return "string"
    raise InvalidValueError(f"unsupported value {value!r}")


def values_equal(a: Value, b: Value) -> bool:
    """Equality across value types.

    Ints and floats compare numerically (``4 == 4.0``); booleans only
    equal booleans; everything else requires matching types.
    """
    a_is_bool, b_is_bool = isinstance(a, bool), isinstance(b, bool)
    if a_is_bool or b_is_bool:
        return a_is_bool and b_is_bool and a == b
    if isinstance(a, _NUMERIC_TYPES) and isinstance(b, _NUMERIC_TYPES):
        return a == b
    if type(a) is type(b):
        return a == b
    return False


def values_comparable(a: Value, b: Value) -> bool:
    """Whether ``<``/``>`` style comparison is defined between *a* and *b*."""
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    if isinstance(a, _NUMERIC_TYPES) and isinstance(b, _NUMERIC_TYPES):
        return True
    if isinstance(a, str) and isinstance(b, str):
        return True
    if isinstance(a, Period) and isinstance(b, Period):
        return True
    return False


def compare_values(a: Value, b: Value) -> int:
    """Three-way comparison: ``-1`` if ``a < b``, ``0`` if equal, ``1`` if
    greater.

    Raises :class:`~repro.errors.IncomparableValuesError` when the pair
    has no defined ordering (mixed string/number, booleans, etc.).
    """
    if not values_comparable(a, b):
        raise IncomparableValuesError(
            f"cannot order {value_type_name(a)} against {value_type_name(b)}"
        )
    if isinstance(a, Period) and isinstance(b, Period):
        ka, kb = a.sort_key(), b.sort_key()
        return (ka > kb) - (ka < kb)
    return (a > b) - (a < b)  # type: ignore[operator]


def _looks_like_period(text: str) -> bool:
    sep = text.find("-", 1)
    if sep < 0:
        return False
    head, tail = text[:sep].strip(), text[sep + 1:].strip()
    if not head.isdigit():
        return False
    return tail.isdigit() or tail.lower() == PRESENT


def parse_value_literal(text: str) -> Value:
    """Parse a textual value literal into the richest matching type.

    Resolution order: quoted string, boolean, period, int, float, bare
    string.  Quoted strings (single or double quotes) always stay
    strings — ``"1990"`` parses to the *string* ``1990``.
    """
    raw = text.strip()
    if not raw:
        raise InvalidValueError("empty value literal")
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in ("'", '"'):
        return raw[1:-1]
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if _looks_like_period(raw):
        return Period.parse(raw)
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        result = float(raw)
    except ValueError:
        return raw
    if math.isnan(result) or math.isinf(result):
        return raw
    return result


def format_value(value: Value) -> str:
    """Render a value so :func:`parse_value_literal` round-trips it."""
    check_value(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Period):
        return str(value)
    if isinstance(value, str):
        needs_quotes = (
            value == ""
            or value != value.strip()
            or value.lower() in ("true", "false")
            or _looks_like_period(value)
            or _parses_numeric(value)
            or any(ch in value for ch in "()[]{},=<>!'\"")
        )
        if needs_quotes:
            escaped = value.replace('"', '\\"')
            return f'"{escaped}"'
        return value
    return repr(value) if isinstance(value, float) else str(value)


def _parses_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def canonical_value_key(value: Value) -> tuple[str, object]:
    """A hashable key under which semantically equal values collide.

    Used for event deduplication in the semantic pipeline: ``4`` and
    ``4.0`` produce the same key, ``True`` and ``1`` do not.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, _NUMERIC_TYPES):
        as_float = float(value)
        if as_float.is_integer():
            return ("num", int(as_float))
        return ("num", as_float)
    if isinstance(value, Period):
        return ("period", (value.start, value.end))
    return ("str", value)
