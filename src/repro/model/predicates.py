"""Predicates: the atoms of content-based subscriptions.

A predicate constrains a single attribute with an operator and an
operand, e.g. ``university = Toronto`` or
``professional_experience >= 4``.  The operator set covers what the
content-based matching literature the paper builds on supports
(Aguilera et al. 1999, Fabret et al. 2001): equality, inequality, the
four orderings, interval membership, set membership, string
prefix/suffix/substring, and attribute existence.

Predicates are immutable value objects; the matching algorithms in
:mod:`repro.matching` index them by ``(attribute, operator)`` and by
operand hash, which is exactly the "hash structures to quickly locate
relevant information" design the paper calls out for its semantic
stages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.errors import IncomparableValuesError, PredicateError
from repro.model.attributes import normalize_attribute
from repro.model.values import (
    Value,
    canonical_value_key,
    check_value,
    compare_values,
    format_value,
    values_comparable,
    values_equal,
)

__all__ = ["Operator", "Predicate", "Range"]


class Operator(enum.Enum):
    """Predicate operators.

    ``EXISTS`` takes no operand; ``IN`` takes a frozenset of values;
    ``RANGE`` takes a :class:`Range`; string operators require string
    operands; ordering operators require orderable operands.
    """

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    RANGE = "range"
    IN = "in"
    PREFIX = "prefix"
    SUFFIX = "suffix"
    CONTAINS = "contains"
    EXISTS = "exists"

    # a member compares by identity: hash it so, in C (``Enum.__hash__``
    # is a Python call, made by every dict probe of a predicate key)
    __hash__ = object.__hash__

    @property
    def is_ordering(self) -> bool:
        return self in (Operator.LT, Operator.LE, Operator.GT, Operator.GE)

    @property
    def is_string(self) -> bool:
        return self in (Operator.PREFIX, Operator.SUFFIX, Operator.CONTAINS)

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        """Look up an operator by its textual symbol (``"<="``)."""
        sym = symbol.strip().lower()
        for op in cls:
            if op.value == sym:
                return op
        aliases = {"==": cls.EQ, "<>": cls.NE, "≠": cls.NE, "≤": cls.LE, "≥": cls.GE}
        if sym in aliases:
            return aliases[sym]
        raise PredicateError(f"unknown operator symbol {symbol!r}")


@dataclass(frozen=True, slots=True)
class Range:
    """A closed interval operand for :attr:`Operator.RANGE`.

    Bounds must be mutually orderable; the interval is inclusive on
    both ends, matching the ``range [a,b]`` syntax of the subscription
    language.
    """

    low: Value
    high: Value

    def __post_init__(self) -> None:
        object.__setattr__(self, "low", check_value(self.low))
        object.__setattr__(self, "high", check_value(self.high))
        if not values_comparable(self.low, self.high):
            raise PredicateError(f"range bounds {self.low!r} and {self.high!r} are not comparable")
        if compare_values(self.low, self.high) > 0:
            raise PredicateError(f"range low {self.low!r} exceeds high {self.high!r}")

    def contains(self, value: Value) -> bool:
        """Whether *value* lies within the closed interval."""
        if not values_comparable(value, self.low):
            return False
        return compare_values(value, self.low) >= 0 and compare_values(value, self.high) <= 0

    def __str__(self) -> str:
        return f"[{format_value(self.low)},{format_value(self.high)}]"


Operand = Value | Range | frozenset | None


def _check_operand(operator: Operator, operand: Operand) -> Operand:
    """Validate the operator/operand pairing at construction time."""
    if operator is Operator.EXISTS:
        if operand is not None:
            raise PredicateError("EXISTS takes no operand")
        return None
    if operand is None:
        raise PredicateError(f"{operator.name} requires an operand")
    if operator is Operator.RANGE:
        if not isinstance(operand, Range):
            raise PredicateError(f"RANGE requires a Range operand, got {type(operand).__name__}")
        return operand
    if operator is Operator.IN:
        if isinstance(operand, (set, frozenset, list, tuple)):
            members = frozenset(check_value(v) for v in operand)
        else:
            raise PredicateError(f"IN requires a collection operand, got {type(operand).__name__}")
        if not members:
            raise PredicateError("IN requires a non-empty collection")
        return members
    if isinstance(operand, (Range, frozenset, set, list, tuple)):
        raise PredicateError(
            f"{operator.name} requires a scalar operand, got {type(operand).__name__}"
        )
    operand = check_value(operand)
    if operator.is_string and not isinstance(operand, str):
        raise PredicateError(f"{operator.name} requires a string operand, got {operand!r}")
    if operator.is_ordering and isinstance(operand, bool):
        raise PredicateError("ordering operators are undefined for booleans")
    return operand


@dataclass(frozen=True, slots=True)
class Predicate:
    """An immutable constraint on one attribute.

    >>> p = Predicate("professional experience", Operator.GE, 4)
    >>> p.attribute
    'professional_experience'
    >>> p.evaluate(5), p.evaluate(3)
    (True, False)
    """

    attribute: str
    operator: Operator
    operand: Operand = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "attribute", normalize_attribute(self.attribute))
        object.__setattr__(self, "operand", _check_operand(self.operator, self.operand))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def eq(cls, attribute: str, value: Value) -> "Predicate":
        return cls(attribute, Operator.EQ, value)

    @classmethod
    def ne(cls, attribute: str, value: Value) -> "Predicate":
        return cls(attribute, Operator.NE, value)

    @classmethod
    def lt(cls, attribute: str, value: Value) -> "Predicate":
        return cls(attribute, Operator.LT, value)

    @classmethod
    def le(cls, attribute: str, value: Value) -> "Predicate":
        return cls(attribute, Operator.LE, value)

    @classmethod
    def gt(cls, attribute: str, value: Value) -> "Predicate":
        return cls(attribute, Operator.GT, value)

    @classmethod
    def ge(cls, attribute: str, value: Value) -> "Predicate":
        return cls(attribute, Operator.GE, value)

    @classmethod
    def between(cls, attribute: str, low: Value, high: Value) -> "Predicate":
        return cls(attribute, Operator.RANGE, Range(low, high))

    @classmethod
    def isin(cls, attribute: str, values: Iterable[Value]) -> "Predicate":
        return cls(attribute, Operator.IN, frozenset(values))

    @classmethod
    def prefix(cls, attribute: str, text: str) -> "Predicate":
        return cls(attribute, Operator.PREFIX, text)

    @classmethod
    def suffix(cls, attribute: str, text: str) -> "Predicate":
        return cls(attribute, Operator.SUFFIX, text)

    @classmethod
    def contains(cls, attribute: str, text: str) -> "Predicate":
        return cls(attribute, Operator.CONTAINS, text)

    @classmethod
    def exists(cls, attribute: str) -> "Predicate":
        return cls(attribute, Operator.EXISTS, None)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, value: Value) -> bool:
        """Whether an event value on this predicate's attribute satisfies
        the constraint.  Type mismatches evaluate to ``False`` rather
        than raising (an event carrying ``x = "tall"`` simply fails
        ``x >= 4``); this matches content-based matcher semantics where
        ill-typed pairs are non-matches, not errors.
        """
        op = self.operator
        if op is Operator.EXISTS:
            return True
        if op is Operator.EQ:
            return values_equal(value, self.operand)  # type: ignore[arg-type]
        if op is Operator.NE:
            return not values_equal(value, self.operand)  # type: ignore[arg-type]
        if op.is_ordering:
            try:
                cmp = compare_values(value, self.operand)  # type: ignore[arg-type]
            except IncomparableValuesError:
                return False
            if op is Operator.LT:
                return cmp < 0
            if op is Operator.LE:
                return cmp <= 0
            if op is Operator.GT:
                return cmp > 0
            return cmp >= 0
        if op is Operator.RANGE:
            return self.operand.contains(value)  # type: ignore[union-attr]
        if op is Operator.IN:
            members = self.operand  # type: ignore[union-attr]
            return any(values_equal(value, member) for member in members)
        if not isinstance(value, str):
            return False
        if op is Operator.PREFIX:
            return value.startswith(self.operand)  # type: ignore[arg-type]
        if op is Operator.SUFFIX:
            return value.endswith(self.operand)  # type: ignore[arg-type]
        return self.operand in value  # type: ignore[operator]

    # -- identity ------------------------------------------------------------

    @property
    def key(self) -> tuple:
        """A hashable identity key; predicates with semantically equal
        operands (``4`` vs ``4.0``) share a key so matchers can share
        index entries between them.  Built on each read, not kept:
        subscribe and unsubscribe read it, publish does not."""
        # by the operand's type, which ``_check_operand`` pairs with the
        # operator: reading an ``Operator`` member costs more on 3.11
        operand = self.operand
        if isinstance(operand, Range):
            operand = (canonical_value_key(operand.low), canonical_value_key(operand.high))
        elif type(operand) is frozenset:  # IN
            operand = frozenset(map(canonical_value_key, operand))
        elif operand is not None:  # EXISTS has none
            operand = canonical_value_key(operand)
        return (self.attribute, self.operator, operand)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.key == other.key

    # -- reasoning -----------------------------------------------------------

    def with_attribute(self, attribute: str) -> "Predicate":
        """A copy of this predicate over a different attribute — used by
        the synonym stage to rewrite to root attributes."""
        if normalize_attribute(attribute) == self.attribute:
            return self
        return Predicate(attribute, self.operator, self.operand)

    def implies(self, other: "Predicate") -> bool:
        """Conservative implication test: ``True`` means every value
        satisfying *self* also satisfies *other*.  ``False`` means
        "unknown or no"; only sound inferences return ``True``.

        Covers the cases matchers exploit: identical predicates,
        EQ⇒anything it satisfies, orderings/ranges by bound inclusion,
        IN-subset, and string prefix/contains relations.
        """
        if self.attribute != other.attribute:
            return False
        if self == other:
            return True
        if other.operator is Operator.EXISTS:
            return True
        if self.operator is Operator.EQ:
            return other.evaluate(self.operand)  # type: ignore[arg-type]
        if self.operator is Operator.IN:
            return all(other.evaluate(v) for v in self.operand)  # type: ignore[union-attr]
        try:
            return self._implies_interval(other)
        except IncomparableValuesError:
            return False

    def _bounds(self) -> tuple[Value | None, bool, Value | None, bool] | None:
        """Interval view ``(low, low_inclusive, high, high_inclusive)`` of
        ordering/range predicates; ``None`` bounds are infinite."""
        op = self.operator
        if op is Operator.GT:
            return (self.operand, False, None, True)  # type: ignore[return-value]
        if op is Operator.GE:
            return (self.operand, True, None, True)  # type: ignore[return-value]
        if op is Operator.LT:
            return (None, True, self.operand, False)  # type: ignore[return-value]
        if op is Operator.LE:
            return (None, True, self.operand, True)  # type: ignore[return-value]
        if op is Operator.RANGE:
            rng = self.operand
            return (rng.low, True, rng.high, True)  # type: ignore[union-attr]
        return None

    def _implies_interval(self, other: "Predicate") -> bool:
        mine, theirs = self._bounds(), other._bounds()
        if mine is None or theirs is None:
            if self.operator.is_string and other.operator is Operator.CONTAINS:
                # prefix/suffix/contains of a superstring implies contains
                # of any substring of the operand.
                return (
                    isinstance(self.operand, str)
                    and isinstance(other.operand, str)
                    and other.operand in self.operand
                )
            return False
        my_low, my_low_inc, my_high, my_high_inc = mine
        their_low, their_low_inc, their_high, their_high_inc = theirs
        if their_low is not None:
            if my_low is None:
                return False
            cmp = compare_values(my_low, their_low)
            if cmp < 0 or (cmp == 0 and my_low_inc and not their_low_inc):
                return False
        if their_high is not None:
            if my_high is None:
                return False
            cmp = compare_values(my_high, their_high)
            if cmp > 0 or (cmp == 0 and my_high_inc and not their_high_inc):
                return False
        return True

    def __str__(self) -> str:
        if self.operator is Operator.EXISTS:
            return f"({self.attribute} exists)"
        if self.operator is Operator.IN:
            values = self.operand  # type: ignore[union-attr]
            members = ",".join(sorted(format_value(v) for v in values))
            return f"({self.attribute} in {{{members}}})"
        if self.operator is Operator.RANGE:
            return f"({self.attribute} range {self.operand})"
        formatted = format_value(self.operand)  # type: ignore[arg-type]
        return f"({self.attribute} {self.operator.value} {formatted})"
