"""Data model substrate: values, attributes, events, predicates,
subscriptions and the textual language that writes them.

This is the layer the paper's "existing matching algorithms" operate on;
the semantic stages in :mod:`repro.core` derive new instances of these
types rather than mutating them.
"""

from repro.model.attributes import normalize_attribute, qualify, split_qualified
from repro.model.events import Event
from repro.model.parser import (
    parse_event,
    parse_predicate,
    parse_subscription,
)
from repro.model.predicates import Operator, Predicate, Range
from repro.model.subscriptions import Subscription
from repro.model.values import (
    PRESENT,
    Period,
    Value,
    compare_values,
    format_value,
    parse_value_literal,
    values_equal,
)

__all__ = [
    "normalize_attribute",
    "qualify",
    "split_qualified",
    "Event",
    "parse_event",
    "parse_predicate",
    "parse_subscription",
    "Operator",
    "Predicate",
    "Range",
    "Subscription",
    "PRESENT",
    "Period",
    "Value",
    "compare_values",
    "format_value",
    "parse_value_literal",
    "values_equal",
]
