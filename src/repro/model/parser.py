"""Textual language for subscriptions and events.

The demonstration's web application accepts subscriptions and
publications as text; this module is that surface syntax.  It follows
the paper's notation directly:

Subscriptions (conjunctions, ``and``/``&``/``∧`` separated)::

    (university = Toronto) and (degree = PhD) and (professional experience >= 4)

Events (attribute–value pairs, juxtaposed)::

    (school, Toronto)(degree, PhD)(work_experience, true)(graduation_year, 1990)

Extra predicate forms::

    (degree in {PhD, MSc, MASc})
    (salary range [50000, 90000])
    (resume exists)
    (title prefix senior)
    (title contains developer)

Values follow :func:`repro.model.values.parse_value_literal`: numbers,
``true``/``false``, year periods (``1994-1997``, ``1999-present``),
quoted strings, and bare words (multi-word bare strings are allowed —
``(title, mainframe developer)``).  Values containing parentheses,
commas, or operator characters must be quoted.
"""

from __future__ import annotations

from repro.errors import (
    DuplicateAttributeError,
    InvalidAttributeError,
    InvalidValueError,
    ParseError,
)
from repro.model.events import Event
from repro.model.predicates import Operator, Predicate, Range
from repro.model.subscriptions import Subscription
from repro.model.values import parse_value_literal

__all__ = [
    "parse_subscription",
    "parse_event",
    "parse_predicate",
]

#: Symbolic operators, longest first so ``<=`` wins over ``<``.
_SYMBOL_OPERATORS = (">=", "<=", "!=", "<>", "==", "≥", "≤", "≠", "=", "<", ">")

#: Word operators, matched as whole lowercase words.
_WORD_OPERATORS = ("in", "range", "exists", "prefix", "suffix", "contains")

_CONJUNCTIONS = ("and", "&&", "&", "∧")


def _split_groups(text: str) -> list[tuple[str, int]]:
    """Split *text* into top-level ``(...)`` group bodies.

    Returns ``(body, offset)`` pairs where *offset* is the body's start
    position in *text* (for error messages).  Text between groups must
    consist only of whitespace, commas, semicolons, and conjunction
    words.  Quotes inside a group protect parentheses.
    """
    groups: list[tuple[str, int]] = []
    i, n = 0, len(text)
    between: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "(":
            filler = "".join(between).strip()
            _check_filler(filler, text, i)
            between = []
            depth, j = 1, i + 1
            quote: str | None = None
            while j < n:
                cj = text[j]
                if quote is not None:
                    if cj == quote:
                        quote = None
                elif cj in ("'", '"'):
                    quote = cj
                elif cj == "(":
                    depth += 1
                elif cj == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise ParseError("unbalanced parenthesis", text, i)
            groups.append((text[i + 1:j], i + 1))
            i = j + 1
        else:
            between.append(ch)
            i += 1
    filler = "".join(between).strip()
    _check_filler(filler, text, n, allow_empty=True)
    return groups


def _check_filler(filler: str, text: str, position: int, allow_empty: bool = True) -> None:
    if not filler:
        if allow_empty:
            return
        raise ParseError("expected a conjunction between clauses", text, position)
    for token in filler.replace(",", " ").replace(";", " ").split():
        if token.lower() not in _CONJUNCTIONS:
            raise ParseError(f"unexpected text {token!r} between clauses", text, position)


def _find_operator(body: str) -> tuple[Operator, int, int] | None:
    """Locate the operator in a clause body, outside any quotes.

    Returns ``(operator, start, end)`` of the operator occurrence, or
    ``None``.  Symbolic operators are found by scanning; word operators
    must be standalone lowercase words surrounded by whitespace (or at
    the end, for ``exists``).
    """
    quote: str | None = None
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if quote is not None:
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in ("'", '"'):
            quote = ch
            i += 1
            continue
        for symbol in _SYMBOL_OPERATORS:
            if body.startswith(symbol, i):
                return Operator.from_symbol(symbol), i, i + len(symbol)
        i += 1
    # word operators: scan tokens with positions
    lowered = body.lower()
    for word in _WORD_OPERATORS:
        start = 0
        while True:
            idx = lowered.find(word, start)
            if idx < 0:
                break
            before_ok = idx == 0 or lowered[idx - 1].isspace()
            after = idx + len(word)
            after_ok = after == n or lowered[after].isspace() or lowered[after] in "[{"
            if before_ok and after_ok and (idx > 0):
                return Operator.from_symbol(word), idx, after
            start = idx + 1
    return None


def _parse_in_operand(text: str, source: str, offset: int) -> frozenset:
    raw = text.strip()
    if not (raw.startswith("{") and raw.endswith("}")):
        raise ParseError("IN operand must be a {...} set", source, offset)
    inner = raw[1:-1]
    members = [part for part in _split_commas(inner) if part.strip()]
    if not members:
        raise ParseError("IN set must not be empty", source, offset)
    return frozenset(parse_value_literal(member) for member in members)


def _parse_range_operand(text: str, source: str, offset: int) -> Range:
    raw = text.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ParseError("RANGE operand must be a [low, high] pair", source, offset)
    parts = _split_commas(raw[1:-1])
    if len(parts) != 2:
        raise ParseError("RANGE takes exactly two bounds", source, offset)
    return Range(parse_value_literal(parts[0]), parse_value_literal(parts[1]))


def _split_commas(text: str) -> list[str]:
    """Split on commas that are not inside quotes."""
    parts: list[str] = []
    current: list[str] = []
    quote: str | None = None
    for ch in text:
        if quote is not None:
            current.append(ch)
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
            current.append(ch)
        elif ch == ",":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_predicate(clause: str, *, _source: str | None = None, _offset: int = 0) -> Predicate:
    """Parse one predicate clause, with or without surrounding parens.

    >>> parse_predicate("(professional experience >= 4)")
    Predicate(attribute='professional_experience', ...)
    """
    source = _source if _source is not None else clause
    body = clause.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    found = _find_operator(body)
    if found is None:
        raise ParseError(f"no operator found in clause {body!r}", source, _offset)
    operator, start, end = found
    attr_text = body[:start].strip()
    operand_text = body[end:].strip()
    if not attr_text:
        raise ParseError("clause is missing an attribute", source, _offset)
    try:
        if operator is Operator.EXISTS:
            if operand_text:
                raise ParseError("EXISTS takes no operand", source, _offset)
            return Predicate.exists(attr_text)
        if not operand_text:
            raise ParseError(f"operator {operator.value!r} is missing its operand", source, _offset)
        if operator is Operator.IN:
            return Predicate(
                attr_text, operator, _parse_in_operand(operand_text, source, _offset)
            )
        if operator is Operator.RANGE:
            return Predicate(
                attr_text, operator, _parse_range_operand(operand_text, source, _offset)
            )
        operand = parse_value_literal(operand_text)
        if operator.is_string and not isinstance(operand, str):
            operand = operand_text  # '(zip prefix 94)' keeps 94 textual
        return Predicate(attr_text, operator, operand)
    except (InvalidValueError, InvalidAttributeError) as exc:
        raise ParseError(str(exc), source, _offset) from exc


def parse_subscription(
    text: str,
    *,
    subscriber_id: str | None = None,
    sub_id: str | None = None,
    max_generality: int | None = None,
) -> Subscription:
    """Parse a conjunctive subscription from the textual language.

    >>> s = parse_subscription(
    ...     "(university = Toronto) and (professional experience >= 4)")
    >>> len(s)
    2
    """
    if not text or not text.strip():
        raise ParseError("empty subscription text", text, 0)
    groups = _split_groups(text)
    if not groups:
        raise ParseError("subscription has no clauses", text, 0)
    if len(groups) == 1 and groups[0][0].strip().lower() == "true":
        # "(true)" is the empty conjunction (matches every event) —
        # the notation Subscription.format() emits for it.
        predicates: list[Predicate] = []
    else:
        predicates = [
            parse_predicate(body, _source=text, _offset=offset)
            for body, offset in groups
        ]
    return Subscription(
        predicates,
        subscriber_id=subscriber_id,
        sub_id=sub_id,
        max_generality=max_generality,
    )


def parse_event(
    text: str,
    *,
    event_id: str | None = None,
    publisher_id: str | None = None,
) -> Event:
    """Parse an event from the paper's pair notation.

    >>> e = parse_event("(school, Toronto)(graduation_year, 1990)")
    >>> e["graduation_year"]
    1990
    """
    if not text or not text.strip():
        raise ParseError("empty event text", text, 0)
    groups = _split_groups(text)
    if not groups:
        raise ParseError("event has no attribute-value pairs", text, 0)
    pairs: list[tuple[str, object]] = []
    for body, offset in groups:
        parts = _split_commas(body)
        if len(parts) != 2:
            raise ParseError(f"event pair must be (attribute, value), got {body!r}", text, offset)
        attr_text, value_text = parts[0].strip(), parts[1].strip()
        if not attr_text or not value_text:
            raise ParseError(f"event pair must be (attribute, value), got {body!r}", text, offset)
        try:
            pairs.append((attr_text, parse_value_literal(value_text)))
        except (InvalidValueError, InvalidAttributeError) as exc:
            raise ParseError(str(exc), text, offset) from exc
    try:
        return Event(pairs, event_id=event_id, publisher_id=publisher_id)
    except (InvalidValueError, InvalidAttributeError, DuplicateAttributeError) as exc:
        raise ParseError(str(exc), text, 0) from exc

