"""Fuzz: the textual language fails loudly and locally, and what it
accepts it can say again.

Arbitrary text — free Unicode, and runs of the language's own tokens,
which reach much deeper into the grammar — goes to
:func:`~repro.model.parser.parse_event`,
:func:`~repro.model.parser.parse_subscription` and
:func:`~repro.model.attributes.normalize_attribute`.  Each may raise only
the library's own errors (:class:`~repro.errors.ReproError`); whatever
parses formats to a text that parses back to the same content and
formats the same way again.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import InvalidAttributeError, ReproError
from repro.model.attributes import ATTRIBUTE_PATTERN, normalize_attribute
from repro.model.parser import parse_event, parse_subscription

#: pieces of the grammar (and near misses) to glue into texts
_TOKENS = (
    "(", ")", ",", " ", "  ", ";", "=", "==", "!=", "<>", ">=", "<=", "<", ">", "≥", "≠",
    "and", "&", "∧", " in ", " range ", " exists", " prefix ", " suffix ", " contains ",
    "{", "}", "[", "]", '"', "'", "-", "_", ":", "present", "true", "false", "1994",
    "1999-present", "1994-1997", "4", "4.5", "-7", "1e3", "nan", "inf", "x", "Work Experience",
    "degree", "PhD", "jobs:", "é", "\t", "\n", "\\",
)  # fmt: skip

grammar_text = st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join)
any_text = st.one_of(st.text(max_size=40), grammar_text)


def _parsed(parse, text):
    """*parse* of *text*, or None when it refuses with a library error."""
    try:
        return parse(text)
    except ReproError:
        return None


@given(text=any_text)
@example(text="(Work-Experience, 5)(degree, PhD)")
@example(text='(x, "a(b")')
def test_event_text(text):
    event = _parsed(parse_event, text)
    if event is None:
        return
    formatted = event.format()
    again = parse_event(formatted)
    assert again.signature == event.signature
    assert again.format() == formatted


@given(text=any_text)
@example(text="(university = Toronto) and (degree in {PhD, MSc})")
@example(text="(salary range [1, 2]) & (resume exists)")
def test_subscription_text(text):
    subscription = _parsed(parse_subscription, text)
    if subscription is None:
        return
    formatted = subscription.format()
    again = parse_subscription(formatted)
    assert again.signature == subscription.signature
    assert again.format() == formatted


@given(name=any_text, value=st.sampled_from(["1", "PhD", "true", '"a b"']))
@example(name=" Work-Experience ", value="1")
@example(name=" in =", value="1")
def test_attribute_names_in_clauses(name, value):
    """An event pair parses exactly when its name normalizes, and names
    the normal form; a predicate's text may also hold operators, so it
    names a valid attribute whenever it parses."""
    try:
        normal = normalize_attribute(name)
    except InvalidAttributeError:
        normal = None
    event = _parsed(parse_event, f"({name}, {value})")
    assert (None if event is None else event.attributes()) == (
        None if normal is None else (normal,)
    )
    subscription = _parsed(parse_subscription, f"({name} = {value})")
    if subscription is not None:
        assert all(map(ATTRIBUTE_PATTERN.match, subscription.attributes()))


@given(name=st.one_of(st.text(max_size=30), grammar_text))
@example(name=" Work-Experience ")
def test_normalize_attribute(name):
    try:
        normal = normalize_attribute(name)
    except InvalidAttributeError:
        return
    assert ATTRIBUTE_PATTERN.match(normal)
    assert normalize_attribute(normal) is normal
