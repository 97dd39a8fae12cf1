"""Golden text: the literal ``explain()`` and ``str(step)`` output of
every built-in derivation step kind.

Notifications, the journal and the demo all show these strings, so a
change to how a derivation is stored must leave them byte-identical:
an attribute synonym rewrite, a value canonicalized to its synonym, a
hierarchy generalization at +1 and +2 levels, a mapping rule, an
attribute rename, and a factored composition (a core derivation with a
free attribute's alternative appended).
"""

from __future__ import annotations

import pytest

from repro.broker.broker import Broker
from repro.core.engine import SToPSS
from repro.core.provenance import GENERAL, MAPPING
from repro.model.events import Event
from repro.model.parser import parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

_SUBSCRIPTIONS = {
    "s0": "(university = Toronto)",
    "s1": "(degree = PhD)",
    "s2": "(degree = graduate degree)",
    "s3": "(degree = degree)",
    "s4": "(is_graduate = true)",
    "s5": "(area = x)",
    "s6": "(is_graduate = true) and (level = degree)",
}


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_attribute_synonyms(["school"], root="university")
    kb.add_value_synonyms(["doctorate", "PhD"], root="PhD")
    jobs = kb.add_domain("jobs")
    jobs.add_chain("PhD", "graduate degree", "degree")
    jobs.add_chain("field", "area")
    kb.add_rule(
        MappingRule.equivalence(
            "grad-flag",
            {"degree": "graduate degree"},
            {"is_graduate": True},
            description="graduates are flagged",
        )
    )
    return kb


def _engine() -> SToPSS:
    engine = SToPSS(_kb())
    for sub_id, text in _SUBSCRIPTIONS.items():
        engine.subscribe(parse_subscription(text, sub_id=sub_id))
    return engine


_HEAD = "subscription {sub} [{text}] matched event {eid} [{event}]\n"

#: (event pairs, subscription) -> (explain() tail after the header, str(step) per step)
GOLDEN = [
    (
        {"school": "Toronto"},
        "s0",
        "derived event (university, Toronto) via:\n"
        "  1. [synonym] attribute 'school' rewritten to root 'university'",
        ["[synonym] attribute 'school' rewritten to root 'university'"],
    ),
    (
        {"degree": "doctorate"},
        "s1",
        "derived event (degree, PhD) via:\n"
        "  1. [hierarchy] value 'doctorate' of 'degree' canonicalized to synonym 'PhD'",
        ["[hierarchy] value 'doctorate' of 'degree' canonicalized to synonym 'PhD'"],
    ),
    (
        {"degree": "PhD", "z": "other"},
        "s2",
        "derived event (degree, graduate degree)(z, other) via:\n"
        "  1. [hierarchy] value 'PhD' of 'degree' generalized to 'graduate degree' (+1 level)",
        ["[hierarchy] value 'PhD' of 'degree' generalized to 'graduate degree' (+1 level)"],
    ),
    (
        {"degree": "doctorate"},
        "s3",
        "derived event (degree, degree) via:\n"
        "  1. [hierarchy] value 'doctorate' of 'degree' generalized to 'degree' (+2 levels)",
        ["[hierarchy] value 'doctorate' of 'degree' generalized to 'degree' (+2 levels)"],
    ),
    (
        {"degree": "PhD", "z": "other"},
        "s4",
        "derived event (degree, graduate degree)(z, other)(is_graduate, true) via:\n"
        "  1. [hierarchy] value 'PhD' of 'degree' generalized to 'graduate degree' (+1 level)\n"
        "  2. [mapping] mapping function 'grad-flag': graduates are flagged",
        [
            "[hierarchy] value 'PhD' of 'degree' generalized to 'graduate degree' (+1 level)",
            "[mapping] mapping function 'grad-flag': graduates are flagged",
        ],
    ),
    (
        {"field": "x"},
        "s5",
        "derived event (area, x) via:\n"
        "  1. [hierarchy] attribute 'field' generalized to 'area' (+1 level)",
        ["[hierarchy] attribute 'field' generalized to 'area' (+1 level)"],
    ),
    (
        # `level` is free (no rule reads it): its alternative is
        # composed onto the core derivation the mapping rule extended
        {"degree": "PhD", "level": "doctorate"},
        "s6",
        "derived event (degree, graduate degree)(level, degree)(is_graduate, true) via:\n"
        "  1. [hierarchy] value 'PhD' of 'degree' generalized to 'graduate degree' (+1 level)\n"
        "  2. [mapping] mapping function 'grad-flag': graduates are flagged\n"
        "  3. [hierarchy] value 'doctorate' of 'level' generalized to 'degree' (+2 levels)",
        [
            "[hierarchy] value 'PhD' of 'degree' generalized to 'graduate degree' (+1 level)",
            "[mapping] mapping function 'grad-flag': graduates are flagged",
            "[hierarchy] value 'doctorate' of 'level' generalized to 'degree' (+2 levels)",
        ],
    ),
]


def _header(sub_id: str, event: Event) -> str:
    return _HEAD.format(
        sub=sub_id, text=_SUBSCRIPTIONS[sub_id], eid=event.event_id, event=event.format()
    )


@pytest.mark.parametrize("pairs, sub_id, tail, steps", GOLDEN)
def test_explain_and_step_text_are_golden(pairs, sub_id, tail, steps):
    event = Event(pairs, event_id="e1")
    (match,) = [m for m in _engine().publish(event) if m.subscription.sub_id == sub_id]
    assert match.explain() == _header(sub_id, event) + tail
    assert [str(step) for step in match.matched_via.steps] == steps
    assert match.matched_via.explain() == tail


def test_factored_composition_is_exercised():
    engine = _engine()
    event = Event({"degree": "PhD", "level": "doctorate"})
    result = engine.pipeline.process_event(
        engine.pipeline.synonyms.rewrite_event(event)[0],
        interest=engine.active_interest,
        factored=True,
    )
    assert list(result.free) == ["level"]
    # the alternative's step is appended as one more node of single steps:
    # every node of the chain extends its parent by one step
    (match,) = [m for m in engine.publish(event) if m.subscription.sub_id == "s6"]
    assert [step[0] for step in match.via] == [GENERAL, MAPPING, GENERAL]
    node, depths = match.matched_via, []
    while node is not None:
        depths.append(node.depth)
        node = node.parent
    assert depths == [3, 2, 1, 0]


def test_exact_match_text():
    event = Event({"degree": "PhD", "z": "other"}, event_id="e9")
    (match,) = [m for m in _engine().publish(event) if m.subscription.sub_id == "s1"]
    assert match.explain() == (
        "subscription s1 [(degree = PhD)] matched event e9 [(degree, PhD)(z, other)]"
        " — exact syntactic match"
    )
    assert match.matched_via.explain() == "original event (degree, PhD)(z, other)"


def test_cache_hit_explains_like_the_miss():
    """A result-cache hit renders the same text as the publication that
    filled the entry, byte for byte, under the new publication's id."""
    broker = Broker(_kb())
    client = broker.register_client("both").client_id
    for sub_id, text in _SUBSCRIPTIONS.items():
        broker.subscribe(client, parse_subscription(text, sub_id=sub_id))
    event = {"degree": "PhD", "level": "doctorate"}
    broker.publish(client, Event(event, event_id="z"))  # a first sighting stores nothing
    first = broker.publish(client, Event(event, event_id="a"))
    second = broker.publish(client, Event(event, event_id="b"))
    assert broker.dispatcher.result_cache_info()["hits"] == 1
    assert [m.explain().replace("event b ", "event a ") for m in second.matches] == [
        m.explain() for m in first.matches
    ]
    assert len(first.matches) == 5
