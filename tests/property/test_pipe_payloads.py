"""Property: what crosses a shard worker's pipe survives the crossing.

The process-executor data plane sends every publication to the shard
workers as the :class:`~repro.model.events.Event` itself, and each
worker answers with its matches' distinct witnesses plus one
``(sub_id, generality, index)`` row per match.  The pipe pickles both
ways (``multiprocessing.connection.Connection.send`` /
``recv``), so pickle must round-trip *exactly*: content signature,
attribute order, event identity and publisher for every value kind —
interned spellings, free text, numbers, booleans and periods — and, for
a derived event, its derivation chain and generality.  A derived event
crosses without its ``parent``, which serves in-process provenance only.
"""

from __future__ import annotations

import pickle
from multiprocessing.reduction import ForkingPickler

from hypothesis import given
from hypothesis import strategies as st

from repro.broker.sharding import _worker_publish
from repro.core.engine import SToPSS
from repro.core.provenance import DerivationStep, DerivedEvent, Witness
from repro.model.events import Event
from repro.model.parser import parse_subscription
from repro.ontology.domains import build_jobs_knowledge_base

from tests.property.strategies import events, scalar_value

_KB = build_jobs_knowledge_base()
_TABLE = _KB.concept_table()

#: Spellings the jobs table interned from knowledge-base content.
_INTERNED = sorted(
    _TABLE.spelling(sid) for sid in range(len(_TABLE) - _TABLE.spelling_count, len(_TABLE))
)

#: Values mixing interned spellings with everything else an event may
#: carry (free text, numbers, bools, periods).
mixed_value = st.one_of(st.sampled_from(_INTERNED), scalar_value)

#: One engine whose subscriptions match any jobs event below.
_ENGINE = SToPSS(_KB)
for _i, _text in enumerate(
    ("(school exists)", "(degree exists)", "(note exists)", "(graduation_year exists)")
):
    _ENGINE.subscribe(parse_subscription(_text, sub_id=f"s{_i}"))


def _cross(obj):
    """One trip through a pipe: what ``Connection.send`` writes and
    ``Connection.recv`` reads back."""
    return pickle.loads(ForkingPickler.dumps(obj))


@st.composite
def jobs_events(draw) -> Event:
    attrs = draw(
        st.lists(
            st.sampled_from(["school", "degree", "note", "graduation_year", "title"]),
            min_size=0,
            max_size=5,
            unique=True,
        )
    )
    return Event(
        [(attr, draw(mixed_value)) for attr in attrs],
        publisher_id=draw(st.one_of(st.none(), st.just("pub-1"))),
    )


def _assert_same_event(received: Event, original: Event) -> None:
    assert received == original  # signature equality
    assert received.signature == original.signature
    assert received.items() == original.items()  # values AND order
    assert [type(v) for _, v in received.items()] == [type(v) for _, v in original.items()]
    assert received.event_id == original.event_id
    assert received.publisher_id == original.publisher_id


@given(event=events())
def test_event_roundtrip(event):
    _assert_same_event(_cross(event), event)


@given(event=jobs_events())
def test_interned_spellings_keep_their_matching_identity(event):
    """A worker's table is a fork of the parent's, so a spelling that
    crossed as a string finds the same id there."""
    received = _cross(event)
    _assert_same_event(received, event)
    for name, value in event.items():
        assert _TABLE.value_key(received[name]) == _TABLE.value_key(value)


@given(
    event=jobs_events(),
    rename=st.sampled_from([("school", "university"), ("title", "position")]),
    generality=st.integers(min_value=0, max_value=3),
)
def test_derived_event_keeps_its_chain_and_loses_its_parent(event, rename, generality):
    """A derivation chain — including an attribute-rename step — crosses
    with its steps and summed generality intact, as the worker sends
    it: ``DerivedEvent(via.event, via.steps)``."""
    old, new = rename
    root = DerivedEvent.original(event)
    renamed = root.extend(
        event.with_renamed_attributes({old: new}),
        DerivationStep("synonym", f"{old} -> {new}", attribute=new),
    )
    derived = renamed.extend(
        renamed.event.with_value("degree", "postgraduate"),
        DerivationStep(
            "hierarchy", "generalized degree", attribute="degree", generality=generality
        ),
    )
    for original in (root, renamed, derived):
        received = _cross(DerivedEvent(original.event, original.steps))
        assert received == original  # dataclass equality: (event, steps)
        assert received.steps == original.steps
        assert received.generality == original.generality
        assert received.parent is None
        _assert_same_event(received.event, original.event)


@given(event=jobs_events())
def test_worker_reply_rebuilds_the_engine_matches(event):
    """The whole reply crosses and the parent rebuilds from it exactly
    the matches the replica produced: the same witnesses, which build
    the same derivation chains for the parent's event."""
    matches = _ENGINE.publish(event)
    expected = [(m.subscription.sub_id, m.generality, m.via) for m in matches]
    witnesses, rows, _, truncated = _cross(_worker_publish(_ENGINE, event))
    assert truncated is _ENGINE.last_truncated is False
    rebuilt = [(sub_id, generality, witnesses[index]) for sub_id, generality, index in rows]
    assert rebuilt == expected
    assert all(type(witness) is Witness for witness in witnesses)
    for match, (_, _, witness) in zip(matches, rebuilt):
        via = witness.derived(event)
        assert via == match.matched_via and via.steps == match.matched_via.steps
        _assert_same_event(via.event, match.matched_via.event)
