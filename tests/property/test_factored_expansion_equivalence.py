"""Property: factored expansion ≡ the exhaustive product ≡ the naive matcher.

PR 21 lets attributes no mapping rule can touch ride *beside* the
Figure-1 fixpoint as alternative sets, and the counting matcher
recombines them: a publication derives a sum of per-attribute
alternatives, not their product.  The product is still what every other
matcher (and ``explain()``) gets — the same loop with an empty free set
— so it is the reference here.  Hard invariant: on every publication
neither side truncates,

    ``CountingMatcher`` on the factored result
    ≡ ``CountingMatcher`` on the unfactored result
    ≡ the naive matcher on the unfactored result

on match sets **and** generalities — across random knowledge bases
(two taxonomies bridged by value synonyms, so one attribute's chain can
take several substitutions; equivalence / chained / computed / REPLACE /
callable / unknown-read rules; an attribute-name taxonomy), system
budgets, per-subscription bounds, ``max_iterations`` in {1, 2, 4} (the
cap counts substitutions per chain, which is where a product and a sum
could part), ``IN`` / range / ``!=`` / doubled predicates on free
attributes, universal subscriptions, events whose attributes are all
core or all free, and random subscribe / unsubscribe / knowledge-base
write interleavings — and on PR 10's generated worlds plus jobfinder
under flash-crowd churn.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.pipeline import SemanticPipeline
from repro.matching.counting import CountingMatcher
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule, OutputMode
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator
from repro.workload.worlds import FlashCrowdDriver, FlashCrowdSpec, build_world


class _ProductCounting(CountingMatcher):
    """The counting matcher as every PR before 21 fed it: it declines
    factored results, so the pipeline hands it the whole product."""

    name = "counting-product"
    accepts_factored = False


_TERMS = [f"t{i}" for i in range(10)]
#: a second taxonomy, reached from the first over the synonym bridge
#: ``t2 = syn2`` only — chains through it take several substitutions
_BRIDGED = ["syn2", "e1", "e2", "e3"]
_VALUES = _TERMS + _BRIDGED + ["T1", "free text"]
#: what events mostly carry: terms with something above them
_DEEP = _TERMS[4:] + _TERMS[6:] + ["syn2", "e1"]
#: ``a``/``b`` are what the rules below read and write; ``c``/``f``/``g``
#: nothing touches (free unless a rule with unknown reads is installed)
_RULED = ["a", "b"]
_UNTOUCHED = ["c", "f", "g"]


@st.composite
def knowledge_bases(draw) -> KnowledgeBase:
    kb = KnowledgeBase()
    taxonomy = kb.add_domain("d")
    for term in _TERMS:
        taxonomy.add_concept(term)
    for index in range(1, len(_TERMS)):
        # mostly a spine, so values sit several levels below others
        if draw(st.integers(0, 7)):
            above = index - 1 if draw(st.integers(0, 3)) else draw(st.integers(0, index - 1))
            taxonomy.add_isa(_TERMS[index], _TERMS[above])
    other = kb.add_domain("e")
    other.add_chain(*_BRIDGED)
    if draw(st.integers(0, 3)):
        kb.add_value_synonyms(["t2", "syn2"], root=draw(st.sampled_from(["t2", "syn2"])))
    if draw(st.booleans()):
        kb.add_value_synonyms(["t5", "T5", "e1"], root="t5")
    if draw(st.booleans()):
        kb.add_rule(
            MappingRule.equivalence("r-equiv", {"a": "t3"}, {"b": draw(st.sampled_from(_TERMS))})
        )
    if draw(st.booleans()):
        kb.add_rule(MappingRule.equivalence("r-chain", {"a": "t4"}, {"mid": "t5"}))
        kb.add_rule(MappingRule.equivalence("r-link", {"mid": "t5"}, {"b": "t6"}))
    if draw(st.booleans()):
        # two rules that undo each other: a cycle that re-derives known
        # content over a cheaper chain
        kb.add_rule(MappingRule.equivalence("r-there", {"a": "t1"}, {"b": "t7"}))
        kb.add_rule(MappingRule.equivalence("r-back", {"b": "t7"}, {"a": "t1"}))
    if draw(st.booleans()):
        kb.add_rule(
            MappingRule.equivalence(
                "r-replace",
                {"b": "t1"},
                {"b": draw(st.sampled_from(_TERMS))},
                mode=OutputMode.REPLACE,
            )
        )
    if draw(st.booleans()):
        kb.add_rule(MappingRule.computed("r-num", "m", "n + 1"))
    if draw(st.integers(0, 3)) == 0:
        # a rule that writes an attribute events also carry
        kb.add_rule(MappingRule.equivalence("r-onto", {"a": "t8"}, {"c": "t9"}))
    if draw(st.integers(0, 19)) == 0:
        kb.add_rule(
            MappingRule.function(
                "r-fn",
                ["a"],
                lambda event, context: [("b", "t0")] if event["a"] == "t9" else None,
                reads=["a"] if draw(st.booleans()) else None,
            )
        )
    if draw(st.integers(0, 19)) == 0:
        taxonomy.add_chain("g", "gg")  # an attribute *name* that generalizes
    return kb


def _reachable(kb: KnowledgeBase):
    """``value -> every value the exhaustive fixpoint derives from it``
    (a probe attribute no rule or taxonomy knows), memoized per call."""
    pipeline = SemanticPipeline(kb)
    known: dict = {}

    def upward(value):
        if value not in known:
            derived = pipeline.process_event(Event({"zz_probe": value})).derived
            known[value] = sorted({entry.event["zz_probe"] for entry in derived}, key=str)
        return known[value]

    return upward


def _predicate(draw, attribute: str, value, upward) -> Predicate:
    """A predicate on *attribute* aimed at an event carrying *value*:
    satisfied by the value itself, by something it generalizes to, or —
    sometimes — by nothing it can reach."""
    if not isinstance(value, str):
        return Predicate.ge(attribute, value - draw(st.integers(-1, 2)))
    targets = upward(value) + draw(st.lists(st.sampled_from(_VALUES), max_size=1))
    kind = draw(st.sampled_from(["eq"] * 5 + ["in", "in", "ne", "range", "exists"]))
    if kind == "eq":
        return Predicate.eq(attribute, draw(st.sampled_from(targets)))
    if kind == "in":
        members = draw(st.lists(st.sampled_from(targets), min_size=2, max_size=3))
        return Predicate.isin(attribute, members)
    if kind == "ne":
        # != the value itself: only a generalization can satisfy it
        return Predicate.ne(attribute, draw(st.sampled_from([value, value] + targets)))
    if kind == "range":
        low = draw(st.sampled_from(targets))
        high = draw(st.sampled_from(targets))
        if high < low:
            low, high = high, low
        return draw(
            st.sampled_from(
                [
                    Predicate.between(attribute, low, high),
                    Predicate.ge(attribute, high),
                    Predicate.lt(attribute, high),
                ]
            )
        )
    return Predicate.exists(attribute)


def _subscription(draw, kb: KnowledgeBase, pool: list[Event], upward) -> Subscription:
    """0 predicates (universal) to 6, aimed at one event of *pool*,
    sometimes two on one attribute, sometimes on what rules write."""
    event = draw(st.sampled_from(pool))
    attributes = draw(
        st.lists(
            st.sampled_from(event.attributes()),
            min_size=draw(st.integers(0, 9)) > 0,
            max_size=4,
            unique=True,
        )
    )
    predicates = []
    for attribute in attributes:
        predicates.append(_predicate(draw, attribute, event[attribute], upward))
        if draw(st.integers(0, 3)) == 0:
            predicates.append(_predicate(draw, attribute, event[attribute], upward))
    if draw(st.integers(0, 2)) == 0:
        # ... and at what a rule writes (or would overwrite)
        written = draw(st.sampled_from(["b", "mid", "m", "gg", "c"]))
        if written == "m":
            predicates.append(Predicate.ge("m", draw(st.integers(0, 4))))
        else:
            outputs = [
                value
                for rule in kb.rules()
                for attribute, value in rule.outputs
                if attribute == written and isinstance(value, str)
            ]
            value = draw(st.sampled_from(outputs or _TERMS))
            predicates.append(Predicate.eq(written, draw(st.sampled_from(upward(value)))))
    bound = draw(st.sampled_from([None, None, None, None, 0, 1, 2]))
    return Subscription(predicates, max_generality=bound)


@st.composite
def events(draw) -> Event:
    shape = draw(st.sampled_from(["mixed"] * 4 + ["all-ruled", "all-untouched"]))
    pool = {
        "mixed": _RULED + _UNTOUCHED + ["n"],
        "all-ruled": _RULED + ["n"],
        "all-untouched": _UNTOUCHED,
    }[shape]
    attributes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    carried = st.sampled_from(_DEEP) | st.sampled_from(_VALUES)
    return Event(
        [(name, draw(st.integers(0, 3)) if name == "n" else draw(carried)) for name in attributes]
    )


def _script(draw, kb: KnowledgeBase) -> list[tuple]:
    """Subscribe / unsubscribe / knowledge-base write / publish, in any
    order, over a small pool of events the subscriptions are aimed at
    (so publications repeat and memos are hit); ends on a publication."""
    pool = draw(st.lists(events(), min_size=1, max_size=4))
    upward = _reachable(kb)
    ops: list[tuple] = []
    live: list[str] = []
    made = writes = 0
    opening = draw(st.integers(0, 8))  # some subscriptions before anything else
    for step in range(opening + draw(st.integers(3, 14))):
        kind = "sub" if step < opening else draw(
            st.sampled_from(["sub", "sub", "pub", "pub", "pub", "unsub", "kb"])
        )
        if kind == "sub":
            ops.append(("sub", f"s{made}", _subscription(draw, kb, pool, upward)))
            live.append(f"s{made}")
            made += 1
        elif kind == "unsub" and live:
            ops.append(("unsub", live.pop(draw(st.integers(0, len(live) - 1)))))
        elif kind == "kb":
            ops.append(("kb", draw(st.sampled_from(_TERMS[1:])), f"alias{writes}"))
            writes += 1
        else:
            ops.append(("pub", draw(st.sampled_from(pool))))
    ops.append(("pub", draw(st.sampled_from(pool))))
    return ops


def _trio(kb, config):
    """The factored system under test and its two references."""
    return (
        SToPSS(kb, matcher="counting", config=config),
        SToPSS(kb, matcher=_ProductCounting(), config=config),
        SToPSS(kb, matcher="naive", config=config),
    )


def _published(engine, event) -> tuple[dict[str, int], bool]:
    before = engine.pipeline.truncation_count
    matches = {m.subscription.sub_id: m.generality for m in engine.publish(event)}
    return matches, engine.pipeline.truncation_count > before


def _assert_agree(engines, event, where: str) -> int:
    """Publish *event* on all three; returns the matches compared."""
    (factored, cut), (product, product_cut), (naive, naive_cut) = (
        _published(engine, event) for engine in engines
    )
    if cut or product_cut or naive_cut:
        return 0  # what survives the cap depends on expansion order
    assert factored == product == naive, (
        f"factored expansion diverged on {event.format()} ({where}): "
        f"factored {factored}, product {product}, naive {naive}"
    )
    return len(factored)


@given(
    data=st.data(),
    kb=knowledge_bases(),
    bound=st.sampled_from([None, None, None, 0, 1, 3]),
    iterations=st.sampled_from([1, 2, 4]),
    pruning=st.booleans(),
)
def test_factored_equals_product_equals_naive(data, kb, bound, iterations, pruning):
    script = _script(data.draw, kb)
    config = SemanticConfig(
        max_generality=bound, max_iterations=iterations, interest_pruning=pruning
    )
    engines = _trio(kb, config)
    for op in script:
        if op[0] == "sub":
            for engine in engines:
                engine.subscribe(
                    Subscription(
                        op[2].predicates, sub_id=op[1], max_generality=op[2].max_generality
                    )
                )
        elif op[0] == "unsub":
            for engine in engines:
                engine.unsubscribe(op[1])
        elif op[0] == "kb":
            root = kb.value_root(op[1]) or op[1]
            kb.add_value_synonyms([root, op[2]], root=root)
        else:
            _assert_agree(engines, op[1], f"bound={bound}, max_iterations={iterations}")


@given(
    data=st.data(),
    kb=knowledge_bases(),
    event=events(),
    bound=st.sampled_from([None, 1, 3]),
    iterations=st.sampled_from([1, 2, 4]),
)
def test_factored_witness_is_a_real_derivation(data, kb, event, bound, iterations):
    """Every witness the factored path composes is an event the
    exhaustive expansion also derives, at the generality reported."""
    upward = _reachable(kb)
    subs = [
        _subscription(data.draw, kb, [event], upward)
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    config = SemanticConfig(max_generality=bound, max_iterations=iterations)
    engine = SToPSS(kb, config=config)
    for index, sub in enumerate(subs):
        engine.subscribe(
            Subscription(sub.predicates, sub_id=f"s{index}", max_generality=sub.max_generality)
        )
    matches = engine.publish(event)
    product = engine.explain(event)
    if product.truncated or engine.last_truncated:
        return
    for match in matches:
        via = match.matched_via
        twin = product.lookup(via.event.signature)
        assert twin is not None, f"{via.event.format()} is not in the product"
        assert twin.generality == via.generality == match.generality
        assert via.depth <= product.derived[0].depth + iterations


# -- generated worlds and jobfinder, under churn ---------------------------------


@pytest.fixture(scope="module", params=["jobfinder", "mega-small", "mega-deep"])
def world(request):
    return build_world(request.param)


def _generator(world, seed: int):
    if world.name == "jobfinder":
        # the benchmark's shape: three to five predicates, most of them
        # a generalization away, so witnesses take several substitutions
        spec = SemanticSpec.jobs(predicates_per_subscription=(3, 5), seed=seed)
        return SemanticWorkloadGenerator(world.kb, spec)
    return world.generator(seed=seed)


@pytest.mark.parametrize("bound", [None, 0, 1, 3])
@pytest.mark.parametrize("iterations", [1, 2, 4])
def test_worlds_under_flash_crowd_churn(world, bound, iterations):
    config = SemanticConfig(max_generality=bound, max_iterations=iterations)
    engines = _trio(world.kb, config)
    spec = FlashCrowdSpec(residents=150, churn_ops=160, burst=10, warm_events=4, seed=21)
    compared = matched = 0
    for kind, payload in FlashCrowdDriver(_generator(world, 21), spec).ops():
        if kind == "subscribe":
            for engine in engines:
                engine.subscribe(payload)
        elif kind == "unsubscribe":
            for engine in engines:
                engine.unsubscribe(payload)
        else:
            matched += _assert_agree(engines, payload, f"{world.name}, bound={bound}")
            compared += 1
    assert compared >= spec.warm_events and matched
