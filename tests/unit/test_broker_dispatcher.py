"""Unit tests for the event dispatcher and broker facade."""

from __future__ import annotations

import gc
import logging
import tracemalloc
import types

import pytest

from repro.broker.broker import Broker
from repro.broker.clients import ClientKind
from repro.core.config import SemanticConfig
from repro.core.provenance import DerivationStep, DerivedEvent
from repro.errors import BrokerError, UnknownClientError, UnknownSubscriptionError
from repro.model.events import Event
from repro.model.parser import parse_event, parse_subscription
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base
from repro.workload.worlds import build_world


@pytest.fixture
def broker() -> Broker:
    return Broker(build_jobs_knowledge_base())


class TestRoles:
    def test_publisher_cannot_subscribe(self, broker):
        publisher = broker.register_publisher("Ada")
        with pytest.raises(BrokerError):
            broker.subscribe(publisher.client_id, "(a = 1)")

    def test_subscriber_cannot_publish(self, broker):
        subscriber = broker.register_subscriber("Initech", email="hr@x")
        with pytest.raises(BrokerError):
            broker.publish(subscriber.client_id, "(a, 1)")

    def test_both_can_do_both(self, broker):
        client = broker.register_client("omni", kind=ClientKind.BOTH, tcp="h:1")
        broker.subscribe(client.client_id, "(degree = PhD)")
        report = broker.publish(client.client_id, "(degree, PhD)")
        assert report.match_count == 1

    def test_unknown_client(self, broker):
        with pytest.raises(UnknownClientError):
            broker.subscribe("ghost", "(a = 1)")
        with pytest.raises(UnknownClientError):
            broker.publish("ghost", "(a, 1)")


class TestSubscriptionBinding:
    def test_subscriber_id_bound(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        sub = broker.subscribe(company.client_id, "(degree = PhD)")
        assert sub.subscriber_id == company.client_id

    def test_subscriptions_of(self, broker):
        a = broker.register_subscriber("A", email="a@x")
        b = broker.register_subscriber("B", email="b@x")
        broker.subscribe(a.client_id, "(x = 1)")
        broker.subscribe(b.client_id, "(y = 2)")
        assert len(broker.dispatcher.subscriptions_of(a.client_id)) == 1

    def test_unsubscribe(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        sub = broker.subscribe(company.client_id, "(degree = PhD)")
        broker.unsubscribe(sub.sub_id)
        report = broker.publish(broker.register_publisher("Ada").client_id, "(degree, PhD)")
        assert report.match_count == 0
        with pytest.raises(UnknownSubscriptionError):
            broker.unsubscribe(sub.sub_id)

    def test_max_generality_pass_through(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        sub = broker.subscribe(company.client_id, "(degree = degree)", max_generality=1)
        assert sub.max_generality == 1

    def test_subscription_object_accepted(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        sub = broker.subscribe(
            company.client_id, parse_subscription("(degree = PhD)"), max_generality=2
        )
        assert sub.max_generality == 2

    def test_binding_shares_the_checked_predicates(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        s = parse_subscription(
            "(degree = PhD) and (degree = PhD) and (x > 1)", sub_id="s-b", max_generality=3
        )
        bound = broker.dispatcher.subscribe(company.client_id, s)
        c = company.client_id
        assert bound == Subscription(
            s.predicates, subscriber_id=c, sub_id=s.sub_id, max_generality=s.max_generality
        )
        assert bound.predicates is s.predicates


class TestPublishing:
    def test_event_stamped_with_publisher(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        report = broker.publish(candidate.client_id, "(degree, PhD)")
        assert report.event.publisher_id == candidate.client_id

    def test_the_stamped_event_shares_what_was_checked(self, broker):
        """Stamping the publisher rebuilds nothing: the copy shares the
        event's checked pairs and signature, and compares and hashes as
        the event does."""
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        event = Event([("Degree", "PhD"), ("n", 4)], event_id="e-stamp")
        stamped = broker.publish(candidate.client_id, event).event
        assert stamped is not event and event.publisher_id is None
        assert stamped._pairs is event._pairs and stamped._signature is event._signature
        assert stamped.publisher_id == candidate.client_id and stamped.event_id == "e-stamp"
        assert stamped == event and hash(stamped) == hash(event)
        assert stamped.items() == (("degree", "PhD"), ("n", 4))

    def test_notifications_reach_subscriber(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        report = broker.publish(candidate.client_id, "(degree, PhD)")
        assert report.delivered_count == 1
        assert len(broker.notifier.delivered_to(company.client_id)) == 1

    def test_event_object_accepted(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        report = broker.publish(candidate.client_id, parse_event("(degree, PhD)"))
        assert report.match_count == 1

    def test_publications_counted_not_kept(self, broker):
        """The caller holds the PublishReport; the dispatcher keeps
        three running totals and no per-publication container."""
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        reports = [broker.publish(candidate.client_id, f"(degree, PhD)(n, {i})") for i in range(7)]
        reports.append(broker.publish(candidate.client_id, "(a, 2)"))
        stats = broker.dispatcher.stats()
        assert stats["publications"] == 8
        assert stats["matches"] == sum(r.match_count for r in reports) == 7
        assert stats["deliveries"] == sum(r.delivered_count for r in reports) == 7
        assert not hasattr(broker.dispatcher, "reports")
        grown = [
            name
            for name, value in vars(broker.dispatcher).items()
            if isinstance(value, (list, tuple, set)) and len(value) >= 7
        ]
        assert grown == []


class TestModes:
    def test_mode_switching(self, broker):
        assert broker.mode == "semantic"
        broker.set_syntactic_mode()
        assert broker.mode == "syntactic"
        broker.set_semantic_mode()
        assert broker.mode == "semantic"

    def test_mode_affects_matching(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(university = Toronto)")
        candidate = broker.register_publisher("Ada")
        assert broker.publish(candidate.client_id, "(school, Toronto)").match_count == 1
        broker.set_syntactic_mode()
        assert broker.publish(candidate.client_id, "(school, Toronto)").match_count == 0

    def test_config_injection(self):
        broker = Broker(build_jobs_knowledge_base(), config=SemanticConfig.syntactic())
        assert broker.mode == "syntactic"


class TestStats:
    def test_stats_shape(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        broker.publish(candidate.client_id, "(degree, PhD)")
        stats = broker.stats()
        assert stats["clients"] == 2
        assert stats["subscriptions"] == 1
        assert stats["publications"] == 1
        assert stats["matches"] == 1
        assert stats["deliveries"] == 1

    def test_default_loopback_address(self, broker):
        client = broker.register_subscriber("NoAddress")
        assert client.preferred_transports() == ("tcp",)

    def test_stats_surface_interest_pruning(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        broker.publish(candidate.client_id, "(degree, PhD)")
        stats = broker.stats()
        assert stats["candidates_pruned"] > 0
        assert stats["interest_index_size"] > 0
        assert 0.0 < stats["prune_hit_rate"] <= 1.0
        assert stats["engine"]["interest"]["enabled"]


class TestHealth:
    """``Broker.health()`` — the operator-facing recovery snapshot."""

    def test_plain_broker_reports_all_zero(self, broker):
        health = broker.health()
        assert health["recoveries"] == 0
        assert health["worker_restarts"] == health["degraded_publishes"] == 0

    def test_sharded_broker_under_faults_counts_recoveries(self):
        from repro.broker.sharding import ShardedBroker
        from repro.broker.supervision import FaultAction, FaultPlan

        broker = ShardedBroker(
            build_jobs_knowledge_base(),
            shards=2,
            executor="process",
            fault_plan=FaultPlan([FaultAction("kill", 0, 0)]),
        )
        try:
            company = broker.register_subscriber("Initech", email="hr@x")
            broker.subscribe(company.client_id, "(university = Toronto)")
            candidate = broker.register_publisher("Ada")
            report = broker.publish(candidate.client_id, "(school, Toronto)")
            assert report.match_count == 1  # the kill cost an inline answer, not a match
            # other content, so the result cache does not answer it
            report = broker.publish(candidate.client_id, "(school, Toronto)(degree, PhD)")
            assert report.match_count == 1  # answered by the re-forked worker
            health = broker.health()
            assert health["degraded_publishes"] == 1
            assert health["worker_restarts"] == 1
            assert health["recoveries"] == 2
        finally:
            broker.close()


class TestResultCache:
    """The dispatcher-level LRU match-set cache (PR 3 satellite)."""

    def _setup(self, broker):
        company = broker.register_subscriber("Initech", email="hr@x")
        broker.subscribe(company.client_id, "(degree = PhD)")
        return broker.register_publisher("Ada")

    def test_repeat_publication_hits_the_cache(self, broker):
        candidate = self._setup(broker)
        first = broker.publish(candidate.client_id, "(degree, PhD)")
        second = broker.publish(candidate.client_id, "(degree, PhD)")
        info = broker.dispatcher.result_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5
        assert first.match_count == second.match_count == 1
        # the engine only ran once; the dispatcher served the repeat
        assert broker.engine.publications == 1

    def test_cached_matches_carry_the_fresh_event(self, broker):
        candidate = self._setup(broker)
        broker.publish(candidate.client_id, parse_event("(degree, PhD)", event_id="first"))
        report = broker.publish(
            candidate.client_id, parse_event("(degree, PhD)", event_id="second")
        )
        assert report.matches[0].event.event_id == "second"
        assert report.delivered_count == 1

    def test_subscription_churn_invalidates(self, broker):
        candidate = self._setup(broker)
        broker.publish(candidate.client_id, "(degree, PhD)")
        company2 = broker.register_subscriber("Globex", email="jobs@x")
        broker.subscribe(company2.client_id, "(degree = PhD)")
        report = broker.publish(candidate.client_id, "(degree, PhD)")
        assert report.match_count == 2
        assert broker.dispatcher.result_cache_info()["hits"] == 0

    def test_unsubscribe_invalidates(self, broker):
        candidate = self._setup(broker)
        company2 = broker.register_subscriber("Globex", email="jobs@x")
        sub = broker.subscribe(company2.client_id, "(degree = PhD)")
        assert broker.publish(candidate.client_id, "(degree, PhD)").match_count == 2
        broker.unsubscribe(sub.sub_id)
        assert broker.publish(candidate.client_id, "(degree, PhD)").match_count == 1

    def test_kb_change_invalidates(self, broker):
        """A knowledge-base edit shifts the cache key: the repeat
        publication is recomputed under the new semantics instead of
        served stale (declaring PhD/doctorate synonymous makes the
        doctorate subscription reachable only via the root spelling, so
        the match count visibly changes)."""
        candidate = self._setup(broker)
        company = broker.register_subscriber("Hooli", email="h@x")
        broker.subscribe(company.client_id, "(degree = doctorate)")
        broker.publish(candidate.client_id, "(degree, PhD)")
        before = broker.publish(candidate.client_id, "(degree, PhD)").match_count
        assert broker.dispatcher.result_cache_info()["hits"] == 1
        broker.kb.add_value_synonyms(["PhD", "doctorate"])
        after = broker.publish(candidate.client_id, "(degree, PhD)").match_count
        assert (before, after) == (2, 1)
        assert broker.dispatcher.result_cache_info()["hits"] == 1

    def test_reconfigure_invalidates(self, broker):
        candidate = self._setup(broker)
        semantic = broker.publish(candidate.client_id, "(diploma, PhD)").match_count
        broker.set_syntactic_mode()
        syntactic = broker.publish(candidate.client_id, "(diploma, PhD)").match_count
        assert semantic == 1 and syntactic == 0

    def test_capacity_bounds_and_evicts(self):
        broker = Broker(build_jobs_knowledge_base())
        broker.dispatcher.result_cache_size = 2
        candidate = broker.register_publisher("Ada")
        for year in (1, 2, 3):
            broker.publish(candidate.client_id, f"(graduation_year, {year})")
        assert broker.dispatcher.result_cache_info()["size"] == 2
        # a capacity lowered at runtime trims before the next insert:
        # the least recently used entry (year 2) goes, year 3 stays
        broker.dispatcher.result_cache_size = 1
        assert broker.dispatcher.result_cache_info()["size"] == 1
        broker.publish(candidate.client_id, "(graduation_year, 3)")
        broker.publish(candidate.client_id, "(graduation_year, 2)")
        info = broker.dispatcher.result_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 4, 1)

    def test_zero_capacity_disables(self):
        broker = Broker(build_jobs_knowledge_base())
        broker.dispatcher.result_cache_size = 0
        candidate = broker.register_publisher("Ada")
        broker.publish(candidate.client_id, "(degree, PhD)")
        broker.publish(candidate.client_id, "(degree, PhD)")
        info = broker.dispatcher.result_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        assert broker.engine.publications == 2
        # switched off at runtime, a filled cache lets its entries go
        broker.dispatcher.result_cache_size = 256
        for text in ("(degree, PhD)", "(degree, MSc)", "(degree, PhD)"):
            broker.publish(candidate.client_id, text)
        assert broker.dispatcher.result_cache_info()["size"] == 2
        broker.dispatcher.result_cache_size = 0
        assert broker.dispatcher.result_cache_info()["size"] == 0
        broker.publish(candidate.client_id, "(degree, PhD)")
        assert not broker.dispatcher._result_cache
        info = broker.dispatcher.result_cache_info()
        assert (info["hits"], info["misses"]) == (1, 2)
        assert broker.engine.publications == 5

    def test_a_generation_move_drops_every_entry(self, broker):
        """Churn, a knowledge-base write and an epoch bump each strand
        every cached match set; the next lookup drops them all instead
        of leaving them to the LRU."""
        candidate = self._setup(broker)
        dispatcher = broker.dispatcher
        company = broker.register_subscriber("Globex", email="jobs@x")

        def fill() -> None:
            for text in ("(degree, PhD)", "(degree, MSc)", "(degree, BSc)"):
                broker.publish(candidate.client_id, text)

        fill()
        assert len(dispatcher._result_cache) == 3
        sub = broker.subscribe(company.client_id, "(degree = MSc)")
        broker.publish(candidate.client_id, "(degree, MSc)")
        assert len(dispatcher._result_cache) == 1
        fill()
        broker.unsubscribe(sub.sub_id)
        assert dispatcher.result_cache_info()["size"] == 0
        fill()
        broker.kb.add_value_synonyms(["PhD", "doctorate"])
        broker.publish(candidate.client_id, "(degree, PhD)")
        assert len(dispatcher._result_cache) == 1
        fill()
        broker.engine.bump_semantic_epoch()
        broker.publish(candidate.client_id, "(degree, PhD)")
        assert len(dispatcher._result_cache) == 1
        assert dispatcher.result_cache_hits == 2  # both within one generation

    def test_a_reconfigure_round_trip_hits_again(self, broker):
        """Reconfiguration keeps the generation: the configuration is
        part of the key, so entries cached under A serve A again."""
        candidate = self._setup(broker)
        broker.publish(candidate.client_id, "(diploma, PhD)")
        broker.set_syntactic_mode()
        assert broker.publish(candidate.client_id, "(diploma, PhD)").match_count == 0
        broker.set_semantic_mode()
        assert broker.publish(candidate.client_id, "(diploma, PhD)").match_count == 1
        info = broker.dispatcher.result_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 2, 2)

    def test_stranded_match_sets_are_released(self):
        """A cached match set lives one generation.  Pinned in traced
        bytes: of what 200 distinct publications left behind, one
        subscribe and one publish must release at least 90% (the cache
        is nearly all of it); an LRU that keeps the stranded entries
        until they age out released ~5%."""
        broker = Broker(build_jobs_knowledge_base())
        candidate = broker.register_publisher("Ada")
        # engine-only subscriptions: matches are cached, nothing is delivered
        broker.engine.subscribe(parse_subscription("(degree = degree)", sub_id="wide"))
        broker.publish(candidate.client_id, "(degree, PhD)(n, -1)")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(200):
                broker.publish(candidate.client_id, parse_event(f"(degree, PhD)(n, {index})"))
            gc.collect()
            filled = tracemalloc.get_traced_memory()[0]
            broker.engine.subscribe(parse_subscription("(degree = MSc)", sub_id="late"))
            broker.publish(candidate.client_id, "(degree, MSc)")
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert broker.dispatcher.result_cache_info()["size"] == 1
        released = (filled - after) / (filled - before)
        assert released >= 0.9, released

    def test_a_generation_drop_is_logged_with_what_moved(self, broker, caplog):
        candidate = self._setup(broker)
        company = broker.register_subscriber("Globex", email="jobs@x")
        with caplog.at_level(logging.DEBUG, logger="repro.broker.dispatcher"):
            broker.publish(candidate.client_id, "(degree, PhD)")
            broker.publish(candidate.client_id, "(degree, MSc)")
            assert caplog.records == []  # the first generation drops nothing
            broker.subscribe(company.client_id, "(degree = MSc)")
            broker.publish(candidate.client_id, "(degree, MSc)")
            broker.kb.add_value_synonyms(["PhD", "doctorate"])
            broker.publish(candidate.client_id, "(degree, PhD)")
        churn, write = [record.getMessage() for record in caplog.records]
        assert churn.startswith("result cache dropped (subscription_epoch ")
        assert "semantic_version" not in churn and churn.endswith(": 2 entries")
        assert write.startswith("result cache dropped (semantic_version ")
        assert "subscription_epoch" not in write and write.endswith(": 1 entries")

    def test_cached_match_sets_hold_no_derivation_objects(self):
        """What the cache keeps of a match is its compact witness: no
        Event, DerivedEvent or DerivationStep is reachable from it but
        the stamped publication events themselves, and a hit explains
        itself byte for byte as the miss that filled the entry did."""
        world = build_world("mega-small")
        generator = world.generator(seed=7)
        broker = Broker(world.kb)
        client = broker.register_client("both").client_id
        for subscription in generator.subscriptions(60):
            broker.subscribe(client, subscription)
        events = generator.events(40)
        reports = [broker.publish(client, event) for event in events]
        cache = broker.dispatcher._result_cache
        assert len(cache) == len({event.signature for event in events}) > 10
        assert sum(len(matches) for matches, _ in cache.values()) > 100
        stamped = {id(match.event) for matches, _ in cache.values() for match in matches}
        seen, stack, events_seen = set(), [cache], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (DerivedEvent, DerivationStep)), obj
            if isinstance(obj, Event):
                events_seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
        assert events_seen == stamped
        again = [broker.publish(client, Event(event.items())) for event in events]
        assert broker.dispatcher.result_cache_hits == len(events)
        for miss, hit in zip(reports, again):
            assert [m.explain() for m in hit.matches] == [
                m.explain().replace(miss.event.event_id, hit.event.event_id, 1)
                for m in miss.matches
            ]

    def test_stats_surface_result_cache(self, broker):
        candidate = self._setup(broker)
        broker.publish(candidate.client_id, "(degree, PhD)")
        broker.publish(candidate.client_id, "(degree, PhD)")
        stats = broker.stats()
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_hit_rate"] == 0.5
        assert stats["result_cache"]["capacity"] == 256


class TestClientChurn:
    """Removing a client closes the transport state only it used, so
    client churn leaves no per-address residue behind."""

    def test_tcp_connections_follow_live_clients(self, broker):
        candidate = broker.register_publisher("Ada")
        for index in range(500):
            company = broker.register_subscriber(f"Co{index}", tcp=f"co-{index}.example:7000")
            broker.subscribe(company.client_id, "(degree = PhD)")
            report = broker.publish(candidate.client_id, f"(degree, PhD)(n, {index})")
            assert report.delivered_count == 1
            broker.remove_client(company.client_id)
        connections = broker.notifier.transports.get("tcp").connections
        assert len(connections) <= len(broker.registry)

    def test_a_shared_address_stays_open_while_a_client_uses_it(self, broker):
        first = broker.register_subscriber("A", tcp="shared:1")
        second = broker.register_subscriber("B", tcp="shared:1")
        for company in (first, second):
            broker.subscribe(company.client_id, "(degree = PhD)")
        candidate = broker.register_publisher("Ada")
        broker.publish(candidate.client_id, "(degree, PhD)")
        tcp = broker.notifier.transports.get("tcp")
        broker.remove_client(first.client_id)
        assert tcp.connections == {"shared:1"}
        broker.remove_client(second.client_id)
        assert tcp.connections == set()


def _run_script(broker: Broker) -> list[tuple[str, ...]]:
    """Drive one fixed register/subscribe/publish script through *broker*;
    return the matched subscription ids of each publication."""
    company = broker.register_subscriber("Initech", email="hr@x", client_id="c1")
    candidate = broker.register_publisher("Ada", client_id="c2")
    broker.subscribe(company.client_id, parse_subscription("(university = Toronto)", sub_id="s1"))
    broker.subscribe(company.client_id, parse_subscription("(degree = degree)", sub_id="s2"))
    publications = ["(school, Toronto)", "(degree, PhD)", "(university, Toronto)(degree, MSc)"]
    return [
        tuple(m.subscription.sub_id for m in broker.publish(candidate.client_id, text).matches)
        for text in publications
    ]


class TestOneScriptTwoModes:
    """The same operations replayed on fresh brokers: a semantic broker
    matches what a syntactic one misses, and two fresh brokers agree."""

    def test_semantic_broker_matches_synonyms_and_generalizations(self):
        assert _run_script(Broker(build_jobs_knowledge_base())) == [("s1",), ("s2",), ("s1", "s2")]

    def test_syntactic_broker_matches_only_exact_pairs(self):
        broker = Broker(build_jobs_knowledge_base(), config=SemanticConfig.syntactic())
        assert _run_script(broker) == [(), (), ("s1",)]

    def test_replay_on_a_fresh_broker_reproduces_the_matches(self):
        first = _run_script(Broker(build_jobs_knowledge_base()))
        assert _run_script(Broker(build_jobs_knowledge_base())) == first
