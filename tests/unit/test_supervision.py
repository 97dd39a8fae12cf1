"""Unit coverage for the supervision substrate (fault plans, recovery
counters) — the pure, process-free pieces.  The data plane's use of
them is covered in ``test_sharding.py``; the end-to-end chaos invariant
lives in ``tests/property/test_sharding_equivalence.py``."""

import pytest

from repro.broker.supervision import (
    FAULT_KINDS,
    FaultAction,
    FaultPlan,
    SupervisionStats,
)
from repro.errors import ConfigError


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
            "degraded_publishes": 0,
            "stale_replies_discarded": 0,
            "restart_seconds": 0.0,
        }
        assert stats.recoveries == 0

    def test_recoveries_sums_interventions(self):
        stats = SupervisionStats()
        stats.worker_restarts = 2
        stats.degraded_publishes = 3
        stats.stale_replies_discarded = 9  # informational, not an intervention
        stats.restart_seconds = 0.5
        assert stats.recoveries == 5
