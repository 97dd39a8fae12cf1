"""Unit tests for the metrics substrate."""

from __future__ import annotations

import time

import pytest

from repro.metrics import (
    CounterRegistry,
    Table,
    Timer,
    TimingSummary,
    measure,
    supervision_summary,
)


class TestCounters:
    def test_bump_and_get(self):
        counters = CounterRegistry()
        assert counters.bump("a") == 1
        assert counters.bump("a", 4) == 5
        assert counters.get("a") == 5
        assert counters.get("missing") == 0
        assert counters["a"] == 5
        assert "a" in counters and len(counters) == 1

    def test_group(self):
        counters = CounterRegistry()
        counters.bump("engine.pubs", 3)
        counters.bump("engine.subs", 2)
        counters.bump("other.x", 1)
        assert counters.group("engine") == {"pubs": 3, "subs": 2}

    def test_diff(self):
        counters = CounterRegistry()
        counters.bump("a", 2)
        before = counters.snapshot()
        counters.bump("a", 3)
        counters.bump("b", 1)
        assert counters.diff(before) == {"a": 3, "b": 1}

    def test_merge_and_reset(self):
        a, b = CounterRegistry(), CounterRegistry()
        a.bump("x", 1)
        b.bump("x", 2)
        b.bump("y", 5)
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 5
        a.reset()
        assert len(a) == 0

    def test_iteration_sorted(self):
        counters = CounterRegistry()
        counters.bump("z")
        counters.bump("a")
        assert [name for name, _ in counters] == ["a", "z"]

    def test_set(self):
        counters = CounterRegistry()
        counters.set("x", 9)
        assert counters.get("x") == 9


class TestTimers:
    def test_timer_records(self):
        summary = TimingSummary()
        with Timer(summary):
            time.sleep(0.001)
        assert summary.count == 1
        assert summary.total > 0
        assert summary.minimum <= summary.mean <= summary.maximum

    def test_summary_stats(self):
        summary = TimingSummary([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.median == 2.0
        assert summary.per_second(10) == 5.0

    def test_empty_summary(self):
        summary = TimingSummary()
        assert summary.mean == 0.0 and summary.per_second() == 0.0

    def test_measure(self):
        result, summary = measure(lambda x: x * 2, 21, repeat=3)
        assert result == 42 and summary.count == 3

    def test_standalone_timer(self):
        with Timer() as timer:
            pass
        assert timer.elapsed >= 0


class TestTable:
    def test_render(self):
        table = Table("demo", ["name", "count", "rate"])
        table.add("alpha", 10, 0.5)
        table.add("beta", 2000000, 1234.5)
        text = table.render()
        assert "demo" in text
        assert "alpha" in text
        assert "2,000,000" in text
        assert "0.5000" in text

    def test_row_arity_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_print(self, capsys):
        table = Table("t", ["x"])
        table.add(1)
        table.print()
        assert "t" in capsys.readouterr().out


class TestSupervisionSummary:
    def test_extracts_counters(self):
        summary = supervision_summary(
            {
                "sharding": {
                    "supervision": {
                        "worker_restarts": 2,
                        "degraded_publishes": 3,
                        "stale_replies_discarded": 5,
                        "restart_seconds": 0.25,
                    },
                }
            }
        )
        assert summary == {
            "worker_restarts": 2,
            "degraded_publishes": 3,
            "stale_replies_discarded": 5,
            "restart_seconds": 0.25,
            "recoveries": 2 + 3,  # restarts + degraded
        }

    def test_single_engine_stats_report_all_zero(self):
        """A plain engine has no sharding section; every counter must
        default to zero rather than KeyError — recoveries == 0 always
        means 'nothing needed rescuing'."""
        summary = supervision_summary({"derived_events": 7})
        assert summary["recoveries"] == 0
        assert all(
            summary[name] == 0
            for name in (
                "worker_restarts",
                "degraded_publishes",
                "stale_replies_discarded",
            )
        )

    def test_partial_sections_default_safely(self):
        """Sharding sections without recovery counters (a serial engine
        from before they existed, or a malformed section) render as
        zeros, not crashes."""
        summary = supervision_summary({"sharding": {"shards": 2}})
        assert summary["recoveries"] == 0
        summary = supervision_summary({"sharding": {"supervision": "x"}})
        assert summary["recoveries"] == 0
        summary = supervision_summary({"sharding": {"supervision": {"worker_restarts": 1}}})
        assert summary["worker_restarts"] == 1 and summary["recoveries"] == 1
