"""Unit tests for the metrics substrate."""

from __future__ import annotations

import pytest

from repro.metrics import Table, supervision_summary


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
