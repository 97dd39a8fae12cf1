"""Reporting substrate: the stats rollups the CLI and the benchmark
harness read (:mod:`~repro.metrics.aggregate`) and the plain-text
tables they print (:mod:`~repro.metrics.report`)."""

from repro.metrics.aggregate import (
    durability_summary,
    merge_stats,
    publish_path_summary,
    supervision_summary,
)
from repro.metrics.report import Table, format_row

__all__ = [
    "Table",
    "format_row",
    "durability_summary",
    "merge_stats",
    "publish_path_summary",
    "supervision_summary",
]
