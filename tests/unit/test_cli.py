"""Unit tests for the stopss command-line interface."""

from __future__ import annotations

import pytest

from repro.broker.durability import _encode_record, _scan_records, recover
from repro.cli import build_parser, main
from repro.ontology.domains import build_jobs_knowledge_base


class TestParser:
    def test_commands_available(self):
        parser = build_parser()
        for argv in (
            ["demo"],
            ["match", "(a = 1)", "(a, 1)"],
            ["explain", "(a, 1)"],
            ["kb"],
            ["serve"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDemo:
    def test_demo_prints_both_modes(self, capsys):
        assert main(["demo", "--companies", "3", "--candidates", "6"]) == 0
        out = capsys.readouterr().out
        assert "semantic" in out and "syntactic" in out

    def test_demo_prints_pruning_columns(self, capsys):
        assert main(["demo", "--companies", "3", "--candidates", "6"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "prune-hit%" in out

    def test_demo_seed_reproducible(self, capsys):
        main(["demo", "--companies", "3", "--candidates", "6", "--seed", "5"])
        first = capsys.readouterr().out
        main(["demo", "--companies", "3", "--candidates", "6", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_demo_sharded_prints_per_shard_view(self, capsys):
        assert (
            main(["demo", "--companies", "3", "--candidates", "6", "--shards", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "per-shard view (4 shards" in out
        assert "busy-cpu-ms" in out

    def test_demo_sharded_matches_equal_single_engine(self, capsys):
        """Same scenario, same match/delivery table rows, any shard
        count — the CLI-level view of the sharding invariant."""
        argv = ["demo", "--companies", "3", "--candidates", "8", "--seed", "3"]
        main(argv)
        single = capsys.readouterr().out
        main(argv + ["--shards", "3", "--executor", "serial"])
        sharded = capsys.readouterr().out

        def demo_table(text: str) -> str:
            return text.split("publish path")[0]

        assert demo_table(single) == demo_table(sharded)

    def test_demo_process_executor_matches_equal_single_engine(self, capsys):
        """The full demo through worker processes — forked replicas,
        pickled events, and all — must print the exact same match/delivery
        rows as the single engine, and the per-shard view must name the
        executor that did the work."""
        argv = ["demo", "--companies", "3", "--candidates", "8", "--seed", "3"]
        main(argv)
        single = capsys.readouterr().out
        assert main(argv + ["--shards", "2", "--executor", "process"]) == 0
        sharded = capsys.readouterr().out
        assert single.split("publish path")[0] == sharded.split("publish path")[0]
        assert "process" in sharded

    def test_demo_single_shard_has_no_shard_table(self, capsys):
        main(["demo", "--companies", "3", "--candidates", "6"])
        assert "per-shard view" not in capsys.readouterr().out

    def test_demo_invalid_shard_count_exits_two(self, capsys):
        """--shards 0 must fail loudly, not silently run single-engine."""
        assert main(["demo", "--companies", "2", "--candidates", "2", "--shards", "0"]) == 2
        assert "shards must be >= 1" in capsys.readouterr().err

    def test_demo_publish_path_columns(self, capsys):
        """The publish-path table shows the counters every matcher
        keeps, and no kernel-specific columns."""
        assert main(["demo", "--companies", "3", "--candidates", "6"]) == 0
        table = capsys.readouterr().out.split("publish path")[1]
        header = table.splitlines()[2].split()
        assert header[-3:] == ["probes-saved", "memo-hits", "result-hit%"]
        assert "vec-batch%" not in header and "scalar-fb" not in header

    def test_demo_has_no_backend_flag(self):
        """A kernel is chosen by matcher name, not by a demo flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--backend", "numpy"])

    def test_demo_executor_is_serial_or_process(self):
        assert build_parser().parse_args(["demo"]).executor == "serial"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--executor", "threads"])

    def test_demo_shard_timeout_flag_accepted(self, capsys):
        assert (
            main(
                ["demo", "--companies", "2", "--candidates", "4", "--shards", "2",
                 "--executor", "process", "--shard-timeout", "30"]
            )
            == 0
        )
        assert "per-shard view" in capsys.readouterr().out

    def test_demo_shard_timeout_rejects_nonpositive(self, capsys):
        code = main(
            ["demo", "--companies", "2", "--candidates", "2", "--shards", "2",
             "--executor", "process", "--shard-timeout", "0"]
        )
        assert code == 2
        assert "request_timeout must be > 0" in capsys.readouterr().err

    def test_demo_chaos_requires_process_fleet(self, capsys):
        """--chaos without a worker fleet must fail loudly, not run a
        chaos demo with nothing to fault."""
        for argv in (
            ["demo", "--companies", "2", "--candidates", "2", "--chaos", "7"],
            ["demo", "--companies", "2", "--candidates", "2", "--shards", "2",
             "--executor", "serial", "--chaos", "7"],
        ):
            assert main(argv) == 2
            assert "--chaos needs a worker fleet" in capsys.readouterr().err

    @staticmethod
    def _health_rows(text: str) -> list[list[str]]:
        """The (mode, counters...) rows of the data-plane health table."""
        section = text.split("data-plane health")[1]
        return [
            line.split()
            for line in section.splitlines()
            if line.startswith(("semantic", "syntactic"))
        ]

    def test_demo_clean_process_run_prints_all_zero_health(self, capsys):
        argv = ["demo", "--companies", "3", "--candidates", "6", "--shards", "2",
                "--executor", "process"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "data-plane health" in out
        for row in self._health_rows(out):
            # restarts, degraded, stale-drop and restart-ms all zero on
            # a clean run
            assert row[1:] == ["0", "0", "0", "0"]

    def test_demo_chaos_matches_clean_run_and_recovers(self, capsys):
        """The CLI-level chaos invariant: the demo's match/delivery
        table is identical with and without the fault storm, and the
        health columns prove the storm actually happened — with the
        deterministic counters reproducible from the seed alone."""
        argv = ["demo", "--companies", "3", "--candidates", "8", "--seed", "3",
                "--shards", "2", "--executor", "process"]
        main(argv)
        clean = capsys.readouterr().out
        assert main(argv + ["--chaos", "7"]) == 0
        chaos = capsys.readouterr().out
        assert clean.split("publish path")[0] == chaos.split("publish path")[0]
        assert "chaos seed 7" in chaos
        rows = self._health_rows(chaos)
        assert rows and all(int(row[1]) + int(row[2]) > 0 for row in rows)
        main(argv + ["--chaos", "7"])
        again = self._health_rows(capsys.readouterr().out)
        # deterministic columns replay exactly (restart-ms is wall-clock)
        assert [row[1:4] for row in rows] == [row[1:4] for row in again]


class TestDurable:
    def test_demo_durable_writes_journals_and_prints_table(self, capsys, tmp_path):
        root = tmp_path / "wal"
        assert (
            main(["demo", "--companies", "3", "--candidates", "6",
                  "--durable", str(root)]) == 0
        )
        out = capsys.readouterr().out
        assert "durability (write-ahead journal)" in out
        assert f"stopss recover {root}/semantic" in out
        for mode in ("semantic", "syntactic"):
            assert (root / mode / "journal.log").stat().st_size > 0

    def test_demo_without_durable_prints_no_journal_table(self, capsys):
        main(["demo", "--companies", "2", "--candidates", "4"])
        assert "durability (write-ahead journal)" not in capsys.readouterr().out

    def test_recover_rebuilds_demo_state(self, capsys, tmp_path):
        root = tmp_path / "wal"
        main(["demo", "--companies", "3", "--candidates", "6", "--durable", str(root)])
        capsys.readouterr()
        assert main(["recover", str(root / "semantic")]) == 0
        out = capsys.readouterr().out
        assert "recovered broker state" in out
        assert "recovery counters" in out

    def test_recover_into_sharded_broker(self, capsys, tmp_path):
        root = tmp_path / "wal"
        main(["demo", "--companies", "3", "--candidates", "6", "--durable", str(root)])
        capsys.readouterr()
        assert main(["recover", str(root / "syntactic"), "--mode", "syntactic",
                     "--shards", "2"]) == 0
        assert "recovered broker state" in capsys.readouterr().out

    @staticmethod
    def _rewrite(path, edit) -> None:
        records, _, _ = _scan_records(path.read_bytes())
        path.write_bytes(b"".join(_encode_record(record) for record in edit(records)))

    def test_recover_reports_a_discarded_snapshot(self, capsys, tmp_path):
        root = tmp_path / "wal"
        main(["demo", "--companies", "3", "--candidates", "6", "--durable", str(root)])
        capsys.readouterr()
        directory = root / "semantic"
        with recover(directory, build_jobs_knowledge_base()) as broker:
            broker.checkpoint()
        self._rewrite(
            directory / "snapshot.json",
            lambda records: [dict(records[0], format=2), *records[1:]],
        )
        assert main(["recover", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "discarded" in out.split("recovery counters")[1]

    def test_recover_refuses_a_journal_record_it_never_writes(self, capsys, tmp_path):
        root = tmp_path / "wal"
        main(["demo", "--companies", "3", "--candidates", "6", "--durable", str(root)])
        capsys.readouterr()
        journal = root / "semantic" / "journal.log"
        self._rewrite(
            journal,
            lambda records: [
                *records,
                {"k": "out", "sid": "s1", "n": 1, "nid": "n1", "i": records[-1]["i"] + 1},
            ],
        )
        before = journal.read_bytes()
        assert main(["recover", str(root / "semantic")]) == 2
        captured = capsys.readouterr()
        assert "error: journal record i=" in captured.err and "'out'" in captured.err
        assert captured.out == ""
        assert journal.read_bytes() == before

    def test_recover_command_parses(self):
        args = build_parser().parse_args(["recover", "some/dir"])
        assert args.command == "recover"
        assert args.mode == "semantic"
        assert args.shards == 1


class TestMatch:
    def test_semantic_match_exit_zero(self, capsys):
        code = main(
            [
                "match",
                "(university = Toronto) and (professional experience >= 4)",
                "(school, Toronto)(graduation_year, 1990)",
            ]
        )
        assert code == 0
        assert "MATCH" in capsys.readouterr().out

    def test_no_match_exit_one(self, capsys):
        code = main(["match", "(university = Toronto)", "(city, Ottawa)"])
        assert code == 1
        assert "NO MATCH" in capsys.readouterr().out

    def test_syntactic_flag(self, capsys):
        code = main(["match", "--syntactic", "(university = Toronto)", "(school, Toronto)"])
        assert code == 1

    def test_parse_error_exit_two(self, capsys):
        code = main(["match", "garbage", "(a, 1)"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExplain:
    def test_explain_lists_derivations(self, capsys):
        assert main(["explain", "(degree, PhD)"]) == 0
        out = capsys.readouterr().out
        assert "derived event" in out
        assert "iteration" in out

    def test_max_generality(self, capsys):
        main(["explain", "(degree, PhD)", "--max-generality", "0"])
        zero = capsys.readouterr().out
        main(["explain", "(degree, PhD)"])
        unlimited = capsys.readouterr().out
        assert len(unlimited) > len(zero)


class TestKb:
    def test_kb_stats(self, capsys):
        assert main(["kb"]) == 0
        out = capsys.readouterr().out
        for domain in ("jobs", "vehicles", "electronics"):
            assert domain in out
        assert "mapping rules" in out
