"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS
from repro.genome.io import FastaRecord, write_fasta
from repro.genome.sequence import random_genome


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_arguments(self):
        args = build_parser().parse_args(["search", "--queries", "ACGT", "--step", "4"])
        assert args.command == "search"
        assert args.queries == ["ACGT"]
        assert args.step == 4

    def test_experiment_choices(self):
        for entry in EXPERIMENTS:
            args = build_parser().parse_args(["experiment", entry.name])
            assert args.name == entry.name
            assert args.entry is entry
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_foreign_flags_are_an_error(self, tmp_path, capsys):
        """Regression: the shared flag pile let `experiment fig1 --grid
        nonsense --json ignored.json --fault-rate 9` exit 0 having
        ignored all three."""
        ignored = tmp_path / "ignored.json"
        with pytest.raises(SystemExit) as raised:
            main(
                ["experiment", "fig1", "--grid", "nonsense", "--json", str(ignored),
                 "--fault-rate", "9"]
            )
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not ignored.exists()

    def test_json_only_on_record_bearing_experiments(self):
        record_bearing = {entry.name for entry in EXPERIMENTS if entry.record is not None}
        assert record_bearing == {
            "accel-replay", "chaos", "dse", "fig18-window", "serving", "shard-scaling"
        }
        for entry in EXPERIMENTS:
            argv = ["experiment", entry.name, "--json", "out.json"]
            if entry.record is not None:
                assert build_parser().parse_args(argv).json == "out.json"
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)

    def test_chaos_takes_the_load_generators_flags(self):
        args = build_parser().parse_args(
            ["experiment", "chaos", "--rate", "300", "--duration", "0.3"]
        )
        assert (args.rate, args.duration) == (300.0, 0.3)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "chaos", "--chaos-rate", "300"])

    def test_serving_bench_is_a_spelling_of_the_serving_entry(self):
        argv = ["--rate", "100", "--workers", "1,2", "--rate-sweep", "1,4"]
        spelled = build_parser().parse_args(["serving-bench", *argv])
        named = build_parser().parse_args(["experiment", "serving", *argv])
        assert spelled.entry is named.entry
        assert spelled.workers == named.workers == (1, 2)
        assert spelled.rate_sweep == (1.0, 4.0)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serving-bench", "--workers", "one"])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.genome_length == 3_000_000_000
        assert args.step == 15


class TestSearchCommand:
    def test_search_synthetic_genome(self, capsys):
        genome = random_genome(2000, seed=5)
        query = genome[100:116]
        exit_code = main(
            [
                "search",
                "--genome-length",
                "2000",
                "--seed",
                "5",
                "--step",
                "4",
                "--no-index",
                "--queries",
                query,
                "ACGTACGTACGTACGT",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert query in captured
        assert "occurrence" in captured

    def test_search_fasta_reference(self, tmp_path, capsys):
        genome = random_genome(1500, seed=6)
        path = tmp_path / "ref.fa"
        write_fasta(path, [FastaRecord("chr", genome)])
        exit_code = main(
            ["search", "--reference", str(path), "--step", "4", "--no-index",
             "--queries", genome[200:212]]
        )
        assert exit_code == 0
        assert "1 occurrence" in capsys.readouterr().out or "occurrence" in ""


class TestInfoCommand:
    def test_info_prints_sizes(self, capsys):
        exit_code = main(["info", "--genome-length", "3000000000", "--step", "15"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "increments" in out
        assert "GB" in out


class TestExperimentCommand:
    def test_fig21_runs(self, capsys):
        exit_code = main(["experiment", "fig21"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "EXMA" in out

    def test_table2_runs(self, capsys):
        exit_code = main(["experiment", "table2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "MEDAL" in out

    def test_fig13_runs_small(self, capsys):
        exit_code = main(["experiment", "fig13", "--genome-length", "6000"])
        assert exit_code == 0
        assert "MTL" in capsys.readouterr().out


class TestShardingFlags:
    def test_search_sharded_matches_serial_output(self, capsys):
        genome = random_genome(2000, seed=5)
        query = genome[100:116]
        args = [
            "search", "--genome-length", "2000", "--seed", "5", "--step", "4",
            "--no-index", "--queries", query,
        ]
        # The default is serial; the sharded run must print the same answers.
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--shards", "3", "--executor", "thread"]) == 0
        sharded_out = capsys.readouterr().out
        assert "sharded: 3 shards via thread executor" in sharded_out
        # Everything but the sharding banner is identical: same counts,
        # same positions, same coalescing counters.
        assert [line for line in sharded_out.splitlines() if not line.startswith("sharded:")] \
            == serial_out.splitlines()

    def test_parser_accepts_window_and_sharding_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["experiment", "fig15-window", "--window", "4", "--shards", "2",
             "--executor", "process"]
        )
        assert args.windows == (1, 2, 4)
        assert args.shards == 2
        assert args.executor == "process"

    @pytest.mark.parametrize(
        "argv, attribute, default",
        [
            (["search", "--queries", "ACGT"], "shards", 1),
            (["search", "--queries", "ACGT"], "executor", "thread"),
            (["serve"], "shards", 1),
            (["serve"], "replay_workers", 1),
            (["serve"], "replay_executor", "thread"),
            (["experiment", "fig15-window"], "executor", "thread"),
            (["experiment", "fig18-window"], "replay_workers", 1),
            (["experiment", "fig18-window"], "replay_executor", "thread"),
        ],
    )
    def test_parallel_defaults_are_serial_literals(self, argv, attribute, default):
        """No flag defers to the environment: unless one is passed, every
        parallel knob parses to its serial literal."""
        assert getattr(build_parser().parse_args(argv), attribute) == default

    def test_parser_rejects_unknown_executor(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--queries", "ACGT", "--executor", "gpu"])

    def test_fig15_window_experiment_runs(self, capsys):
        exit_code = main(
            ["experiment", "fig15-window", "--genome-length", "4000", "--window", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "coalescing-window sweep" in out
        assert " 1 " in out and " 2 " in out

    def test_fig18_window_experiment_runs_and_writes_json(self, tmp_path, capsys):
        report_path = tmp_path / "window_capacity.json"
        exit_code = main(
            [
                "experiment", "fig18-window", "--genome-length", "4000",
                "--window", "2", "--json", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "throughput per window capacity" in out
        assert "W=1 matches unwindowed: yes" in out
        report = json.loads(report_path.read_text())
        assert report["benchmark"] == "window_capacity"
        assert report["workload"]["genome_length"] == 4000
        assert report["w1_matches_unwindowed"] is True
        assert [row["window"] for row in report["rows"]] == [1, 2]
        assert report["rows"][0]["total_cycles"] == report["unwindowed"]["total_cycles"]
