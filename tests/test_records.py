"""The experiment plane end to end: every record-bearing registry entry at
toy scale through the one writer and its own CI gate, plus the pure
pieces — the envelope, ``row_dict`` and ``bench-diff``'s headline diff.

Per entry: run → ``write_record`` → envelope complete → the entry's own
gate exits 0 (and ``verdict`` is empty) → flip one pinned invariant →
exit 1 (and ``verdict`` names it) → drop ``host`` → exit 2.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace

import pytest

from repro.cli import build_parser
from repro.experiments import EXPERIMENTS, Record, experiment_named, row_dict, write_record
from repro.runtime import host_block


def _replace_row(result, index: int, **changes):
    rows = list(result.rows)
    rows[index] = replace(rows[index], **changes)
    return replace(result, rows=rows)


def _break_accel_replay(result, record):
    record["rows"][0]["results_equal"] = False
    return _replace_row(result, 0, results_equal=False)


def _break_chaos(result, record):
    record["rows"][1]["stranded"] = 1
    return _replace_row(result, 1, stranded=1)


def _break_dse(result, record):
    record["baseline"]["matches_run"] = False
    return replace(result, baseline_matches_run=False)


def _break_window(result, record):
    record["w1_matches_unwindowed"] = False
    return replace(result, w1_matches_unwindowed=False)


def _break_serving(result, record):
    record["rows"][0]["completed"] -= 1
    return _replace_row(result, 0, completed=result.rows[0].completed - 1)


def _forced_split_speedups(record, speedup: float) -> None:
    """Re-time the record as a 4-CPU host's forced thread splits would."""
    record["host"]["available_cpus"] = record["host"]["host_cpus"] = 4
    for row in record["rows"]:
        if row["forced"] and row["executor"] == "thread":
            row["speedup"] = speedup


def _break_shard_scaling(result, record):
    _forced_split_speedups(record, 0.8)
    return result


@dataclass(frozen=True)
class Toy:
    """One record-bearing experiment at toy scale."""

    argv: tuple
    gates: tuple
    #: Flips one pinned invariant in the record (in place) and returns
    #: the result with the same pin flipped.
    break_pin: object
    #: The ``bool`` headline the run's own verdict names once it is
    #: flipped ("" where the gate's rule is a host-dependent timing).
    pin: str = ""


TOYS = {
    "accel-replay": Toy(
        ("--genome-length", "8000", "--batch-size", "300", "--repeats", "1",
         "--replay-workers", "1,2", "--replay-batches", "4"),
        ("accel-replay", "replay-scaling"),
        _break_accel_replay,
        "fig18.results_equal",
    ),
    # CI's smoke scale: the worker-kill scenario needs enough loop probes
    # for its scheduled kills to fire.  The availability floor is the one
    # timing-dependent rule of the gate — two killed workers can take two
    # in-flight 32-query batches out of ~170 accepted — so tier-1 lowers
    # it and keeps every pin (stranded, ledger, fault-free) strict.
    "chaos": Toy(
        ("--genome-length", "8000", "--rate", "300", "--duration", "0.3"),
        ("chaos:min-availability=0.5",),
        _break_chaos,
        "search-raise.stranded_zero",
    ),
    "dse": Toy(
        ("--genome-length", "4000", "--batch-size", "120", "--batch-count", "4"),
        ("dse",),
        _break_dse,
        "baseline.matches_run",
    ),
    "fig18-window": Toy(
        ("--genome-length", "4000", "--window", "4", "--batch-count", "4",
         "--batch-size", "32"),
        ("window",),
        _break_window,
        "w1_matches_unwindowed",
    ),
    # A shortened horizon, and a sweep queue far below one batch window's
    # arrivals at the top rung so the ladder saturates on any host.
    "serving": Toy(
        ("--genome-length", "6000", "--rate", "200", "--duration", "0.3",
         "--rate-sweep", "1,16", "--sweep-duration", "0.15",
         "--sweep-queue-capacity", "16"),
        ("serving",),
        _break_serving,
        "poissonx1.completed_all",
    ),
    # No host in tier-1 can promise a forced split wins, so the gate is
    # exercised on the written record re-timed as a multicore host's.
    "shard-scaling": Toy(
        ("--genome-length", "6000", "--batch-size", "64", "--repeats", "1"),
        ("shard-speedup",),
        _break_shard_scaling,
    ),
}


def test_every_record_bearing_entry_has_a_toy():
    assert set(TOYS) == {entry.name for entry in EXPERIMENTS if entry.record is not None}


@pytest.fixture(scope="module", params=sorted(TOYS))
def case(request, tmp_path_factory):
    """One toy run, written once: (entry, toy, result, envelope, path)."""
    entry, toy = experiment_named(request.param), TOYS[request.param]
    args = build_parser().parse_args(["experiment", entry.name, *toy.argv])
    result = entry.run(args)
    path = tmp_path_factory.mktemp(entry.name.replace("-", "_")) / "record.json"
    envelope = write_record(str(path), entry.record(result))
    if entry.name == "shard-scaling":
        _forced_split_speedups(envelope, 1.25)
        path.write_text(json.dumps(envelope))
    return entry, toy, result, envelope, path


def _run_gates(ci_gates, toy: Toy, path) -> int:
    specs = []
    for gate in toy.gates:
        name, _, options = gate.partition(":")
        specs.append(f"--gate={name}={path}" + (f":{options}" if options else ""))
    return ci_gates.main(["ci_gates.py", *specs])


class TestRegistryRecords:
    def test_envelope_is_complete(self, case):
        entry, _toy, result, envelope, path = case
        assert list(envelope)[:4] == ["benchmark", "host", "workload", "headlines"]
        assert list(envelope)[-1] == "rows" and envelope["rows"]
        assert set(envelope["host"]) == set(host_block())
        # accel-replay sizes each row separately; the rest size the workload.
        sized = {**envelope["rows"][0], **envelope["workload"]}
        assert sized["genome_length"] == int(_toy.argv[1])
        assert envelope["headlines"]
        for headline in envelope["headlines"]:
            assert set(headline) == {"name", "value", "kind"}
            assert headline["kind"] in ("bool", "higher", "lower")
            assert headline["value"] is not None
        names = [headline["name"] for headline in envelope["headlines"]]
        assert len(set(names)) == len(names)
        assert entry.format(result)
        if entry.name != "shard-scaling":  # re-timed by the fixture
            assert json.loads(path.read_text()) == envelope

    def test_own_gates_pass_and_verdict_is_empty(self, case, ci_gates, capsys):
        entry, toy, result, _envelope, path = case
        assert _run_gates(ci_gates, toy, path) == 0
        assert f"OK [{toy.gates[0].partition(':')[0]}]" in capsys.readouterr().out
        assert entry.verdict(result) == []

    def test_flipped_pin_fails_the_gate_and_the_verdict(self, case, ci_gates, tmp_path, capsys):
        entry, toy, result, envelope, _path = case
        broken = copy.deepcopy(envelope)
        broken_result = toy.break_pin(result, broken)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert _run_gates(ci_gates, toy, path) == 1
        assert f"FAIL [{toy.gates[0].partition(':')[0]}]" in capsys.readouterr().err
        failures = entry.verdict(broken_result)
        assert failures == ([f"pinned invariant {toy.pin} does not hold"] if toy.pin else [])

    def test_a_record_without_host_is_malformed(self, case, ci_gates, tmp_path, capsys):
        _entry, toy, _result, envelope, _path = case
        hostless = {key: value for key, value in envelope.items() if key != "host"}
        path = tmp_path / "hostless.json"
        path.write_text(json.dumps(hostless))
        assert _run_gates(ci_gates, toy, path) == 2
        assert "missing ['host']" in capsys.readouterr().err


class TestEnvelope:
    @dataclass(frozen=True)
    class Row:
        label: str
        seconds: float
        nested: tuple = ()

        @property
        def doubled(self) -> float:
            return self.seconds * 2

    def test_row_dict_is_scalar_fields_then_derived_then_extra(self):
        row = self.Row("a", 0.123456, nested=(1, 2))
        assert row_dict(row) == {"label": "a", "seconds": 0.123456}
        assert row_dict(row, "doubled", digits={"seconds": 2, "doubled": 3}, nested=[1, 2]) == {
            "label": "a", "seconds": 0.12, "doubled": 0.247, "nested": [1, 2]
        }

    def test_envelope_rejects_unknown_kinds_and_shadowing_sections(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Record("b", {}, [("x", 1, "bigger")], []).envelope()
        with pytest.raises(ValueError, match="shadow"):
            Record("b", {}, [], [], sections={"host": {}}).envelope()


class TestHeadlineDiff:
    """``bench-diff`` on declared headlines alone — no benchmark's row shape."""

    @staticmethod
    def _record(*headlines) -> dict:
        return {
            "benchmark": "toy",
            "host": {},
            "workload": {},
            "headlines": [
                {"name": name, "value": value, "kind": kind} for name, value, kind in headlines
            ],
            "rows": [],
        }

    def _diff(self, ci_gates, old, new) -> list:
        run = ci_gates.GateRun(gate="bench-diff", record_path=None, options={})
        ci_gates.diff_headlines(run, "BENCH_toy.json", old, new, "BASE", 0.30)
        return run.failures

    def test_unchanged_headlines_pass(self, ci_gates, capsys):
        record = self._record(("pin", True, "bool"), ("rate", 10.0, "higher"))
        assert self._diff(ci_gates, record, copy.deepcopy(record)) == []
        assert "unchanged vs BASE" in capsys.readouterr().out

    def test_bool_flipping_false_fails(self, ci_gates):
        failures = self._diff(
            ci_gates, self._record(("pin", True, "bool")), self._record(("pin", False, "bool"))
        )
        assert len(failures) == 1 and "pin regressed True -> False" in failures[0]
        assert self._diff(
            ci_gates, self._record(("pin", False, "bool")), self._record(("pin", True, "bool"))
        ) == []

    @pytest.mark.parametrize(
        "kind, new_value, regressed",
        [
            ("higher", 69.0, True),    # -31 %
            ("higher", 71.0, False),   # -29 %
            ("higher", 200.0, False),
            ("lower", 131.0, True),    # +31 %
            ("lower", 129.0, False),   # +29 %
            ("lower", 10.0, False),
        ],
    )
    def test_numeric_headlines_tolerate_thirty_percent(
        self, ci_gates, kind, new_value, regressed
    ):
        failures = self._diff(
            ci_gates, self._record(("m", 100.0, kind)), self._record(("m", new_value, kind))
        )
        assert bool(failures) is regressed

    def test_a_removed_bool_headline_fails_a_removed_number_does_not(self, ci_gates, capsys):
        old = self._record(("pin", True, "bool"), ("rate", 10.0, "higher"))
        failures = self._diff(ci_gates, old, self._record())
        assert len(failures) == 1 and "pin" in failures[0]
        assert "gone" in capsys.readouterr().out

    def test_base_without_headlines_diffs_nothing(self, ci_gates, capsys):
        legacy = {"benchmark": "toy", "rows": [{"results_equal": True}]}
        new = self._record(("pin", False, "bool"))
        assert self._diff(ci_gates, legacy, new) == []
        assert "BENCH_toy.json: BASE copy predates declared headlines" in capsys.readouterr().out
        assert self._diff(ci_gates, None, new) == []
        assert "absent at BASE" in capsys.readouterr().out
