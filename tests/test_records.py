"""The experiment plane end to end: every record-bearing registry entry at
toy scale through the one writer and the one ``pins`` gate, plus the pure
pieces — the envelope, ``row_dict``, the floors and ``bench-diff``.

Per entry: run → ``write_record`` → envelope complete → ``pins`` exits 0
(and ``verdict`` is empty) → break the *result* → ``record()`` declares
the pin false, ``pins`` exits 1 (and ``verdict`` names it) → drop
``host`` → exit 2.  ``TestEveryDeletedGateCheck`` then walks every
invariant the seven per-benchmark gate functions used to re-check, over
small hand-built results: mutation → the one pin that must go false.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace

import pytest

from repro import native
from repro.accel.configspace import baseline_point
from repro.cli import build_parser, main
from repro.engine.sharded import ShardedQueryEngine
from repro.experiments import (
    chaos,
    dse,
    fig18_window,
    scaling,
    serving,
    write_record,
)
from repro.experiments.record import Record, row_dict
from repro.experiments.registry import EXPERIMENTS, experiment_named
from repro.runtime import host_block


def _replace_row(result, index: int, **changes):
    rows = list(result.rows)
    rows[index] = replace(rows[index], **changes)
    return replace(result, rows=rows)


@dataclass(frozen=True)
class Toy:
    """One record-bearing experiment at toy scale."""

    argv: tuple
    #: Breaks one invariant in the *result* — the record is never edited.
    break_result: object
    #: The ``bool`` headline ``record()`` must then declare false.
    pin: str
    #: Floor options of the ``pins`` gate (``PATTERN>=VALUE``).
    floors: tuple = ()


TOYS = {
    # CI's smoke scale: the worker-kill scenario needs enough loop probes
    # for its scheduled kills to fire.  The availability floor is the one
    # timing-dependent rule — two killed workers can take two in-flight
    # 32-query batches out of ~170 accepted — so tier-1 lowers it and
    # keeps every pin (stranded, ledger, fault-free) strict.
    "chaos": Toy(
        ("--genome-length", "8000", "--rate", "300", "--duration", "0.3"),
        lambda result: _replace_row(result, 1, stranded=1),
        "search-raise.stranded_zero",
        floors=("*.availability>=0.5",),
    ),
    "dse": Toy(
        ("--genome-length", "4000", "--batch-size", "120", "--batch-count", "4"),
        lambda result: replace(result, baseline_matches_run=False),
        "baseline.matches_run",
    ),
    "fig18-window": Toy(
        ("--genome-length", "4000", "--window", "4", "--batch-count", "4",
         "--batch-size", "32"),
        lambda result: replace(result, w1_matches_unwindowed=False),
        "w1_matches_unwindowed",
    ),
    # A shortened horizon, and a sweep queue far below one batch window's
    # arrivals at the top rung so the ladder saturates on any host.
    "serving": Toy(
        ("--genome-length", "6000", "--rate", "200", "--duration", "0.3",
         "--rate-sweep", "1,16", "--sweep-duration", "0.15",
         "--sweep-queue-capacity", "16"),
        lambda result: _replace_row(result, 0, completed=result.rows[0].completed - 1),
        "poissonx1.completed_all",
    ),
    # Row 0 is the forced 2-thread search split; no host in tier-1 can
    # promise a pool wins, so no floor here (TestFloors has both).
    "scaling": Toy(
        ("--genome-length", "6000", "--batch-size", "64", "--repeats", "1", "--workers", "2"),
        lambda result: _replace_row(result, 0, results_equal=False),
        "search.thread@w2.results_equal",
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
    return entry, toy, result, envelope, path


def _pins(ci_gates, path, *floors) -> int:
    return ci_gates.main(["ci_gates.py", "--gate", ":".join([f"pins={path}", *floors])])


class TestRegistryRecords:
    def test_envelope_is_complete(self, case):
        entry, _toy, result, envelope, path = case
        assert list(envelope)[:4] == ["benchmark", "host", "workload", "headlines"]
        assert list(envelope)[-1] == "rows" and envelope["rows"]
        assert set(envelope["host"]) == {*host_block(), "compiled_kernels"}
        assert envelope["host"]["compiled_kernels"] in ([], [k.symbol for k in native.KERNELS])
        assert envelope["workload"]["genome_length"] == int(_toy.argv[1])
        assert envelope["headlines"]
        for headline in envelope["headlines"]:
            assert set(headline) == {"name", "value", "kind"}
            assert headline["kind"] in ("bool", "higher", "lower")
            assert headline["value"] is not None
        assert any(headline["kind"] == "bool" for headline in envelope["headlines"])
        assert entry.format(result)
        assert json.loads(path.read_text()) == envelope

    def test_pins_pass_and_verdict_is_empty(self, case, ci_gates, capsys):
        entry, toy, result, _envelope, path = case
        assert _pins(ci_gates, path, *toy.floors) == 0
        assert "OK [pins]" in capsys.readouterr().out
        assert entry.verdict(result) == []

    def test_a_broken_result_declares_the_pin_false(self, case, ci_gates, tmp_path, capsys):
        entry, toy, result, _envelope, _path = case
        broken = toy.break_result(result)
        path = tmp_path / "broken.json"
        write_record(str(path), entry.record(broken))
        assert _pins(ci_gates, path, *toy.floors) == 1
        assert f"FAIL [pins]: {path}: pinned invariant {toy.pin} does not hold" in (
            capsys.readouterr().err
        )
        assert entry.verdict(broken) == [f"pinned invariant {toy.pin} does not hold"]

    def test_a_record_without_host_is_malformed(self, case, ci_gates, tmp_path, capsys):
        _entry, toy, _result, envelope, _path = case
        hostless = {key: value for key, value in envelope.items() if key != "host"}
        path = tmp_path / "hostless.json"
        path.write_text(json.dumps(hostless))
        assert _pins(ci_gates, path, *toy.floors) == 2
        assert "missing ['host']" in capsys.readouterr().err


class TestScalingSweep:
    def test_a_diverging_split_makes_the_run_exit_1(self, monkeypatch, capsys):
        """``Experiment.verdict`` at the command line: a forced search split
        that loses one query's answer breaks its ``results_equal`` pin."""

        class Diverging(ShardedQueryEngine):
            def search_batch(self, queries):
                result = super().search_batch(queries)
                return replace(result, lows=result.lows[:-1], highs=result.highs[:-1])

        monkeypatch.setattr(scaling, "ShardedQueryEngine", Diverging)
        argv = ["experiment", "scaling", *TOYS["scaling"].argv, "--executor", "thread"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "ERROR: pinned invariant search.thread@w2.results_equal does not hold" in out
        assert out.count("ERROR:") == 1  # the replay layer still equals serial

    def test_a_reordered_replay_makes_the_run_exit_1(self, monkeypatch, capsys):
        """A pooled replay that gathers its epochs out of flush order breaks
        the replay layer's ``results_equal`` pin, and only that one."""

        class Reordering(scaling.ExmaAccelerator):
            def run_stream(self, windows, name="EXMA", replay_workers=1, executor="thread"):
                result = super().run_stream(windows, name, replay_workers, executor)
                if replay_workers > 1:
                    result = replace(result, flushes=result.flushes[::-1])
                return result

        monkeypatch.setattr(scaling, "ExmaAccelerator", Reordering)
        argv = ["experiment", "scaling", *TOYS["scaling"].argv, "--executor", "thread"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "ERROR: pinned invariant replay.thread@w2.results_equal does not hold" in out
        assert out.count("ERROR:") == 1  # the search layer still equals serial

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"repeats": 0}, "repeats must be >= 1"),
            ({"workers": (2, 0)}, "workers must be an integer >= 1, got 0"),
            ({"executor": "fork"}, "unknown executor 'fork'"),
        ],
    )
    def test_a_bad_setting_is_refused_before_any_stack_is_built(
        self, monkeypatch, changes, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("build_stack reached")

        monkeypatch.setattr(scaling, "build_stack", unreachable)
        with pytest.raises(ValueError, match=message):
            scaling.run_scaling(**changes)

    @pytest.mark.parametrize("cpus, best", [(1, 1.5), (2, 0.8), (4, 1.5)])
    def test_best_speedup_is_over_the_counts_the_host_runs_in_parallel(
        self, monkeypatch, cpus, best
    ):
        """w2 at 0.8x, w4 at 1.5x: a 2-CPU host is held to its w2 point; a
        host that runs neither in parallel is held to the best of both."""
        result = replace(
            _scaling(),
            rows=[
                scaling.ScalingPoint("search", "thread", 2, 0.0125, 0.01, True),
                scaling.ScalingPoint("search", "thread", 4, 0.01 / 1.5, 0.01, True),
            ],
        )
        monkeypatch.setattr(scaling.runtime, "available_parallelism", lambda: cpus)
        headlines = {name: value for name, value, _kind in scaling.record(result).headlines}
        assert headlines["search.thread.best_speedup"] == best


# --------------------------------------------------------------------- #
# Hand-built results: one row per check of the seven deleted gate functions
# --------------------------------------------------------------------- #


def _scaling(search_speedup: "float | None" = 1.25, widest: int = 4, widest_speedup: float = 1.5):
    """Forced search splits on 2 and 4 threads (both alike, so the host's
    CPU count cannot matter), then process replay up to *widest* workers."""
    point = scaling.ScalingPoint
    rows = []
    if search_speedup:
        rows += [point("search", "thread", w, 0.01 / search_speedup, 0.01, True) for w in (2, 4)]
    rows += [
        point("replay", "process", w, 0.01 / widest_speedup, 0.01, True)
        for w in (2, 4) if w <= widest
    ]
    return scaling.ScalingResult(
        rows, genome_length=6000, seed=0, batch_size=64, query_length=48, repeats=1,
        replay_epochs=16,
    )


def _window_row(window: int, post: int, cycles: int):
    return fig18_window.Fig18WindowRow(
        window=window, windows_flushed=4 // window, pre_merge_requests=1000,
        post_merge_requests=post, total_cycles=cycles, dram_cycles=cycles // 2,
        inference_cycles=cycles // 4, dram_requests=post // 2, seconds=1e-4,
        accelerator_energy_j=1e-6, dram_energy_j=1e-6, mbase_per_second=300.0,
    )


def _window(*rows):
    rows = list(rows) or [
        _window_row(1, 1000, 9000), _window_row(2, 900, 9100), _window_row(4, 800, 8000)
    ]
    return fig18_window.Fig18WindowResult(
        rows=rows, unwindowed=_window_row(1, 1000, 9000), w1_matches_unwindowed=True,
        batch_count=4, batch_size=32, genome_length=4000, k=6, seed=0, query_length=48, runs={},
    )


def _rung(rate: float, rejected: int, **changes):
    rung = serving.SaturationRung(
        rate=rate, offered_qps=rate * 4, submitted=100, accepted=100 - rejected,
        rejected=rejected, completed=100 - rejected, wall_seconds=0.15, mbase_per_second=0.02,
        p50_ms=5.0, p99_ms=9.0, mean_retry_after_s=0.004 if rejected else 0.0,
    )
    return replace(rung, **changes)


def _serving(workers=(1, 2), sweep: bool = True, w2_knee: float = 0.04):
    rows = [
        serving.ServingBenchRow(
            arrival=arrival, workers=count, offered_qps=800.0, duration_s=0.3, submitted=240,
            accepted=230, rejected=10, completed=230, batches=8, flushes=4, merge_ratio=1.2,
            scheduled_requests=5000, bases_processed=6440, wall_seconds=0.3,
            mbase_per_second=0.02, model_mbase_per_second=300.0, p50_ms=5.0, p95_ms=8.0,
            p99_ms=9.0, max_ms=10.0, mean_retry_after_s=0.004,
        )
        for count in workers for arrival in serving.ARRIVALS
    ]
    study = serving.SaturationStudy(
        curves=[
            serving.SaturationCurve(
                row.arrival, row.workers, knee_index=0,
                rungs=[
                    _rung(200.0, 0, mbase_per_second=0.02 if row.workers == 1 else w2_knee),
                    _rung(3200.0, 40),
                ],
            )
            for row in rows
        ],
        base_rate=200.0, multipliers=(1.0, 16.0), duration=0.15, queue_capacity=16,
        knee_rejection_threshold=0.01,
    )
    return serving.ServingBenchResult(
        rows=rows, genome_length=6000, k=6, rate=200.0, duration=0.3, tenants=4,
        queries_per_arrival=4, query_length=28, pool_size=512, zipf_s=1.1, max_batch=64,
        max_delay=0.005, window=2, queue_capacity=4096, workers=tuple(workers),
        saturation=study if sweep else None,
    )


def _replace_curve(result, index: int, **changes):
    curves = list(result.saturation.curves)
    curves[index] = replace(curves[index], **changes)
    return replace(result, saturation=replace(result.saturation, curves=curves))


def _replace_rung(result, index: int, **changes):
    """Change rung *index* of the first curve."""
    rungs = list(result.saturation.curves[0].rungs)
    rungs[index] = replace(rungs[index], **changes)
    return _replace_curve(result, 0, rungs=rungs)


BASELINE, FAST, DOMINATED = (
    baseline_point(), replace(baseline_point(), cam_entries=1024), replace(baseline_point(), window=2)
)


def _dse_row(point, mbase: float, energy: float, area: float, **changes):
    row = dse.DseRow(
        label=point.label, point=point, baseline=point == BASELINE, flushes=4, issued=1000,
        requests=900, bases_processed=10000, total_cycles=9000, dram_cycles=5000,
        dram_requests=400, seconds=1e-5, mbase_per_second=mbase, accelerator_energy_j=1e-6,
        dram_energy_j=1e-6, energy_per_base_nj=energy, area_mm2=area, base_cache_hit_rate=0.9,
        index_cache_hit_rate=0.9, row_hit_rate=0.5, bandwidth_utilization=0.1,
    )
    return replace(row, **changes)


def _frontier_point(row, **changes):
    point = dse.FrontierPoint(
        row.label, row.mbase_per_second, row.energy_per_base_nj, row.area_mm2, True
    )
    return replace(point, **changes)


def _dse():
    """Three points; the W=2 one is dominated by the baseline."""
    rows = [
        _dse_row(BASELINE, 300.0, 1.0, 5.0),
        _dse_row(FAST, 400.0, 1.2, 6.0),
        _dse_row(DOMINATED, 250.0, 1.1, 5.5),
    ]
    return dse.DseResult(
        rows=rows, frontier=[_frontier_point(row) for row in rows[:2]],
        grid={"cam": (512, 1024), "window": (1, 2)}, baseline_matches_run=True, workers=1,
        executor="thread", genome_length=4000, seed=0, queries=120, query_length=48, k=6,
        batches=4, mtl_epochs=60, elapsed_seconds=1.0,
        frontier_labels=[row.label for row in rows[:2]],
    )


def _claim_on_frontier(result, row_index: int, **changes):
    """Put row *row_index* on the frontier: section entry and per-row flag."""
    row = result.rows[row_index]
    return replace(
        result,
        frontier=[*result.frontier, _frontier_point(row, **changes)],
        frontier_labels=[*result.frontier_labels, row.label],
    )


def _chaos_row(label: str, faulted: bool, **changes):
    row = chaos.ChaosRow(
        label=label, faulted=faulted, submitted=200, accepted=200, rejected=0,
        completed=190 if faulted else 200, failed=10 if faulted else 0, cancelled=0, stranded=0,
        availability=0.95 if faulted else 1.0, p50_ms=5.0, p99_ms=9.0, worker_crashes=0,
        replay_faults=0, quarantined=0, injected=7 if faulted else 0, wall_seconds=0.3,
    )
    return replace(row, **changes)


def _chaos(*rows):
    return chaos.ChaosResult(
        rows=list(rows) or [_chaos_row("fault-free", False), _chaos_row("search-raise", True)],
        fault_free_identical=True, genome_length=8000, k=6, rate=300.0, duration=0.3,
        fault_rate=0.2, fault_seed=0, tenants=4, queries_per_arrival=4, query_length=28,
        pool_size=512, workers=2, window=2, max_batch=32, max_delay=0.005, queue_capacity=4096,
        replay_retries=2,
    )


NAN = float("nan")

#: (the deleted gate's check, writer module, sound result, mutation, the
#: one pin that must go false).  The checks that became a floor, a
#: ``load_record`` refusal or an exception are in the classes below.
DELETED_GATE_CHECKS = [
    # gate_replay_scaling, now the scaling sweep's replay layer
    ("parallel replay diverged from the serial order", scaling, _scaling,
     lambda r: _replace_row(r, 2, results_equal=False), "replay.process@w2.results_equal"),
    # gate_window
    ("W=1 flushes diverged from the unwindowed path", fig18_window, _window,
     lambda r: replace(r, w1_matches_unwindowed=False), "w1_matches_unwindowed"),
    ("W=1 row != the unwindowed anchor", fig18_window, _window,
     lambda r: replace(r, unwindowed=_window_row(1, 1000, 9001)), "W1.row_equals_unwindowed"),
    ("post_merge_requests not monotone in W", fig18_window, _window,
     lambda r: _replace_row(r, 1, post_merge_requests=1001), "post_merge_requests_monotone"),
    ("total_cycles rose by more than CYCLE_SLACK", fig18_window, _window,
     lambda r: _replace_row(r, 1, total_cycles=9200), "cycles_trend_holds"),
    ("widest window did not reduce cycles", fig18_window, _window,
     lambda r: _replace_row(r, 2, total_cycles=9000), "cycles_trend_holds"),
    # shard-scaling's exactness pin, now the scaling sweep's search layer
    ("sharded diverged from serial", scaling, _scaling,
     lambda r: _replace_row(r, 0, results_equal=False), "search.thread@w2.results_equal"),
    # gate_serving
    ("missing required arrival process", serving, _serving,
     lambda r: replace(r, rows=r.rows[:-1]), "arrivals_complete"),
    ("no queries accepted", serving, _serving,
     lambda r: _replace_row(r, 0, accepted=0, completed=0), "poissonx1.tails_finite"),
    ("completed != accepted", serving, _serving,
     lambda r: _replace_row(r, 0, completed=229), "poissonx1.completed_all"),
    ("a latency tail is not finite and positive", serving, _serving,
     lambda r: _replace_row(r, 0, p99_ms=NAN), "poissonx1.tails_finite"),
    ("sustained throughput below the 0.001 floor", serving, _serving,
     lambda r: _replace_row(r, 0, mbase_per_second=0.0005), "poissonx1.tails_finite"),
    ("rejected exceeds submitted", serving, _serving,
     lambda r: _replace_row(r, 0, rejected=241), "poissonx1.backpressure_coherent"),
    ("rejections without a retry_after hint", serving, _serving,
     lambda r: _replace_row(r, 0, mean_retry_after_s=0.0), "poissonx1.backpressure_coherent"),
    # _check_serving_sweep
    ("sweep recorded with no curves", serving, _serving,
     lambda r: replace(r, saturation=replace(r.saturation, curves=[])), "arrivals_complete"),
    ("top rung never rejected", serving, _serving,
     lambda r: _replace_rung(r, 1, rejected=0, accepted=100, completed=100),
     "sweep.poissonx1.saturated"),
    ("knee throughput not finite and positive", serving, _serving,
     lambda r: _replace_rung(r, 0, mbase_per_second=NAN), "sweep.poissonx1.knee_finite"),
    ("knee latency not finite and positive", serving, _serving,
     lambda r: _replace_rung(r, 0, p50_ms=0.0), "sweep.poissonx1.knee_finite"),
    ("rung completed != accepted", serving, _serving,
     lambda r: _replace_rung(r, 1, completed=59), "sweep.poissonx1.rungs_coherent"),
    ("rung rejected exceeds submitted", serving, _serving,
     lambda r: _replace_rung(r, 1, rejected=101), "sweep.poissonx1.rungs_coherent"),
    ("rung rejections without a retry_after hint", serving, _serving,
     lambda r: _replace_rung(r, 1, mean_retry_after_s=0.0), "sweep.poissonx1.rungs_coherent"),
    # gate_dse
    ("fewer than two swept knobs", dse, _dse,
     lambda r: replace(r, grid={"cam": (512, 1024), "window": (1,)}), "grid.sweeps_two_knobs"),
    ("baseline diverged from ExmaAccelerator.run", dse, _dse,
     lambda r: replace(r, baseline_matches_run=False), "baseline.matches_run"),
    ("not exactly one baseline row", dse, _dse,
     lambda r: _replace_row(r, 2, baseline=True), "baseline.row_unique"),
    ("baseline row label != the recorded baseline", dse, _dse,
     lambda r: _replace_row(_replace_row(r, 0, baseline=False), 2, baseline=True),
     "baseline.row_unique"),
    ("duplicate design-point labels", dse, _dse,
     lambda r: _replace_row(r, 2, label=FAST.label, mbase_per_second=400.0,
                            energy_per_base_nj=1.2, area_mm2=6.0),  # FAST's twin: a Pareto tie
     "rows.labels_unique"),
    ("an objective is not finite and positive", dse, _dse,
     lambda r: _replace_row(r, 2, mbase_per_second=-1.0), "objectives_finite"),
    ("empty Pareto frontier", dse, _dse,
     lambda r: replace(r, frontier=[], frontier_labels=[]), "frontier.is_pareto_set"),
    ("frontier point has no matching row", dse, _dse,
     lambda r: replace(r, frontier=[*r.frontier, _frontier_point(r.rows[1], label="ghost")]),
     "frontier.is_pareto_set"),
    ("frontier point did not re-derive", dse, _dse,
     lambda r: replace(r, frontier=[r.frontier[0], replace(r.frontier[1], rederived_equal=False)]),
     f"{FAST.label}.rederived_equal"),
    ("frontier point value != its row's", dse, _dse,
     lambda r: replace(r, frontier=[r.frontier[0], replace(r.frontier[1], area_mm2=5.9)]),
     "frontier.is_pareto_set"),
    ("recorded frontier != recomputed Pareto set (dominated row claimed)", dse, _dse,
     lambda r: _claim_on_frontier(r, 2), "frontier.is_pareto_set"),
    ("per-row on_frontier flags disagree with the section", dse, _dse,
     lambda r: replace(r, frontier_labels=[r.rows[0].label]), "frontier.is_pareto_set"),
    # gate_chaos
    ("no fault-free control scenario", chaos, _chaos,
     lambda r: replace(r, rows=r.rows[1:]), "scenarios.cover_faulted_and_clean"),
    ("no faulted scenario", chaos, _chaos,
     lambda r: replace(r, rows=r.rows[:1]), "scenarios.cover_faulted_and_clean"),
    ("no queries accepted", chaos, _chaos,
     lambda r: _replace_row(r, 1, accepted=0, completed=0, failed=0), "search-raise.ledger_balanced"),
    ("accepted queries stranded", chaos, _chaos,
     lambda r: _replace_row(r, 1, stranded=1), "search-raise.stranded_zero"),
    ("completed+failed+cancelled != accepted", chaos, _chaos,
     lambda r: _replace_row(r, 1, failed=9), "search-raise.ledger_balanced"),
    ("availability is not finite", chaos, _chaos,
     lambda r: _replace_row(r, 1, availability=NAN), "search-raise.ledger_balanced"),
    ("faulted scenario injected nothing", chaos, _chaos,
     lambda r: _replace_row(r, 1, injected=0), "scenarios.cover_faulted_and_clean"),
    ("fault-free scenario failed queries", chaos, _chaos,
     lambda r: _replace_row(r, 0, failed=1, completed=199), "fault_free.clean"),
    ("fault-free availability != 1.0", chaos, _chaos,
     lambda r: _replace_row(r, 0, availability=0.999), "fault_free.clean"),
    ("fault-free scenario injected faults", chaos, _chaos,
     lambda r: _replace_row(r, 0, injected=1), "fault_free.clean"),
    ("fault-free run diverged from the clean run", chaos, _chaos,
     lambda r: replace(r, fault_free_identical=False), "fault_free.identical"),
]


class TestEveryDeletedGateCheck:
    @pytest.mark.parametrize(
        "module, sound",
        [(scaling, _scaling), (fig18_window, _window), (serving, _serving), (dse, _dse),
         (chaos, _chaos)],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_the_sound_result_breaks_no_pin(self, module, sound):
        record = module.record(sound())
        assert record.broken_pins() == []
        record.envelope()  # no duplicate names, no unknown kinds

    @pytest.mark.parametrize(
        "module, sound, mutate, pin",
        [pytest.param(*check[1:], id=f"{check[1].__name__.rpartition('.')[2]}: {check[0]}")
         for check in DELETED_GATE_CHECKS],
    )
    def test_the_mutation_flips_exactly_its_pin(self, module, sound, mutate, pin):
        assert module.record(mutate(sound())).broken_pins() == [pin]

    def test_duplicate_scenario_labels_cannot_be_written(self):
        """gate_chaos's duplicate-label check: the two rows would declare
        the same headlines, which the envelope refuses."""
        result = _chaos(
            _chaos_row("fault-free", False), _chaos_row("twin", True), _chaos_row("twin", True)
        )
        with pytest.raises(ValueError, match="'twin.availability' is declared twice"):
            chaos.record(result).envelope()

    @pytest.mark.parametrize(
        "changes", [{"rungs": []}, {"knee_index": 2}], ids=["no rungs", "knee out of range"]
    )
    def test_a_curve_without_its_knee_cannot_be_recorded(self, changes):
        """_check_serving_sweep's two shape checks: ``SaturationCurve.knee``
        raises before anything is written."""
        with pytest.raises(IndexError):
            serving.record(_replace_curve(_serving(), 0, **changes))


def _write(tmp_path, record) -> str:
    path = tmp_path / "record.json"
    write_record(str(path), record)
    return str(path)


class TestFloors:
    """The one floor option, on the thresholds with two values in use or a
    leg-dependent meaning (what ``min-availability``, ``require-speedup`` +
    ``min-speedup``, ``require-worker-scaling`` and the ``shard-speedup``
    gate carried)."""

    CASES = [
        # chaos availability: the faulted toy row sits at exactly 0.95
        ("chaos", lambda: chaos.record(_chaos()), "*.availability>=0.95", 0),
        ("chaos", lambda: chaos.record(_chaos()), "*.availability>0.95", 1),
        ("chaos", lambda: chaos.record(_chaos()), "*.availability>=0.5", 0),
        # forced thread split of search vs serial (gate_shard_speedup)
        ("search 1.25x", lambda: scaling.record(_scaling(1.25)), "search.thread.best_speedup>1.0", 0),
        ("search 0.8x", lambda: scaling.record(_scaling(0.8)), "search.thread.best_speedup>1.0", 1),
        ("no search rows", lambda: scaling.record(_scaling(None)), "search.thread.best_speedup>1.0", 2),
        # the widest process replay point (require-speedup)
        ("w4 1.5x", lambda: scaling.record(_scaling()), "replay.process@w4.speedup>1.0", 0),
        ("w4 0.9x", lambda: scaling.record(_scaling(widest_speedup=0.9)), "replay.process@w4.speedup>1.0", 1),
        ("sweep stops at w2", lambda: scaling.record(_scaling(widest=2)), "replay.process@w4.speedup>1.0", 2),
        # the saturation knee moves with the pool (require-worker-scaling)
        ("w2 knee 2x", lambda: serving.record(_serving()), "sweep.*.knee_w2_over_w1>1.0", 0),
        ("w2 knee tie", lambda: serving.record(_serving(w2_knee=0.02)), "sweep.*.knee_w2_over_w1>1.0", 1),
        ("w2 knee NaN", lambda: serving.record(_serving(w2_knee=NAN)), "sweep.*.knee_w2_over_w1>1.0", 1),
        ("no sweep", lambda: serving.record(_serving(sweep=False)), "sweep.*.knee_w2_over_w1>1.0", 2),
        ("no w2 curve", lambda: serving.record(_serving(workers=(1,))), "sweep.*.knee_w2_over_w1>1.0", 2),
        # malformed floors
        ("not numeric", lambda: chaos.record(_chaos()), "*.stranded_zero>=1", 2),
        ("zero matches", lambda: chaos.record(_chaos()), "*.renamed>=0.95", 2),
        ("no operator", lambda: chaos.record(_chaos()), "*.availability=0.95", 2),
        ("no number", lambda: chaos.record(_chaos()), "*.availability>=high", 2),
    ]

    @pytest.mark.parametrize(
        "record, floor, code",
        [pytest.param(*case[1:], id=f"{case[0]}: {case[2]} -> {case[3]}") for case in CASES],
    )
    def test_floor(self, ci_gates, tmp_path, capsys, record, floor, code):
        assert _pins(ci_gates, _write(tmp_path, record()), floor) == code
        captured = capsys.readouterr()
        if code == 1:
            assert "does not clear" in captured.err or "does not hold" in captured.err
        if code == 2:
            assert captured.err.startswith("error [pins]")

    def test_every_floor_of_a_spec_applies(self, ci_gates, tmp_path):
        path = _write(tmp_path, chaos.record(_chaos()))
        assert _pins(ci_gates, path, "*.availability>=0.5", "fault-free.availability>=1") == 0
        assert _pins(ci_gates, path, "*.availability>=0.5", "search-raise.availability>=1") == 1


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
        # A second entry would shadow the first: a false pin could hide.
        with pytest.raises(ValueError, match="'a' is declared twice"):
            Record("b", {}, [("a", False, "bool"), ("a", True, "bool")], []).envelope()


def _envelope(*headlines, **overrides) -> dict:
    """A hand-written envelope (``name, value, kind`` triples)."""
    envelope = {
        "benchmark": "toy",
        "host": {"host_cpus": 2, "available_cpus": 2},
        "workload": {},
        "headlines": [
            {"name": name, "value": value, "kind": kind} for name, value, kind in headlines
        ],
        "rows": [{"label": "only"}],
    }
    envelope.update(overrides)
    return envelope


class TestLoadRecord:
    """What ``load_record`` refuses with exit 2 — every gate is the schema gate."""

    PIN = ("pin", True, "bool")

    @pytest.mark.parametrize(
        "envelope, complaint",
        [
            (_envelope(), "declares no headlines"),
            (_envelope(headlines={}), "declares no headlines"),
            (_envelope(("a", False, "bool"), ("a", True, "bool")), "'a' is declared twice"),
            (_envelope(PIN, headlines=[{"name": "pin", "kind": "bool"}]), "malformed headline"),
            (_envelope(PIN, headlines=[{"name": "pin", "value": True}]), "malformed headline"),
            (_envelope(PIN, headlines=[{"value": True, "kind": "bool"}]), "malformed headline"),
            (_envelope(PIN, headlines=[{"name": "pin", "value": 1, "kind": "bigger"}]),
             "malformed headline"),
            (_envelope(PIN, headlines=["pin"]), "malformed headline"),
            (_envelope(PIN, host={}), "positive integer 'host_cpus'"),
            (_envelope(PIN, host={"host_cpus": 2, "available_cpus": 0}),
             "positive integer 'available_cpus'"),
            (_envelope(PIN, host={"host_cpus": 2.0, "available_cpus": 2}),
             "positive integer 'host_cpus'"),
            (_envelope(PIN, host=[]), "positive integer 'host_cpus'"),
            (_envelope(PIN, rows=[]), "no rows recorded"),
            # well-formed, but it pins nothing: the pins gate refuses it
            (_envelope(("rate", 1.0, "higher")), "declares no bool headline"),
        ],
    )
    def test_malformed_records_exit_2(self, ci_gates, tmp_path, capsys, envelope, complaint):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(envelope))
        assert _pins(ci_gates, path) == 2
        assert complaint in capsys.readouterr().err

    def test_a_sound_hand_written_envelope_passes(self, ci_gates, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(_envelope(self.PIN, ("rate", 1.0, "higher"))))
        assert _pins(ci_gates, path) == 0
        assert _pins(ci_gates, path, "rate>=1") == 0

    def test_specs_and_the_registry(self, ci_gates, capsys):
        assert list(ci_gates.GATES) == ["pins", "bench-diff"]
        assert ci_gates.parse_spec("pins=B.json:*.a>=0.5:b>1") == (
            "pins", "B.json", ["*.a>=0.5", "b>1"]
        )
        assert ci_gates.parse_spec("bench-diff:base=HEAD~1") == ("bench-diff", None, ["base=HEAD~1"])
        assert ci_gates.main(["ci_gates.py", "--gate", "window=B.json"]) == 2
        assert "unknown gate 'window'" in capsys.readouterr().err
        assert ci_gates.main(["ci_gates.py", "--gate", "pins=B.json:"]) == 2


class TestHeadlineDiff:
    """``bench-diff`` on declared headlines alone — no benchmark's row shape."""

    _record = staticmethod(_envelope)

    def _diff(self, ci_gates, old, new) -> list:
        run = ci_gates.GateRun(gate="bench-diff", record_path=None, options=[])
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
        old = self._record(("pin", True, "bool"), ("rate", 10.0, "higher"), ("kept", 1, "lower"))
        failures = self._diff(ci_gates, old, self._record(("kept", 1, "lower")))
        assert len(failures) == 1 and "pin" in failures[0]
        assert "gone" in capsys.readouterr().out

    def test_a_malformed_base_copy_is_input_error_not_a_traceback(self, ci_gates):
        new = self._record(("pin", True, "bool"))
        for old in (
            self._record(headlines=[{"name": "pin"}]),
            self._record(("pin", False, "bool"), ("pin", True, "bool")),  # would read "unchanged"
        ):
            with pytest.raises(ci_gates.GateInputError, match="BASE:BENCH_toy.json"):
                self._diff(ci_gates, old, new)

    def test_base_without_headlines_diffs_nothing(self, ci_gates, capsys):
        legacy = {"benchmark": "toy", "rows": [{"results_equal": True}]}
        new = self._record(("pin", False, "bool"))
        assert self._diff(ci_gates, legacy, new) == []
        assert "BENCH_toy.json: BASE copy predates declared headlines" in capsys.readouterr().out
        assert self._diff(ci_gates, None, new) == []
        assert "absent at BASE" in capsys.readouterr().out
