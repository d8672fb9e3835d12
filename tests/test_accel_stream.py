"""Windowed-accelerator equivalence suite (the end-to-end stream path).

Pins the contract of :meth:`repro.accel.exma_accelerator.ExmaAccelerator
.run_stream` for the request streams of **all six** engine backends:

* at window capacity W=1, every flush's run result is *byte-identical*
  (dataclass equality over every counter, cache/DRAM stat and energy
  ledger) to :meth:`ExmaAccelerator.run` on that batch's per-batch
  coalesced request list — the unwindowed path, materialised through the
  legacy object view on purpose so the columnar plumbing cannot drift;
* the scheduled request count is monotone non-increasing in W over
  aligned power-of-two capacities (a set-union guarantee: every
  2W-window merges at least as many duplicates as its two aligned
  W-windows), and cycles follow the same trend — strictly fewer at the
  widest window, with at most CYCLE_SLACK of local model noise per step
  (shifted scheduling-epoch boundaries can move row-conflict patterns
  slightly even as the stream monotonically shrinks);
* the analytic baselines' stream entry points never report a windowed
  stream slower than the unwindowed model.
"""

from __future__ import annotations

import pytest

from repro.accel import ExmaAccelerator
from repro.accel.config import ExmaAcceleratorConfig
from repro.accel.baselines import (
    CpuThroughputModel,
    SoftwareAlgorithm,
    exma_analytic_model,
    stream_merge_ratio,
)
from repro.engine import QueryEngine
from repro.engine.backends import ExmaBackend, FMIndexBackend, LisaBackend, create_backend
from repro.engine.window import CoalescingWindow
from repro.exma.mtl_index import MTLIndex
from repro.exma.table import ExmaTable
from repro.lisa.search import LisaIndex
from repro.testing import random_queries, reference_and_queries

#: Aligned power-of-two capacities (monotonicity holds along this chain).
WINDOWS = (1, 2, 4)

#: Tolerated per-step relative cycle increase (model noise; see docstring).
CYCLE_SLACK = 0.02

BACKEND_NAMES = ("fmindex", "exma", "exma-learned", "exma-mtl", "lisa", "lisa-learned")


@pytest.fixture(scope="module")
def workload():
    reference, _ = reference_and_queries(genome_length=900, seed=3)
    batches = [
        random_queries(reference, count=10, length=18, seed=10 + i) for i in range(4)
    ]
    return reference, batches


@pytest.fixture(scope="module")
def backends(workload):
    reference, _ = workload
    table = ExmaTable(reference, k=4)
    mtl = MTLIndex(table, model_threshold=8, samples_per_kmer=32, epochs=30, seed=0)
    return {
        "fmindex": FMIndexBackend(reference),
        "exma": ExmaBackend(table=table),
        "exma-learned": create_backend("exma-learned", reference, k=4, model_threshold=8),
        "exma-mtl": ExmaBackend(table=table, index=mtl),
        "lisa": LisaBackend(reference, k=3),
        "lisa-learned": LisaBackend(
            lisa_index=LisaIndex(reference, k=3, use_learned_index=True)
        ),
    }


@pytest.fixture(scope="module")
def accelerator(workload):
    reference, _ = workload
    table = ExmaTable(reference, k=4)
    config = ExmaAcceleratorConfig().with_overrides(
        base_cache_bytes=2048, index_cache_bytes=1024, cam_entries=32
    )
    return ExmaAccelerator(table, None, config)


@pytest.fixture(scope="module")
def streams(workload, backends):
    """Per-backend: the columnar request stream of every consecutive batch."""
    _, batches = workload
    per_backend = {}
    for name, backend in backends.items():
        engine = QueryEngine(backend)
        per_backend[name] = [engine.request_stream(queries)[0] for queries in batches]
    return per_backend


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestW1EqualsPerBatchPath:
    def test_flushes_byte_identical_to_per_batch_run(self, name, streams, accelerator):
        batch_streams = streams[name]
        k = accelerator._table.k
        result = accelerator.run_windowed(batch_streams, window=1)
        direct = [
            accelerator.run(
                list(flushed.requests),
                bases_processed=max(1, flushed.issued * k // 2),
            )
            for flushed in CoalescingWindow(1).stream(batch_streams)
        ]
        assert result.flushes == direct
        assert result.windows == len(batch_streams)
        assert result.batches == len(batch_streams)

    def test_aggregate_counters_are_sums(self, name, streams, accelerator):
        result = accelerator.run_windowed(streams[name], window=1)
        assert result.total_cycles == sum(r.total_cycles for r in result.flushes)
        assert result.requests == sum(r.requests for r in result.flushes)
        assert result.dram_requests == sum(r.dram_requests for r in result.flushes)
        assert result.issued >= result.requests
        assert result.merge_ratio >= 1.0
        assert result.throughput.bases_processed == result.bases_processed


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestMonotoneInCapacity:
    def test_cycles_and_requests_monotone_non_increasing(self, name, streams, accelerator):
        results = [accelerator.run_windowed(streams[name], window=w) for w in WINDOWS]
        scheduled = [r.requests for r in results]
        cycles = [r.total_cycles for r in results]
        assert scheduled == sorted(scheduled, reverse=True)
        # Cycles track the shrinking stream: non-increasing up to the
        # model-noise slack per step, and never above the W=1 anchor.
        for previous, current in zip(cycles, cycles[1:]):
            assert current <= previous * (1 + CYCLE_SLACK)
        assert cycles[-1] <= cycles[0]
        # The issued (pre-merge) accounting is capacity-invariant: every
        # row replays the same logical workload.
        assert len({r.issued for r in results}) == 1
        assert len({r.bases_processed for r in results}) == 1


class TestStreamEntryPoints:
    def test_run_windowed_equals_run_stream_on_same_flushes(self, streams, accelerator):
        batch_streams = streams["exma"]
        flushes = list(CoalescingWindow(2).stream(batch_streams))
        via_stream = accelerator.run_stream(iter(flushes))
        via_windowed = accelerator.run_windowed(batch_streams, window=2)
        assert via_windowed.flushes == via_stream.flushes
        assert via_windowed.capacity == 2
        assert via_stream.capacity is None

    def test_plain_request_sequences_accepted(self, streams, accelerator):
        batch_streams = streams["exma"]
        flushes = list(CoalescingWindow(1).stream(batch_streams))
        as_lists = [list(flushed.requests) for flushed in flushes]
        result = accelerator.run_stream(as_lists)
        assert result.windows == len(flushes)
        # Plain sequences carry no issued/batches metadata beyond length.
        assert result.issued == sum(len(requests) for requests in as_lists)

    def test_analytic_models_never_slower_with_wider_window(self, streams):
        model = exma_analytic_model()
        rates = []
        for window in WINDOWS:
            flushes = list(CoalescingWindow(window).stream(streams["exma"]))
            assert stream_merge_ratio(flushes) >= 1.0
            rates.append(model.run_stream(flushes).mbase_per_second)
        assert rates == sorted(rates)
        assert rates[0] >= model.throughput().mbase_per_second * 0.999

    def test_cpu_model_stream_entry_point(self, streams):
        model = CpuThroughputModel()
        algorithm = SoftwareAlgorithm(name="EXMA-15", symbols_per_iteration=15)
        flushes = list(CoalescingWindow(4).stream(streams["exma"]))
        windowed = model.run_stream(algorithm, flushes)
        assert windowed.bases_per_second >= model.bases_per_second(algorithm) * 0.999

    def test_coalescing_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            exma_analytic_model().throughput(coalescing_factor=0.5)
