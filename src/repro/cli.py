"""Command-line interface for the EXMA reproduction.

Five subcommands cover the common workflows without writing Python:

* ``repro-exma search``    — build an EXMA table over a FASTA reference (or
  a synthetic one) and run exact-match queries against it;
* ``repro-exma experiment``— run one of the per-figure experiment harnesses
  and print the paper-style output;
* ``repro-exma serve``     — run the always-on serving layer over stdin
  queries (one per line, optionally ``tenant<TAB>query``), with dynamic
  batching and per-flush accelerator replay;
* ``repro-exma serving-bench`` — measure the serving layer under open-loop
  Poisson/bursty load and record ``BENCH_serving.json``;
* ``repro-exma info``      — print the paper-scale size models for a chosen
  genome length and step number.

Example::

    repro-exma search --genome-length 50000 --queries ACGTACGTACGT TTGACCA
    repro-exma experiment fig18 --genome-length 30000
    repro-exma experiment chaos --fault-rate 0.2 --json BENCH_chaos.json
    printf 'ACGTACGT\\nTTGACCAG\\n' | repro-exma serve --genome-length 20000
    printf 'ACGTACGT\\n' | repro-exma serve --inject engine.search:raise:0.5
    repro-exma serving-bench --rate 500 --duration 1 --json BENCH_serving.json
    repro-exma info --genome-length 3000000000 --step 15
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import QueryEngine, available_backends
from .exma.table import exma_size_breakdown
from .genome.io import read_fasta
from .genome.sequence import random_genome
from .index.kstep import kstep_size_bytes
from .lisa.ipbwt import lisa_size_bytes
from .runtime import EXECUTORS

GB = 1024**3

#: Experiments runnable from the CLI, mapped to their harness entry points.
EXPERIMENT_NAMES = (
    "accel-replay",
    "chaos",
    "dse",
    "fig1",
    "fig6",
    "fig10",
    "fig13",
    "fig15-window",
    "fig18",
    "fig18-batching",
    "fig18-window",
    "fig21",
    "fig23",
    "shard-scaling",
    "table2",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-exma",
        description="EXMA (HPCA 2021) reproduction: exact-match search and experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    search = subparsers.add_parser(
        "search", help="search a query batch through the batched query engine"
    )
    search.add_argument("--reference", help="FASTA file with the reference (first record used)")
    search.add_argument(
        "--genome-length", type=int, default=50_000, help="synthetic genome length when no FASTA"
    )
    search.add_argument("--step", type=int, default=6, help="EXMA/LISA step number k")
    search.add_argument("--seed", type=int, default=0, help="synthetic genome seed")
    search.add_argument(
        "--no-index",
        action="store_true",
        help="use exact Occ resolution (downgrades learned backends to their exact variants)",
    )
    search.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="search backend (default: exma-mtl, or exma with --no-index)",
    )
    search.add_argument("--queries", nargs="+", required=True, help="DNA queries to search")
    _add_sharding_flags(search)

    experiment = subparsers.add_parser("experiment", help="run one paper experiment")
    experiment.add_argument("name", choices=EXPERIMENT_NAMES, help="experiment to run")
    experiment.add_argument("--genome-length", type=int, default=20_000)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--window",
        type=int,
        default=8,
        help="largest coalescing window W for fig15-window and fig18-window "
        "(sweeps powers of two up to W)",
    )
    experiment.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="queries per batch (default: 256 for shard-scaling, 64 for "
        "fig18-window, 2000 for accel-replay)",
    )
    experiment.add_argument(
        "--batch-count",
        type=int,
        default=None,
        help="consecutive query batches for fig18-window (default: 16)",
    )
    experiment.add_argument(
        "--query-length",
        type=int,
        default=None,
        help="query length for shard-scaling, fig18-window and accel-replay "
        "(default: 48)",
    )
    experiment.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats (best-of) for shard-scaling",
    )
    experiment.add_argument(
        "--megabase-length",
        type=int,
        default=0,
        help="accel-replay: also measure a megabase-scale row over a reference "
        "of this many bp (0 disables; the recorded benchmark uses 1000000)",
    )
    experiment.add_argument(
        "--replay-workers",
        default=None,
        metavar="N[,N...]",
        help="replay-pool workers: a comma-separated sweep for accel-replay "
        "(default: 1,2,4) or a single count for fig18-window (default: "
        "REPRO_DEFAULT_REPLAY_WORKERS or serial)",
    )
    experiment.add_argument(
        "--replay-executor",
        choices=EXECUTORS,
        default=None,
        help="worker pool kind for --replay-workers "
        "(default: REPRO_DEFAULT_EXECUTOR or thread)",
    )
    experiment.add_argument(
        "--replay-batches",
        type=int,
        default=8,
        help="accel-replay: query batches streamed through the replay-scaling "
        "sweep (each batch's flush is one parallel epoch)",
    )
    experiment.add_argument(
        "--fault-rate",
        type=float,
        default=0.2,
        help="chaos: per-probe Bernoulli fault rate for the injected scenarios",
    )
    experiment.add_argument(
        "--chaos-rate",
        type=float,
        default=400.0,
        help="chaos: mean client arrivals per second of the open-loop load",
    )
    experiment.add_argument(
        "--chaos-duration",
        type=float,
        default=0.5,
        help="chaos: offered-load horizon in seconds per scenario",
    )
    experiment.add_argument(
        "--grid",
        default=None,
        metavar="SPEC",
        help="dse: the sweep grid as ';'-separated axes, e.g. "
        '"cam=64,128;base_ways=4,8;page=close,dynamic;window=1,2;mtl=16,64" '
        "(default: the built-in 4-knob toy grid)",
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        help="dse: design-point jobs running concurrently on the worker "
        "pool (--replay-executor picks the pool kind; default: serial)",
    )
    experiment.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the shard-scaling / window-capacity / accel-replay "
        "/ dse record to PATH as JSON",
    )
    _add_sharding_flags(experiment)

    serve = subparsers.add_parser(
        "serve",
        help="serve stdin queries through the always-on dynamic-batching layer",
    )
    serve.add_argument("--reference", help="FASTA file with the reference (first record used)")
    serve.add_argument(
        "--genome-length", type=int, default=50_000, help="synthetic genome length when no FASTA"
    )
    serve.add_argument("--step", type=int, default=6, help="EXMA step number k")
    serve.add_argument("--seed", type=int, default=0, help="synthetic genome seed")
    serve.add_argument(
        "--no-accel",
        action="store_true",
        help="skip the per-flush accelerator replay (search-only service)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="batcher workers draining the shared admission queue",
    )
    serve.add_argument(
        "--replay-workers",
        type=int,
        default=1,
        help="flush-replay pool workers shared by the batcher workers "
        "(1 keeps replay inline on each batcher thread)",
    )
    serve.add_argument(
        "--replay-executor",
        choices=EXECUTORS,
        default=None,
        help="worker pool kind for --replay-workers "
        "(default: REPRO_DEFAULT_EXECUTOR or thread)",
    )
    serve.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SITE:KIND:RATE[:DELAY]",
        help="inject deterministic faults into the serving path; repeatable. "
        "SITE is one of engine.search, replay.flush, pool.submit, "
        "worker.loop; KIND is raise, delay or kill; RATE is a per-probe "
        "probability or @i,j exact probe indices",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the per-site fault-injection RNG streams",
    )
    _add_serving_flags(serve)
    _add_sharding_flags(serve)

    bench = subparsers.add_parser(
        "serving-bench",
        help="measure the serving layer under open-loop Poisson/bursty load",
    )
    bench.add_argument("--genome-length", type=int, default=20_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--step", type=int, default=6, help="EXMA step number k")
    bench.add_argument(
        "--rate", type=float, default=500.0, help="mean client arrivals per second"
    )
    bench.add_argument(
        "--duration", type=float, default=1.0, help="offered-load horizon in seconds"
    )
    bench.add_argument("--tenants", type=int, default=4, help="round-robin client tenants")
    bench.add_argument(
        "--queries-per-arrival", type=int, default=4, help="queries each arrival submits"
    )
    bench.add_argument("--query-length", type=int, default=28)
    bench.add_argument(
        "--pool-size", type=int, default=512, help="distinct queries in the Zipf pool"
    )
    bench.add_argument(
        "--zipf-s", type=float, default=1.1, help="Zipf skew exponent of the query pool"
    )
    bench.add_argument(
        "--workers",
        default="1",
        help="comma-separated batcher worker counts to sweep (e.g. 1,2,4)",
    )
    bench.add_argument(
        "--rate-sweep",
        default=None,
        metavar="MULTIPLIERS",
        help="comma-separated offered-load multipliers of --rate (e.g. "
        "1,2,4,8,16); runs the saturation sweep to the knee and records "
        "the rejection/latency-vs-load curves alongside the headline rows",
    )
    bench.add_argument(
        "--sweep-duration",
        type=float,
        default=0.5,
        help="offered-load horizon in seconds per saturation rung",
    )
    bench.add_argument(
        "--sweep-queue-capacity",
        type=int,
        default=512,
        help="admission-queue bound during the saturation sweep (tighter "
        "than --queue-capacity so the top rung actually saturates)",
    )
    bench.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the serving record to PATH as JSON",
    )
    _add_serving_flags(bench)

    info = subparsers.add_parser("info", help="print paper-scale size models")
    info.add_argument("--genome-length", type=int, default=3_000_000_000)
    info.add_argument("--step", type=int, default=15)
    return parser


def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    """The dynamic-batching knobs shared by serve and serving-bench."""
    parser.add_argument(
        "--max-batch", type=int, default=64, help="most queries per dynamic batch"
    )
    parser.add_argument(
        "--max-delay",
        type=float,
        default=0.005,
        help="admission window in seconds (longest a query waits for a batch)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=4096,
        help="bounded admission queue; submits beyond it are rejected",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=2,
        help="coalescing window W (dynamic batches merged per flush replay)",
    )


def _add_sharding_flags(parser: argparse.ArgumentParser) -> None:
    """The parallel-path knobs shared by search and experiment."""
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="split query batches across this many workers "
        "(default: REPRO_DEFAULT_SHARDS or serial)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="worker pool for --shards (default: REPRO_DEFAULT_EXECUTOR or thread)",
    )


def _load_reference(args: argparse.Namespace) -> str:
    if args.reference:
        records = read_fasta(args.reference)
        if not records:
            raise SystemExit(f"no FASTA records in {args.reference}")
        return records[0].sequence
    return random_genome(args.genome_length, seed=args.seed)


#: --no-index downgrades of the learned backends to their exact variants.
_EXACT_VARIANT = {"exma-mtl": "exma", "exma-learned": "exma", "lisa-learned": "lisa"}


def _run_search(args: argparse.Namespace) -> int:
    reference = _load_reference(args)
    backend_name = args.backend or "exma-mtl"
    if args.no_index:
        backend_name = _EXACT_VARIANT.get(backend_name, backend_name)
    kwargs: dict = {}
    if backend_name.startswith(("exma", "lisa")):
        kwargs["k"] = args.step
    if backend_name == "exma-mtl":
        kwargs.update(model_threshold=32, epochs=100)
    engine = QueryEngine.from_reference(
        reference, name=backend_name, shards=args.shards, executor=args.executor, **kwargs
    )
    print(f"reference: {len(reference):,} bp, backend {backend_name}, step k={args.step}")
    if engine.shards > 1:
        print(f"sharded: {engine.shards} shards via {engine.executor} executor")
    result = engine.search_batch(args.queries)
    for query, interval in zip(args.queries, result.intervals):
        positions = (
            engine.backend.locate(interval) if interval.count and interval.count <= 20 else []
        )
        location = f" at {positions}" if positions else ""
        print(f"  {query}: {interval.count} occurrence(s){location}")
    stats = result.stats
    print(
        f"batch: {stats.queries} queries, {stats.occ_requests_issued} Occ requests"
        f" -> {stats.occ_requests_unique} after coalescing"
        f" ({stats.coalescing_factor:.2f}x)"
    )
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    from . import experiments as ex

    name = args.name
    if name == "accel-replay":
        replay_workers = (1, 2, 4)
        if args.replay_workers:
            replay_workers = _parse_csv(args.replay_workers, int, "--replay-workers")
        result = ex.run_accel_replay(
            genome_length=args.genome_length,
            seed=args.seed,
            query_count=args.batch_size or 2000,
            query_length=args.query_length or 48,
            repeats=args.repeats,
            megabase_length=args.megabase_length,
            replay_workers=replay_workers,
            replay_executor=args.replay_executor or "thread",
            replay_batches=args.replay_batches,
        )
        print(ex.format_accel_replay(result))
        if args.json:
            ex.write_accel_replay_json(args.json, result)
            print(f"wrote {args.json}")
        if not all(row.results_equal for row in result.rows):
            print("ERROR: columnar replay diverged from the object reference")
            return 1
        if not all(row.results_equal for row in result.scaling_rows):
            print("ERROR: parallel replay diverged from the serial epoch order")
            return 1
    elif name == "chaos":
        result = ex.run_chaos(
            genome_length=args.genome_length,
            seed=args.seed,
            rate=args.chaos_rate,
            duration=args.chaos_duration,
            fault_rate=args.fault_rate,
        )
        print(ex.format_chaos(result))
        if args.json:
            ex.write_chaos_json(args.json, result)
            print(f"wrote {args.json}")
        if any(row.stranded for row in result.rows):
            print("ERROR: a chaos scenario stranded accepted queries")
            return 1
        if not result.fault_free_identical:
            print("ERROR: the fault-free scenario diverged from the clean run")
            return 1
    elif name == "dse":
        result = ex.run_dse(
            genome_length=args.genome_length,
            seed=args.seed,
            query_count=args.batch_size or 800,
            query_length=args.query_length or 48,
            batches=args.batch_count or 8,
            grid=args.grid,
            workers=args.workers or 1,
            executor=args.replay_executor or "thread",
        )
        print(ex.format_dse(result))
        if args.json:
            ex.write_dse_json(args.json, result)
            print(f"wrote {args.json}")
        if not result.baseline_matches_run:
            print("ERROR: baseline design point diverged from ExmaAccelerator.run")
            return 1
        if not all(point.rederived_equal for point in result.frontier):
            print("ERROR: a frontier point did not re-derive bit-identically")
            return 1
    elif name == "fig1":
        print(ex.format_fig1(ex.run_fig1(genome_length=args.genome_length, seed=args.seed)))
    elif name == "fig6":
        result = ex.run_fig6(genome_length=args.genome_length, seed=args.seed)
        print("CPU throughput normalised to FM-1:")
        for scheme, value in result.cpu_throughput_normalised.items():
            print(f"  {scheme:10s} {value:5.2f}x")
    elif name == "fig10":
        result = ex.run_fig10(genome_length=args.genome_length, seed=args.seed)
        print("throughput normalised to LISA-21:")
        for scheme, value in result.throughput_normalised.items():
            print(f"  {scheme:9s} {value:5.2f}x")
    elif name == "fig13":
        print(ex.format_fig13(ex.run_fig13(genome_length=args.genome_length, seed=args.seed)))
    elif name == "fig15-window":
        windows = [1]
        while windows[-1] * 2 <= max(1, args.window):
            windows.append(windows[-1] * 2)
        result = ex.run_fig15_window(
            genome_length=args.genome_length,
            seed=args.seed,
            windows=tuple(windows),
            shards=args.shards,
            executor=args.executor,
        )
        print(ex.format_fig15(result))
    elif name == "fig18":
        print(ex.format_fig18(ex.run_fig18(genome_length=args.genome_length, seed=args.seed)))
    elif name == "fig18-window":
        windows = [1]
        while windows[-1] * 2 <= max(1, args.window):
            windows.append(windows[-1] * 2)
        query_length = args.query_length or 48
        replay_workers = None
        if args.replay_workers:
            values = _parse_csv(args.replay_workers, int, "--replay-workers")
            if len(values) != 1:
                raise SystemExit("fig18-window takes a single --replay-workers count")
            replay_workers = values[0]
        result = ex.run_fig18_window(
            genome_length=args.genome_length,
            seed=args.seed,
            windows=tuple(windows),
            batch_count=args.batch_count or 16,
            batch_size=args.batch_size or 64,
            query_length=query_length,
            replay_workers=replay_workers,
            replay_executor=args.replay_executor,
        )
        print(ex.format_fig18_window(result))
        if args.json:
            ex.write_window_capacity_json(
                args.json, result, seed=args.seed, query_length=query_length
            )
            print(f"wrote {args.json}")
        if not result.w1_matches_unwindowed:
            print("ERROR: W=1 sweep diverged from the unwindowed per-batch path")
            return 1
    elif name == "fig18-batching":
        print(
            ex.format_fig18_batching(
                ex.run_fig18_batching(genome_length=args.genome_length, seed=args.seed)
            )
        )
    elif name == "shard-scaling":
        shard_counts = tuple(sorted({1, 2, args.shards or 4}))
        executors = (args.executor,) if args.executor else ("thread", "process")
        batch_size = args.batch_size or 256
        query_length = args.query_length or 48
        rows = ex.run_shard_scaling(
            genome_length=args.genome_length,
            seed=args.seed,
            shard_counts=shard_counts,
            executors=executors,
            batch_size=batch_size,
            query_length=query_length,
            repeats=args.repeats,
            include_forced=True,
        )
        print(ex.format_shard_scaling(rows))
        if args.json:
            ex.write_shard_scaling_json(
                args.json,
                rows,
                genome_length=args.genome_length,
                batch_size=batch_size,
                query_length=query_length,
                seed=args.seed,
                repeats=args.repeats,
            )
            print(f"wrote {args.json}")
    elif name == "fig21":
        for device, value in ex.run_fig21().items():
            print(f"  {device:6s} {value * 100:5.1f}%")
    elif name == "fig23":
        comparison = ex.run_fig23(genome_length=args.genome_length, seed=args.seed)
        print(f"LISA-21 + BdI  : {comparison.lisa_bdi_gb:7.1f} GB")
        print(f"EXMA-15 + CHAIN: {comparison.exma_chain_gb:7.1f} GB")
    elif name == "table2":
        print(ex.format_table2(ex.run_table2()))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve stdin queries (one per line, optionally ``tenant<TAB>query``)."""
    from .accel.config import exma_full_config
    from .accel.exma_accelerator import ExmaAccelerator
    from .engine.backends import ExmaBackend
    from .experiments.fig18_throughput import _scaled_config
    from .exma.table import ExmaTable
    from .faults import FaultPlan
    from .serving import QueryService, ServingConfig

    reference = _load_reference(args)
    table = ExmaTable(reference, k=args.step)
    engine = QueryEngine(
        ExmaBackend(table=table), shards=args.shards, executor=args.executor
    )
    accelerator = None
    if not args.no_accel:
        accelerator = ExmaAccelerator(table, None, _scaled_config(exma_full_config()))
    faults = None
    if args.inject:
        try:
            faults = FaultPlan.parse(args.inject, seed=args.fault_seed)
        except ValueError as error:
            raise SystemExit(f"invalid --inject spec: {error}")
    config = ServingConfig(
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        queue_capacity=args.queue_capacity,
        window=args.window,
        workers=args.workers,
        replay_workers=args.replay_workers,
        replay_executor=args.replay_executor,
        faults=faults,
    )
    print(
        f"serving: reference {len(reference):,} bp, k={args.step}, "
        f"batch<={config.max_batch} @ {config.max_delay * 1e3:.1f} ms, "
        f"W={config.window}, queue<={config.queue_capacity}, "
        f"workers={config.workers}, replay workers={config.replay_workers}"
        + ("" if accelerator else ", search-only")
        + (f", {len(faults.specs)} fault spec(s)" if faults else "")
    )
    submissions = []
    interrupted = False
    with QueryService(engine, accelerator, config) as service:
        try:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                tenant, _, query = line.rpartition("\t")
                tenant = tenant or "default"
                submissions.append(service.submit([query], tenant=tenant))
        except KeyboardInterrupt:
            interrupted = True
            print("\ninterrupted; draining in-flight queries...")
        service.stop()
        for ticket in submissions:
            for outcome in ticket.result(timeout=60.0):
                if outcome.ok:
                    print(
                        f"  {outcome.query}: {outcome.interval.count} occurrence(s)  "
                        f"[tenant {outcome.tenant}, batch {outcome.batch_index}, "
                        f"flush {outcome.flush_index}, {outcome.latency * 1e3:.2f} ms]"
                    )
                else:
                    print(
                        f"  {outcome.query}: {outcome.status}  "
                        f"[tenant {outcome.tenant}, {outcome.error}]"
                    )
        stats = service.stats
    print(
        f"served {stats.completed} queries in {stats.batches} dynamic batch(es), "
        f"{stats.flushes} flush replay(s); p50 "
        f"{stats.latency_percentile(50) * 1e3:.2f} ms, p99 "
        f"{stats.latency_percentile(99) * 1e3:.2f} ms"
        + (
            f"; {stats.failed} failed, {stats.cancelled} cancelled, "
            f"{stats.worker_crashes} worker crash(es)"
            if stats.failed or stats.cancelled or stats.worker_crashes
            else ""
        )
        + (" (interrupted)" if interrupted else "")
    )
    return 0


def _parse_csv(text: str, cast, flag: str) -> tuple:
    """Parse a comma-separated CLI value like ``1,2,4`` into a tuple."""
    try:
        values = tuple(cast(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"invalid {flag} value: {text!r}")
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def _run_serving_bench(args: argparse.Namespace) -> int:
    from . import experiments as ex

    workers = _parse_csv(args.workers, int, "--workers")
    result = ex.run_serving_bench(
        genome_length=args.genome_length,
        seed=args.seed,
        rate=args.rate,
        duration=args.duration,
        tenants=args.tenants,
        queries_per_arrival=args.queries_per_arrival,
        query_length=args.query_length,
        pool_size=args.pool_size,
        zipf_s=args.zipf_s,
        k=args.step,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        window=args.window,
        queue_capacity=args.queue_capacity,
        workers=workers,
    )
    print(ex.format_serving(result))
    saturation = None
    if args.rate_sweep:
        multipliers = _parse_csv(args.rate_sweep, float, "--rate-sweep")
        saturation = ex.run_saturation_sweep(
            genome_length=args.genome_length,
            seed=args.seed,
            base_rate=args.rate,
            multipliers=multipliers,
            duration=args.sweep_duration,
            tenants=args.tenants,
            queries_per_arrival=args.queries_per_arrival,
            query_length=args.query_length,
            pool_size=args.pool_size,
            zipf_s=args.zipf_s,
            k=args.step,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            window=args.window,
            queue_capacity=args.sweep_queue_capacity,
            workers=workers,
        )
        print(ex.format_saturation(saturation))
    if args.json:
        ex.write_serving_json(args.json, result, saturation=saturation)
        print(f"wrote {args.json}")
    if any(row.completed < row.accepted for row in result.rows):
        print("ERROR: accepted queries did not all complete")
        return 1
    return 0


def _run_info(args: argparse.Namespace) -> int:
    length = args.genome_length
    step = args.step
    breakdown = exma_size_breakdown(length, step)
    print(f"genome length: {length:,} bp, step k={step}")
    print(f"  k-step FM-Index (Eq. 2): {kstep_size_bytes(length, step) / GB:12.1f} GB")
    print(f"  LISA-{step}:             {lisa_size_bytes(length, step) / GB:12.1f} GB")
    print("  EXMA table:")
    print(f"    increments : {breakdown.increments / GB:8.1f} GB")
    print(f"    bases      : {breakdown.bases / GB:8.1f} GB")
    print(f"    MTL index  : {breakdown.index / GB:8.1f} GB")
    print(f"    suffix arr : {breakdown.suffix_array / GB:8.1f} GB")
    print(f"    total      : {breakdown.total / GB:8.1f} GB")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "search":
        return _run_search(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "serving-bench":
        return _run_serving_bench(args)
    if args.command == "info":
        return _run_info(args)
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
