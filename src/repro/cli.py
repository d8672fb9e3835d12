"""Command-line interface for the EXMA reproduction.

``repro-exma --help`` lists the sub-commands; ``repro-exma experiment
--help`` lists the experiments.  Neither list is repeated here: the
sub-commands are built in :func:`build_parser`, and every experiment —
its flags, its runner, its record and its failure conditions — is one
entry of :data:`repro.experiments.registry.EXPERIMENTS`, from which this
module derives one sub-parser each (``serving-bench`` is a second
spelling of the registry's ``serving`` entry).

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
from .experiments.common import scaled_config
from .experiments.record import write_record
from .experiments.registry import (
    EXPERIMENTS,
    Experiment,
    add_serving_flags,
    add_sharding_flags,
    experiment_named,
)
from .exma.table import exma_size_breakdown
from .genome.io import read_fasta
from .genome.sequence import random_genome
from .index.kstep import kstep_size_bytes
from .lisa.ipbwt import lisa_size_bytes
from .runtime import EXECUTORS

GB = 1024**3


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
    add_sharding_flags(search)

    experiment = subparsers.add_parser("experiment", help="run one paper experiment")
    names = experiment.add_subparsers(dest="name", required=True, metavar="NAME")
    for entry in EXPERIMENTS:
        _add_experiment_parser(names, entry.name, entry)
    _add_experiment_parser(subparsers, "serving-bench", experiment_named("serving"))

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
        default="thread",
        help="worker pool kind for --replay-workers (default: thread)",
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
    add_serving_flags(serve)
    add_sharding_flags(serve)

    info = subparsers.add_parser("info", help="print paper-scale size models")
    info.add_argument("--genome-length", type=int, default=3_000_000_000)
    info.add_argument("--step", type=int, default=15)
    return parser


def _add_experiment_parser(subparsers, name: str, entry: Experiment) -> None:
    """One sub-parser per registry entry: its own flags, nothing foreign."""
    parser = subparsers.add_parser(name)
    entry.add_arguments(parser)
    if entry.record is not None:
        parser.add_argument(
            "--json",
            default=None,
            metavar="PATH",
            help=f"also write the {entry.name} record to PATH as JSON",
        )
    parser.set_defaults(entry=entry)


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


def _run_registered(args: argparse.Namespace) -> int:
    """Run the registry entry the sub-parser selected."""
    entry: Experiment = args.entry
    result = entry.run(args)
    print(entry.format(result))
    if entry.record is not None and args.json:
        write_record(args.json, entry.record(result))
        print(f"wrote {args.json}")
    failures = entry.verdict(result)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve stdin queries (one per line, optionally ``tenant<TAB>query``)."""
    from .accel.config import exma_full_config
    from .accel.exma_accelerator import ExmaAccelerator
    from .engine.backends import ExmaBackend
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
        accelerator = ExmaAccelerator(table, None, scaled_config(exma_full_config()))
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
    handlers = {"search": _run_search, "serve": _run_serve, "info": _run_info}
    return handlers.get(args.command, _run_registered)(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
