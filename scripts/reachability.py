#!/usr/bin/env python
"""Reachability audit: which functions of ``src/repro`` does no entry point run?

    python scripts/reachability.py     # exit 1 on any unexplained unreached function

Every entry of :data:`ENTRY_POINTS` — the examples, every registry
experiment at CI-smoke scale, each CLI command, the whole-stack
benchmark's smoke and the figure benchmarks — runs in its own interpreter
with a ``sitecustomize`` probe on ``PYTHONPATH``.  The probe records the
code object of every Python call (``sys.setprofile`` and
``threading.setprofile``) and writes what it saw when the process exits,
``os._exit`` included, so process-pool children report as well.

Functions are enumerated from the AST and matched on ``(file, first
line)`` — the first decorator's line, as CPython numbers a decorated
function — never on names, which collide across classes.  Abstract,
``typing.Protocol`` and ``typing.overload`` stubs are skipped: their
bodies are not meant to run.
``repro/testing.py`` is test support and is not audited.

A function no entry point reaches must be deleted, or carry a reason in
:data:`EXPLAINED` under one of :data:`REASONS`.  Explained functions that
*were* reached on this run are listed for information only: error paths
run when an injected fault happens to land, so they depend on timing.

Exit codes: 0 when every unreached function is explained, 1 otherwise,
2 when an entry point itself fails.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Modules not audited, relative to ``src/repro``.
EXCLUDED_MODULES = ("testing.py",)

#: What ``serve`` reads on standard input (every other entry ignores it).
STDIN = "ACGTACGTAC\nTTGACCAGTA\ntenant-b\tGATTACAGAT\n"

_CLI = ("-m", "repro.cli")

#: Two substrings of ``random_genome(3000, seed=2)`` (so ``search`` locates
#: them) — one a multiple of the step k=6, one not — and one absent query.
_QUERIES = ("CCGATTAAGTAACGTTTATGAAGC", "TCCATGTCTTGTT", "ACGTACGTACGT")

#: One interpreter each, in order, from the repository root.  Leading
#: ``NAME=VALUE`` tokens set environment variables; ``{tmp}`` is a
#: directory shared by the whole run (an earlier entry writes the FASTA a
#: later one reads).
ENTRY_POINTS: tuple[tuple[str, ...], ...] = (
    ("examples/quickstart.py",),
    ("examples/accelerator_comparison.py",),
    ("examples/assembly_and_compression.py",),
    ("examples/read_alignment.py",),
    # Every registry entry; the record-bearing ones at their CI smoke rows.
    (*_CLI, "experiment", "chaos", "--genome-length", "8000", "--rate", "300",
     "--duration", "0.3", "--json", "{tmp}/chaos.json"),
    (*_CLI, "experiment", "dse", "--genome-length", "8000", "--workers", "2",
     "--json", "{tmp}/dse.json"),
    (*_CLI, "experiment", "dse", "--genome-length", "6000", "--query-length", "24",
     "--batch-count", "2", "--grid", "cam=64,128;page=close,dynamic;window=1;mtl=16"),
    (*_CLI, "experiment", "fig1", "--genome-length", "8000"),
    (*_CLI, "experiment", "fig6", "--genome-length", "8000"),
    (*_CLI, "experiment", "fig10", "--genome-length", "8000"),
    (*_CLI, "experiment", "fig13", "--genome-length", "8000"),
    (*_CLI, "experiment", "fig15-window", "--genome-length", "8000", "--window", "4"),
    (*_CLI, "experiment", "fig18", "--genome-length", "8000"),
    (*_CLI, "experiment", "fig18-window", "--genome-length", "8000", "--window", "8",
     "--json", "{tmp}/window.json"),
    (*_CLI, "experiment", "fig21"),
    (*_CLI, "experiment", "fig23", "--genome-length", "8000"),
    (*_CLI, "serving-bench", "--genome-length", "8000", "--rate", "400", "--duration", "1.0",
     "--workers", "1,2", "--rate-sweep", "1,4,32", "--sweep-duration", "0.25",
     "--sweep-queue-capacity", "256", "--json", "{tmp}/serving.json"),
    (*_CLI, "experiment", "scaling", "--genome-length", "20000", "--batch-size", "1000",
     "--repeats", "3", "--json", "{tmp}/scaling.json"),
    # Both layers on process workers alone, and every compiled kernel's
    # spec: the stack trains an MTL index, and the sweep replays.
    (*_CLI, "experiment", "scaling", "--genome-length", "8000", "--batch-size", "400",
     "--repeats", "1", "--workers", "2", "--executor", "process"),
    ("REPRO_PURE_PYTHON=1", *_CLI, "experiment", "scaling", "--genome-length", "4000",
     "--batch-size", "200", "--repeats", "1", "--workers", "2", "--executor", "thread"),
    (*_CLI, "experiment", "table2"),
    # search: every backend, a sharded batch, and a FASTA reference.
    *(
        (*_CLI, "search", "--genome-length", "3000", "--seed", "2", "--backend", backend,
         "--queries", *_QUERIES)
        for backend in ("fmindex", "exma", "exma-learned", "exma-mtl", "lisa", "lisa-learned")
    ),
    (*_CLI, "search", "--genome-length", "3000", "--seed", "2", "--no-index", "--shards", "3",
     "--queries", *_QUERIES),
    ("-c", "from repro.genome.io import FastaRecord, write_fasta; "
     "from repro.genome.sequence import random_genome; "
     "write_fasta('{tmp}/ref.fa', [FastaRecord('chr1', random_genome(3000, seed=2))])"),
    (*_CLI, "search", "--reference", "{tmp}/ref.fa", "--backend", "exma", "--queries", *_QUERIES),
    # serve: plain, every pool on, and under injected faults.
    (*_CLI, "serve", "--genome-length", "4000"),
    (*_CLI, "serve", "--genome-length", "4000", "--workers", "2", "--shards", "2",
     "--replay-workers", "2"),
    (*_CLI, "serve", "--genome-length", "4000", "--inject", "engine.search:raise:@0",
     "--inject", "replay.flush:raise:0.5"),
    (*_CLI, "info"),
    ("bench/run.py", "--smoke"),
    ("-m", "pytest", "benchmarks", "--benchmark-disable", "-q", "-p", "no:cacheprovider"),
    # serve with a search fault on every probe: each bisection leaf fails
    # and is quarantined, so the failure paths run on every audit (the
    # random faults above land on an in-flight batch only by chance).
    (*_CLI, "serve", "--genome-length", "4000", "--inject", "engine.search:raise:1"),
)

#: The reasons an unreached function may stay.
REASONS = ("oracle", "error-path", "protocol", "test-seam", "documented")

_CONVENIENCE = (
    "test-seam: one-query convenience over search_batch that about 100 test "
    "call sites drive; whether to keep it is a decision of its own"
)

_ONE_QUERY = (
    "test-seam: one query through the scalar search, as the cross-structure agreement "
    "tests (tests/test_integration.py, tests/test_exma_search.py, tests/test_lisa.py) drive it"
)

#: ``"module.py:Qual.name"`` (relative to ``src/repro``) -> ``"reason: why"``;
#: the reason opens with one of :data:`REASONS`.
EXPLAINED: dict[str, str] = {
    # oracle: a test compares a production path against it.
    "accel/configspace.py:point_from_dict": "oracle: tests/test_dse.py round-trips every "
    "point_to_dict record through it",
    "apps/smith_waterman.py:smith_waterman": "oracle: the full-matrix Smith-Waterman the "
    "banded version is checked against (tests/test_smith_waterman.py)",
    "engine/coalesce.py:BatchStats.merge": "oracle: the naive per-shard merge "
    "tests/test_sharded.py sets against the trace-based shard merge",
    "exma/table.py:ExmaTable.prefix_interval": "oracle: the one-tail step _lockstep_spec "
    "runs, which the compiled lockstep pass is checked against (tests/test_jit_fallback.py); "
    "also the tail step of the sequential ExmaSearch (tests/test_exma_search.py)",
    "genome/alphabet.py:decode": "oracle: inverts encode in tests/test_alphabet.py (a search "
    "batch with partial-chunk tails also reaches it)",
    "genome/alphabet.py:gc_content": "oracle: tests/test_sequence.py checks random_genome's "
    "GC bias with it",
    "hw/dram.py:MemoryTrace.from_requests": "oracle: columns of a plain request list, so "
    "tests check process_columns against process (tests/test_jit_fallback.py)",
    "hw/dram.py:rows_for_bytes": "oracle: the per-request row span the vectorised row "
    "expansion is checked against (tests/test_accel_replay.py)",
    "hw/scheduler.py:FrFcfsScheduler.__init__": "oracle: the FR-FCFS baseline the "
    "two-stage scheduler is compared with (tests/test_cache_cam_scheduler.py)",
    "hw/scheduler.py:FrFcfsScheduler.batch_size": "oracle: the FR-FCFS baseline the "
    "two-stage scheduler is compared with (tests/test_cache_cam_scheduler.py)",
    "hw/scheduler.py:FrFcfsScheduler.schedule": "oracle: the FR-FCFS baseline the "
    "two-stage scheduler is compared with (tests/test_cache_cam_scheduler.py)",
    "index/bwt.py:bwt": "oracle: tests/test_bwt.py checks bwt_from_suffix_array, the "
    "FM-Index's path, against this rotation sort",
    "index/bwt.py:inverse_bwt": "oracle: round-trips the BWT in tests/test_bwt.py",
    "index/fmindex.py:FMIndex.find": "oracle: the scalar FM-Index search the engine's "
    "find_batch is compared against (tests/test_engine.py)",
    "index/fmindex.py:FMIndex.occurrence_count": "oracle: the scalar FM-Index count the "
    "EXMA and LISA searches are compared against",
    "index/fmindex.py:FMIndex.maximal_exact_matches": "oracle: the scalar MEM finder "
    "maximal_exact_matches_batch is compared against (tests/test_engine.py)",
    "index/fmindex.py:Seed.length": "oracle: part of maximal_exact_matches' result",
    "index/suffix_array.py:naive_suffix_array": "oracle: the comparison sort the "
    "prefix-doubling suffix array is checked against (tests/test_suffix_array.py)",
    "lisa/search.py:LisaIndex._lower_bound_padded": "oracle: the partial-chunk step of "
    "LISA's scalar search, which the lockstep lisa backend is compared against "
    "(tests/test_engine.py)",
    # error-path: runs only when something fails.
    "accel/parallel.py:ParallelReplay.degraded": "error-path: set once a broken pool "
    "made replay fall back inline",
    "accel/parallel.py:_exit_worker": "error-path: the kill fault's process-pool worker "
    "exit",
    "runtime.py:BackendWorkerPool._note_pool_failure": "error-path: a pool submission "
    "failed",
    "runtime.py:BackendWorkerPool.degraded": "error-path: a broken pool fell back inline",
    "runtime.py:BackendWorkerPool.rebuilt": "error-path: a broken pool was rebuilt",
    "serving/service.py:TenantQueues.clear": "error-path: stop(drain=False) and a crashed "
    "service drop what is queued",
    "serving/workers.py:BatcherWorker._degraded_replay": "error-path: a flush replay "
    "failed past its retries; reached only when an injected fault lands on it",
    # protocol: what an ABC, the with statement or pickle calls.
    "accel/exma_accelerator.py:ExmaAccelerator.__getstate__": "protocol: pickle; keeps "
    "the worker pool out of a pickled accelerator",
    "engine/backends.py:FMIndexBackend.reference_length": "protocol: abstract in the "
    "SearchBackend ABC",
    "engine/backends.py:LisaBackend.reference_length": "protocol: abstract in the "
    "SearchBackend ABC",
    "lisa/ipbwt.py:IPBWT.reference_length": "protocol: what LisaBackend.reference_length, "
    "abstract in the SearchBackend ABC, returns",
    "engine/coalesce.py:RequestStream.__getitem__": "protocol: abstract in the Sequence ABC",
    "engine/coalesce.py:RequestStream.__iter__": "protocol: Sequence iteration over the "
    "lazy object view (tests/test_coalescing.py TestRequestStream); the replay reads columns",
    "runtime.py:PoolOwner.__enter__": "protocol: the with statement",
    "runtime.py:PoolOwner.__exit__": "protocol: the with statement",
    # test-seam: a test observes or drives the system through it.
    "accel/parallel.py:ParallelReplay.workers": "test-seam: pool width the parallel "
    "replay tests read",
    "apps/alignment.py:ReadAligner.align_read": "test-seam: one read through the batched "
    "aligner, for the alignment tests",
    "engine/backends.py:ExmaBackend.index": "test-seam: tests read the backend's MTL index",
    "engine/backends.py:ExmaBackend.table": "test-seam: tests read the backend's EXMA table",
    "engine/engine.py:QueryEngine.count_batch": _CONVENIENCE,
    "engine/engine.py:QueryEngine.find": _CONVENIENCE,
    "engine/engine.py:QueryEngine.occurrence_count": _CONVENIENCE,
    "engine/engine.py:QueryEngine.search": _CONVENIENCE,
    "exma/search.py:ExmaSearch.find": _ONE_QUERY,
    "exma/search.py:ExmaSearch.occurrence_count": _ONE_QUERY,
    "lisa/search.py:LisaIndex.find": _ONE_QUERY,
    "lisa/search.py:LisaIndex.occurrence_count": _ONE_QUERY,
    "engine/coalesce.py:BatchStats.mean_error": "test-seam: tests read the mean learned-"
    "index error of a batch",
    "engine/sharded.py:ShardedQueryEngine.search_batch_per_shard": "test-seam: the "
    "per-shard results tests/test_sharded.py merges naively",
    "engine/window.py:CoalescingWindow.pending": "test-seam: tests read the unflushed "
    "batch count",
    "exma/mtl_index.py:MTLIndex.table": "test-seam: tests read the indexed table",
    "exma/search.py:ExmaSearch.table": "test-seam: tests read the searched table",
    "faults.py:FaultInjector.injected": "test-seam: the fault tests count landed faults",
    "faults.py:FaultInjector.probes": "test-seam: the fault tests count probes",
    "hw/scheduler.py:ScheduledBatch.__len__": "test-seam: tests size the scheduled batches",
    "index/fmindex.py:FMIndex.bwt": "test-seam: tests read the BWT string",
    "runtime.py:BackendWorkerPool.active": "test-seam: tests check a pool was (not) "
    "created",
    "runtime.py:PoolOwner.worker_pool": "test-seam: tests reach the owned pool",
    "serving/service.py:QueryService.engine": "test-seam: tests read the served engine",
    "serving/service.py:QueryService.replay": "test-seam: tests read the shared replay pool",
    "serving/service.py:QueryService.workers": "test-seam: tests read the batcher workers",
    "serving/service.py:QueryService.worker_results": "test-seam: per-worker replay "
    "records the serving tests compare with the offline replay",
    "serving/service.py:TenantQueues.active": "test-seam: tests read the ring size",
    "serving/service.py:TenantQueues.tenants": "test-seam: tests read the ring order",
    "serving/workers.py:BatcherWorker.result": "test-seam: one worker's replay record, "
    "read through QueryService.worker_results",
}

#: The ``sitecustomize`` every entry point's interpreter imports at start
#: (``{out}``: where records go; ``{package}``: the audited directory).  A
#: forked pool worker inherits it, and leaves through ``os._exit``.
_PROBE = '''\
import atexit, os, sys, threading

OUT, PACKAGE = {out!r}, {package!r}
_seen = dict()


def _probe(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.setdefault(id(code), code)


def _dump():
    path = os.path.join(OUT, "%d-%d.txt" % (os.getpid(), len(_seen)))
    with open(path, "w", encoding="utf-8") as handle:
        for code in list(_seen.values()):
            if code.co_filename.startswith(PACKAGE):
                handle.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))


def _exit(status, _exit=os._exit):
    _dump()
    _exit(status)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_probe)
threading.setprofile(_probe)
'''

_SKIPPED_DECORATORS = ("abstractmethod", "overload")


def _name_of(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(absolute file, first line) -> ("module.py:Qual.name", lines)``
    for every audited function of the package, by AST."""
    functions: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node: ast.AST, path: pathlib.Path, qualname: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not {_name_of(base) for base in child.bases} & {"Protocol"}:
                    visit(child, path, (*qualname, child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = (*qualname, child.name)
                skipped = {_name_of(d) for d in child.decorator_list}
                if not skipped & set(_SKIPPED_DECORATORS):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    relative = path.relative_to(PACKAGE).as_posix()
                    functions[(str(path), first)] = (
                        f"{relative}:{'.'.join(name)}", child.end_lineno - first + 1
                    )
                visit(child, path, name)
            else:
                visit(child, path, qualname)

    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() not in EXCLUDED_MODULES:
            visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return functions


def _command(argv: tuple[str, ...], tmp: str) -> tuple[dict, list[str]]:
    """Split leading ``NAME=VALUE`` tokens off *argv*; fill in ``{tmp}``."""
    tokens = [token.replace("{tmp}", tmp) for token in argv]
    env = {}
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        name, _, value = tokens.pop(0).partition("=")
        env[name] = value
    return env, [sys.executable, *tokens]


def run_entry_points(entry_points, work: pathlib.Path) -> set[tuple[str, int]]:
    """Run each entry point under the probe; the ``(file, line)`` pairs of
    every package function any of them called."""
    probe, out, tmp = work / "probe", work / "seen", work / "tmp"
    for folder in (probe, out, tmp):
        folder.mkdir()
    (probe / "sitecustomize.py").write_text(
        _PROBE.format(out=str(out), package=str(PACKAGE) + os.sep), encoding="utf-8"
    )
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(
        [str(probe), str(ROOT / "src"), *filter(None, [base.get("PYTHONPATH")])]
    )
    for index, argv in enumerate(entry_points, 1):
        extra, command = _command(argv, str(tmp))
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env={**base, **extra}, input=STDIN, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        elapsed = time.perf_counter() - started
        print(f"[{index:2d}/{len(entry_points)}] {elapsed:5.1f} s  {' '.join(argv)}", flush=True)
        if done.returncode:
            print(done.stdout[-4000:], file=sys.stderr)
            print(f"entry point failed (exit {done.returncode})", file=sys.stderr)
            raise SystemExit(2)
    seen = set()
    for record in out.iterdir():
        for line in record.read_text(encoding="utf-8").splitlines():
            path, _, first = line.rpartition(":")
            seen.add((path, int(first)))
    return seen


def _count(functions) -> str:
    functions = list(functions)
    return f"{len(functions)} functions ({sum(lines for _name, lines in functions)} lines)"


def main() -> int:
    functions = defined_functions()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reachability-") as work:
        seen = run_entry_points(ENTRY_POINTS, pathlib.Path(work))
    unreached = [functions[key] for key in functions if key not in seen]
    print(
        f"\n{len(ENTRY_POINTS)} entry points in {time.perf_counter() - started:.0f} s: "
        f"{_count(functions.values())} defined, {_count(unreached)} never called"
    )
    reached_names = {functions[key][0] for key in functions if key in seen}
    for name in sorted(reached_names & set(EXPLAINED)):
        print(f"  explained but reached this run: {name}  ({EXPLAINED[name]})")
    unexplained = sorted((name, lines) for name, lines in unreached if name not in EXPLAINED)
    for name, lines in unexplained:
        print(f"  UNREACHED: {name}  ({lines} lines)")
    if unexplained:
        print(f"{len(unexplained)} unreached function(s) without a reason in EXPLAINED")
        return 1
    print("every unreached function is explained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
