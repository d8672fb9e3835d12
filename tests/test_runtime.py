"""The runtime plane (:mod:`repro.runtime`): the one worker-count
validator and hardware clamp, construction-time validation, and the
layering rule that keeps them in one place.

A parallel path runs only when an explicit argument asks for it; every
owner rejects a bad count or executor kind at construction, with the one
message, instead of truncating it or failing inside the first batch.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import runtime
from repro.accel import ExmaAccelerator
from repro.accel.parallel import ParallelReplay
from repro.engine import QueryEngine
from repro.engine.backends import FMIndexBackend
from repro.engine.sharded import ShardedQueryEngine
from repro.engine.window import CoalescingWindow
from repro.exma.table import ExmaTable
from repro.experiments.dse import run_dse
from repro.serving import ServingConfig


class TestEnvFlag:
    @pytest.mark.parametrize(
        "raw, expected",
        [("1", True), ("true", True), ("YES", True), ("on", True), ("", False), ("0", False)],
    )
    def test_truthy_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv(runtime.NO_NUMBA_ENV, raw)
        assert runtime.env_flag(runtime.NO_NUMBA_ENV) is expected

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(runtime.NO_NUMBA_ENV, raising=False)
        assert not runtime.env_flag(runtime.NO_NUMBA_ENV)

    def test_no_numba_is_the_only_variable(self):
        assert runtime.ENV_VARIABLES == ("REPRO_NO_NUMBA",)


class TestResolveWorkers:
    """The one clamp rule: an explicit count is verbatim, or an upper
    bound clamped to the available CPUs."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("bound", [False, True])
    def test_policy_table(self, monkeypatch, bound, cpus):
        monkeypatch.setattr(runtime, "available_parallelism", lambda: cpus)
        expected = min(4, cpus) if bound else 4
        assert runtime.resolve_workers(4, bound=bound) == expected

    def test_serial_is_never_touched(self, monkeypatch):
        monkeypatch.setattr(runtime, "available_parallelism", lambda: 8)
        assert runtime.resolve_workers(1) == 1
        assert runtime.resolve_workers(1, bound=True) == 1

    @pytest.mark.parametrize("count", [0, 2.9, True])
    def test_invalid_explicit_count_names_the_knob(self, count):
        with pytest.raises(ValueError, match="replay_workers must be an integer >= 1"):
            runtime.resolve_workers(count, bound=True, what="replay_workers")

    def test_numpy_integers_are_counts(self):
        count = runtime.check_workers(np.int64(3))
        assert count == 3 and type(count) is int

    def test_replay_entry_points_agree(self, exma_table):
        """``ParallelReplay`` and ``run_stream`` both default to serial
        replay and honour an explicit count verbatim, host or not."""
        with ExmaAccelerator(exma_table, None) as accelerator:
            assert ParallelReplay(accelerator).workers == 1
            accelerator.run_stream(iter([[], []]))
            assert accelerator.worker_pool is None
            assert ParallelReplay(accelerator, workers=4).workers == 4
            accelerator.run_stream(iter([[], []]), replay_workers=4)
            assert accelerator.worker_pool.max_workers == 4


class TestValidateAtTheDoor:
    """Every owner rejects a bad executor or worker count at
    construction, through the one validator, with the one message —
    never inside the first pooled batch, and never by truncating it."""

    REFERENCE = "ACGTACGTACGTTTGACA" * 4

    OWNERS = [
        "QueryEngine", "ShardedQueryEngine", "ParallelReplay", "run_stream",
        "ServingConfig.workers", "ServingConfig.replay_workers", "run_dse",
    ]

    def owners(self):
        backend = FMIndexBackend(self.REFERENCE)
        accelerator = ExmaAccelerator(ExmaTable(self.REFERENCE, k=2), None)
        return {
            "QueryEngine": lambda workers=1, executor="thread": QueryEngine(
                backend, shards=workers, executor=executor
            ),
            "ShardedQueryEngine": lambda workers=1, executor="thread": ShardedQueryEngine(
                backend, shards=workers, executor=executor
            ),
            "ParallelReplay": lambda workers=1, executor="thread": ParallelReplay(
                accelerator, workers=workers, executor=executor
            ),
            "run_stream": lambda workers=1, executor="thread": accelerator.run_stream(
                iter([]), replay_workers=workers, executor=executor
            ),
            "ServingConfig.workers": lambda workers=1, executor="thread": ServingConfig(
                workers=workers, replay_executor=executor
            ),
            "ServingConfig.replay_workers": lambda workers=1, executor="thread": ServingConfig(
                replay_workers=workers, replay_executor=executor
            ),
            "run_dse": lambda workers=1, executor="thread": run_dse(
                workers=workers, executor=executor
            ),
        }

    @pytest.mark.parametrize("owner", OWNERS)
    def test_bad_knobs_rejected_at_construction(self, owner):
        build = self.owners()[owner]
        with pytest.raises(ValueError, match="unknown executor 'greenlet'; available: thread"):
            build(executor="greenlet")
        with pytest.raises(ValueError, match="must be an integer >= 1, got 0"):
            build(workers=0)

    #: Counts that take no executor, each with its floor.
    COUNTS = {
        "ServingConfig.max_batch": (lambda n: ServingConfig(max_batch=n), 1),
        "ServingConfig.queue_capacity": (lambda n: ServingConfig(queue_capacity=n), 1),
        "ServingConfig.window": (lambda n: ServingConfig(window=n), 1),
        "ServingConfig.stats_retention": (lambda n: ServingConfig(stats_retention=n), 1),
        "ServingConfig.replay_retries": (lambda n: ServingConfig(replay_retries=n), 0),
        "CoalescingWindow": (CoalescingWindow, 1),
    }

    @pytest.mark.parametrize("count", [-1, 0.5, 1.5, 2.5, 2.9, True, False, None, "2"])
    @pytest.mark.parametrize("owner", OWNERS + list(COUNTS))
    def test_non_integral_counts_rejected_not_truncated(self, owner, count):
        """Regression: ``int(count)`` used to let ``shards=2.9`` run 2
        shards and ``ServingConfig(workers=1.5)`` (or ``"2"``) validate,
        only for ``QueryService`` to die later in ``range()``; and a bare
        ``< 1`` check let ``ServingConfig(max_batch=2.5)`` form batches of
        3, ``replay_retries=0.5`` fail every flush inside its retry loop
        and ``CoalescingWindow(True)`` build a window of one."""
        if owner in self.COUNTS:
            build, floor = self.COUNTS[owner]
        else:
            build, floor = (lambda n: self.owners()[owner](workers=n)), 1
        with pytest.raises(ValueError, match=f"must be an integer >= {floor}, got {count!r}"):
            build(count)

    def test_numpy_integer_counts_accepted(self):
        config = ServingConfig(
            max_batch=np.int64(8), queue_capacity=np.int32(16), window=np.int64(2),
            stats_retention=np.int64(4), replay_retries=np.int64(0),
        )
        assert (config.max_batch, config.window, config.replay_retries) == (8, 2, 0)
        assert CoalescingWindow(np.int64(3)).capacity == 3


class TestPoolInlineAtSizeOne:
    def test_size_one_pool_never_creates_an_executor(self):
        seen = []

        def consume(payload, scale, item):
            seen.append(item)
            return payload + scale * item

        with runtime.BackendWorkerPool(100, "process", max_workers=1) as pool:
            # A lambda/closure would not even pickle: it runs inline, and
            # the stream is consumed lazily, one item at a time.
            stream = iter(range(3))
            assert pool.map_shards(consume, stream, 10) == [100, 110, 120]
            assert pool.run_one(consume, 7, 1) == 107
            assert not pool.active
        assert seen == [0, 1, 2, 7]


class TestHostBlock:
    def test_shape(self, monkeypatch):
        monkeypatch.setenv(runtime.NO_NUMBA_ENV, "1")
        block = runtime.host_block()
        assert list(block) == ["host_cpus", "available_cpus", "numba", "env"]
        assert 1 <= block["available_cpus"] <= block["host_cpus"]
        assert block["numba"] is False
        assert block["env"] == {runtime.NO_NUMBA_ENV: "1"}


class TestLayering:
    """One home, checked mechanically (AST, so an alias cannot dodge it)."""

    SRC = pathlib.Path(repro.__file__).resolve().parent

    @staticmethod
    def _mentions(tree: ast.AST) -> set[str]:
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                found.add(module)
                found.update(f"{module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                found.add(ast.unparse(node))
        return found

    def test_runtime_is_a_leaf(self):
        tree = ast.parse((self.SRC / "runtime.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not (node.module or "").startswith("repro")
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("repro") for alias in node.names)

    def test_environment_and_executors_live_only_in_runtime(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            if path.name == "runtime.py" and path.parent == self.SRC:
                continue
            for name in self._mentions(ast.parse(path.read_text())):
                parts = name.split(".")
                if "environ" in parts or "getenv" in parts or "concurrent" in parts:
                    offenders.append(f"{path.relative_to(self.SRC)}: {name}")
        assert not offenders, offenders

    def test_pool_owners_are_the_parallel_paths(self):
        """Only the engines, the accelerator and the replay driver own a
        pool: an application layers over ``search_batch`` and never
        carries a second one of its own."""
        # ``import repro`` imports no subpackage: import every module so a
        # new owner anywhere is seen.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        owners = {
            cls.__name__
            for cls in subclasses(runtime.PoolOwner)
            if cls.__module__.startswith("repro.")
        }
        assert owners == {"QueryEngine", "ShardedQueryEngine", "ExmaAccelerator", "ParallelReplay"}

    def test_engine_packages_do_not_re_export_runtime_names(self):
        import repro.engine
        import repro.engine.sharded

        for module in (repro.engine, repro.engine.sharded):
            for name in runtime.__all__:
                assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestSurface:
    """Every export has a reader: a subpackage's ``__init__`` names only
    what some reader outside the package imports through its path, and
    the scripts outside ``src/`` reach the package through those paths
    (``bench/`` excepted: it wraps deep module paths by design)."""

    SRC = TestLayering.SRC
    ROOT = pathlib.Path(__file__).resolve().parents[1]
    PACKAGES = sorted(path.parent.name for path in SRC.glob("*/__init__.py"))
    #: Top-level modules a script outside ``src/`` may import.
    MODULES = ("testing", "runtime", "cli")

    def _scripts(self, *folders: str):
        return [path for folder in folders for path in sorted((self.ROOT / folder).rglob("*.py"))]

    @staticmethod
    def _imports(path: pathlib.Path, package: tuple[str, ...] | None):
        """``(module, names)`` of every ``from`` import in *path*; relative
        ones resolved against *package* (``None``: a script, none)."""
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0:
                module = node.module
            elif package is None:
                continue
            else:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ((node.module,) if node.module else ()))
            yield module, [alias.name for alias in node.names]

    def test_every_export_has_a_non_test_reader(self):
        read: dict[str, set[str]] = {name: set() for name in self.PACKAGES}
        readers = [(path, None) for path in self._scripts("examples", "benchmarks", "bench")]
        readers += [
            (path, path.relative_to(self.SRC.parent).with_suffix("").parts[:-1])
            for path in self.SRC.rglob("*.py")
        ]
        for path, package in readers:
            for module, names in self._imports(path, package):
                parts = (module or "").split(".")
                if len(parts) == 2 and parts[0] == "repro" and parts[1] in read:
                    if package is None or package[1:2] != (parts[1],):
                        read[parts[1]].update(names)
        unread = {
            name: sorted(set(getattr(importlib.import_module(f"repro.{name}"), "__all__", ()))
                         - read[name])
            for name in self.PACKAGES
        }
        assert not any(unread.values()), unread

    def test_scripts_import_only_the_package_paths(self):
        allowed = {"repro"} | {f"repro.{name}" for name in (*self.PACKAGES, *self.MODULES)}
        offenders = []
        for path in self._scripts("examples", "benchmarks"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(self.ROOT)}: {module}"
                    for module in modules
                    if module.split(".")[0] == "repro" and module not in allowed
                ]
        assert not offenders, offenders

    def test_importing_repro_imports_no_subpackage(self):
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('repro.')))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(self.SRC.parent)},
        )
        assert loaded.stdout.strip() == "[]"
