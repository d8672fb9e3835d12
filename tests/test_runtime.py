"""The runtime plane (:mod:`repro.runtime`): the one worker-count
validator and hardware clamp, construction-time validation, and the
layering rule that keeps them in one place.

A parallel path runs only when an explicit argument asks for it; every
owner rejects a bad count or executor kind at construction, with the one
message, instead of truncating it or failing inside the first batch.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro import runtime
from repro.accel import ExmaAccelerator, ParallelReplay
from repro.engine import QueryEngine, ShardedQueryEngine
from repro.engine.backends import FMIndexBackend
from repro.exma.table import ExmaTable
from repro.experiments import run_dse
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

    @pytest.mark.parametrize("count", [-1, 1.5, 2.9, True, False, None, "2"])
    @pytest.mark.parametrize("owner", OWNERS)
    def test_non_integral_counts_rejected_not_truncated(self, owner, count):
        """Regression: ``int(count)`` used to let ``shards=2.9`` run 2
        shards and ``ServingConfig(workers=1.5)`` (or ``"2"``) validate,
        only for ``QueryService`` to die later in ``range()``."""
        with pytest.raises(ValueError, match=f"must be an integer >= 1, got {count!r}"):
            self.owners()[owner](workers=count)


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
        import repro.apps  # noqa: F401 - defines every package class
        import repro.serving  # noqa: F401

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
