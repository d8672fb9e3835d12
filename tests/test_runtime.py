"""The runtime plane (:mod:`repro.runtime`): environment parsing, the one
worker-count resolver, construction-time validation, and the layering
rule that keeps them in one place.

A long-lived serving process must never crash (or spam its log) because
an operator exported ``REPRO_DEFAULT_SHARDS=auto`` or typo'd the executor
name: malformed values warn exactly once per process and fall back to the
safe serial/thread defaults.
"""

from __future__ import annotations

import ast
import pathlib
import warnings

import pytest

import repro
from repro import runtime
from repro.accel import ExmaAccelerator, ParallelReplay
from repro.apps.alignment import ReadAligner
from repro.engine import QueryEngine, ShardedQueryEngine
from repro.engine.backends import FMIndexBackend
from repro.exma.table import ExmaTable
from repro.experiments import run_dse
from repro.serving import ServingConfig

WORKER_VARIABLES = (runtime.SHARDS_ENV, runtime.REPLAY_WORKERS_ENV)


@pytest.fixture(autouse=True)
def fresh_warn_state():
    """Each test sees virgin warn-once state (it is per-process otherwise)."""
    saved = set(runtime._WARNED_ENV_VALUES)
    runtime._WARNED_ENV_VALUES.clear()
    yield
    runtime._WARNED_ENV_VALUES.clear()
    runtime._WARNED_ENV_VALUES.update(saved)


@pytest.mark.parametrize("variable", WORKER_VARIABLES)
class TestEnvWorkers:
    """REPRO_DEFAULT_SHARDS and REPRO_DEFAULT_REPLAY_WORKERS share one
    parser: malformed or non-positive values warn once and fall back to
    serial — an always-on service must never crash on an operator typo."""

    def test_unset_means_serial(self, monkeypatch, variable):
        monkeypatch.delenv(variable, raising=False)
        assert runtime.env_workers(variable) == 1

    def test_blank_means_serial(self, monkeypatch, variable):
        monkeypatch.setenv(variable, "   ")
        assert runtime.env_workers(variable) == 1

    def test_valid_value_parses_with_whitespace(self, monkeypatch, variable):
        monkeypatch.setenv(variable, " 8 ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning is a failure
            assert runtime.env_workers(variable) == 8

    @pytest.mark.parametrize("raw", ["abc", "auto", "3.5", "4 shards", ""])
    def test_malformed_value_warns_and_falls_back(self, monkeypatch, variable, raw):
        monkeypatch.setenv(variable, raw)
        if not raw.strip():
            assert runtime.env_workers(variable) == 1
            return
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert runtime.env_workers(variable) == 1

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_value_warns_and_falls_back(self, monkeypatch, variable, raw):
        monkeypatch.setenv(variable, raw)
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert runtime.env_workers(variable) == 1

    def test_warns_once_per_value(self, monkeypatch, variable):
        monkeypatch.setenv(variable, "bogus")
        with pytest.warns(RuntimeWarning):
            runtime.env_workers(variable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert runtime.env_workers(variable) == 1  # second read: silent fallback
        # A *different* bad value still gets its own warning.
        monkeypatch.setenv(variable, "also-bogus")
        with pytest.warns(RuntimeWarning):
            runtime.env_workers(variable)

    def test_independent_of_the_other_toggle(self, monkeypatch, variable):
        """The two knobs are separate axes: one variable never leaks into
        the other's default."""
        (other,) = set(WORKER_VARIABLES) - {variable}
        monkeypatch.setenv(other, "8")
        monkeypatch.delenv(variable, raising=False)
        assert runtime.env_workers(variable) == 1
        monkeypatch.setenv(variable, "2")
        monkeypatch.delenv(other, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert runtime.env_workers(variable) == 2
            assert runtime.env_workers(other) == 1


class TestEnvExecutor:
    def test_unset_means_thread(self, monkeypatch):
        monkeypatch.delenv(runtime.EXECUTOR_ENV, raising=False)
        assert runtime.env_executor() == "thread"

    def test_known_values_normalise(self, monkeypatch):
        for raw, expected in [("thread", "thread"), (" Process ", "process"), ("THREAD", "thread")]:
            monkeypatch.setenv(runtime.EXECUTOR_ENV, raw)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert runtime.env_executor() == expected

    def test_unknown_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(runtime.EXECUTOR_ENV, "greenlet")
        with pytest.warns(RuntimeWarning, match="thread, process"):
            assert runtime.env_executor() == "thread"

    def test_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv(runtime.EXECUTOR_ENV, "fiber")
        with pytest.warns(RuntimeWarning):
            runtime.env_executor()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert runtime.env_executor() == "thread"


@pytest.mark.parametrize("variable", [runtime.OVERSUBSCRIBE_ENV, runtime.NO_NUMBA_ENV])
class TestEnvFlag:
    @pytest.mark.parametrize(
        "raw, expected",
        [("1", True), ("true", True), ("YES", True), ("on", True), ("", False), ("0", False)],
    )
    def test_truthy_values(self, monkeypatch, variable, raw, expected):
        monkeypatch.setenv(variable, raw)
        assert runtime.env_flag(variable) is expected

    def test_unset_is_off(self, monkeypatch, variable):
        monkeypatch.delenv(variable, raising=False)
        assert not runtime.env_flag(variable)


class TestResolveWorkers:
    """The one clamp rule: explicit counts are verbatim or an upper
    bound; environment defaults are always clamped; oversubscribe lifts
    every clamp."""

    #: (source, explicit request is an upper bound, oversubscribe) -> clamped?
    POLICY = {
        ("explicit", False, False): False,  # verbatim
        ("explicit", False, True): False,
        ("explicit", True, False): True,  # upper bound
        ("explicit", True, True): False,
        ("env", False, False): True,  # env defaults: always clamped
        ("env", False, True): False,
        ("env", True, False): True,
        ("env", True, True): False,
    }

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("source, bound, oversubscribe", list(POLICY))
    @pytest.mark.parametrize("variable", WORKER_VARIABLES)
    def test_policy_table(self, monkeypatch, variable, source, bound, oversubscribe, cpus):
        monkeypatch.setattr(runtime, "available_parallelism", lambda: cpus)
        if oversubscribe:
            monkeypatch.setenv(runtime.OVERSUBSCRIBE_ENV, "1")
        else:
            monkeypatch.delenv(runtime.OVERSUBSCRIBE_ENV, raising=False)
        monkeypatch.setenv(variable, "4" if source == "env" else "64")
        requested = 4 if source == "explicit" else None
        expected = min(4, cpus) if self.POLICY[source, bound, oversubscribe] else 4
        assert runtime.resolve_workers(requested, variable, bound=bound) == expected

    def test_serial_is_never_touched(self, monkeypatch):
        monkeypatch.setattr(runtime, "available_parallelism", lambda: 8)
        monkeypatch.delenv(runtime.SHARDS_ENV, raising=False)
        assert runtime.resolve_workers(None, runtime.SHARDS_ENV) == 1
        assert runtime.resolve_workers(1, runtime.SHARDS_ENV, bound=True) == 1

    def test_invalid_explicit_count_names_the_knob(self):
        with pytest.raises(ValueError, match="replay_workers must be >= 1"):
            runtime.resolve_workers(0, runtime.REPLAY_WORKERS_ENV, what="replay_workers")

    def test_replay_entry_points_agree(self, monkeypatch, exma_table):
        """Regression: ``ParallelReplay(workers=None)`` used to take
        REPRO_DEFAULT_REPLAY_WORKERS unclamped (64) while
        ``run_stream(replay_workers=None)`` clamped it, in the same
        process under the same environment."""
        monkeypatch.setenv(runtime.REPLAY_WORKERS_ENV, "64")
        monkeypatch.delenv(runtime.OVERSUBSCRIBE_ENV, raising=False)
        cpus = runtime.available_parallelism()
        with ExmaAccelerator(exma_table, None) as accelerator:
            driver = ParallelReplay(accelerator)
            accelerator.run_stream(iter([[], []]))
            pool = accelerator.worker_pool
            streamed = 1 if pool is None else pool.max_workers
            assert driver.workers == streamed == min(64, cpus)
            # An explicit count is still honoured verbatim, host or not.
            assert ParallelReplay(accelerator, workers=4).workers == 4
            accelerator.run_stream(iter([[], []]), replay_workers=4)
            assert accelerator.worker_pool.max_workers == 4


class TestValidateAtTheDoor:
    """Every owner rejects a bad executor or worker count at
    construction, through the one validator, with the one message —
    never inside the first pooled batch."""

    REFERENCE = "ACGTACGTACGTTTGACA" * 4

    def owners(self):
        backend = FMIndexBackend(self.REFERENCE)
        accelerator = ExmaAccelerator(ExmaTable(self.REFERENCE, k=2), None)
        return {
            "QueryEngine": lambda **kw: QueryEngine(
                backend, shards=kw.get("workers"), executor=kw.get("executor")
            ),
            "ShardedQueryEngine": lambda **kw: ShardedQueryEngine(
                backend, shards=kw.get("workers"), executor=kw.get("executor")
            ),
            "ReadAligner": lambda **kw: ReadAligner(
                self.REFERENCE, shards=kw.get("workers"), executor=kw.get("executor")
            ),
            "ParallelReplay": lambda **kw: ParallelReplay(accelerator, **kw),
            "ServingConfig": lambda **kw: ServingConfig(
                replay_workers=kw.get("workers", 1), replay_executor=kw.get("executor")
            ),
            "run_dse": lambda **kw: run_dse(
                workers=kw.get("workers", 1), executor=kw.get("executor", "thread")
            ),
        }

    @pytest.mark.parametrize(
        "owner",
        ["QueryEngine", "ShardedQueryEngine", "ReadAligner", "ParallelReplay",
         "ServingConfig", "run_dse"],
    )
    def test_bad_knobs_rejected_at_construction(self, owner):
        build = self.owners()[owner]
        with pytest.raises(ValueError, match="unknown executor 'greenlet'; available: thread"):
            build(executor="greenlet")
        with pytest.raises(ValueError, match="must be >= 1"):
            build(workers=0)

    def test_engine_construction_survives_malformed_env(self, monkeypatch):
        """A bad *environment* pair, unlike a bad argument, must yield a
        working serial engine, not an exception at construction."""
        monkeypatch.setenv(runtime.SHARDS_ENV, "not-a-number")
        monkeypatch.setenv(runtime.EXECUTOR_ENV, "greenlet")
        with pytest.warns(RuntimeWarning):
            engine = QueryEngine(FMIndexBackend("ACGTACGTACGT"))
            result = engine.search_batch(["ACGT", "TTTT"])
            assert engine.shards == 1 and engine.executor == "thread"
        assert len(result.intervals) == 2


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
        monkeypatch.setenv(runtime.SHARDS_ENV, "4")
        monkeypatch.setenv(runtime.EXECUTOR_ENV, "process")
        monkeypatch.delenv(runtime.REPLAY_WORKERS_ENV, raising=False)
        block = runtime.host_block()
        assert list(block)[:2] == ["host_cpus", "available_cpus"]
        assert 1 <= block["available_cpus"] <= block["host_cpus"]
        assert block["default_executor"] == "process"
        assert isinstance(block["numba"], bool)
        assert block["env"][runtime.SHARDS_ENV] == "4"
        assert runtime.REPLAY_WORKERS_ENV not in block["env"]
        assert set(block["env"]) <= set(runtime.ENV_VARIABLES)


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

    def test_engine_packages_do_not_re_export_runtime_names(self):
        import repro.engine
        import repro.engine.sharded

        for module in (repro.engine, repro.engine.sharded):
            for name in runtime.__all__:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
