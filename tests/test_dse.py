"""Design-space exploration suite: ConfigPoint validation, the Pareto
frontier's permutation invariance, grid parsing, and the end-to-end
harness contract (baseline equals ``run``, frontier re-derivable), plus
the registered ``dse`` CI gate over a freshly written record.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import ExmaAcceleratorConfig
from repro.accel.configspace import (
    AXES,
    ConfigPoint,
    baseline_point,
    enumerate_grid,
    parse_grid,
    pareto_frontier,
    point_from_dict,
    point_to_dict,
)
from repro.experiments import dse as dse_module
from repro.experiments import write_record
from repro.experiments.dse import FrontierPoint, run_dse
from repro.hw.dram import PagePolicy

#: Cache geometry fields that must be powers of two.
GEOMETRY_FIELDS = (
    "base_cache_sets",
    "base_cache_ways",
    "index_cache_sets",
    "index_cache_ways",
)

non_power_of_two = st.integers(min_value=2, max_value=1 << 14).filter(
    lambda value: value & (value - 1) != 0
)

objective_vectors = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-6, max_value=0),
        st.integers(min_value=-6, max_value=0),
    ),
    min_size=1,
    max_size=12,
)


class TestConfigPointValidation:
    @pytest.mark.parametrize("field_name", GEOMETRY_FIELDS)
    @given(value=non_power_of_two)
    @settings(max_examples=30, deadline=None)
    def test_rejects_non_power_of_two_geometry(self, field_name, value):
        with pytest.raises(ValueError):
            ConfigPoint(**{field_name: value})

    @pytest.mark.parametrize("field_name", GEOMETRY_FIELDS)
    @given(exponent=st.integers(min_value=0, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_accepts_power_of_two_geometry(self, field_name, exponent):
        point = ConfigPoint(**{field_name: 1 << exponent})
        assert getattr(point, field_name) == 1 << exponent

    @pytest.mark.parametrize("field_name", ("cam_entries", "window"))
    @pytest.mark.parametrize("value", (0, -1, -512))
    def test_rejects_non_positive_counts(self, field_name, value):
        with pytest.raises(ValueError):
            ConfigPoint(**{field_name: value})

    @pytest.mark.parametrize(
        "field_name",
        ("cam_entries", "window", "mtl_threshold", "base_cache_ways", "index_cache_sets"),
    )
    @pytest.mark.parametrize("value", (True, 2.0, "64"), ids=("bool", "float", "str"))
    def test_rejects_non_integers(self, field_name, value):
        # True once passed as a 1 and only failed when projected onto an
        # accelerator configuration.
        with pytest.raises(ValueError, match=field_name):
            ConfigPoint(**{field_name: value})

    def test_baseline_is_table1(self):
        assert baseline_point().accelerator_config() == ExmaAcceleratorConfig()

    def test_roundtrips_through_dict(self):
        for point in enumerate_grid(parse_grid("cam=64,512;page=close,dynamic")):
            assert point_from_dict(point_to_dict(point)) == point


class TestParetoFrontier:
    @given(vectors=objective_vectors, permutation=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_membership_invariant_under_permutation(self, vectors, permutation):
        """Permutation oracle: which *vectors* survive must not depend on
        the order they were offered in (ties never dominate, so equal
        vectors all survive together)."""
        shuffled = list(vectors)
        permutation.shuffle(shuffled)
        original = sorted(vectors[i] for i in pareto_frontier(vectors))
        reordered = sorted(shuffled[i] for i in pareto_frontier(shuffled))
        assert original == reordered

    @given(vectors=objective_vectors)
    @settings(max_examples=40, deadline=None)
    def test_frontier_is_nonempty_and_undominated(self, vectors):
        indices = pareto_frontier(vectors)
        assert indices, "a non-empty input always has a maximum"
        for i in indices:
            for other in vectors:
                if other != vectors[i]:
                    assert not all(o >= c for o, c in zip(other, vectors[i]))

    def test_dominated_point_is_dropped(self):
        vectors = [(2.0, -1.0, -1.0), (1.0, -2.0, -1.0), (3.0, -1.0, -1.0)]
        assert pareto_frontier(vectors) == [2]


class TestGridParsing:
    def test_parses_every_axis(self):
        grid = parse_grid(
            "cam=64,128;base_sets=16;base_ways=4,8;index_sets=4;index_ways=4;"
            "page=close,dynamic;mtl=default,16;window=1,2"
        )
        assert set(grid) == set(AXES)
        assert grid["page"] == (PagePolicy.CLOSE, PagePolicy.DYNAMIC)
        assert grid["mtl"] == (None, 16)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            parse_grid("cam=64;rowbuffer=2")

    def test_deduplicates_preserving_order(self):
        assert parse_grid("cam=128,64,128")["cam"] == (128, 64)

    def test_enumerate_includes_every_combination(self):
        points = enumerate_grid(parse_grid("cam=64,128;window=1,2"))
        assert len(points) == 4
        assert {(p.cam_entries, p.window) for p in points} == {
            (64, 1), (64, 2), (128, 1), (128, 2)
        }


TOY_SWEEP = dict(
    genome_length=4000,
    query_count=120,
    query_length=32,
    batches=3,
    mtl_epochs=10,
    grid="cam=64,128;window=1,2",
)


@pytest.fixture(scope="module")
def toy_dse():
    return run_dse(**TOY_SWEEP, workers=2)


#: Set by the kill test before the process pool forks its workers (which
#: inherit it): the sweep's parent pid and a marker file recording that
#: the one kill has been spent.
_KILL_ONCE: dict = {}
_real_dse_job = dse_module.run_dse_job


def _dse_job_killing_one_worker(workload, point):
    """``run_dse_job``, except the first call to land on a pool worker
    takes that worker process down mid-sweep."""
    marker = _KILL_ONCE["marker"]
    if os.getpid() != _KILL_ONCE["parent"] and not marker.exists():
        marker.touch()
        os._exit(17)
    return _real_dse_job(workload, point)


class TestDseHarness:
    def test_baseline_reproduces_run(self, toy_dse):
        assert toy_dse.baseline_matches_run

    def test_frontier_nonempty_and_rederivable(self, toy_dse):
        assert toy_dse.frontier
        assert all(point.rederived_equal for point in toy_dse.frontier)

    def test_frontier_rows_are_undominated(self, toy_dse):
        vectors = [row.objectives() for row in toy_dse.rows]
        frontier = {toy_dse.rows[i].label for i in pareto_frontier(vectors)}
        assert {point.label for point in toy_dse.frontier} == frontier
        assert set(toy_dse.frontier_labels) == frontier

    def test_exactly_one_baseline_row(self, toy_dse):
        assert sum(1 for row in toy_dse.rows if row.baseline) == 1

    def test_sweep_survives_a_killed_process_worker(self, toy_dse, tmp_path, monkeypatch):
        """Regression: the sweep used to gather bare futures, so one dead
        process worker raised BrokenProcessPool out of the whole sweep.
        Through the pool's ladder the broken executor is rebuilt and the
        rows still equal the serial sweep's (every row is modelled, so
        the thread-pooled fixture, the serial run and the crashed run
        must all agree exactly)."""
        _KILL_ONCE.update(parent=os.getpid(), marker=tmp_path / "killed")
        monkeypatch.setattr(dse_module, "run_dse_job", _dse_job_killing_one_worker)
        crashed = run_dse(**TOY_SWEEP, workers=2, executor="process")
        assert _KILL_ONCE["marker"].exists()  # a worker really died
        monkeypatch.undo()
        serial = run_dse(**TOY_SWEEP, workers=1)
        assert crashed.rows == serial.rows == toy_dse.rows
        assert crashed.frontier == serial.frontier

    def test_dse_gate_passes_on_written_record(self, toy_dse, tmp_path, capsys, ci_gates):
        record_path = tmp_path / "dse.json"
        write_record(str(record_path), dse_module.record(toy_dse))
        assert ci_gates.main(["ci_gates.py", "--gate", f"pins={record_path}"]) == 0
        assert "OK [pins]" in capsys.readouterr().out

    def test_dse_gate_rejects_tampered_frontier(self, toy_dse, tmp_path, capsys, ci_gates):
        # Claim an extra, dominated row is on the frontier (section entry
        # and per-row flag): the writer's Pareto recomputation over the
        # rows it serialises must declare the pin false.
        off = next(row for row in toy_dse.rows if row.label not in toy_dse.frontier_labels)
        tampered = replace(
            toy_dse,
            frontier=[
                *toy_dse.frontier,
                FrontierPoint(
                    off.label, off.mbase_per_second, off.energy_per_base_nj, off.area_mm2, True
                ),
            ],
            frontier_labels=[*toy_dse.frontier_labels, off.label],
        )
        record = dse_module.record(tampered)
        assert record.broken_pins() == ["frontier.is_pareto_set"]
        record_path = tmp_path / "dse.json"
        write_record(str(record_path), record)
        assert ci_gates.main(["ci_gates.py", "--gate", f"pins={record_path}"]) == 1
        assert "pinned invariant frontier.is_pareto_set does not hold" in capsys.readouterr().err
