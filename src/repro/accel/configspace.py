"""The accelerator design space: validated points, grids and the frontier.

The DSE harness (``repro.experiments.dse``) sweeps the microarchitecture
knobs the paper's Fig. 22 only ever moved one at a time: CAM width, the
geometry of both on-chip caches, the DRAM page policy, the MTL index
shape and the coalescing window W.  This module holds everything about
the *space* itself, independent of any workload:

* :class:`ConfigPoint` — one immutable, validated coordinate.  Cache
  geometry is expressed as (sets, ways) so every point is constructible
  by definition: ``SetAssociativeCache`` requires the capacity to be a
  multiple of ``line_bytes * ways``, and ``sets * ways * line_bytes``
  satisfies that for any positive sets/ways.  Sets and ways must be
  powers of two (real index functions decode set bits from the address).
* :func:`baseline_point` — the Table-I design (W=1), which must replay
  field-for-field identically to today's :meth:`ExmaAccelerator.run`.
* grid parsing/enumeration — ``parse_grid`` turns the CLI's
  ``"cam=64,128;base_ways=4,8"`` spec into axes, ``enumerate_grid``
  crosses them over an anchor point.
* :func:`area_proxy_mm2` — a first-order area model scaling the Table-I
  component areas with the swept structure sizes.
* :func:`pareto_frontier` — non-dominated extraction over
  maximised objective vectors, invariant under input ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .. import runtime
from ..hw.dram import PagePolicy
from ..hw.energy import EXMA_COMPONENTS
from .config import ExmaAcceleratorConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..exma.mtl_index import MTLIndex
    from ..exma.table import ExmaTable
    from .exma_accelerator import ExmaAccelerator

__all__ = [
    "AXES",
    "ConfigPoint",
    "baseline_point",
    "enumerate_grid",
    "parse_grid",
    "pareto_frontier",
    "point_from_dict",
    "point_to_dict",
    "scaled_sweep_point",
]


def _is_power_of_two(value: int) -> bool:
    return type(value) is int and value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class ConfigPoint:
    """One validated coordinate of the accelerator design space.

    Field defaults are the Table-I design: a 512-entry CAM, a 1 MB
    8-way base cache (2048 sets of 64 B lines), a 32 KB 16-way index
    cache (32 sets), dynamic page policy, the workload's default MTL
    index and no cross-batch coalescing (W=1).
    """

    cam_entries: int = 512
    base_cache_sets: int = 2048
    base_cache_ways: int = 8
    index_cache_sets: int = 32
    index_cache_ways: int = 16
    page_policy: PagePolicy = PagePolicy.DYNAMIC
    #: MTL split threshold, or ``None`` for the workload's default index.
    mtl_threshold: int | None = None
    #: Coalescing window W the workload's batch streams merge under.
    window: int = 1

    def __post_init__(self) -> None:
        for name in ("base_cache_sets", "base_cache_ways",
                     "index_cache_sets", "index_cache_ways"):
            value = getattr(self, name)
            if not _is_power_of_two(value):
                raise ValueError(f"{name} must be a power of two, got {value!r}")
        runtime.check_workers(self.cam_entries, "cam_entries")
        runtime.check_workers(self.window, "window")
        if self.mtl_threshold is not None:
            runtime.check_workers(self.mtl_threshold, "mtl_threshold")
        policy = self.page_policy
        if isinstance(policy, str):
            try:
                policy = PagePolicy(policy.lower())
            except ValueError:
                raise ValueError(
                    f"page_policy must be one of "
                    f"{[p.value for p in PagePolicy]}, got {self.page_policy!r}"
                ) from None
            object.__setattr__(self, "page_policy", policy)
        elif not isinstance(policy, PagePolicy):
            raise ValueError(f"page_policy must be a PagePolicy, got {policy!r}")

    @property
    def base_cache_bytes(self) -> int:
        """Base-cache capacity implied by the (sets, ways) geometry."""
        return self.base_cache_sets * self.base_cache_ways * _LINE_BYTES

    @property
    def index_cache_bytes(self) -> int:
        """Index-cache capacity implied by the (sets, ways) geometry."""
        return self.index_cache_sets * self.index_cache_ways * _LINE_BYTES

    @property
    def label(self) -> str:
        """Compact unique name used in reports and gate output."""
        threshold = "def" if self.mtl_threshold is None else str(self.mtl_threshold)
        return (
            f"cam{self.cam_entries}-b{self.base_cache_sets}x{self.base_cache_ways}"
            f"-i{self.index_cache_sets}x{self.index_cache_ways}"
            f"-{self.page_policy.value}-mtl{threshold}-w{self.window}"
        )

    def accelerator_config(
        self, base: ExmaAcceleratorConfig | None = None
    ) -> ExmaAcceleratorConfig:
        """Project this point onto a full accelerator configuration.

        Everything the point does not sweep (PE arrays, channels, CHAIN
        compression, two-stage scheduling, ...) is inherited from *base*
        — Table I by default, so :func:`baseline_point` maps exactly to
        ``ExmaAcceleratorConfig()``.
        """
        base = base if base is not None else ExmaAcceleratorConfig()
        line = base.cache_line_bytes
        return base.with_overrides(
            cam_entries=self.cam_entries,
            base_cache_bytes=self.base_cache_sets * self.base_cache_ways * line,
            base_cache_ways=self.base_cache_ways,
            index_cache_bytes=self.index_cache_sets * self.index_cache_ways * line,
            index_cache_ways=self.index_cache_ways,
            page_policy=self.page_policy,
        )

    def build_accelerator(
        self,
        table: "ExmaTable",
        index: "MTLIndex | None",
        base: ExmaAcceleratorConfig | None = None,
    ) -> "ExmaAccelerator":
        """Construct a fresh accelerator at this design point."""
        from .exma_accelerator import ExmaAccelerator

        return ExmaAccelerator(table, index, self.accelerator_config(base))

    def area_proxy_mm2(self) -> float:
        """First-order area of this point, in mm².

        The Table-I component inventory supplies the anchor areas; the
        three swept structures (base cache, index cache, scheduling
        queue) scale linearly with their capacity relative to the
        Table-I geometry, and the fixed-function components (inference
        engine, decompressor, scheduling/row logic, DMA) carry over
        unchanged.  A linear SRAM/CAM area model is deliberately crude —
        the proxy only has to order design points, not price silicon.
        """
        reference = _TABLE1_REFERENCE
        total = 0.0
        for spec in EXMA_COMPONENTS:
            if spec.name == "base_cache":
                total += spec.area_mm2 * self.base_cache_bytes / reference.base_cache_bytes
            elif spec.name == "index_cache":
                total += spec.area_mm2 * self.index_cache_bytes / reference.index_cache_bytes
            elif spec.name == "scheduling_queue":
                total += spec.area_mm2 * self.cam_entries / reference.cam_entries
            else:
                total += spec.area_mm2
        return total


#: Cache line size shared by every design point (Table I fixes 64 B lines;
#: the line size is not a swept knob).
_LINE_BYTES = ExmaAcceleratorConfig().cache_line_bytes


def baseline_point() -> ConfigPoint:
    """The Table-I design with W=1 — the field-for-field equality anchor."""
    return ConfigPoint()


_TABLE1_REFERENCE = ConfigPoint()


def scaled_sweep_point() -> ConfigPoint:
    """The reproduction-scale anchor the default grids perturb.

    Mirrors the :func:`repro.experiments.common.scaled_config` shrink
    (8 KB base cache, 1 KB index cache, 128-entry CAM) so toy-genome
    sweeps actually exercise capacity pressure instead of fitting
    entirely in cache.
    """
    return ConfigPoint(
        cam_entries=128,
        base_cache_sets=16,
        base_cache_ways=8,
        index_cache_sets=4,
        index_cache_ways=4,
    )


#: Grid axis names accepted by :func:`parse_grid`, mapped to the
#: :class:`ConfigPoint` field each one sweeps.
AXES: dict[str, str] = {
    "cam": "cam_entries",
    "base_sets": "base_cache_sets",
    "base_ways": "base_cache_ways",
    "index_sets": "index_cache_sets",
    "index_ways": "index_cache_ways",
    "page": "page_policy",
    "mtl": "mtl_threshold",
    "window": "window",
}


def _parse_axis_value(axis: str, text: str):
    text = text.strip()
    if axis == "page":
        return PagePolicy(text.lower())
    if axis == "mtl":
        return None if text.lower() in ("default", "none") else int(text)
    return int(text)


def parse_grid(spec: str) -> dict[str, tuple]:
    """Parse a CLI grid spec like ``"cam=64,128;base_ways=4,8"``.

    Axes are ``;``-separated ``name=v1,v2,...`` entries; the axis names
    are the keys of :data:`AXES`.  The page axis takes policy names
    (``close``/``open``/``dynamic``), the mtl axis takes thresholds or
    ``default`` (the workload's default index); everything else is an
    integer.  Values are de-duplicated preserving order.
    """
    grid: dict[str, tuple] = {}
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        name, separator, values_text = entry.partition("=")
        name = name.strip().lower()
        if not separator or name not in AXES:
            raise ValueError(
                f"unknown grid axis {name!r} (expected one of {sorted(AXES)})"
            )
        try:
            values = tuple(
                dict.fromkeys(
                    _parse_axis_value(name, part)
                    for part in values_text.split(",")
                    if part.strip()
                )
            )
        except ValueError as error:
            raise ValueError(f"bad value for grid axis {name!r}: {error}") from None
        if not values:
            raise ValueError(f"grid axis {name!r} needs at least one value")
        grid[name] = values
    if not grid:
        raise ValueError("empty grid spec")
    return grid


def enumerate_grid(
    grid: Mapping[str, Sequence], anchor: ConfigPoint | None = None
) -> list[ConfigPoint]:
    """Cross the grid axes over *anchor*, validating every point.

    Unswept fields keep the anchor's values; duplicate points (possible
    when an axis repeats the anchor value) are dropped preserving the
    first occurrence.  Every returned point passed :class:`ConfigPoint`
    validation — an invalid combination raises immediately rather than
    surfacing later inside a worker.
    """
    anchor = anchor if anchor is not None else scaled_sweep_point()
    for axis in grid:
        if axis not in AXES:
            raise ValueError(
                f"unknown grid axis {axis!r} (expected one of {sorted(AXES)})"
            )
    axes = list(grid.items())
    points: list[ConfigPoint] = []
    seen: set[ConfigPoint] = set()
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = {AXES[axis]: value for (axis, _), value in zip(axes, combo)}
        point = replace(anchor, **overrides)
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points


def point_to_dict(point: ConfigPoint) -> dict:
    """JSON-ready form of a point (page policy as its string value)."""
    record = {f.name: getattr(point, f.name) for f in fields(point)}
    record["page_policy"] = point.page_policy.value
    return record


def point_from_dict(record: Mapping) -> ConfigPoint:
    """Rebuild a validated point from :func:`point_to_dict` output."""
    kwargs = {f.name: record[f.name] for f in fields(ConfigPoint) if f.name in record}
    return ConfigPoint(**kwargs)


def pareto_frontier(vectors: Iterable[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated *vectors* (every objective maximised).

    ``a`` dominates ``b`` when ``a`` is >= ``b`` on every objective and
    strictly greater on at least one; equal vectors never dominate each
    other, so membership is a pure function of the multiset of vectors —
    invariant under input ordering (the property test's oracle).  The
    returned indices are in input order.
    """
    rows = [tuple(vector) for vector in vectors]
    frontier: list[int] = []
    for i, candidate in enumerate(rows):
        dominated = False
        for j, other in enumerate(rows):
            if j == i or other == candidate:
                continue
            if all(o >= c for o, c in zip(other, candidate)):
                dominated = True
                break
        if not dominated:
            frontier.append(i)
    return frontier
