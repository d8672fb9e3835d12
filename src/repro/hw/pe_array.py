"""The inference engine: Tangram-style processing-element arrays.

The EXMA accelerator adopts the Tangram neural-network accelerator as its
inference engine (Section IV-C1): four 8x8 PE arrays at 800 MHz, each PE an
8-bit multiply-accumulate ALU with a 32-byte register file, sharing a 16 KB
SRAM buffer per array.  The engine evaluates MTL index nodes; because those
models are tiny (a 10-neuron hidden layer plus a linear leaf), two arrays
already reach ~89 % of the four-array throughput (Fig. 22).

The model here converts a per-lookup MAC count into cycles and energy for
an arbitrary number of arrays, which is what the design-space exploration
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PEArrayConfig:
    """Geometry and per-operation cost of the inference engine."""

    arrays: int = 4
    rows: int = 8
    cols: int = 8
    clock_mhz: float = 800.0
    mac_energy_pj: float = 0.25
    buffer_kb_per_array: int = 16

    def __post_init__(self) -> None:
        if min(self.arrays, self.rows, self.cols) <= 0:
            raise ValueError("array geometry must be positive")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")

    @property
    def pes_per_array(self) -> int:
        """Processing elements in one array."""
        return self.rows * self.cols

    @property
    def total_pes(self) -> int:
        """Processing elements across all arrays."""
        return self.arrays * self.pes_per_array

    @property
    def macs_per_cycle(self) -> int:
        """Peak multiply-accumulates per cycle."""
        return self.total_pes


@dataclass(frozen=True)
class InferenceCost:
    """Cycles and energy of evaluating one MTL index lookup."""

    macs: int
    cycles: int
    energy_pj: float


class InferenceEngine:
    """Latency/energy model of MTL index inference on the PE arrays."""

    #: MACs to evaluate one shared node: 10 hidden neurons x 2 inputs, the
    #: sigmoid approximations, and the output dot product.
    SHARED_NODE_MACS = 2 * 10 + 10 + 10

    #: MACs for a linear leaf (one multiply-accumulate plus the scale).
    LEAF_MACS = 2

    def __init__(self, config: PEArrayConfig | None = None) -> None:
        self._config = config or PEArrayConfig()

    @property
    def config(self) -> PEArrayConfig:
        """The PE-array configuration."""
        return self._config

    def lookup_cost(self, shared_nodes: int = 1, leaves: int = 1) -> InferenceCost:
        """Cost of one index lookup traversing the given node counts."""
        if shared_nodes < 0 or leaves < 0:
            raise ValueError("node counts must be non-negative")
        macs = shared_nodes * self.SHARED_NODE_MACS + leaves * self.LEAF_MACS
        cycles = max(1, -(-macs // self._config.macs_per_cycle))
        energy = macs * self._config.mac_energy_pj
        return InferenceCost(macs=macs, cycles=cycles, energy_pj=energy)

    def batch_cost(self, lookups: int, shared_nodes: int = 1, leaves: int = 1) -> InferenceCost:
        """Cost of a batch of identical lookups, pipelined across arrays.

        Lookups are independent, so arrays process them concurrently; the
        cycle count is the serialised MAC work divided by the engine's
        MAC/cycle throughput.
        """
        if lookups < 0:
            raise ValueError("lookups must be non-negative")
        single = self.lookup_cost(shared_nodes, leaves)
        total_macs = single.macs * lookups
        cycles = max(1, -(-total_macs // self._config.macs_per_cycle)) if lookups else 0
        return InferenceCost(
            macs=total_macs, cycles=cycles, energy_pj=single.energy_pj * lookups
        )
