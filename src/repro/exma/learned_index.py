"""Naive per-k-mer learned index for the EXMA table.

Section IV-A of the paper first tries the straightforward adoption of a
learned index: for every k-mer with more than a threshold number of
increments, build an independent recursive-model index whose parameter
count follows a fixed ratio to the number of increments indexed (the same
policy LISA uses).  The paper then shows this naive index is inaccurate for
heavy k-mers (Fig. 12/13), which motivates the MTL index.

Each per-k-mer model here is a root linear model routing into linear leaf
models; k-mers below the threshold fall back to exact binary search over
their (short) increment lists, which is what both the paper's software
baseline and hardware do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lisa.learned_index import LinearModel, PredictionStats
from .table import ExmaTable

#: k-mers with at most this many increments are searched exactly.
DEFAULT_MODEL_THRESHOLD = 256

#: Increments per leaf model (the fixed parameters-to-increments ratio).
DEFAULT_INCREMENTS_PER_LEAF = 4096


@dataclass
class _PerKmerModel:
    """Root + leaves for one k-mer's increment list."""

    root: LinearModel
    leaves: list[LinearModel]
    count: int

    def predict(self, pos: float) -> int:
        """Predicted index of *pos* within the increment list."""
        bucket = int(np.clip(np.floor(self.root.predict(pos)), 0, len(self.leaves) - 1))
        predicted = self.leaves[bucket].predict(pos)
        return int(np.clip(round(float(predicted)), 0, self.count - 1))

    @property
    def parameter_count(self) -> int:
        return self.root.parameter_count + sum(leaf.parameter_count for leaf in self.leaves)


class NaiveLearnedIndex:
    """Independent learned index per k-mer of an EXMA table.

    Args:
        table: the EXMA table to index.
        model_threshold: k-mers with at most this many increments are not
            modelled (searched exactly instead).
        increments_per_leaf: fixed ratio of increments to leaf models.
    """

    def __init__(
        self,
        table: ExmaTable,
        model_threshold: int = DEFAULT_MODEL_THRESHOLD,
        increments_per_leaf: int = DEFAULT_INCREMENTS_PER_LEAF,
    ) -> None:
        if model_threshold < 0:
            raise ValueError("model_threshold must be non-negative")
        if increments_per_leaf <= 0:
            raise ValueError("increments_per_leaf must be positive")
        self._table = table
        self._threshold = model_threshold
        self._increments_per_leaf = increments_per_leaf
        self._models: dict[int, _PerKmerModel] = {}
        self._column_cache: tuple[np.ndarray, ...] | None = None
        self._fit_all()

    def _fit_all(self) -> None:
        for packed in self._table.present_kmers():
            count = self._table.frequency(packed)
            if count <= self._threshold:
                continue
            increments = self._table.increments_of(packed).astype(np.float64)
            self._models[packed] = self._fit_one(increments)

    def _fit_one(self, increments: np.ndarray) -> _PerKmerModel:
        count = increments.size
        positions = np.arange(count, dtype=np.float64)
        n_leaves = max(1, count // self._increments_per_leaf)
        root = LinearModel.fit(increments, positions * n_leaves / count)
        routed = np.clip(np.floor(root.predict(increments)).astype(np.int64), 0, n_leaves - 1)
        leaves = []
        for leaf_idx in range(n_leaves):
            mask = routed == leaf_idx
            if np.any(mask):
                leaves.append(LinearModel.fit(increments[mask], positions[mask]))
            else:
                leaves.append(LinearModel(0.0, 0.0))
        return _PerKmerModel(root=root, leaves=leaves, count=count)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def table(self) -> ExmaTable:
        """The indexed EXMA table."""
        return self._table

    @property
    def modelled_kmers(self) -> list[int]:
        """Packed codes of k-mers that have a learned model."""
        return sorted(self._models)

    @property
    def parameter_count(self) -> int:
        """Total trainable parameters across all per-k-mer models."""
        return sum(model.parameter_count for model in self._models.values())

    def has_model(self, packed: int) -> bool:
        """Whether *packed* is covered by a learned model."""
        return packed in self._models

    def predict(self, kmer: str | int, pos: int) -> int:
        """Predicted index of *pos* in the k-mer's increment list.

        Falls back to the exact answer for unmodelled k-mers (their lists
        are short enough to search directly).
        """
        packed = kmer if isinstance(kmer, int) else self._table._packed(kmer)
        model = self._models.get(packed)
        if model is None:
            return self._table.occ(packed, pos)
        return model.predict(float(pos))

    def predict_many(self, kmers: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict` over aligned k-mer/position arrays.

        Every model's root and leaves live in flat columns, so a request
        gathers its root, routes to its leaf and evaluates it elementwise
        — the same float64 arithmetic, half-to-even rounding and clip as
        the scalar path, so the results agree exactly.  Every k-mer must
        be modelled (see :meth:`modelled_lookup`).
        """
        kmers = np.asarray(kmers, dtype=np.int64)
        pos = np.asarray(positions, dtype=np.float64)
        root_slope, root_intercept, first_leaf, leaf_count, leaf_slope, leaf_intercept = (
            self._columns()
        )
        routed = np.floor(root_slope[kmers] * pos + root_intercept[kmers])
        leaf = first_leaf[kmers] + np.clip(routed, 0, leaf_count[kmers] - 1).astype(np.int64)
        predicted = np.rint(leaf_slope[leaf] * pos + leaf_intercept[leaf])
        counts = self._table.frequencies_view()[kmers]
        return np.clip(predicted, 0, counts - 1).astype(np.int64)

    def modelled_lookup(self, kmer_count: int) -> np.ndarray:
        """Boolean mask over packed codes: the array form of :meth:`has_model`."""
        if kmer_count != self._table.kmer_count:
            raise ValueError("kmer_count must match the indexed table")
        _, _, _, leaf_count, _, _ = self._columns()
        return leaf_count > 0

    def _columns(self) -> tuple[np.ndarray, ...]:
        """Root slope/intercept, first leaf and leaf count per packed code,
        plus the concatenated leaf slopes/intercepts (lazy, cached)."""
        if self._column_cache is None:
            size = self._table.kmer_count
            root_slope = np.zeros(size, dtype=np.float64)
            root_intercept = np.zeros(size, dtype=np.float64)
            first_leaf = np.zeros(size, dtype=np.int64)
            leaf_count = np.zeros(size, dtype=np.int64)
            leaves: list[LinearModel] = []
            for packed, model in self._models.items():
                root_slope[packed] = model.root.slope
                root_intercept[packed] = model.root.intercept
                first_leaf[packed] = len(leaves)
                leaf_count[packed] = len(model.leaves)
                leaves.extend(model.leaves)
            self._column_cache = (
                root_slope,
                root_intercept,
                first_leaf,
                leaf_count,
                np.array([leaf.slope for leaf in leaves], dtype=np.float64),
                np.array([leaf.intercept for leaf in leaves], dtype=np.float64),
            )
        return self._column_cache

    def lookup(self, kmer: str | int, pos: int) -> tuple[int, int]:
        """Exact Occ value plus the linear-search probe distance."""
        packed = kmer if isinstance(kmer, int) else self._table._packed(kmer)
        true_index = self._table.occ(packed, pos)
        predicted = self.predict(packed, pos)
        return true_index, abs(true_index - predicted)

    def prediction_errors(
        self, packed_kmers: list[int] | None = None, samples_per_kmer: int = 200, seed: int = 0
    ) -> np.ndarray:
        """Absolute prediction errors over sampled positions of k-mers."""
        rng = np.random.default_rng(seed)
        if packed_kmers is None:
            packed_kmers = self.modelled_kmers
        errors = []
        n = self._table.reference_length
        for packed in packed_kmers:
            positions = rng.integers(0, n + 1, size=samples_per_kmer)
            for pos in positions:
                _, err = self.lookup(packed, int(pos))
                errors.append(err)
        return np.array(errors, dtype=np.float64)

    def error_stats(self, packed_kmers: list[int] | None = None, seed: int = 0) -> PredictionStats:
        """Error statistics in the format of Fig. 13."""
        return PredictionStats.from_errors(self.prediction_errors(packed_kmers, seed=seed))
