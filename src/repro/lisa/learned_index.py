"""Recursive-model learned index (RMI) used by LISA.

LISA replaces the binary search over the IP-BWT with a learned index in the
style of Kraska et al.: a small hierarchy of models where the root predicts
which second-level model to consult and the second-level model predicts the
entry's position.  If the prediction is wrong, a local linear search (an
exponential/galloping probe here) finds the true lower bound.  The paper's
critique — and the motivation for EXMA — is that this index must cover all
``|G|`` IP-BWT entries, so its per-lookup error is large (Fig. 6(c)).

The implementation is deliberately the straightforward linear-model RMI so
its error statistics can be compared against the EXMA MTL index under
identical conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearModel:
    """A 1-D linear regression ``y = slope * x + intercept``."""

    slope: float
    intercept: float

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the model."""
        return self.slope * x + self.intercept

    @staticmethod
    def fit(x: np.ndarray, y: np.ndarray) -> "LinearModel":
        """Least-squares fit; degenerate inputs produce a constant model."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.size == 0:
            return LinearModel(0.0, 0.0)
        if x.size == 1 or float(np.ptp(x)) == 0.0:
            return LinearModel(0.0, float(np.mean(y)))
        slope, intercept = np.polyfit(x, y, 1)
        return LinearModel(float(slope), float(intercept))

    @property
    def parameter_count(self) -> int:
        """Number of trainable parameters (weight + bias)."""
        return 2


@dataclass
class PredictionStats:
    """Aggregate error statistics of a learned index on its keys."""

    mean_error: float
    max_error: float
    min_error: float
    percentile_25: float
    percentile_50: float
    percentile_75: float

    @staticmethod
    def from_errors(errors: np.ndarray) -> "PredictionStats":
        """Summarise an array of absolute prediction errors."""
        errors = np.asarray(errors, dtype=np.float64)
        if errors.size == 0:
            return PredictionStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return PredictionStats(
            mean_error=float(errors.mean()),
            max_error=float(errors.max()),
            min_error=float(errors.min()),
            percentile_25=float(np.percentile(errors, 25)),
            percentile_50=float(np.percentile(errors, 50)),
            percentile_75=float(np.percentile(errors, 75)),
        )


class RecursiveModelIndex:
    """Two-level RMI over a sorted array of numeric keys.

    Args:
        keys: sorted 1-D array of keys (positions are their indices).
        fanout: number of second-level models.  The paper fixes the ratio
            between model parameters and indexed entries; callers control
            that by choosing ``fanout`` relative to ``len(keys)``.
    """

    def __init__(self, keys: np.ndarray, fanout: int = 64) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1 or keys.size == 0:
            raise ValueError("keys must be a non-empty 1-D array")
        if np.any(np.diff(keys) < 0):
            raise ValueError("keys must be sorted in non-decreasing order")
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        self._keys = keys
        self._n = int(keys.size)
        self._fanout = min(fanout, self._n)
        positions = np.arange(self._n, dtype=np.float64)
        self._root = LinearModel.fit(keys, positions * self._fanout / self._n)
        self._leaves = self._fit_leaves(positions)

    def _fit_leaves(self, positions: np.ndarray) -> list[LinearModel]:
        """Fit one linear leaf per root bucket, using root routing."""
        buckets: list[list[int]] = [[] for _ in range(self._fanout)]
        routed = np.clip(
            np.floor(self._root.predict(self._keys)).astype(np.int64), 0, self._fanout - 1
        )
        for idx, bucket in enumerate(routed):
            buckets[int(bucket)].append(idx)
        leaves = []
        for bucket in buckets:
            if bucket:
                idx = np.array(bucket)
                leaves.append(LinearModel.fit(self._keys[idx], positions[idx]))
            else:
                leaves.append(LinearModel(0.0, 0.0))
        return leaves

    def predict(self, key: float) -> int:
        """Predicted position of *key* (clamped to the valid range)."""
        bucket = int(np.clip(np.floor(self._root.predict(key)), 0, self._fanout - 1))
        predicted = self._leaves[bucket].predict(key)
        return int(np.clip(round(float(predicted)), 0, self._n - 1))

    def lookup(self, key: float) -> tuple[int, int]:
        """Exact lower-bound position of *key* plus the probe cost.

        Returns ``(position, extra_probes)`` where ``extra_probes`` is the
        number of entries inspected beyond the single predicted entry —
        the linear-search overhead the paper profiles in Fig. 6(c).
        """
        predicted = self.predict(key)
        true_pos = int(np.searchsorted(self._keys, key, side="left"))
        return true_pos, abs(true_pos - predicted)

    def prediction_errors(self, sample: int | None = None, seed: int = 0) -> np.ndarray:
        """Absolute error of the index on its own keys (optionally sampled)."""
        if sample is not None and sample < self._n:
            rng = np.random.default_rng(seed)
            idx = rng.choice(self._n, size=sample, replace=False)
        else:
            idx = np.arange(self._n)
        errors = np.empty(idx.size, dtype=np.float64)
        for i, key_idx in enumerate(idx):
            errors[i] = abs(self.predict(float(self._keys[key_idx])) - int(key_idx))
        return errors

    def error_stats(self, sample: int | None = 2000, seed: int = 0) -> PredictionStats:
        """Error statistics in the format of Fig. 6(c)."""
        return PredictionStats.from_errors(self.prediction_errors(sample=sample, seed=seed))
