"""Multi-task-learning (MTL) index for the EXMA table.

Section IV-B of the paper: instead of fitting an independent learned index
per k-mer, the MTL index shares parameters across k-mers with similar
numbers of increments (hard parameter sharing).  Each shared non-leaf node
is a small fully-connected network with 10 sigmoid neurons taking the
normalised ``pos`` (and a k-mer feature) as input and producing an estimate
of the cumulative distribution :math:`F(kmer, pos)`; the per-k-mer leaf is
a linear regression with a single weight and bias.  The predicted position
inside the k-mer's increment list is Eq. 3:

    ``p = F(kmer, pos) * f_kmer``

Training minimises the weighted multi-task loss of Eq. 4 with an Adam
optimizer (implemented here in numpy on the pooled, normalised samples).
The index is trained and evaluated on the same EXMA table, exactly as LISA
and the paper do — prediction accuracy only affects search *throughput*
(linear-probe length), never mapping correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import native
from ..lisa.learned_index import PredictionStats
from ..runtime import check_workers
from .table import ExmaTable

#: Increment-count bucket edges used to group k-mers into shared models
#: (mirrors the buckets of Fig. 12: 2-256, 256-1K, 1K-4K, ..., >1M).
DEFAULT_BUCKET_EDGES = (256, 1024, 4096, 16384, 65536, 262144, 1048576)


def _sigmoid_spec(hidden: np.ndarray, b1: np.ndarray) -> None:
    """``hidden = 1 / (1 + exp(-(hidden + b1)))`` in place: the
    specification of :func:`repro.native.sigmoid`, and its fallback."""
    hidden += b1
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)


def _sigmoid_backward_spec(
    hidden: np.ndarray, grad_pred: np.ndarray, w2: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``scratch = outer(grad_pred, w2) * hidden * (1 - hidden)``, returning
    its column sum (the gradient of ``b1``); *hidden* is consumed.  The
    specification of :func:`repro.native.sigmoid_backward`, and its
    fallback."""
    np.multiply(grad_pred[:, None], w2, out=scratch)
    scratch *= hidden
    np.subtract(1.0, hidden, out=hidden)
    scratch *= hidden
    return scratch.sum(axis=0)


#: Rows from which the hidden layer's elementwise passes run compiled.
#: Below it NumPy's passes cost less than the ctypes hand-off (≈ 6 µs:
#: pointer look-ups and two calls) — replay's per-node groups are tens of
#: rows, a training set hundreds of thousands.  The bits are the same.
COMPILED_MIN_ROWS = 1024


def _hidden_layer(
    features: np.ndarray, w1: np.ndarray, b1: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``sigmoid(features @ w1 + b1)``, compiled where it can be and pays."""
    hidden = np.matmul(features, w1, out=out)
    if len(hidden) < COMPILED_MIN_ROWS or not native.sigmoid(hidden, b1):
        _sigmoid_spec(hidden, b1)
    return hidden


@dataclass
class SharedNode:
    """One shared non-leaf node: a 10-neuron sigmoid MLP regressor.

    Maps ``(pos_norm, freq_norm)`` to an estimate of the CDF value in
    ``[0, 1]``.  Weights are trained with Adam on pooled samples from every
    k-mer assigned to the node's bucket.
    """

    hidden: int = 10
    w1: np.ndarray = field(default_factory=lambda: np.zeros((2, 10)))
    b1: np.ndarray = field(default_factory=lambda: np.zeros(10))
    w2: np.ndarray = field(default_factory=lambda: np.zeros(10))
    b2: float = 0.0

    @property
    def parameter_count(self) -> int:
        """Trainable parameters of this node."""
        return int(self.w1.size + self.b1.size + self.w2.size + 1)

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Evaluate the node on an ``(n, 2)`` feature matrix.

        The hidden layer is :meth:`train`'s, so both see the same rounding.
        """
        hidden = _hidden_layer(features, self.w1, self.b1)
        output = hidden @ self.w2
        output += self.b2
        return output

    def train(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        epochs: int = 300,
        learning_rate: float = 0.05,
        seed: int = 0,
    ) -> None:
        """Fit the node with Adam on weighted squared error (Eq. 4)."""
        rng = np.random.default_rng(seed)
        n_features = features.shape[1]
        self.w1 = rng.normal(0.0, 0.5, size=(n_features, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.normal(0.0, 0.5, size=self.hidden)
        self.b2 = 0.0

        params = [self.w1, self.b1, self.w2]
        moments_m = [np.zeros_like(p) for p in params] + [0.0]
        moments_v = [np.zeros_like(p) for p in params] + [0.0]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        twice_weights = 2.0 * (weights / weights.sum())
        # Every (n, hidden) intermediate of an epoch lives in these two.
        hidden = np.empty((features.shape[0], self.hidden))
        scratch = np.empty_like(hidden)

        for step in range(1, epochs + 1):
            _hidden_layer(features, self.w1, self.b1, out=hidden)
            # Weighted MSE gradient: 2 * weights * (prediction - targets).
            grad_pred = hidden @ self.w2
            grad_pred += self.b2
            grad_pred -= targets
            grad_pred *= twice_weights
            grad_w2 = hidden.T @ grad_pred
            grad_b2 = float(grad_pred.sum())
            grad_b1 = native.sigmoid_backward(hidden, grad_pred, self.w2, scratch)
            if grad_b1 is None:
                grad_b1 = _sigmoid_backward_spec(hidden, grad_pred, self.w2, scratch)
            grad_w1 = features.T @ scratch

            grads = [grad_w1, grad_b1, grad_w2, grad_b2]
            values = [self.w1, self.b1, self.w2, self.b2]
            new_values = []
            for i, (value, grad) in enumerate(zip(values, grads)):
                moments_m[i] = beta1 * np.asarray(moments_m[i]) + (1 - beta1) * np.asarray(grad)
                moments_v[i] = beta2 * np.asarray(moments_v[i]) + (1 - beta2) * np.square(grad)
                m_hat = moments_m[i] / (1 - beta1**step)
                v_hat = moments_v[i] / (1 - beta2**step)
                new_values.append(value - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
            self.w1, self.b1, self.w2 = new_values[0], new_values[1], new_values[2]
            self.b2 = float(new_values[3])


@dataclass(frozen=True)
class LeafModel:
    """Per-k-mer leaf: one weight and one bias over the shared output."""

    weight: float
    bias: float

    def predict(self, shared_output: float, count: int) -> int:
        """Eq. 3: scale the shared CDF estimate to an increment index."""
        raw = (self.weight * shared_output + self.bias) * count
        return int(np.clip(round(raw), 0, max(0, count - 1)))


class MTLIndex:
    """The MTL-based index over an EXMA table.

    Args:
        table: the EXMA table to index.
        bucket_edges: increment-count boundaries grouping k-mers into
            shared nodes.
        model_threshold: k-mers with at most this many increments are
            searched exactly (no model), matching the paper's >256 rule.
        samples_per_kmer: training samples drawn from each k-mer.
        epochs: Adam epochs per shared node.

    Raises:
        ValueError: *samples_per_kmer* or *epochs* is not an integer >= 1.
    """

    def __init__(
        self,
        table: ExmaTable,
        bucket_edges: tuple[int, ...] = DEFAULT_BUCKET_EDGES,
        model_threshold: int = 256,
        samples_per_kmer: int = 256,
        epochs: int = 300,
        seed: int = 0,
    ) -> None:
        self._table = table
        self._edges = tuple(sorted(bucket_edges))
        self._threshold = model_threshold
        self._samples_per_kmer = check_workers(samples_per_kmer, "samples_per_kmer")
        self._epochs = check_workers(epochs, "epochs")
        self._seed = seed
        self._nodes: dict[int, SharedNode] = {}
        self._leaves: dict[int, LeafModel] = {}
        self._bucket_of: dict[int, int] = {}
        self._leaf_column_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._train()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def _bucket_index(self, count: int) -> int:
        """Bucket index for a k-mer with *count* increments."""
        for i, edge in enumerate(self._edges):
            if count <= edge:
                return i
        return len(self._edges)

    def _train(self) -> None:
        n = self._table.reference_length
        rng = np.random.default_rng(self._seed)

        # Group modelled k-mers by increment-count bucket.
        grouped: dict[int, list[int]] = {}
        for packed in self._table.present_kmers():
            count = self._table.frequency(packed)
            if count <= self._threshold:
                continue
            bucket = self._bucket_index(count)
            grouped.setdefault(bucket, []).append(packed)
            self._bucket_of[packed] = bucket

        increments, bases = self._table.increments, self._table.bases
        for bucket, kmers in grouped.items():
            # Draw every k-mer's sample ranks in k-mer order (the RNG stream
            # is the recipe), then build the columns in one pass each.
            counts = self._table.frequency_batch(kmers)
            takes = np.minimum(counts, self._samples_per_kmer)
            ranks = []
            for count, take in zip(counts.tolist(), takes.tolist()):
                idx = rng.choice(count, size=take, replace=False)
                idx.sort()
                ranks.append(idx)
            rank = np.concatenate(ranks)
            sample_counts = np.repeat(counts, takes)
            feature_matrix = np.empty((rank.size, 2))
            positions = increments[np.repeat(bases[kmers], takes) + rank]
            np.divide(positions.astype(np.float64), n, out=feature_matrix[:, 0])
            np.divide(sample_counts, n, out=feature_matrix[:, 1])
            target_vector = rank.astype(np.float64) / sample_counts
            # beta_i / f_i weighting of Eq. 4 with beta_i = 1.
            weight_vector = 1.0 / np.repeat(takes, takes)
            node = SharedNode()
            node.train(
                feature_matrix,
                target_vector,
                weight_vector,
                epochs=self._epochs,
                seed=self._seed + bucket,
            )
            self._nodes[bucket] = node
            # Fit the per-k-mer linear leaves on the shared output; samples
            # were drawn k-mer by k-mer, so each leaf owns one slice.
            shared_out = node.forward(feature_matrix)
            stops = np.cumsum(takes).tolist()
            for packed, start, stop in zip(kmers, [0, *stops], stops):
                self._leaves[packed] = self._fit_leaf(
                    shared_out[start:stop], target_vector[start:stop]
                )

    @staticmethod
    def _fit_leaf(shared_output: np.ndarray, cdf: np.ndarray) -> LeafModel:
        """Least-squares linear leaf mapping shared output to the CDF."""
        if shared_output.size < 2 or float(np.ptp(shared_output)) < 1e-12:
            return LeafModel(weight=1.0, bias=float(np.mean(cdf - shared_output)))
        slope, intercept = np.polyfit(shared_output, cdf, 1)
        return LeafModel(weight=float(slope), bias=float(intercept))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def table(self) -> ExmaTable:
        """The indexed EXMA table."""
        return self._table

    @property
    def modelled_kmers(self) -> list[int]:
        """Packed codes of k-mers covered by a leaf model."""
        return sorted(self._leaves)

    @property
    def shared_node_count(self) -> int:
        """Number of shared non-leaf nodes (one per increment bucket)."""
        return len(self._nodes)

    @property
    def parameter_count(self) -> int:
        """Total parameters: shared nodes plus 2 per modelled k-mer."""
        shared = sum(node.parameter_count for node in self._nodes.values())
        return shared + 2 * len(self._leaves)

    def has_model(self, packed: int) -> bool:
        """Whether *packed* is covered by the MTL index."""
        return packed in self._leaves

    def predict(self, kmer: str | int, pos: int) -> int:
        """Predicted index of *pos* within the k-mer's increment list."""
        packed = kmer if isinstance(kmer, int) else self._table._packed(kmer)
        count = self._table.frequency(packed)
        leaf = self._leaves.get(packed)
        if leaf is None:
            return self._table.occ(packed, pos)
        node = self._nodes[self._bucket_of[packed]]
        n = self._table.reference_length
        features = np.array([[pos / n, count / n]])
        shared_output = float(node.forward(features)[0])
        return leaf.predict(shared_output, count)

    def predict_many(self, kmers: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict` over aligned k-mer/position arrays.

        Groups the requests by shared node (bucket) with one stable
        argsort of the narrow bucket ids: each node's MLP forward pass runs
        over one contiguous slice of a feature matrix written in grouped
        order, and the per-k-mer linear leaves apply elementwise through
        gathered weight/bias/count columns — the same normalisation,
        rounding and clipping as :meth:`predict`, so the results agree
        exactly.  Every k-mer must be modelled — the lockstep search and
        the columnar replay separate unmodelled requests
        (:meth:`modelled_lookup`) before calling, the way the accelerator's
        exact-scan path does; an unmodelled one raises ``ValueError``.
        """
        kmers = np.asarray(kmers, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        size = kmers.size
        result = np.empty(size, dtype=np.int64)
        if size == 0:
            return result
        weights, biases, buckets = self._leaf_columns()
        request_buckets = buckets[kmers]
        order = np.argsort(request_buckets, kind="stable")
        grouped = request_buckets[order]
        if grouped[0] < 0:
            raise ValueError(
                "predict_many needs every k-mer modelled; separate the "
                "unmodelled ones with modelled_lookup first"
            )
        kmers = kmers[order]
        counts = self._table.frequencies_view()[kmers]
        n = self._table.reference_length
        features = np.empty((size, 2), dtype=np.float64)
        np.divide(positions[order], n, out=features[:, 0])
        np.divide(counts, n, out=features[:, 1])
        shared_output = np.empty(size, dtype=np.float64)
        bounds = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), size]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            shared_output[start:stop] = self._nodes[int(grouped[start])].forward(
                features[start:stop]
            )
        raw = weights[kmers] * shared_output
        raw += biases[kmers]
        raw *= counts
        np.rint(raw, out=raw)
        np.clip(raw, 0, np.maximum(0, counts - 1), out=raw)
        result[order] = raw
        return result

    def _leaf_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf weight/bias and bucket id per packed code (lazy, cached).

        Bucket ids are the narrowest signed type that holds every bucket
        and the ``-1`` of an unmodelled code, so grouping by them is a
        radix sort.
        """
        if self._leaf_column_cache is None:
            size = self._table.kmer_count
            weights = np.zeros(size, dtype=np.float64)
            biases = np.zeros(size, dtype=np.float64)
            buckets = np.full(
                size, -1, dtype=np.min_scalar_type(-1 - len(self._edges))
            )
            for packed, leaf in self._leaves.items():
                weights[packed] = leaf.weight
                biases[packed] = leaf.bias
            for packed, bucket in self._bucket_of.items():
                buckets[packed] = bucket
            self._leaf_column_cache = (weights, biases, buckets)
        return self._leaf_column_cache

    def modelled_lookup(self, kmer_count: int) -> np.ndarray:
        """Boolean mask over packed codes: True where a leaf model exists.

        The array form of :meth:`has_model`, sized for the table's
        ``4^k`` code space so the lockstep search and the columnar replay
        classify a whole request stream with one gather.  Every modelled
        k-mer has a bucket assignment, so the mask is the cached bucket
        column's validity.
        """
        if kmer_count != self._table.kmer_count:
            raise ValueError("kmer_count must match the indexed table")
        return self._leaf_columns()[2] >= 0

    def bucket_lookup(self, kmer_count: int) -> np.ndarray:
        """Shared-node (bucket) id per packed code, -1 where unmodelled.

        The array form of the bucket half of :meth:`node_ids_for` (the
        leaf node id is always ``shared_node_count + packed``), served
        from the same cached columns :meth:`predict_many` gathers
        through; callers must not mutate it.
        """
        if kmer_count != self._table.kmer_count:
            raise ValueError("kmer_count must match the indexed table")
        return self._leaf_columns()[2]

    def lookup(self, kmer: str | int, pos: int) -> tuple[int, int]:
        """Exact Occ value plus the linear-search probe distance."""
        packed = kmer if isinstance(kmer, int) else self._table._packed(kmer)
        true_index = self._table.occ(packed, pos)
        predicted = self.predict(packed, pos)
        return true_index, abs(true_index - predicted)

    def node_ids_for(self, kmer: str | int) -> tuple[int, ...]:
        """Identifiers of the index nodes touched by a lookup of *kmer*.

        Used by the accelerator's index cache: a lookup touches the shared
        bucket node and the k-mer's leaf.  Unmodelled k-mers touch nothing.
        """
        packed = kmer if isinstance(kmer, int) else self._table._packed(kmer)
        if packed not in self._leaves:
            return ()
        bucket = self._bucket_of[packed]
        return (bucket, self.shared_node_count + packed)

    def prediction_errors(
        self, packed_kmers: list[int] | None = None, samples_per_kmer: int = 200, seed: int = 0
    ) -> np.ndarray:
        """Absolute prediction errors over sampled positions of k-mers."""
        rng = np.random.default_rng(seed)
        if packed_kmers is None:
            packed_kmers = self.modelled_kmers
        n = self._table.reference_length
        errors = []
        for packed in packed_kmers:
            positions = rng.integers(0, n + 1, size=samples_per_kmer)
            for pos in positions:
                _, err = self.lookup(packed, int(pos))
                errors.append(err)
        return np.array(errors, dtype=np.float64)

    def error_stats(self, packed_kmers: list[int] | None = None, seed: int = 0) -> PredictionStats:
        """Error statistics in the format of Fig. 13."""
        return PredictionStats.from_errors(self.prediction_errors(packed_kmers, seed=seed))
