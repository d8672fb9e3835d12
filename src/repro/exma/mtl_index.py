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

The trained index is columnar: a leaf weight, leaf bias and bucket id per
packed code, which the scalar :meth:`MTLIndex.predict` and the batched
:meth:`MTLIndex.predict_many` both read.  The leaves of a bucket are fitted
as one stacked least-squares per sample count (:func:`_fit_leaves`), bit
for bit what ``np.polyfit`` per k-mer (:func:`_fit_leaf`, the spec and
fallback) gives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import native
from ..runtime import PURE_PYTHON_ENV, check_workers, env_flag
from .learned_index import sampled_errors
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


def _fit_leaf(shared_output: np.ndarray, cdf: np.ndarray) -> tuple[float, float]:
    """Least-squares linear leaf ``(weight, bias)`` mapping shared output to
    the CDF, one ``np.polyfit`` per k-mer: the specification of
    :func:`_fit_leaves`, and its fallback."""
    if shared_output.size < 2 or float(np.ptp(shared_output)) < 1e-12:
        return 1.0, float(np.mean(cdf - shared_output))
    slope, intercept = np.polyfit(shared_output, cdf, 1)
    return float(slope), float(intercept)


#: The gufunc ``np.linalg.lstsq`` wraps (LAPACK ``dgelsd``); ``None`` where
#: this NumPy does not expose it, and every leaf then takes the spec.
_LSTSQ = getattr(getattr(np.linalg, "_umath_linalg", None), "lstsq", None)


def _fit_stack(shared_output: np.ndarray, cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.polyfit(x, y, 1)`` over each row of two ``(leaves, take)``
    arrays, in polyfit's own steps: Vandermonde, column scale, the lstsq
    gufunc with ``rcond = take·eps`` under ``lstsq``'s errstate (a LAPACK
    failure raises), unscale.  Every row gets polyfit's bits, and its
    ``RankWarning``."""
    leaves, take = shared_output.shape
    lhs = np.empty((leaves, take, 2))
    np.add(shared_output, 0.0, out=lhs[:, :, 0])
    lhs[:, :, 1] = 1.0
    scale = np.sqrt((lhs * lhs).sum(axis=1))
    lhs /= scale[:, None, :]
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        coefficients, _, rank, _ = _LSTSQ(
            lhs,
            np.add(cdf, 0.0)[:, :, None],
            take * np.finfo(np.float64).eps,
            signature="ddd->ddid",
        )
    for _ in range(np.count_nonzero(rank != 2)):
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    coefficients = coefficients[:, :, 0] / scale
    return coefficients[:, 0], coefficients[:, 1]


#: Leaves per stacked solve.  It bounds the solve's temporaries (a few
#: ``leaves × take`` float64 arrays) so they do not raise peak RSS.
STACK_LEAVES = 256


def _fit_leaves(
    shared_output: np.ndarray, cdf: np.ndarray, takes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_fit_leaf` over consecutive slices of *takes* rows each, as
    weight and bias columns.

    Slices of one size share a :func:`_fit_stack` call per
    :data:`STACK_LEAVES`; a slice of one row or with no spread keeps the
    scalar branch.  Where the gufunc is missing or refuses the call, and
    under ``REPRO_PURE_PYTHON=1``, each slice runs the spec.
    """
    stops = np.cumsum(takes)
    starts = stops - takes
    weights = np.empty(takes.size)
    biases = np.empty(takes.size)
    spread = np.maximum.reduceat(shared_output, starts) - np.minimum.reduceat(shared_output, starts)
    stacked = (takes >= 2) & ~(spread < 1e-12) & (not env_flag(PURE_PYTHON_ENV))
    spec = np.flatnonzero(~stacked).tolist()
    for take in np.unique(takes[stacked]).tolist():
        same_take = np.flatnonzero(stacked & (takes == take))
        for first in range(0, same_take.size, STACK_LEAVES):
            leaves = same_take[first : first + STACK_LEAVES]
            rows = starts[leaves, None] + np.arange(take)
            try:
                weights[leaves], biases[leaves] = _fit_stack(shared_output[rows], cdf[rows])
            except (TypeError, FloatingPointError):
                spec.extend(leaves.tolist())
    for leaf in spec:
        part = slice(starts[leaf], stops[leaf])
        weights[leaf], biases[leaf] = _fit_leaf(shared_output[part], cdf[part])
    return weights, biases


def _group_spec(
    kmers: np.ndarray, positions: np.ndarray, buckets: np.ndarray, frequencies: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """:meth:`MTLIndex.predict_many`'s grouping, the specification of
    :func:`repro.native.mtl_group` and its fallback: one stable argsort of
    the narrow bucket ids, the ``(pos / n, count / n)`` feature rows in
    that order, and each node's ``(bucket, start, stop)`` slice.  A
    k-mer outside ``[0, 4^k)`` is refused, as :meth:`MTLIndex.predict`
    refuses it, not wrapped by NumPy's indexing."""
    outside = (kmers < 0) | (kmers >= buckets.size)
    if outside.any():
        raise ValueError(f"packed k-mer {kmers[outside][0]} out of range")
    request_buckets = buckets[kmers]
    order = np.argsort(request_buckets, kind="stable")
    grouped = request_buckets[order]
    if grouped[0] < 0:
        raise ValueError(native.UNMODELLED)
    size = kmers.size
    features = np.empty((size, 2), dtype=np.float64)
    np.divide(positions[order], n, out=features[:, 0])
    np.divide(frequencies[kmers[order]], n, out=features[:, 1])
    bounds = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), size]
    return features, order, [
        (int(grouped[start]), start, stop) for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def _leaf_spec(
    kmers: np.ndarray,
    order: np.ndarray,
    shared_output: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """:meth:`MTLIndex.predict_many`'s leaves, the specification of
    :func:`repro.native.mtl_leaf` and its fallback: over the grouped
    *shared_output*, ``rint((w · s + b) · count)`` clipped to
    ``[0, max(0, count - 1)]``, scattered back to request order."""
    kmers = kmers[order]
    counts = frequencies[kmers]
    raw = weights[kmers] * shared_output
    raw += biases[kmers]
    raw *= counts
    np.rint(raw, out=raw)
    # clip(raw, 0, max(0, counts - 1)) in two in-place passes, which
    # NumPy runs several times faster than clip's broadcast bounds.
    np.minimum(raw, counts - 1, out=raw)
    np.maximum(raw, 0, out=raw)
    result = np.empty(kmers.size, dtype=np.int64)
    result[order] = raw
    return result


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
        ValueError: *samples_per_kmer*, *epochs* or a bucket edge is not an
            integer >= 1, or *model_threshold* is not an integer >= 0.
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
        self._edges = tuple(sorted(check_workers(edge, "bucket_edges") for edge in bucket_edges))
        self._threshold = check_workers(model_threshold, "model_threshold", minimum=0)
        self._samples_per_kmer = check_workers(samples_per_kmer, "samples_per_kmer")
        self._epochs = check_workers(epochs, "epochs")
        self._seed = seed
        self._nodes: dict[int, SharedNode] = {}
        self._train()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def _train(self) -> None:
        """Train every shared node, then write the per-code leaf columns.

        Bucket ids are the narrowest signed type that holds every bucket
        and the ``-1`` of an unmodelled code, so grouping by them is a
        radix sort.
        """
        table = self._table
        n = table.reference_length
        rng = np.random.default_rng(self._seed)
        counts = table.frequencies_view()
        self._weights = np.zeros(table.kmer_count)
        self._biases = np.zeros(table.kmer_count)
        self._buckets = np.full(
            table.kmer_count, -1, dtype=np.min_scalar_type(-1 - len(self._edges))
        )
        modelled = np.flatnonzero(counts > self._threshold)
        buckets = np.searchsorted(self._edges, counts[modelled])
        self._buckets[modelled] = buckets

        # Buckets train in the order of their first k-mer, drawing every
        # k-mer's sample ranks in k-mer order (the RNG stream is the recipe).
        increments, bases = table.increments, table.bases
        _, firsts = np.unique(buckets, return_index=True)
        for bucket in buckets[np.sort(firsts)].tolist():
            kmers = modelled[buckets == bucket]
            kmer_counts = counts[kmers]
            takes = np.minimum(kmer_counts, self._samples_per_kmer)
            ranks = []
            for count, take in zip(kmer_counts.tolist(), takes.tolist()):
                idx = rng.choice(count, size=take, replace=False)
                idx.sort()
                ranks.append(idx)
            rank = np.concatenate(ranks)
            sample_counts = np.repeat(kmer_counts, takes)
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
            self._weights[kmers], self._biases[kmers] = _fit_leaves(
                node.forward(feature_matrix), target_vector, takes
            )

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
        return np.flatnonzero(self._buckets >= 0).tolist()

    @property
    def shared_node_count(self) -> int:
        """Number of shared non-leaf nodes (one per increment bucket)."""
        return len(self._nodes)

    @property
    def parameter_count(self) -> int:
        """Total parameters: shared nodes plus 2 per modelled k-mer."""
        shared = sum(node.parameter_count for node in self._nodes.values())
        return shared + 2 * int(np.count_nonzero(self._buckets >= 0))

    def has_model(self, packed: int) -> bool:
        """Whether *packed* is covered by the MTL index (``ValueError``
        outside ``[0, 4^k)``)."""
        return bool(self._buckets[self._table._packed(packed)] >= 0)

    def predict(self, kmer: str | int, pos: int) -> int:
        """Predicted index of *pos* within the k-mer's increment list
        (Eq. 3: the leaf scales the shared CDF estimate by the count)."""
        packed = self._table._packed(kmer)
        bucket = int(self._buckets[packed])
        if bucket < 0:
            return self._table.occ(packed, pos)
        count = self._table.frequency(packed)
        n = self._table.reference_length
        features = np.array([[pos / n, count / n]])
        shared_output = float(self._nodes[bucket].forward(features)[0])
        raw = (float(self._weights[packed]) * shared_output + float(self._biases[packed])) * count
        return int(np.clip(round(raw), 0, max(0, count - 1)))

    def predict_many(self, kmers: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict` over aligned k-mer/position arrays.

        Three steps: group the requests by shared node (bucket) and write
        their feature rows in grouped order, run each node's MLP forward
        pass over its contiguous slice, then apply the per-k-mer linear
        leaves and scatter back to request order — the same normalisation,
        rounding and clipping as :meth:`predict`, so the results agree
        exactly.  The grouping and the leaves run compiled
        (:func:`repro.native.mtl_group`, :func:`repro.native.mtl_leaf`)
        where they can, else their specs :func:`_group_spec` and
        :func:`_leaf_spec`; ``forward`` sees the same slices either way.
        Every k-mer must be modelled — the lockstep search and the columnar
        replay separate unmodelled requests (:meth:`modelled_lookup`) before
        calling, the way the accelerator's exact-scan path does; an
        unmodelled one raises ``ValueError``.
        """
        kmers = np.asarray(kmers, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if kmers.size == 0:
            return np.empty(0, dtype=np.int64)
        columns = (self._buckets, self._table.frequencies_view(), self._table.reference_length)
        grouped = native.mtl_group(kmers, positions, *columns)
        if grouped is None:
            grouped = _group_spec(kmers, positions, *columns)
        features, order, groups = grouped
        shared_output = np.empty(kmers.size, dtype=np.float64)
        for bucket, start, stop in groups:
            shared_output[start:stop] = self._nodes[bucket].forward(features[start:stop])
        leaves = (self._weights, self._biases, columns[1])
        result = native.mtl_leaf(kmers, order, shared_output, *leaves)
        if result is None:
            result = _leaf_spec(kmers, order, shared_output, *leaves)
        return result

    def modelled_lookup(self, kmer_count: int) -> np.ndarray:
        """Boolean mask over packed codes: True where a leaf model exists.

        The array form of :meth:`has_model`, sized for the table's
        ``4^k`` code space so the lockstep search and the columnar replay
        classify a whole request stream with one gather.  Every modelled
        k-mer has a bucket assignment, so the mask is the bucket column's
        validity.
        """
        if kmer_count != self._table.kmer_count:
            raise ValueError("kmer_count must match the indexed table")
        return self._buckets >= 0

    def bucket_lookup(self, kmer_count: int) -> np.ndarray:
        """Shared-node (bucket) id per packed code, -1 where unmodelled.

        The array form of the bucket half of :meth:`node_ids_for` (the
        leaf node id is always ``shared_node_count + packed``): the column
        :meth:`predict_many` groups by; callers must not mutate it.
        """
        if kmer_count != self._table.kmer_count:
            raise ValueError("kmer_count must match the indexed table")
        return self._buckets

    def node_ids_for(self, kmer: str | int) -> tuple[int, ...]:
        """Identifiers of the index nodes touched by a lookup of *kmer*.

        Used by the accelerator's index cache: a lookup touches the shared
        bucket node and the k-mer's leaf.  Unmodelled k-mers touch nothing;
        one outside ``[0, 4^k)`` is refused with ``ValueError``.
        """
        packed = self._table._packed(kmer)
        bucket = int(self._buckets[packed])
        if bucket < 0:
            return ()
        return (bucket, self.shared_node_count + packed)

    def prediction_errors(
        self, packed_kmers: list[int] | None = None, samples_per_kmer: int = 200, seed: int = 0
    ) -> np.ndarray:
        """Absolute prediction errors over sampled positions of k-mers
        (:func:`~repro.exma.learned_index.sampled_errors`)."""
        if packed_kmers is None:
            packed_kmers = self.modelled_kmers
        return sampled_errors(self, self._table, packed_kmers, samples_per_kmer, seed)
