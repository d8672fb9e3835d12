"""Unit tests for the naive learned index and the MTL index over EXMA tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.exma.learned_index import NaiveLearnedIndex, _PerKmerModel
from repro.exma import mtl_index
from repro.exma.mtl_index import MTLIndex, SharedNode
from repro.exma.table import ExmaTable
from repro.genome.sequence import RepeatProfile, random_genome
from repro.lisa.learned_index import LinearModel
from repro.runtime import PURE_PYTHON_ENV


@pytest.fixture(scope="module")
def repeat_table() -> ExmaTable:
    """A repeat-rich reference so several k-mers have many increments."""
    genome = random_genome(
        4000, repeat_profile=RepeatProfile(repeat_fraction=0.7, repeat_unit_length=120), seed=11
    )
    return ExmaTable(genome, k=3)


@pytest.fixture(scope="module")
def naive_index(repeat_table) -> NaiveLearnedIndex:
    return NaiveLearnedIndex(repeat_table, model_threshold=8, increments_per_leaf=64)


@pytest.fixture(scope="module")
def mtl(repeat_table) -> MTLIndex:
    return MTLIndex(repeat_table, model_threshold=8, samples_per_kmer=32, epochs=80, seed=0)


class TestNaiveLearnedIndex:
    def test_models_built_for_heavy_kmers(self, naive_index, repeat_table):
        assert naive_index.modelled_kmers
        for packed in naive_index.modelled_kmers:
            assert repeat_table.frequency(packed) > 8

    def test_lookup_returns_exact_occ(self, naive_index, repeat_table):
        for packed in naive_index.modelled_kmers[:5]:
            for pos in (0, 100, 1000, repeat_table.reference_length):
                true_index, error = naive_index.lookup(packed, pos)
                assert true_index == repeat_table.occ(packed, pos)
                assert error >= 0

    def test_prediction_clamped_to_valid_range(self, naive_index, repeat_table):
        for packed in naive_index.modelled_kmers[:5]:
            count = repeat_table.frequency(packed)
            assert 0 <= naive_index.predict(packed, repeat_table.reference_length) < count

    def test_unmodelled_kmer_falls_back_to_exact(self, naive_index, repeat_table):
        light = [p for p in repeat_table.present_kmers() if not naive_index.has_model(p)]
        if not light:
            pytest.skip("all k-mers modelled")
        packed = light[0]
        assert naive_index.predict(packed, 500) == repeat_table.occ(packed, 500)

    def test_predict_many_matches_predict(self, naive_index, repeat_table):
        modelled = np.array(naive_index.modelled_kmers)
        positions = np.arange(repeat_table.reference_length + 1)
        kmers = np.repeat(modelled, positions.size)
        positions = np.tile(positions, modelled.size)
        expected = [
            naive_index.predict(int(kmer), int(pos)) for kmer, pos in zip(kmers, positions)
        ]
        assert naive_index.predict_many(kmers, positions).tolist() == expected
        assert naive_index.predict_many(kmers[:0], positions[:0]).tolist() == []

    def test_predict_many_rounds_and_clips_like_predict(self, repeat_table):
        """Handcrafted models pin the two places a columnar rewrite drifts:
        ``x.5`` predictions (scalar ``round`` is half-to-even, so must the
        array path be) and the clip at ``count - 1``."""
        index = NaiveLearnedIndex(repeat_table, model_threshold=8, increments_per_leaf=64)
        halves, steep = index.modelled_kmers[:2]
        for packed, slope in ((halves, 0.5), (steep, 1e6)):
            index._models[packed] = _PerKmerModel(
                root=LinearModel(0.0, 0.0),
                leaves=[LinearModel(slope, 0.0)],
                count=repeat_table.frequency(packed),
            )
        positions = np.arange(8)
        assert index.predict_many(np.full(8, halves), positions).tolist() == [
            0, 0, 1, 2, 2, 2, 3, 4,
        ]
        for packed in (halves, steep):
            assert index.predict_many(np.full(8, packed), positions).tolist() == [
                index.predict(packed, int(pos)) for pos in positions
            ]
        assert index.predict_many(np.array([steep]), np.array([5])).tolist() == [
            repeat_table.frequency(steep) - 1
        ]

    def test_modelled_lookup_matches_has_model(self, repeat_table):
        threshold = int(np.median(repeat_table.frequencies()))
        index = NaiveLearnedIndex(repeat_table, model_threshold=threshold)
        modelled = index.modelled_lookup(repeat_table.kmer_count)
        assert modelled.tolist() == [
            index.has_model(packed) for packed in range(repeat_table.kmer_count)
        ]
        assert modelled.any() and not modelled.all()
        with pytest.raises(ValueError):
            index.modelled_lookup(repeat_table.kmer_count + 1)

    def test_parameter_count_positive(self, naive_index):
        assert naive_index.parameter_count >= 4 * len(naive_index.modelled_kmers)

    def test_more_leaves_with_smaller_ratio(self, repeat_table):
        coarse = NaiveLearnedIndex(repeat_table, model_threshold=8, increments_per_leaf=4096)
        fine = NaiveLearnedIndex(repeat_table, model_threshold=8, increments_per_leaf=16)
        assert fine.parameter_count > coarse.parameter_count

    def test_errors_array_shape(self, naive_index):
        errors = naive_index.prediction_errors(samples_per_kmer=10, seed=1)
        assert errors.size == 10 * len(naive_index.modelled_kmers)
        assert np.all(errors >= 0)

    def test_invalid_parameters_raise(self, repeat_table):
        with pytest.raises(ValueError):
            NaiveLearnedIndex(repeat_table, model_threshold=-1)
        with pytest.raises(ValueError):
            NaiveLearnedIndex(repeat_table, increments_per_leaf=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda table: NaiveLearnedIndex(table, model_threshold=40, increments_per_leaf=64),
        lambda table: MTLIndex(table, model_threshold=40, samples_per_kmer=16, epochs=10),
    ],
    ids=["naive", "mtl"],
)
def test_prediction_errors_are_scalar_probe_distances(build, repeat_table):
    # One occ_batch and one predict_many over the same per-k-mer draws as
    # a scalar |Occ - predict| per position; an unmodelled k-mer's
    # prediction is exact, so its errors are 0.
    index = build(repeat_table)
    light = [p for p in repeat_table.present_kmers() if not index.has_model(p)][:3]
    assert light
    kmers = index.modelled_kmers[:7] + light
    n = repeat_table.reference_length
    rng = np.random.default_rng(9)
    expected = [
        abs(repeat_table.occ(packed, int(pos)) - index.predict(packed, int(pos)))
        for packed in kmers
        for pos in rng.integers(0, n + 1, size=13)
    ]
    errors = index.prediction_errors(kmers, samples_per_kmer=13, seed=9)
    assert errors.dtype == np.float64
    assert errors.tolist() == expected
    assert index.prediction_errors([], samples_per_kmer=13).size == 0


def _reference_train(features, targets, weights, epochs, seed):
    """The allocating Adam loop `SharedNode.train` must reproduce bit for
    bit: every intermediate a fresh array, one NumPy expression per line
    of the maths."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 0.5, size=(features.shape[1], 10))
    b1 = np.zeros(10)
    w2 = rng.normal(0.0, 0.5, size=10)
    values = [w1, b1, w2, 0.0]
    first = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
    second = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    weights = weights / weights.sum()
    for step in range(1, epochs + 1):
        w1, b1, w2, b2 = values
        hidden = 1.0 / (1.0 + np.exp(-(features @ w1 + b1)))
        grad_pred = 2.0 * weights * (hidden @ w2 + b2 - targets)
        grad_hidden = np.outer(grad_pred, w2) * hidden * (1.0 - hidden)
        grads = [
            features.T @ grad_hidden,
            grad_hidden.sum(axis=0),
            hidden.T @ grad_pred,
            float(grad_pred.sum()),
        ]
        for i, grad in enumerate(grads):
            first[i] = beta1 * np.asarray(first[i]) + (1 - beta1) * np.asarray(grad)
            second[i] = beta2 * np.asarray(second[i]) + (1 - beta2) * np.square(grad)
            m_hat = first[i] / (1 - beta1**step)
            v_hat = second[i] / (1 - beta2**step)
            values[i] = values[i] - 0.05 * m_hat / (np.sqrt(v_hat) + eps)
        values[3] = float(values[3])
    return values


class TestSharedNode:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_train_equals_allocating_reference(self, n, seed):
        # Same machine, same BLAS, same operation order: equal to the
        # last bit, so no golden floats and no tolerance.
        rng = np.random.default_rng(100 + seed)
        features = rng.uniform(size=(n, 2))
        targets = rng.uniform(size=n)
        weights = rng.uniform(0.1, 1.0, size=n)
        w1, b1, w2, b2 = _reference_train(features, targets, weights, epochs=40, seed=seed)
        node = SharedNode()
        node.train(features, targets, weights, epochs=40, seed=seed)
        assert np.array_equal(node.w1, w1)
        assert np.array_equal(node.b1, b1)
        assert np.array_equal(node.w2, w2)
        assert node.b2 == b2 and isinstance(node.b2, float)

    def test_train_leaves_its_inputs_alone(self):
        rng = np.random.default_rng(3)
        features, targets = rng.uniform(size=(50, 2)), rng.uniform(size=50)
        weights = rng.uniform(0.1, 1.0, size=50)
        before = [a.copy() for a in (features, targets, weights)]
        SharedNode().train(features, targets, weights, epochs=5)
        for array, copy in zip((features, targets, weights), before):
            assert np.array_equal(array, copy)

    def test_forward_equals_allocating_expression(self):
        rng = np.random.default_rng(5)
        node = SharedNode()
        node.train(
            rng.uniform(size=(300, 2)), rng.uniform(size=300), np.full(300, 1 / 300), epochs=10
        )
        features = rng.uniform(size=(1000, 2))
        hidden = 1.0 / (1.0 + np.exp(-(features @ node.w1 + node.b1)))
        assert np.array_equal(node.forward(features), hidden @ node.w2 + node.b2)

    def test_forward_shape(self):
        node = SharedNode()
        node.train(
            np.random.default_rng(0).uniform(size=(200, 2)),
            np.linspace(0, 1, 200),
            np.full(200, 1 / 200),
            epochs=50,
        )
        out = node.forward(np.array([[0.5, 0.1], [0.9, 0.1]]))
        assert out.shape == (2,)

    def test_training_reduces_error(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(size=(400, 2))
        targets = features[:, 0] ** 2
        weights = np.full(400, 1 / 400)
        node = SharedNode()
        node.train(features, targets, weights, epochs=5, seed=3)
        early = float(np.mean((node.forward(features) - targets) ** 2))
        node.train(features, targets, weights, epochs=400, seed=3)
        late = float(np.mean((node.forward(features) - targets) ** 2))
        assert late <= early

    def test_parameter_count(self):
        assert SharedNode().parameter_count == 2 * 10 + 10 + 10 + 1


class TestMTLIndex:
    def test_leaves_cover_heavy_kmers(self, mtl, repeat_table):
        assert mtl.modelled_kmers
        for packed in mtl.modelled_kmers:
            assert repeat_table.frequency(packed) > 8

    def test_prediction_within_range(self, mtl, repeat_table):
        for packed in mtl.modelled_kmers[:5]:
            count = repeat_table.frequency(packed)
            prediction = mtl.predict(packed, repeat_table.reference_length // 2)
            assert 0 <= prediction < count

    def test_shared_nodes_exist(self, mtl):
        assert mtl.shared_node_count >= 1

    def test_parameter_sharing_shrinks_index(self, mtl, naive_index):
        # The MTL index shares its non-leaf parameters, so per modelled
        # k-mer it needs far fewer parameters than the naive index.
        mtl_per_kmer = mtl.parameter_count / max(1, len(mtl.modelled_kmers))
        naive_per_kmer = naive_index.parameter_count / max(1, len(naive_index.modelled_kmers))
        assert mtl_per_kmer < naive_per_kmer

    def test_errors_not_catastrophic(self, mtl, repeat_table):
        errors = mtl.prediction_errors(samples_per_kmer=20, seed=4)
        heaviest = max(repeat_table.frequency(p) for p in mtl.modelled_kmers)
        assert errors.mean() < heaviest

    def test_node_ids_for_modelled_kmer(self, mtl):
        packed = mtl.modelled_kmers[0]
        node_ids = mtl.node_ids_for(packed)
        assert len(node_ids) == 2

    def test_node_ids_for_unmodelled_kmer(self, mtl, repeat_table):
        light = [p for p in repeat_table.present_kmers() if not mtl.has_model(p)]
        if not light:
            pytest.skip("all k-mers modelled")
        assert mtl.node_ids_for(light[0]) == ()

    def test_unmodelled_prediction_exact(self, mtl, repeat_table):
        light = [p for p in repeat_table.present_kmers() if not mtl.has_model(p)]
        if not light:
            pytest.skip("all k-mers modelled")
        assert mtl.predict(light[0], 1000) == repeat_table.occ(light[0], 1000)

    def test_predict_many_refuses_unmodelled_kmers(self, repeat_table):
        # Bucket ids are narrow and grouped by sorting, so an unmodelled
        # k-mer's -1 must be refused, never routed through some node.
        index = MTLIndex(repeat_table, model_threshold=40, samples_per_kmer=16, epochs=10)
        modelled = index.modelled_lookup(repeat_table.kmer_count)
        light = int(np.flatnonzero(~modelled)[0])
        heavy = index.modelled_kmers[0]
        for kmers in ([light], [heavy, light, heavy]):
            with pytest.raises(ValueError, match="modelled"):
                index.predict_many(np.array(kmers), np.arange(len(kmers)))
        assert index.predict_many(np.array([heavy]), np.array([7])).tolist() == [
            index.predict(heavy, 7)
        ]

    @pytest.mark.parametrize("path", ("compiled", "pure-python"))
    def test_out_of_range_kmers_are_refused(self, repeat_table, path, monkeypatch):
        # NumPy's indexing would read -1 as the last code, which is
        # modelled here: every k-mer entry point refuses a code outside
        # [0, 4^k) as predict does, whether the grouping runs compiled
        # (it declines such a k-mer) or as its spec.
        monkeypatch.setattr(native, "_library", native._UNRESOLVED)
        if path == "pure-python":
            monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        else:
            monkeypatch.delenv(PURE_PYTHON_ENV, raising=False)
        assert ("mtl_group" in native.loaded_kernels()) == (path == "compiled")
        index = MTLIndex(repeat_table, model_threshold=0, samples_per_kmer=16, epochs=10)
        last = repeat_table.kmer_count - 1
        assert index.has_model(last)
        for kmer in (-1, -repeat_table.kmer_count, repeat_table.kmer_count):
            message = f"packed k-mer {kmer} out of range"
            with pytest.raises(ValueError, match=message):
                index.predict_many(np.array([last, kmer]), np.array([7, 7]))
            with pytest.raises(ValueError, match=message):
                index.has_model(kmer)
            with pytest.raises(ValueError, match=message):
                index.node_ids_for(kmer)
            with pytest.raises(ValueError, match=message):
                index.predict(kmer, 7)

    def test_each_leaf_is_fit_on_its_own_samples(self, repeat_table):
        # Re-draw every k-mer's samples the way the recipe states them — one
        # k-mer at a time, columns stacked — train each shared node on them
        # and fit each leaf on its own slice: the index holds the same bits.
        # `take = min(samples, count)` differs from k-mer to k-mer here, so a
        # leaf fitted on a neighbour's slice, or a sample weighted 1 / count
        # instead of 1 / take, would show.
        seed, samples, epochs = 2, 70, 20
        index = MTLIndex(
            repeat_table, model_threshold=8, samples_per_kmer=samples, epochs=epochs, seed=seed
        )
        n = repeat_table.reference_length
        by_bucket: dict[int, list[int]] = {}
        for packed in index.modelled_kmers:
            by_bucket.setdefault(index.node_ids_for(packed)[0], []).append(packed)
        rng = np.random.default_rng(seed)
        takes = set()
        for bucket, kmers in by_bucket.items():
            features, targets, weights = [], [], []
            for packed in kmers:
                increments = repeat_table.increments_of(packed)
                count = increments.size
                take = min(samples, count)
                idx = np.sort(rng.choice(count, size=take, replace=False))
                features.append(np.column_stack([increments[idx] / n, np.full(take, count / n)]))
                targets.append(idx / count)
                weights.append(np.full(take, 1.0 / take))
                takes.add(take)
            feature_matrix = np.vstack(features)
            node = SharedNode()
            node.train(
                feature_matrix,
                np.concatenate(targets),
                np.concatenate(weights),
                epochs=epochs,
                seed=seed + bucket,
            )
            trained = index._nodes[bucket]
            for name in ("w1", "b1", "w2"):
                assert getattr(node, name).tobytes() == getattr(trained, name).tobytes()
            assert node.b2 == trained.b2
            shared_out = node.forward(feature_matrix)
            stop = 0
            for packed, cdf in zip(kmers, targets):
                start, stop = stop, stop + cdf.size
                weight, bias = mtl_index._fit_leaf(shared_out[start:stop], cdf)
                assert index._weights[packed].tobytes() == np.float64(weight).tobytes()
                assert index._biases[packed].tobytes() == np.float64(bias).tobytes()
                assert index._buckets[packed] == bucket
        assert len(takes) > 1

    def test_deterministic_with_seed(self, repeat_table):
        a = MTLIndex(repeat_table, model_threshold=8, samples_per_kmer=16, epochs=30, seed=5)
        b = MTLIndex(repeat_table, model_threshold=8, samples_per_kmer=16, epochs=30, seed=5)
        packed = a.modelled_kmers[0]
        assert a.predict(packed, 1234) == b.predict(packed, 1234)


class TestRecipeValidation:
    @pytest.mark.parametrize("knob", ["samples_per_kmer", "epochs"])
    @pytest.mark.parametrize("value", [0, -1, True, 2.5], ids=["zero", "negative", "bool", "float"])
    def test_nonsense_is_refused(self, knob, value):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        with pytest.raises(ValueError, match=f"{knob} must be an integer >= 1"):
            MTLIndex(table, **{knob: value})

    @pytest.mark.parametrize("index", [MTLIndex, NaiveLearnedIndex])
    @pytest.mark.parametrize("value", [-1, True, 2.5, "16"], ids=["negative", "bool", "float", "str"])
    def test_threshold_nonsense_is_refused(self, index, value):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        with pytest.raises(ValueError, match="model_threshold must be an integer >= 0"):
            index(table, model_threshold=value)

    @pytest.mark.parametrize("index", [MTLIndex, NaiveLearnedIndex])
    def test_zero_threshold_models_every_present_kmer(self, index):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        assert index(table, model_threshold=0).modelled_kmers == table.present_kmers()

    @pytest.mark.parametrize(
        "edges", [(0, 64), (-4,), (True, 64), (2.5, 64), (64, "256")],
        ids=["zero", "negative", "bool", "float", "str"],
    )
    def test_bucket_edge_nonsense_is_refused(self, edges):
        table = ExmaTable("ACGTTGCA" * 40, k=2)
        with pytest.raises(ValueError, match="bucket_edges must be an integer >= 1"):
            MTLIndex(table, bucket_edges=edges)
