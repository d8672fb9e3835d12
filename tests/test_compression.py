"""Unit tests for CHAIN and BΔI compression (repro.exma.chain / .bdi).

The per-line codecs live in ``repro.testing`` as oracles: they round-trip
the values and state, line by line, the sizes the column passes of
``chain.compressed_size_bytes`` / ``bdi.compressed_size_bytes`` compute.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exma import bdi, chain
from repro.testing import (
    bdi_compress,
    bdi_compress_line,
    bdi_decompress,
    chain_compress,
    chain_compress_line,
    chain_decompress,
)

sorted_arrays = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=200
).map(sorted)


class TestChain:
    def test_roundtrip_simple(self):
        values = np.array([10, 12, 15, 30, 31])
        assert np.array_equal(chain_decompress(chain_compress(values)), values)

    def test_roundtrip_multi_line(self):
        values = np.arange(0, 1000, 3)
        assert np.array_equal(chain_decompress(chain_compress(values)), values)

    def test_sorted_data_compresses_well(self):
        values = np.arange(0, 64000, 7)  # small deltas (7)
        assert chain.compression_ratio(values) < 0.5

    def test_sparse_data_compresses_less(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.integers(0, 2**30, size=2048))
        dense = np.arange(2048)
        assert chain.compression_ratio(values) > chain.compression_ratio(dense)

    def test_ratio_of_constant_deltas(self):
        values = np.arange(16, dtype=np.int64)
        line = chain_compress_line(values)
        assert line.delta_bytes == 1
        assert line.compressed_bytes == chain.ENTRY_BYTES + 15

    def test_empty_line_raises(self):
        with pytest.raises(ValueError):
            chain_compress_line(np.array([], dtype=np.int64))

    def test_empty_array(self):
        assert chain_decompress([]).size == 0
        assert chain.compression_ratio(np.array([])) == 1.0

    def test_invalid_entries_per_line(self):
        with pytest.raises(ValueError):
            chain_compress(np.arange(10), entries_per_line=0)
        with pytest.raises(ValueError, match="entries_per_line must be positive"):
            chain.compressed_size_bytes(np.arange(10), entries_per_line=0)

    def test_uncompressed_size(self):
        assert chain.uncompressed_size_bytes(np.arange(10)) == 10 * chain.ENTRY_BYTES

    def test_compressed_size_never_larger_than_8_bytes_per_entry(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.integers(0, 2**40, size=512))
        assert chain.compressed_size_bytes(values) <= values.size * 8 + chain.ENTRY_BYTES * 32

    @given(sorted_arrays)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(chain_decompress(chain_compress(array)), array)


class TestBdi:
    def test_roundtrip_simple(self):
        values = np.array([1000, 1004, 1010, 990])
        assert np.array_equal(bdi_decompress(bdi_compress(values)), values)

    def test_roundtrip_multi_line(self):
        values = np.arange(100, 1000, 5)
        assert np.array_equal(bdi_decompress(bdi_compress(values)), values)

    def test_clustered_values_compress(self):
        values = np.array([10_000 + d for d in range(8)])
        line = bdi_compress_line(values)
        assert line.compressed and line.delta_bytes == 1

    def test_scattered_values_do_not_compress(self):
        values = np.array([0, 2**40, 2**41, 2**42, 1, 2, 3, 4])
        line = bdi_compress_line(values)
        assert not line.compressed
        assert line.compressed_bytes == 8 * bdi.SECTION_BYTES

    def test_empty_line_raises(self):
        with pytest.raises(ValueError):
            bdi_compress_line(np.array([], dtype=np.int64))

    def test_invalid_sections_per_line(self):
        with pytest.raises(ValueError):
            bdi_compress(np.arange(10), sections_per_line=0)
        with pytest.raises(ValueError, match="sections_per_line must be positive"):
            bdi.compressed_size_bytes(np.arange(10), sections_per_line=0)

    def test_empty_array(self):
        assert bdi_decompress([]).size == 0
        assert bdi.compression_ratio(np.array([])) == 1.0

    @given(sorted_arrays)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(bdi_decompress(bdi_compress(array)), array)


class TestChainVsBdi:
    """The Fig. 23 claim: CHAIN compresses sorted increments better than BΔI."""

    def test_chain_beats_bdi_on_sorted_increments(self):
        rng = np.random.default_rng(2)
        # Sorted row numbers spread over a large range, like EXMA increments.
        # Compare absolute compressed bytes for the same values: CHAIN's
        # consecutive deltas are smaller than BΔI's deltas-to-base, so it
        # needs fewer bytes per value.
        increments = np.sort(rng.choice(3_000_000, size=4096, replace=False))
        chain_bytes_per_value = chain.compressed_size_bytes(increments) / increments.size
        bdi_bytes_per_value = bdi.compressed_size_bytes(increments) / increments.size
        assert chain_bytes_per_value < bdi_bytes_per_value

    def test_both_are_lossless_on_same_data(self):
        increments = np.sort(np.random.default_rng(3).choice(10**6, size=1024, replace=False))
        assert np.array_equal(chain_decompress(chain_compress(increments)), increments)
        assert np.array_equal(bdi_decompress(bdi_compress(increments)), increments)


INT64 = np.iinfo(np.int64)

#: Values that sit on a width boundary, or whose int64 deltas wrap.
EXTREMES = (INT64.min, INT64.min + 1, INT64.max, -(2**31), 2**31 - 1, 2**31, -(2**15),
            2**15 - 1, 2**15, -128, 127, 128, -1, 0, 1)

any_int64 = st.one_of(
    st.integers(min_value=INT64.min, max_value=INT64.max), st.sampled_from(EXTREMES)
)


class TestColumnPassEqualsLineOracle:
    """``compressed_size_bytes`` sizes every line in one column pass; it must
    equal the sum of the per-line codecs' ``compressed_bytes`` exactly."""

    @given(
        st.lists(any_int64, max_size=300),
        st.integers(min_value=1, max_value=20),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sizes_match(self, values, per_line, ordered):
        array = np.array(sorted(values) if ordered else values, dtype=np.int64)
        chain_lines = chain_compress(array, entries_per_line=per_line)
        bdi_lines = bdi_compress(array, sections_per_line=per_line)
        assert chain.compressed_size_bytes(array, per_line) == sum(
            line.compressed_bytes for line in chain_lines
        )
        assert bdi.compressed_size_bytes(array, per_line) == sum(
            line.compressed_bytes for line in bdi_lines
        )

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 4096, 65536])
    def test_default_lines_on_increments(self, size):
        increments = np.sort(np.random.default_rng(size).choice(3 * 10**6, size, replace=False))
        assert chain.compressed_size_bytes(increments) == sum(
            line.compressed_bytes for line in chain_compress(increments)
        )
        assert bdi.compressed_size_bytes(increments) == sum(
            line.compressed_bytes for line in bdi_compress(increments)
        )
