"""Unit tests for repro.index.suffix_array."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exma.table import ExmaTable
from repro.genome.alphabet import pack_kmer
from repro.genome.datasets import build_dataset
from repro.genome.sequence import random_genome
from repro.index.suffix_array import (
    inverse_suffix_array,
    lcp_array,
    naive_suffix_array,
    suffix_array,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=80)


@pytest.fixture(scope="module")
def human_5k() -> str:
    """A 5 kbp human stand-in: repeat copies tie suffixes hundreds deep."""
    return build_dataset("human", simulated_length=5000, seed=3).sequence


@st.composite
def deeply_tied(draw) -> str:
    """Texts whose suffixes stay tied past the 16-symbol first sort, and
    past the 32 symbols of the first refinement: one- and two-letter
    alphabets, tandem repeats, a 40-200-base block pasted 2-5 times."""
    alphabet = draw(st.sampled_from(["A", "T", "AC", "GT", "ACGT"]))
    text = st.text(alphabet=alphabet, min_size=1, max_size=40)
    shape = draw(st.sampled_from(["plain", "tandem", "pasted"]))
    if shape == "plain":
        return draw(st.text(alphabet=alphabet[:2], min_size=1, max_size=120))
    if shape == "tandem":
        return draw(text) + draw(text) * draw(st.integers(2, 12)) + draw(text)
    block = draw(st.text(alphabet=alphabet, min_size=40, max_size=200))
    copies = draw(st.integers(2, 5))
    return "".join(draw(text) + block for _ in range(copies))


def _sorted_elements(monkeypatch) -> list[int]:
    """Sizes of every array NumPy is asked to sort from here on."""
    sizes: list[int] = []
    for name in ("argsort", "sort", "lexsort"):
        real = getattr(np, name)

        def counting(keys, *args, _real=real, **kwargs):
            sizes.append(np.asarray(keys).shape[-1])
            return _real(keys, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return sizes


class TestSuffixArray:
    def test_paper_example(self):
        # G = CATAGA$ from Fig. 3(a): SA = [6, 5, 3, 1, 0, 4, 2].
        sa = suffix_array("CATAGA")
        assert list(sa) == [6, 5, 3, 1, 0, 4, 2]

    def test_matches_naive_on_random_genome(self):
        text = random_genome(500, seed=1)
        assert np.array_equal(suffix_array(text), naive_suffix_array(text))

    def test_single_symbol(self):
        assert list(suffix_array("A")) == [1, 0]

    def test_repetitive_text(self):
        text = "AAAA"
        assert np.array_equal(suffix_array(text), naive_suffix_array(text))

    def test_is_permutation(self):
        sa = suffix_array(random_genome(200, seed=2))
        assert sorted(sa) == list(range(len(sa)))

    def test_suffixes_sorted(self):
        text = random_genome(150, seed=3) + "$"
        sa = suffix_array(text)
        suffixes = [text[i:] for i in sa]
        assert suffixes == sorted(suffixes)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            suffix_array("")

    def test_interior_sentinel_raises(self):
        with pytest.raises(ValueError):
            suffix_array("AC$GT")

    def test_already_terminated_not_double_terminated(self):
        assert len(suffix_array("ACGT$")) == 5

    @given(dna)
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_property(self, text):
        assert np.array_equal(suffix_array(text), naive_suffix_array(text))

    @given(deeply_tied())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_on_deeply_tied_texts(self, text):
        assert np.array_equal(suffix_array(text), naive_suffix_array(text))

    @pytest.mark.parametrize("length", [1, 2, 14, 15, 16, 17, 31, 32, 33, 64, 65])
    @pytest.mark.parametrize("unit", ["A", "T", "AC", "ACG", "TTTTTTTG"])
    def test_lengths_around_the_packed_prefix(self, unit, length):
        # Shorter than, exactly, and one past the 16 symbols of the first
        # key (with and without the sentinel inside it), then past the
        # doubled widths.
        text = (unit * length)[:length]
        assert np.array_equal(suffix_array(text), naive_suffix_array(text))

    def test_refinement_rounds_run(self, monkeypatch):
        # 200 equal symbols need the widths 16, 32, 64 and 128: the first
        # sort over all 201 suffixes, then four over the shrinking tie.
        sizes = _sorted_elements(monkeypatch)
        text = "A" * 200
        assert np.array_equal(suffix_array(text), naive_suffix_array(text))
        assert sizes == [201, 185, 169, 137, 73]

    def test_human_stand_in_matches_naive(self, human_5k):
        # Repeat copies keep suffixes tied past the first refinement.
        mers = [human_5k[i : i + 33] for i in range(len(human_5k) - 32)]
        assert len(set(mers)) < len(mers)
        assert np.array_equal(suffix_array(human_5k), naive_suffix_array(human_5k))


class TestTableFromOracle:
    """`ExmaTable` arrays equal the ones derived from the naive oracle."""

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_table_arrays(self, human_5k, k):
        table = ExmaTable(human_5k, k=k)
        text = human_5k + "$"
        n = len(text)
        oracle = naive_suffix_array(text)
        assert np.array_equal(table.suffix_array_, oracle)

        # Row r belongs to the k-mer (cyclically) preceding suffix SA[r].
        rows_of: dict[int, list[int]] = {}
        for row, start in enumerate(oracle):
            preceding = (text + text)[(start - k) % n :][:k]
            if "$" not in preceding:
                rows_of.setdefault(pack_kmer(preceding), []).append(row)
        counts = np.zeros(4**k, dtype=np.int64)
        bases = np.full(4**k, n + 1, dtype=np.int64)
        increments: list[int] = []
        for packed in sorted(rows_of):
            counts[packed] = len(rows_of[packed])
            bases[packed] = len(increments)
            increments.extend(rows_of[packed])
        assert np.array_equal(table.increments, increments)
        assert np.array_equal(table.bases, bases)
        assert np.array_equal(table.frequencies_view(), counts)


class TestSortedWork:
    """Deterministic work guard: no wall clock, only how much is sorted."""

    def test_sorts_at_most_three_n_elements(self, monkeypatch):
        # One sort of all n suffixes, then only the still-tied ones
        # (measured: 2.2 n in 6 sorts); a round that re-sorts every suffix
        # would read >= 6 n here.
        text = build_dataset("human", simulated_length=20_000, seed=0).sequence
        sizes = _sorted_elements(monkeypatch)
        suffix_array(text)
        n = len(text) + 1
        assert sizes[0] == n and len(sizes) > 1
        assert sum(sizes) <= 3 * n, (len(sizes), sum(sizes) / n)


class TestInverseSuffixArray:
    def test_inverse_relationship(self):
        text = random_genome(120, seed=4)
        sa = suffix_array(text)
        isa = inverse_suffix_array(sa)
        assert all(isa[sa[i]] == i for i in range(len(sa)))

    def test_is_permutation(self):
        sa = suffix_array(random_genome(80, seed=5))
        assert sorted(inverse_suffix_array(sa)) == list(range(len(sa)))


class TestLcpArray:
    def test_first_entry_zero(self):
        assert lcp_array("ACGTACGT")[0] == 0

    def test_known_repetitive_case(self):
        # For AAAA$, sorted suffixes are $, A$, AA$, AAA$, AAAA$ with LCPs
        # 0, 0, 1, 2, 3.
        assert list(lcp_array("AAAA")) == [0, 0, 1, 2, 3]

    def test_lcp_matches_direct_comparison(self):
        text = random_genome(100, seed=6) + "$"
        sa = suffix_array(text)
        lcp = lcp_array(text, sa)
        for rank in range(1, len(sa)):
            a, b = text[sa[rank - 1] :], text[sa[rank] :]
            common = 0
            while common < min(len(a), len(b)) and a[common] == b[common]:
                common += 1
            assert lcp[rank] == common

    def test_lcp_length_matches(self):
        text = random_genome(60, seed=7)
        assert len(lcp_array(text)) == len(text) + 1
