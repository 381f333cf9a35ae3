"""Unit tests for shared vectorised utilities."""

import numpy as np
import pytest

from repro.nputil import expand_slices, segment_ranges, sorted_unique


class TestSegmentRanges:
    def test_basic(self):
        assert segment_ranges(np.array([2, 0, 3])).tolist() == [0, 1, 0, 1, 2]

    def test_single_segment(self):
        assert segment_ranges(np.array([4])).tolist() == [0, 1, 2, 3]

    def test_all_zero(self):
        assert segment_ranges(np.array([0, 0])).tolist() == []

    def test_empty(self):
        assert segment_ranges(np.array([], dtype=np.int64)).tolist() == []

    def test_leading_and_trailing_zeros(self):
        assert segment_ranges(np.array([0, 2, 0, 1, 0])).tolist() == [0, 1, 0]

    def test_ones(self):
        assert segment_ranges(np.ones(5, dtype=np.int64)).tolist() == [0] * 5

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 6, size=rng.integers(0, 12))
            expected = [i for c in counts for i in range(c)]
            assert segment_ranges(counts).tolist() == expected


class TestExpandSlices:
    def test_basic(self):
        owner, offset = expand_slices(
            np.array([10, 20, 30]), np.array([2, 0, 3])
        )
        assert owner.tolist() == [0, 0, 2, 2, 2]
        assert offset.tolist() == [10, 11, 30, 31, 32]

    def test_negative_counts_clamped(self):
        owner, offset = expand_slices(np.array([5, 7]), np.array([-3, 2]))
        assert owner.tolist() == [1, 1]
        assert offset.tolist() == [7, 8]

    def test_empty(self):
        owner, offset = expand_slices(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert owner.size == 0
        assert offset.size == 0


class TestSortedUnique:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3], [5, 1, 4, 1, 5, 9, 2, 6, 5, 3]],
        ids=["empty", "one", "all-equal", "mixed"],
    )
    def test_equals_np_unique(self, values, dtype):
        arr = np.array(values, dtype=dtype)
        out = sorted_unique(arr)
        expected = np.unique(arr)
        assert out.dtype == expected.dtype == dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_random_matches_np_unique(self, dtype):
        rng = np.random.default_rng(7)
        for size in (2, 10, 1000):
            arr = rng.integers(-50, 50, size=size).astype(dtype)
            assert np.array_equal(sorted_unique(arr), np.unique(arr))

    def test_flattens_like_np_unique(self):
        arr = np.array([[3, 1], [1, 2]])
        assert sorted_unique(arr).tolist() == np.unique(arr).tolist() == [1, 2, 3]

    def test_input_untouched(self):
        arr = np.array([3, 1, 3])
        sorted_unique(arr)
        assert arr.tolist() == [3, 1, 3]
