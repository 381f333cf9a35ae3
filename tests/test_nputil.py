"""Unit tests for shared vectorised utilities."""

import numpy as np
import pytest

from repro.nputil import expand_slices, merge_min, segment_ranges, sorted_unique


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


class TestMergeMin:
    def test_basic(self):
        idx, val = merge_min(
            np.array([1, 4, 6]), np.array([9, 3, 5]), np.array([0, 4, 7]),
            np.array([2, 1, 8]),
        )
        assert idx.tolist() == [0, 1, 4, 6, 7]
        assert val.tolist() == [2, 9, 1, 5, 8]

    def test_empty_sides(self):
        one = (np.array([2, 5]), np.array([1, 1], dtype=np.int32))
        none = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
        for a, b in ((one, none), (none, one)):
            idx, val = merge_min(*a, *b)
            assert idx.tolist() == [2, 5] and val.tolist() == [1, 1]
            assert val.dtype == np.int32

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_random_matches_dict_union(self, dtype):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = np.unique(rng.integers(0, 40, size=rng.integers(0, 30)))
            b = np.unique(rng.integers(0, 40, size=rng.integers(0, 30)))
            a_val = rng.integers(0, 40, size=a.shape[0]).astype(dtype)
            b_val = rng.integers(0, 40, size=b.shape[0]).astype(dtype)
            kept = a_val.copy()
            idx, val = merge_min(a, a_val, b, b_val)
            want = dict(zip(a.tolist(), a_val.tolist()))
            for i, v in zip(b.tolist(), b_val.tolist()):
                want[i] = min(v, want.get(i, v))
            assert idx.tolist() == sorted(want)
            assert val.tolist() == [want[i] for i in sorted(want)]
            assert val.dtype == dtype
            assert np.array_equal(a_val, kept)  # inputs untouched
