"""Intervals and the range map behind the OS region table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.errors import AddressError
from repro.util.intervals import Interval, RangeMap


class TestInterval:
    def test_sized_constructor(self):
        interval = Interval.sized(0x1000, 0x200)
        assert interval.start == 0x1000
        assert interval.end == 0x1200
        assert interval.size == 0x200

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 5)

    def test_empty_interval_is_falsy(self):
        assert not Interval(5, 5)
        assert Interval(5, 6)

    def test_contains_is_half_open(self):
        interval = Interval(10, 20)
        assert interval.contains(10)
        assert interval.contains(19)
        assert not interval.contains(20)
        assert not interval.contains(9)

    def test_contains_interval(self):
        outer = Interval(0, 100)
        assert outer.contains_interval(Interval(0, 100))
        assert outer.contains_interval(Interval(10, 20))
        assert not outer.contains_interval(Interval(90, 101))

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))
        assert not Interval(0, 10).overlaps(Interval(10, 20))
        assert Interval(5, 6).overlaps(Interval(0, 100))

    def test_intersection(self):
        assert Interval(0, 10).intersection(Interval(5, 20)) == Interval(5, 10)
        assert not Interval(0, 10).intersection(Interval(20, 30))

    def test_split_chunks_covers_exactly(self):
        pieces = list(Interval(0, 10).split_chunks(4))
        assert pieces == [Interval(0, 4), Interval(4, 8), Interval(8, 10)]

    def test_split_chunks_bad_size(self):
        with pytest.raises(ValueError):
            list(Interval(0, 10).split_chunks(0))

    def test_aligned_chunks_cut_at_absolute_boundaries(self):
        pieces = list(Interval(6, 22).aligned_chunks(8))
        assert pieces == [Interval(6, 8), Interval(8, 16), Interval(16, 22)]

    @given(
        start=st.integers(0, 1 << 20),
        size=st.integers(1, 1 << 16),
        chunk=st.integers(1, 1 << 12),
    )
    # size=65536, chunk=1 builds 65,536 chunks twice: over 200 ms at times.
    @settings(deadline=None)
    def test_chunking_partitions_the_interval(self, start, size, chunk):
        interval = Interval.sized(start, size)
        for chunks in (
            list(interval.split_chunks(chunk)),
            list(interval.aligned_chunks(chunk)),
        ):
            assert chunks[0].start == interval.start
            assert chunks[-1].end == interval.end
            for left, right in zip(chunks, chunks[1:]):
                assert left.end == right.start
            assert all(piece.size <= chunk for piece in chunks)


class TestRangeMap:
    def test_add_and_find(self):
        rmap = RangeMap()
        rmap.add(Interval(100, 200), "a")
        rmap.add(Interval(300, 400), "b")
        assert rmap.find(150) == (Interval(100, 200), "a")
        assert rmap.find(300) == (Interval(300, 400), "b")
        assert rmap.find(250) is None
        assert rmap.find(99) is None

    def test_overlap_rejected(self):
        rmap = RangeMap()
        rmap.add(Interval(100, 200), "a")
        with pytest.raises(AddressError):
            rmap.add(Interval(150, 250), "b")
        with pytest.raises(AddressError):
            rmap.add(Interval(50, 101), "c")

    def test_adjacent_allowed(self):
        rmap = RangeMap()
        rmap.add(Interval(100, 200), "a")
        rmap.add(Interval(200, 300), "b")
        assert len(rmap) == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            RangeMap().add(Interval(5, 5), "x")

    def test_remove(self):
        rmap = RangeMap()
        rmap.add(Interval(100, 200), "a")
        interval, value = rmap.remove(100)
        assert (interval, value) == (Interval(100, 200), "a")
        assert len(rmap) == 0
        with pytest.raises(AddressError):
            rmap.remove(100)

    def test_find_exact(self):
        rmap = RangeMap()
        rmap.add(Interval(100, 200), "a")
        assert rmap.find_exact(100) == (Interval(100, 200), "a")
        assert rmap.find_exact(150) is None

    def test_overlapping_query(self):
        rmap = RangeMap()
        rmap.add(Interval(0, 10), "a")
        rmap.add(Interval(20, 30), "b")
        rmap.add(Interval(40, 50), "c")
        hits = rmap.overlapping(Interval(5, 45))
        assert [value for _, value in hits] == ["a", "b", "c"]
        assert rmap.overlapping(Interval(10, 20)) == []

    def test_find_gap_lowest_fit(self):
        rmap = RangeMap()
        rmap.add(Interval(0x1000, 0x2000), "a")
        rmap.add(Interval(0x3000, 0x4000), "b")
        gap = rmap.find_gap(0x1000, 0x0, 0x10000, alignment=0x1000)
        assert gap == Interval(0x0, 0x1000)
        gap = rmap.find_gap(0x1000, 0x1000, 0x10000, alignment=0x1000)
        assert gap == Interval(0x2000, 0x3000)

    def test_find_gap_none_when_full(self):
        rmap = RangeMap()
        rmap.add(Interval(0, 100), "a")
        assert rmap.find_gap(10, 0, 100) is None

    def test_find_gap_respects_alignment(self):
        rmap = RangeMap()
        rmap.add(Interval(0, 5), "a")
        gap = rmap.find_gap(8, 0, 100, alignment=8)
        assert gap.start % 8 == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 50)),
            max_size=30,
        )
    )
    def test_insertions_never_overlap(self, requests):
        rmap = RangeMap()
        accepted = []
        for start, size in requests:
            interval = Interval.sized(start, size)
            try:
                rmap.add(interval, None)
            except AddressError:
                assert any(interval.overlaps(other) for other in accepted)
            else:
                accepted.append(interval)
        intervals = rmap.intervals()
        assert intervals == sorted(intervals)
        for left, right in zip(intervals, intervals[1:]):
            assert left.end <= right.start
