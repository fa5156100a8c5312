"""Tests for the LLC model and private-cache filter bits."""

import gc
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import LlcModel, PrivateCacheFilter


class TestPrivateCacheFilter:
    def test_starts_empty(self):
        filt = PrivateCacheFilter()
        assert not filt.has_recorded_read(1)
        assert not filt.has_recorded_write(1)
        assert filt.recorded_line_count == 0

    def test_record_read(self):
        filt = PrivateCacheFilter()
        filt.record_read(5)
        assert filt.has_recorded_read(5)
        assert not filt.has_recorded_write(5)

    def test_record_write_implies_read_coverage(self):
        filt = PrivateCacheFilter()
        filt.record_write(7)
        assert filt.has_recorded_write(7)
        assert filt.has_recorded_read(7)

    def test_clear_on_context_switch(self):
        filt = PrivateCacheFilter()
        filt.record_read(1)
        filt.record_write(2)
        filt.clear()
        assert filt.recorded_line_count == 0
        assert not filt.has_recorded_read(1)


class TestLlcModel:
    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            LlcModel(sets=0, ways=4)

    def test_touch_inserts_line(self):
        llc = LlcModel(sets=4, ways=2)
        assert llc.touch(0) is None
        assert llc.contains(0)

    def test_speculative_write_tracked(self):
        llc = LlcModel(sets=4, ways=2)
        llc.touch(8, writer=3)
        assert llc.lines_written_by(3) == {8}
        assert llc.speculative_line_count(3) == 1

    def test_eviction_prefers_non_speculative(self):
        llc = LlcModel(sets=1, ways=2)
        llc.touch(0, writer=1)  # speculative
        llc.touch(1)            # clean
        victim = llc.touch(2)   # set full: must evict the clean line
        assert victim is None
        assert llc.contains(0)
        assert not llc.contains(1)
        assert llc.eviction_count == 1
        assert llc.speculative_eviction_count == 0

    def test_all_speculative_set_evicts_and_reports_owner(self):
        llc = LlcModel(sets=1, ways=2)
        llc.touch(0, writer=10)
        llc.touch(1, writer=11)
        victim = llc.touch(2, writer=12)
        assert victim == 10  # LRU speculative line's owner gets squashed
        assert llc.speculative_eviction_count == 1
        assert llc.lines_written_by(10) == set()

    def test_touch_existing_line_refreshes_lru(self):
        llc = LlcModel(sets=1, ways=2)
        llc.touch(0)
        llc.touch(1)
        llc.touch(0)  # 0 becomes MRU
        llc.touch(2)  # evicts 1, not 0
        assert llc.contains(0)
        assert not llc.contains(1)

    def test_clear_tags_makes_lines_non_speculative(self):
        llc = LlcModel(sets=4, ways=2)
        llc.touch(0, writer=5)
        llc.touch(4, writer=5)
        cleared = llc.clear_tags(5)
        assert cleared == 2
        assert llc.lines_written_by(5) == set()
        assert llc.contains(0) and llc.contains(4)

    def test_invalidate_tags_drops_lines(self):
        llc = LlcModel(sets=4, ways=2)
        llc.touch(0, writer=5)
        dropped = llc.invalidate_tags(5)
        assert dropped == 1
        assert not llc.contains(0)

    def test_rewrite_by_new_writer_transfers_ownership(self):
        llc = LlcModel(sets=4, ways=2)
        llc.touch(0, writer=1)
        llc.touch(0, writer=2)
        assert llc.lines_written_by(1) == set()
        assert llc.lines_written_by(2) == {0}

    def test_read_of_speculative_line_keeps_owner(self):
        llc = LlcModel(sets=4, ways=2)
        llc.touch(0, writer=1)
        llc.touch(0)  # plain access must not clear the tag
        assert llc.lines_written_by(1) == {0}

    def test_warm_prepopulates_clean_lines(self):
        llc = LlcModel(sets=8, ways=2)
        llc.warm(range(8))
        assert all(llc.contains(line) for line in range(8))
        assert llc.eviction_count == 0

    def test_set_index_wraps(self):
        llc = LlcModel(sets=4, ways=1)
        assert llc.set_index(0) == llc.set_index(4) == 0

    def test_line_of_uses_line_bytes(self):
        llc = LlcModel(sets=4, ways=1, line_bytes=64)
        assert llc.line_of(0) == 0
        assert llc.line_of(63) == 0
        assert llc.line_of(64) == 1

    def test_sets_are_not_gc_tracked(self):
        llc = LlcModel(sets=8, ways=2)
        for line in range(40):
            llc.touch(line, writer=line % 3 or None)
        llc.clear_tags(1)
        assert not any(gc.is_tracked(target) for target in llc._sets)


#: One LLC step: touch (optionally as a writer), clear or drop a txid.
_LLC_OPS = st.lists(st.one_of(
    st.tuples(st.just("touch"), st.integers(0, 23),
              st.one_of(st.none(), st.integers(1, 4))),
    st.tuples(st.just("clear"), st.integers(1, 4)),
    st.tuples(st.just("invalidate"), st.integers(1, 4))), max_size=80)


@given(ops=_LLC_OPS)
@settings(max_examples=150, deadline=None)
def test_plain_dict_sets_evict_like_ordered_dicts(ops):
    """Property: plain-dict sets give the same eviction order and the
    same speculative victims as the ``OrderedDict`` sets they replaced."""
    llc = LlcModel(sets=2, ways=3)
    reference = LlcModel(sets=2, ways=3)
    reference._sets = [OrderedDict() for _ in range(2)]
    for op in ops:
        if op[0] == "touch":
            assert llc.touch(op[1], writer=op[2]) == reference.touch(
                op[1], writer=op[2])
        elif op[0] == "clear":
            assert llc.clear_tags(op[1]) == reference.clear_tags(op[1])
        else:
            assert llc.invalidate_tags(op[1]) == reference.invalidate_tags(
                op[1])
        assert [list(target.items()) for target in llc._sets] == [
            list(target.items()) for target in reference._sets]
    assert (llc.eviction_count, llc.speculative_eviction_count) == (
        reference.eviction_count, reference.speculative_eviction_count)
