"""Tests for Bloom filters, including the split write-BF of Fig. 8."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BloomParams
from repro.hardware.bloom import (
    BLOOM_OPS,
    BloomFilter,
    SplitWriteBloomFilter,
    make_core_read_filter,
    make_core_write_filter,
    make_nic_filter_pair,
)


def test_empty_filter_contains_nothing():
    bf = BloomFilter(1024, hashes=2)
    assert not bf.might_contain(0)
    assert not bf.might_contain(12345)
    assert bf.is_empty


def test_inserted_keys_always_found():
    bf = BloomFilter(1024, hashes=2)
    keys = [3, 77, 1 << 40, 999999]
    bf.insert_all(keys)
    assert all(bf.might_contain(key) for key in keys)
    assert bf.inserted_count == 4


def test_clear_resets_filter():
    bf = BloomFilter(1024, hashes=2)
    bf.insert(42)
    bf.clear()
    assert bf.is_empty
    assert not bf.might_contain(42)
    assert bf.inserted_count == 0


def test_too_small_filter_rejected():
    with pytest.raises(ValueError):
        BloomFilter(4)


def test_set_bit_count_grows_with_inserts():
    bf = BloomFilter(1024, hashes=2)
    assert bf.set_bit_count() == 0
    bf.insert(1)
    first = bf.set_bit_count()
    assert 1 <= first <= 2
    bf.insert(2)
    assert bf.set_bit_count() >= first


def test_analytic_fp_rate_matches_paper_table_iv_1kbit():
    """Table IV row 1: 1 Kbit filter at 10/20/50/100 inserted lines."""
    bf = BloomFilter(1024, hashes=2)
    expectations = {10: 0.0004, 20: 0.00138, 50: 0.00877, 100: 0.0326}
    for inserted, paper_rate in expectations.items():
        ours = bf.analytic_false_positive_rate(inserted)
        assert ours == pytest.approx(paper_rate, rel=0.15)


def test_analytic_fp_rate_split_matches_paper_table_iv():
    """Table IV row 2: 512 bit + 4 Kbit split filter."""
    bf = SplitWriteBloomFilter(crc_bits=512, index_bits=4096, crc_hashes=1,
                               llc_sets=4096)
    expectations = {20: 0.00022, 100: 0.00439}
    for inserted, paper_rate in expectations.items():
        ours = bf.analytic_false_positive_rate(inserted)
        assert ours == pytest.approx(paper_rate, rel=0.25)


def test_empirical_fp_rate_close_to_analytic():
    bf = BloomFilter(1024, hashes=2)
    inserted = list(range(0, 5000, 100))  # 50 keys
    bf.insert_all(inserted)
    probes = [k for k in range(100000, 140000) if k not in inserted]
    false_hits = sum(1 for k in probes if bf.might_contain(k))
    empirical = false_hits / len(probes)
    analytic = bf.analytic_false_positive_rate(50)
    assert empirical == pytest.approx(analytic, rel=0.5, abs=0.003)


def test_analytic_fp_zero_inserts():
    assert BloomFilter(1024).analytic_false_positive_rate(0) == 0.0
    with pytest.raises(ValueError):
        BloomFilter(1024).analytic_false_positive_rate(-1)


def test_split_filter_membership_requires_both_sections():
    bf = SplitWriteBloomFilter(crc_bits=512, index_bits=4096, llc_sets=4096)
    bf.insert(64 * 7)
    assert bf.might_contain(64 * 7)
    assert not bf.might_contain(64 * 8)


def test_split_filter_clear():
    bf = SplitWriteBloomFilter()
    bf.insert(128)
    bf.clear()
    assert bf.is_empty
    assert not bf.might_contain(128)


def test_split_filter_enabled_llc_sets():
    """A set WrBF2 bit enables exactly the LLC sets mapping to it."""
    bf = SplitWriteBloomFilter(crc_bits=512, index_bits=4, llc_sets=8,
                               line_bytes=64)
    address = 64 * 2  # line 2 -> LLC set 2 -> WrBF2 bit 2
    bf.insert(address)
    assert bf.enabled_llc_sets() == {2, 6}


def test_split_filter_enabled_sets_empty_when_clear():
    bf = SplitWriteBloomFilter(crc_bits=512, index_bits=16, llc_sets=64)
    assert bf.enabled_llc_sets() == set()


def test_split_filter_validates_llc_sets():
    with pytest.raises(ValueError):
        SplitWriteBloomFilter(llc_sets=0)


def test_split_filter_insert_counts_both_sections():
    """Regression: WrBF2 index-array updates are BF write accesses too.

    The Table III energy model charges one write per section; only
    counting WrBF1's (via ``crc_section.insert``) under-reported split
    write-BF energy by half."""
    BloomFilter.reset_stats()
    bf = SplitWriteBloomFilter(llc_sets=4096)
    bf.insert(64)
    assert BLOOM_OPS.writes == 2  # WrBF1 + WrBF2
    bf.insert_all([128, 192])
    assert BLOOM_OPS.writes == 6
    BloomFilter.reset_stats()


def test_split_filter_probe_counts_both_sections_even_on_miss():
    """The hardware probes WrBF1 and WrBF2 in parallel: a probe costs
    one read per section regardless of the outcome."""
    bf = SplitWriteBloomFilter(crc_bits=512, index_bits=8, llc_sets=8)
    bf.insert(0)
    BloomFilter.reset_stats()
    assert bf.might_contain(0)  # WrBF2 hit, then WrBF1 confirms
    assert BLOOM_OPS.reads == 2
    assert not bf.might_contain(64)  # WrBF2 miss; WrBF1 already issued
    assert BLOOM_OPS.reads == 4
    BloomFilter.reset_stats()


def test_factory_sizes_match_table_iii():
    params = BloomParams()
    read_bf = make_core_read_filter(params)
    write_bf = make_core_write_filter(params, llc_sets=4096)
    assert read_bf.bits == 1024
    assert write_bf.bits == 512 + 4096
    # 0.7 KB per core pair, 0.25 KB per NIC pair (Section VI).
    assert params.core_pair_bytes == 704  # 5632 bits / 8 -> ~0.7 KB
    assert params.nic_pair_bytes == 256
    nic_read, nic_write = make_nic_filter_pair(params)
    assert nic_read.bits == nic_write.bits == 1024


def test_repeated_inserts_counted_once_as_distinct():
    """Regression: zipfian re-inserts must not inflate occupancy stats.

    ``inserted_count`` is the energy model's write-access count (every
    insert is a BF write, duplicates included); the analytic FP rate is
    defined over *distinct* keys.  Conflating the two over-estimated
    occupancy under hot-key workloads."""
    bf = BloomFilter(1024, hashes=2)
    for _ in range(50):
        bf.insert(42)
    bf.insert(43)
    assert bf.inserted_count == 51
    assert bf.distinct_inserted_count == 2
    bits_after = bf.set_bit_count()
    bf.insert(42)
    assert bf.set_bit_count() == bits_after  # re-insert sets no new bits
    bf.clear()
    assert bf.inserted_count == 0
    assert bf.distinct_inserted_count == 0


def test_split_filter_repeated_inserts_counted_once_as_distinct():
    bf = SplitWriteBloomFilter(llc_sets=4096)
    for _ in range(10):
        bf.insert(64)
    assert bf.inserted_count == 10
    assert bf.distinct_inserted_count == 1
    bf.insert(128)
    assert bf.distinct_inserted_count == 2
    bf.clear()
    assert bf.distinct_inserted_count == 0


@given(st.sets(st.integers(min_value=0, max_value=2 ** 48), min_size=1,
               max_size=100))
@settings(max_examples=50, deadline=None)
def test_no_false_negatives_property(keys):
    """A Bloom filter never forgets an inserted key."""
    bf = BloomFilter(1024, hashes=2)
    bf.insert_all(keys)
    assert all(bf.might_contain(key) for key in keys)


@given(st.sets(st.integers(min_value=0, max_value=2 ** 40), min_size=1,
               max_size=60))
@settings(max_examples=50, deadline=None)
def test_split_filter_no_false_negatives_property(keys):
    bf = SplitWriteBloomFilter(llc_sets=4096)
    bf.insert_all(keys)
    assert all(bf.might_contain(key) for key in keys)


@given(st.sets(st.integers(min_value=0, max_value=2 ** 30), min_size=1,
               max_size=40))
@settings(max_examples=30, deadline=None)
def test_enabled_sets_cover_all_written_lines(keys):
    """Fig. 8 invariant: every written line's LLC set is enabled."""
    bf = SplitWriteBloomFilter(crc_bits=512, index_bits=64, llc_sets=256)
    bf.insert_all(keys)
    enabled = bf.enabled_llc_sets()
    for key in keys:
        assert bf._llc_index(key) in enabled
