"""Tests for the block cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.cache import BlockCache

from tests.conftest import block_cache_state


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = BlockCache(1000)
        assert cache.access("a", 100) is False
        assert cache.access("a", 100) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = BlockCache(250)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("c", 100)       # evicts a
        assert cache.access("a", 100) is False
        assert cache.access("c", 100) is True

    def test_access_refreshes_recency(self):
        cache = BlockCache(250)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("a", 100)       # refresh a
        cache.access("c", 100)       # evicts b, not a
        assert cache.access("a", 100) is True
        assert cache.access("b", 100) is False

    def test_oversized_entry_not_cached(self):
        cache = BlockCache(100)
        assert cache.access("big", 1000) is False
        assert cache.access("big", 1000) is False
        assert len(cache) == 0

    def test_zero_capacity_never_hits(self):
        cache = BlockCache(0)
        assert cache.access("a", 1) is False
        assert cache.access("a", 1) is False

    def test_used_bytes(self):
        cache = BlockCache(1000)
        cache.access("a", 300)
        cache.access("b", 200)
        assert cache.used_bytes == 500

    def test_hit_rate(self):
        cache = BlockCache(1000)
        assert cache.hit_rate() == 0.0
        cache.access("a", 1)
        cache.access("a", 1)
        assert cache.hit_rate() == 0.5


# An access log of up to 12 accesses over 5 keys, whose sizes may differ
# between accesses to the same key (colliding cache keys); runs are
# slices of the log, repeated in any order.
_LOGS = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 60)),
                 max_size=12)


class TestReplay:
    @given(log=_LOGS, data=st.data(), capacity=st.integers(0, 200),
           warm=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 60)),
                         max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_access_by_access(self, log, data, capacity,
                                             warm):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(log)),
                                         max_size=4)))
        bounds = [0] + cuts + [len(log)]
        spans = list(zip(bounds, bounds[1:]))
        runs = data.draw(st.lists(st.sampled_from(spans), max_size=10))
        keys = [key for key, _size in log]
        sizes = [size for _key, size in log]
        batched = BlockCache(capacity)
        scalar = BlockCache(capacity)
        for key, size in warm:
            batched.access(key, size)
            scalar.access(key, size)
        missed = batched.replay(keys, sizes, runs)
        expected = [pos for start, end in runs for pos in range(start, end)
                    if not scalar.access(keys[pos], sizes[pos])]
        assert missed == expected
        assert block_cache_state(batched) == block_cache_state(scalar)

    def test_new_block_keeps_its_first_size(self):
        # No eviction: the fast path.  "a" is new, first seen at 10 bytes.
        cache = BlockCache(1000)
        missed = cache.replay(["a", "b", "a"], [10, 20, 30],
                              [(0, 2), (2, 3)])
        assert missed == [0, 1]
        assert block_cache_state(cache) == ([("b", 20), ("a", 10)], 30, 1, 2)
