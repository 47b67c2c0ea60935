"""Tests for the policy base classes and statistics."""

import pytest

from repro.cache import LRUCache, make_policy
from repro.core.policy import CacheStats


class TestCacheStats:
    def test_initial(self):
        s = CacheStats()
        assert s.requests == 0
        assert s.hit_ratio == 0.0

    def test_hit_ratio(self):
        s = CacheStats(hits=3, misses=1)
        assert s.requests == 4
        assert s.hit_ratio == 0.75

    def test_reset(self):
        s = CacheStats(hits=3, misses=1, evictions=2)
        s.reset()
        assert (s.hits, s.misses, s.evictions) == (0, 0, 0)


class TestTemplateBehaviour:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_zero_capacity_never_installs(self):
        c = LRUCache(0)
        assert c.request("a") is False
        assert c.request("a") is False
        assert len(c) == 0
        assert c.stats.misses == 2

    def test_miss_installs(self):
        c = LRUCache(2)
        assert c.request("a") is False
        assert "a" in c and len(c) == 1

    def test_hit_after_install(self):
        c = LRUCache(2)
        c.request("a")
        assert c.request("a") is True
        assert c.stats.hits == 1

    def test_eviction_counted(self):
        c = LRUCache(1)
        c.request("a")
        c.request("b")
        assert c.stats.evictions == 1
        assert "a" not in c

    def test_reset_clears_contents_and_stats(self):
        c = LRUCache(2)
        c.request("a")
        c.request("a")
        c.reset()
        assert len(c) == 0
        assert c.stats.requests == 0
        assert "a" not in c


def test_make_policy_unknown():
    with pytest.raises(ValueError, match="unknown cache policy"):
        make_policy("nope", 4)


def test_make_policy_kwargs():
    c = make_policy("lru2", 4, k=3)
    assert c.k == 3
