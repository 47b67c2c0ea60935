"""Tests for the cache-policy registry."""

import pytest

from repro.cache.registry import (
    PAPER_BASELINES,
    POLICIES,
    available_policies,
    make_policy,
)
from repro.core.policy import CachePolicy


class TestLookup:
    def test_unknown_policy_raises_with_listing(self):
        with pytest.raises(ValueError, match="unknown cache policy 'clock'"):
            make_policy("clock", 8)
        # The error names every valid choice, so typos are self-diagnosing.
        with pytest.raises(ValueError, match="arc.*fbf.*fifo"):
            make_policy("nope", 8)

    def test_case_and_whitespace_insensitive(self):
        assert make_policy(" LRU ", 4).name == "lru"
        assert make_policy("FBF", 4).name == "fbf"

    def test_kwargs_forwarded(self):
        fbf = make_policy("fbf", 4, demote_on_hit=False, n_queues=5)
        assert fbf.demote_on_hit is False and fbf.n_queues == 5


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_registered_name_constructs_and_matches(self, name):
        """Registry name -> instance -> .name round-trips exactly."""
        policy = make_policy(name, 8)
        assert isinstance(policy, CachePolicy)
        assert policy.name == name
        assert policy.capacity == 8
        # A fresh instance is empty with zeroed stats.
        assert len(policy) == 0 and policy.stats.requests == 0
        # And actually usable: one miss then one hit.
        assert policy.request("blk") is False
        assert policy.request("blk") is True

    def test_no_duplicate_registrations(self):
        """Every factory yields a distinct policy class/name."""
        names = [make_policy(n, 4).name for n in POLICIES]
        assert len(names) == len(set(names))
        classes = [type(make_policy(n, 4)) for n in POLICIES]
        assert len(classes) == len(set(classes))

    def test_available_policies_matches_registry(self):
        assert set(available_policies()) == set(POLICIES)

    def test_instances_are_independent(self):
        """No shared state between two instances of the same policy."""
        a = make_policy("lru", 4)
        b = make_policy("lru", 4)
        a.request("x")
        assert "x" in a and "x" not in b
        assert b.stats.requests == 0


class TestPaperBaselines:
    def test_baselines_are_registered(self):
        assert set(PAPER_BASELINES) <= set(POLICIES)

    def test_paper_reporting_order(self):
        assert PAPER_BASELINES == ("fifo", "lru", "lfu", "arc")
