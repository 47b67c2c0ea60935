"""Name-based registry of replacement policies.

The FBF policy itself lives in :mod:`repro.core` (it is the paper's
contribution, not a baseline) but registers here so experiment configs can
name every policy uniformly.
"""

from __future__ import annotations

from typing import Callable

from ..core.policy import CachePolicy
from .arc import ARCCache
from .fbr import FBRCache
from .fifo import FIFOCache
from .lfu import LFUCache
from .lirs import LIRSCache
from .lrfu import LRFUCache
from .lru import LRUCache
from .lruk import LRUKCache
from .mq import MQCache
from .twoq import TwoQCache

__all__ = ["POLICIES", "PAPER_BASELINES", "make_policy", "available_policies"]


def _make_fbf(capacity: int, **kwargs) -> CachePolicy:
    from ..core.fbf_cache import FBFCache

    return FBFCache(capacity, **kwargs)


POLICIES: dict[str, Callable[[int], CachePolicy]] = {
    "fifo": FIFOCache,
    "lru": LRUCache,
    "lfu": LFUCache,
    "arc": ARCCache,
    "lru2": LRUKCache,
    "2q": TwoQCache,
    "lrfu": LRFUCache,
    "fbr": FBRCache,
    "mq": MQCache,
    "lirs": LIRSCache,
    "fbf": _make_fbf,
}

#: the four baselines the paper compares against, in its reporting order.
PAPER_BASELINES: tuple[str, ...] = ("fifo", "lru", "lfu", "arc")


def available_policies() -> tuple[str, ...]:
    return tuple(POLICIES)


def make_policy(name: str, capacity: int, **kwargs) -> CachePolicy:
    """Instantiate a policy by registry name."""
    key = name.strip().lower()
    try:
        factory = POLICIES[key]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; available: {', '.join(sorted(POLICIES))}"
        ) from None
    return factory(capacity, **kwargs)
