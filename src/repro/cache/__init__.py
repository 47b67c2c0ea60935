"""Replacement policies: the paper's baselines plus related-work extras.

Baselines evaluated in the paper: :class:`FIFOCache`, :class:`LRUCache`,
:class:`LFUCache`, :class:`ARCCache`.  Related-work policies implemented
for completeness: :class:`LRUKCache`, :class:`TwoQCache`,
:class:`LRFUCache`, :class:`FBRCache`.  The FBF policy itself is
:class:`repro.core.FBFCache` and is also reachable through
:func:`make_policy("fbf", ...) <make_policy>`.
"""

from ..core.policy import CachePolicy, CacheStats, SimpleCachePolicy
from .arc import ARCCache
from .fbr import FBRCache
from .fifo import FIFOCache
from .lfu import LFUCache
from .lirs import LIRSCache
from .lrfu import LRFUCache
from .lru import LRUCache
from .lruk import LRUKCache
from .mq import MQCache
from .registry import PAPER_BASELINES, POLICIES, available_policies, make_policy
from .twoq import TwoQCache

__all__ = [
    "CachePolicy",
    "CacheStats",
    "SimpleCachePolicy",
    "FIFOCache",
    "LRUCache",
    "LFUCache",
    "ARCCache",
    "LRUKCache",
    "TwoQCache",
    "LRFUCache",
    "FBRCache",
    "MQCache",
    "LIRSCache",
    "POLICIES",
    "PAPER_BASELINES",
    "available_policies",
    "make_policy",
]
