"""Typed request/result contracts of the cache-advisor service.

Everything the serve layer exchanges — with its operator (via
:class:`ServeConfig`), with its clients (:class:`ArraySpec` in,
:class:`Advice` out) — is a frozen dataclass validated at construction,
so a malformed deployment or query fails loudly at the edge instead of
deep inside an asyncio task.  The same types are re-exported as the
``repro.api.v2.serve`` namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServeConfig", "ArraySpec", "Advice"]

#: Default candidate policies the advisor races against each other.
DEFAULT_POLICIES: tuple[str, ...] = ("fifo", "lru", "lfu", "arc", "fbf")

#: Default candidate cache capacities (MB), the QUICK-scale axis.
DEFAULT_CACHE_MBS: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class ServeConfig:
    """One advisor deployment: the array it serves and its serving knobs.

    The simulation vocabulary matches the bench layer (``workers`` is
    the *simulated* SOR worker count; ``chunk_size`` converts MB to
    block counts).  The serving knobs bound every resource the always-on
    loop consumes: ``queue_limit`` caps the ingest queue (overflow is
    shed and counted, never buffered), and ``window_events`` caps the
    replay window, which is all of the log the advisor retains.
    """

    # -- the served array ---------------------------------------------------
    code: str = "tip"
    p: int = 7
    scheme_mode: str = "fbf"
    hint: str = "priority"
    workers: int = 32  #: simulated SOR worker count per evaluation

    # -- the candidate grid -------------------------------------------------
    policies: tuple[str, ...] = DEFAULT_POLICIES
    cache_mbs: tuple[float, ...] = DEFAULT_CACHE_MBS
    chunk_size: str = "32KB"

    # -- serving knobs ------------------------------------------------------
    window_events: int = 192  #: sliding evaluation window (events)
    batch_events: int = 24  #: ingest batch size between evaluations
    queue_limit: int = 1024  #: bounded ingest queue; overflow is shed
    checkpoint_path: str | None = None
    checkpoint_every: int = 8  #: batches between checkpoints (0 = final only)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("policies must not be empty")
        if not self.cache_mbs:
            raise ValueError("cache_mbs must not be empty")
        if any(mb <= 0 for mb in self.cache_mbs):
            raise ValueError(f"cache_mbs must be positive, got {self.cache_mbs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.window_events < 1:
            raise ValueError(
                f"window_events must be >= 1, got {self.window_events}"
            )
        if self.batch_events < 1:
            raise ValueError(f"batch_events must be >= 1, got {self.batch_events}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    def fingerprint(self) -> dict:
        """The simulation-relevant identity a checkpoint must match.

        Serving knobs (queue sizes, checkpoint cadence) may change across
        a restart without invalidating replay state; the array, the
        candidate grid and the window geometry may not.
        """
        return {
            "code": self.code,
            "p": self.p,
            "scheme_mode": self.scheme_mode,
            "hint": self.hint,
            "workers": self.workers,
            "policies": list(self.policies),
            "cache_mbs": list(self.cache_mbs),
            "chunk_size": self.chunk_size,
            "window_events": self.window_events,
        }


@dataclass(frozen=True)
class ArraySpec:
    """An ``advise`` query: which array is asking, and at what fan-out.

    ``code``/``p`` must match the deployment (the advisor's window was
    replayed against that array's recovery plans; advice for a different
    geometry would be fabricated).  ``workers`` may override the
    deployment default — the window is then re-evaluated at that SOR
    fan-out.
    """

    code: str = "tip"
    p: int = 7
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class Advice:
    """The advisor's answer: run this policy at this capacity.

    ``confidence`` is deterministic in the window state:
    ``fill * (1 - 1 / (1 + 100 * lead))`` where ``fill`` is the observed
    fraction of a full window and ``lead`` is the winner's hit-ratio
    margin over the runner-up — 0 when the top candidates tie, saturating
    toward ``fill`` as the lead widens.
    """

    policy: str
    cache_mb: float
    capacity_blocks: int
    hit_ratio: float
    confidence: float
    window_events: int  #: events actually in the evaluated window
    window_start: int  #: log position of the window's first event
    evaluated: int  #: candidate (policy x capacity) rows ranked
    workers: int  #: SOR fan-out the evaluation used

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)
