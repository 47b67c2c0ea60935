"""Durable advisor state: atomic JSON checkpoints, fingerprint-gated.

A checkpoint is the advisor's retained event log plus counters and the
deployment fingerprint, written atomically (temp file + ``os.replace``
in the same directory) so a crash mid-write leaves the previous
checkpoint intact.  Restoring replays the retained events through a
fresh interner — interning is a pure function of the event sequence, so
the restored advisor's next evaluation is bit-identical to what the
pre-crash process would have produced.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..obs import runtime as _obs
from .advisor import CacheAdvisor
from .config import ServeConfig

__all__ = [
    "CHECKPOINT_SCHEMA",
    "write_checkpoint",
    "load_checkpoint",
    "restore_advisor",
]

#: Bump when the checkpoint payload shape changes; loaders reject others.
CHECKPOINT_SCHEMA = 1


def write_checkpoint(path: str | Path, advisor: CacheAdvisor) -> Path:
    """Atomically persist the advisor's replay state; returns the path."""
    path = Path(path)
    payload = {"schema": CHECKPOINT_SCHEMA, "state": advisor.state()}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if _obs.ENABLED:
        _obs.counter("serve.checkpoint.writes").inc()
        _obs.gauge("serve.checkpoint.bytes").set(len(text))
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Read and validate one checkpoint payload; raises ``ValueError``."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict) or "state" not in payload:
        raise ValueError(f"corrupt checkpoint {path}: missing state")
    schema = payload.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"checkpoint {path} has schema {schema!r}; "
            f"this build reads schema {CHECKPOINT_SCHEMA}"
        )
    return payload["state"]


def restore_advisor(config: ServeConfig, path: str | Path) -> CacheAdvisor | None:
    """Resume from ``path`` if it exists; None means start fresh.

    A present-but-incompatible checkpoint (corrupt, wrong schema, or a
    fingerprint for a different deployment) raises rather than silently
    discarding replay state — the operator chose durability, so losing
    it should be loud.
    """
    path = Path(path)
    if not path.exists():
        return None
    state = load_checkpoint(path)
    advisor = CacheAdvisor.from_state(config, state)
    if _obs.ENABLED:
        _obs.counter("serve.checkpoint.restores").inc()
    return advisor
