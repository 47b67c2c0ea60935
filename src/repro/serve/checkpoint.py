"""Durable advisor state: atomic JSON checkpoints, fingerprint-gated.

A checkpoint is the advisor's retained event log (its current window)
plus counters and the deployment fingerprint, written atomically (temp
file + ``os.replace`` in the same directory) so a crash mid-write
leaves the previous checkpoint intact.  Restoring hands the retained
events and the dropped count to a fresh advisor — those are its whole
replay state, since each evaluation decodes its window afresh — so the
restored advisor's next evaluation is bit-identical to what the
pre-crash process would have produced.

The file is canonical JSON (sorted keys, no spaces), so identical state
gives identical bytes.  Checkpoints written less than a window apart
share part of their retained log, so a :class:`CheckpointWriter` keeps
each retained event's record as JSON text between its writes and
encodes only the events ingested since the last one; an advisor that
never checkpoints encodes nothing.
"""

from __future__ import annotations

import json
import os
import tempfile
from math import isfinite
from pathlib import Path

from ..obs import runtime as _obs
from ..workloads import PartialStripeError
from .advisor import CacheAdvisor
from .config import ServeConfig
from .loadgen import records_for

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointWriter",
    "write_checkpoint",
    "load_checkpoint",
    "restore_advisor",
]

#: Bump when the checkpoint payload shape changes; loaders reject others.
CHECKPOINT_SCHEMA = 1


#: The checkpoint's JSON encoding: sorted keys, no spaces.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_RECORD = '{"disk":%d,"length":%d,"start_row":%d,"stripe":%d,"time":%r}'


def _encode_record(event: PartialStripeError) -> str:
    """``_encode(records_for([event])[0])``, byte for byte.

    Plain ints and a finite float time, which is what ``parse_record``
    and the synthetic source produce, take a format string (``%r`` of a
    float is the repr ``json`` writes) at about a third of the
    encoder's cost; anything else takes the encoder.
    """
    t, s, d, r, n = event.time, event.stripe, event.disk, event.start_row, event.length
    if type(t) is float and isfinite(t) and type(s) is type(d) is type(r) is type(n) is int:
        return _RECORD % (d, n, r, s, t)
    return _encode(records_for([event])[0])


class CheckpointWriter:
    """Writes ``advisor``'s checkpoints to ``path``.

    Each file is exactly ``_encode({"schema": CHECKPOINT_SCHEMA,
    "state": advisor.state()})``.  The writer keeps the encoded record of
    every retained event by log position: a write drops the records of
    events that have left the log and encodes only the events that
    arrived since the previous write.
    """

    def __init__(self, path: str | Path, advisor: CacheAdvisor):
        self.path = Path(path)
        self.advisor = advisor
        self._first = 0  #: log position of ``_records[0]``
        self._records: list[str] = []

    def _text(self) -> str:
        advisor = self.advisor
        first = advisor.first_event
        del self._records[: first - self._first]
        self._first = first
        fresh = advisor.window_events()[len(self._records):]
        self._records.extend(map(_encode_record, fresh))
        fields = {
            key: _encode(value)
            for key, value in self.advisor.state(events=False).items()
        }
        fields["events"] = "[" + ",".join(self._records) + "]"
        state = ",".join(f"{_encode(key)}:{fields[key]}" for key in sorted(fields))
        return f'{{"schema":{_encode(CHECKPOINT_SCHEMA)},"state":{{{state}}}}}'

    def write(self) -> Path:
        """Atomically persist the advisor's replay state; returns the path."""
        path = self.path
        text = self._text()
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


def write_checkpoint(path: str | Path, advisor: CacheAdvisor) -> Path:
    """Atomically persist the advisor's replay state; returns the path.

    A one-shot writer: it encodes the whole retained log.  To checkpoint
    the same advisor again and again, keep one :class:`CheckpointWriter`.
    """
    return CheckpointWriter(path, advisor).write()


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
