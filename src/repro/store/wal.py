"""Write-ahead log on stable storage.

The commit protocols append typed records; recovery scans the log from the
start.  Appends are atomic (a record is either wholly present or absent).
The log lives conceptually on the same stable medium as the
:class:`~repro.store.stable.StableStore`, so it too survives crashes.

Point lookups are indexed, the way a WAL keyed by transaction id answers
"what did I log for txn T": :meth:`WriteAheadLog.last` reads the latest
record per ``kind`` or per ``(kind, txn_id)`` from dicts kept up to date
on :meth:`~WriteAheadLog.append` and rebuilt by
:meth:`~WriteAheadLog.truncate_before`, and :meth:`~WriteAheadLog.summary`
reads a running per-kind count.  Neither cost grows with the log's depth;
only recovery and checkpointing walk :meth:`~WriteAheadLog.records`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class LogRecord:
    """One appended record: a kind tag plus an opaque payload dict."""

    lsn: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class WriteAheadLog:
    """Append-only record log with indexed lookup and checkpoint-truncation."""

    def __init__(self):
        self._records: List[LogRecord] = []
        self._lsn = itertools.count(1)
        #: kind -> latest record of that kind
        self._last_by_kind: Dict[str, LogRecord] = {}
        #: (kind, payload txn_id) -> latest such record
        self._last_by_txn: Dict[Tuple[str, Any], LogRecord] = {}
        #: kind -> how many live records have it (first-appearance order)
        self._kind_counts: Dict[str, int] = {}

    def append(self, kind: str, **payload: Any) -> LogRecord:
        """Append a record; returns it (with its log sequence number)."""
        record = LogRecord(lsn=next(self._lsn), kind=kind, payload=dict(payload))
        self._records.append(record)
        self._index(record)
        return record

    def _index(self, record: LogRecord) -> None:
        kind = record.kind
        self._last_by_kind[kind] = record
        txn_id = record.payload.get("txn_id")
        if txn_id is not None:
            self._last_by_txn[(kind, txn_id)] = record
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1

    def records(self, kind: Optional[str] = None) -> Iterator[LogRecord]:
        """Scan records in append order, optionally filtered by kind."""
        for record in self._records:
            if kind is None or record.kind == kind:
                yield record

    def last(self, kind: str, txn_id: Any = None) -> Optional[LogRecord]:
        """Most recent record of ``kind`` (for ``txn_id`` if given), or None.

        ``txn_id`` matches the record's ``txn_id`` payload field.
        """
        if txn_id is None:
            return self._last_by_kind.get(kind)
        return self._last_by_txn.get((kind, txn_id))

    def truncate_before(self, lsn: int) -> int:
        """Checkpoint: drop records with lsn < ``lsn``; returns count dropped."""
        before = len(self._records)
        self._records = [r for r in self._records if r.lsn >= lsn]
        self._last_by_kind = {}
        self._last_by_txn = {}
        self._kind_counts = {}
        for record in self._records:
            self._index(record)
        return before - len(self._records)

    def summary(self) -> Dict[str, Any]:
        """Read-only log shape for introspection: depth, lsn bounds, kinds.

        ``depth`` counts live records, ``first_lsn``/``last_lsn`` bound the
        undecided suffix a checkpoint kept (0 when empty), and ``kinds``
        histograms the record mix — enough to spot a log that stopped
        truncating without shipping the payloads anywhere.
        """
        return {
            "depth": len(self._records),
            "first_lsn": self._records[0].lsn if self._records else 0,
            "last_lsn": self._records[-1].lsn if self._records else 0,
            "kinds": dict(self._kind_counts),
        }

    def __len__(self) -> int:
        return len(self._records)
