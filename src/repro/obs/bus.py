"""The observability event bus.

Instrumentation points publish small structured :class:`ObsEvent`s; any
number of subscribers consume them — the metrics registry, the tracer
bridge, and the backwards-compatible :class:`~repro.trace.TraceRecorder`
are all subscribers over this one stream.  Publishing is synchronous and
exception-isolated: a failing subscriber never breaks the publisher.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple


@dataclass(frozen=True)
class ObsEvent:
    """One observed occurrence."""

    tick: float
    kind: str                          # e.g. "action.begin", "lock.granted"
    labels: Dict[str, Any] = field(default_factory=dict)

    def label(self, key: str, default: Any = None) -> Any:
        return self.labels.get(key, default)


Subscriber = Callable[[ObsEvent], None]


class EventBus:
    """Synchronous fan-out of ObsEvents to subscribers (thread-safe).

    The subscriber list is a copy-on-write tuple: (un)subscribing swaps in
    a new tuple under the mutex, so :meth:`publish` reads one snapshot
    without locking, and a fan-out in progress never sees a change made
    during it.
    """

    def __init__(self):
        self._mutex = threading.Lock()
        self._subscribers: Tuple[Subscriber, ...] = ()

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        with self._mutex:
            self._subscribers += (subscriber,)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._mutex:
            subscribers = list(self._subscribers)
            if subscriber in subscribers:
                subscribers.remove(subscriber)
                self._subscribers = tuple(subscribers)

    def publish(self, event: ObsEvent) -> None:
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception:
                # Observability must never take the system down with it.
                pass

    def emit(self, tick: float, kind: str, **labels: Any) -> ObsEvent:
        event = ObsEvent(tick=tick, kind=kind, labels=labels)
        self.publish(event)
        return event
