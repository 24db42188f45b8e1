"""Per-layer wall-clock spans for the traced run, recorded from outside.

:class:`LayerTracer` wraps the public functions of each layer (class
attributes, so every instance a round builds is covered) and records one
span per call: layer name, wall start/end, parent span and the action it
serves.  Self time is a span's duration minus its child spans.  Generator
APIs (client invoke/commit/abort, transport call/call_many, introspection
probes, process bodies) get one span per *resume* -- the busy time -- plus
one call record with the cluster-clock start and end, the time the call
waited.  Spans live in compact arrays and are written out only when the
run ends.

The wrappers must be installed before the round builds its cluster: bus
subscribers and RPC handlers are bound when the cluster is wired up.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.client import ClusterClient
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.server import ObjectServer
from repro.cluster.transport import RpcTransport
from repro.locking.registry import LockRegistry
from repro.obs.audit.auditor import InvariantAuditor
from repro.obs.bus import EventBus
from repro.obs.introspect.inspector import ClusterInspector
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf.recorder import FlightRecorder
from repro.obs.perf.sampler import TimeSeriesSampler
from repro.obs.postmortem.engine import PostmortemEngine
from repro.obs.slo.engine import SLOEngine
from repro.obs.tracing import Span, Tracer
from repro.sim.kernel import Kernel
from repro.store.stable import StableStore
from repro.store.wal import WriteAheadLog

from workloads import percentile

_clock = time.perf_counter
_NO_ACTION = -1
#: message kinds that carry a request (their rpc ids reveal resends)
_REPLY_KINDS = ("rpc_reply", "rpc_ack")
#: fast-path kinds counted by ``twopc_fast_path_total{kind}``
PATH_KINDS = ("one_phase", "piggyback", "read_only", "commute")


class LayerTracer:
    """Spans and counts at every layer boundary of one traced round."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.actions: List[str] = []
        self._action_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_action = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: per name id: span count, inclusive and self seconds
        self.count: List[int] = []
        self.incl: List[float] = []
        self.self_s: List[float] = []
        #: generator calls: (name id, cluster start, cluster end, action id)
        self.calls: List[Tuple[int, float, float, int]] = []
        #: open spans: [index, wall start, child seconds, action id, name id]
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self.kernel: Optional[Kernel] = None
        self.recording = False
        # counts taken at the boundaries
        self.payload_bytes = 0
        self.payloads = 0
        self.resends = 0
        self._rpc_ids: set = set()
        self.batch_sizes: List[int] = []
        self.wal_last_depth = 0
        self.wal_scans = 0
        self.store_writes = 0
        self.store_bytes = 0
        self.publishes = 0
        #: :func:`cluster_counts` at the start and end of the timed phase
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}

    # -- span bookkeeping -------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _action(self, label: Optional[str]) -> int:
        if label is None:
            return self._stack[-1][3] if self._stack else _NO_ACTION
        aid = self._action_ids.get(label)
        if aid is None:
            aid = self._action_ids[label] = len(self.actions)
            self.actions.append(label)
        return aid

    def _enter(self, nid: int, aid: int) -> list:
        stack = self._stack
        parent = _NO_ACTION
        if stack:
            parent = stack[-1][0]
            if aid == _NO_ACTION:
                aid = stack[-1][3]
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_action.append(aid)
        self.span_end.append(0.0)
        frame = [index, 0.0, 0.0, aid, nid]
        stack.append(frame)
        frame[1] = start = _clock()
        self.span_start.append(start)
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        if self._stack.pop() is not frame:
            raise RuntimeError("layer spans closed out of order")
        index, start, child, _aid, nid = frame
        duration = end - start
        self.span_end[index] = end
        self.count[nid] += 1
        self.incl[nid] += duration
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _drive(self, nid: int, aid: int, gen, record_call: bool):
        """Resume ``gen`` inside one busy span per resume (``yield from``)."""
        kernel = self.kernel
        started = kernel.now if kernel is not None else 0.0
        value, error = None, None
        while True:
            frame = self._enter(nid, aid)
            try:
                if error is not None:
                    yielded = gen.throw(error)
                else:
                    yielded = gen.send(value)
            except StopIteration as stop:
                self._exit(frame)
                if record_call:
                    self._note_call(nid, started, aid)
                return stop.value
            except BaseException:
                self._exit(frame)
                if record_call:
                    self._note_call(nid, started, aid)
                raise
            self._exit(frame)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped body
                value, error = None, exc

    def _note_call(self, nid: int, started: float, aid: int) -> None:
        if self.recording and self.kernel is not None:
            self.calls.append((nid, started, self.kernel.now, aid))

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, attr in owner.__dict__, original))
        setattr(owner, attr, make(original))

    def span(self, owner, attr: str, name: str,
             action: Optional[Callable[..., Optional[str]]] = None,
             before: Optional[Callable[..., None]] = None):
        """Wrap a plain function: one span per call."""
        nid = self._name(name)

        def make(original):
            def traced(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                frame = self._enter(
                    nid, self._action(action(*args) if action else None))
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(frame)
            return traced
        self._patch(owner, attr, make)

    def generator(self, owner, attr: str, name: str,
                  action: Optional[Callable[..., Optional[str]]] = None,
                  before: Optional[Callable[..., None]] = None):
        """Wrap a generator function: busy spans per resume + a call record."""
        nid = self._name(name)

        def make(original):
            def traced(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                aid = self._action(action(*args) if action else None)
                return self._drive(nid, aid, original(*args, **kwargs), True)
            return traced
        self._patch(owner, attr, make)

    def install(self) -> "LayerTracer":
        """Wrap every layer's public functions (class-wide)."""
        tracer = self
        process = self._name("sim.process")

        def spawn(original):
            def traced(kernel, body, name=""):
                if hasattr(body, "send"):
                    body = tracer._drive(process, tracer._action(None), body,
                                         False)
                return original(kernel, body, name)
            return traced

        def run(original):
            nid = tracer._name("sim.run")

            def traced(kernel, *args, **kwargs):
                tracer.kernel = kernel
                frame = tracer._enter(nid, _NO_ACTION)
                try:
                    return original(kernel, *args, **kwargs)
                finally:
                    tracer._exit(frame)
            return traced

        def register(original):
            def traced(transport, kind, handler):
                nid = tracer._name(f"server.{kind}")

                def served(message, respond):
                    frame = tracer._enter(
                        nid, tracer._action(_served_action(message.payload)))
                    try:
                        return handler(message, respond)
                    finally:
                        tracer._exit(frame)
                return original(transport, kind, served)
            return traced

        self._patch(Kernel, "spawn", spawn)
        self._patch(Kernel, "run", run)
        self._patch(Kernel, "run_until_settled", run)
        self._patch(RpcTransport, "register", register)
        self.span(Network, "send", "network.send", before=self._on_send)
        self.generator(RpcTransport, "call", "transport.call")
        self.generator(RpcTransport, "call_many", "transport.call_many",
                       before=self._on_call_many)
        self.span(ObjectServer, "checkpoint", "server.checkpoint")
        self.span(Node, "restart", "node.restart")
        self.span(LockRegistry, "request", "locking.request")
        self.span(LockRegistry, "release_action", "locking.release_action")
        self.span(WriteAheadLog, "append", "wal.append")
        self.span(WriteAheadLog, "last", "wal.last", before=self._on_wal_last)
        self._patch(WriteAheadLog, "records", self._counting_scan)
        self.span(StableStore, "write_committed", "store.write_committed",
                  before=self._on_store_write)
        self.span(StableStore, "write_shadow", "store.write_shadow",
                  before=self._on_store_write)
        for op in ("invoke", "commit", "abort"):
            self.generator(ClusterClient, op, f"client.{op}",
                           action=lambda client, action, *rest:
                           str(action.uid))
        for kind in ("counter", "gauge", "histogram"):
            self.span(MetricsRegistry, kind, "obs.metrics")
        self.span(Tracer, "start_span", "obs.tracing")
        for op in ("finish", "set", "event"):
            self.span(Span, op, "obs.tracing")
        self.span(EventBus, "publish", "obs.bus", before=self._on_publish)
        self.span(InvariantAuditor, "consume", "obs.auditor")
        self.span(TimeSeriesSampler, "sample", "obs.sampler")
        self.span(FlightRecorder, "consume", "obs.flight")
        self.span(PostmortemEngine, "consume", "obs.postmortem")
        self.generator(ClusterInspector, "probe", "obs.introspect")
        self.span(SLOEngine, "observe_frame", "obs.slo")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, owned, original in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- counts at the boundaries -------------------------------------------

    def _on_send(self, network, message) -> None:
        if not self.recording:
            return
        frame = self._enter(self._name("trace.pickle"), _NO_ACTION)
        try:
            self.payload_bytes += len(pickle.dumps(message.payload))
        finally:
            self._exit(frame)
        self.payloads += 1
        if message.kind not in _REPLY_KINDS:
            rpc_id = message.payload.get("rpc_id")
            if rpc_id is not None:
                if rpc_id in self._rpc_ids:
                    self.resends += 1
                else:
                    self._rpc_ids.add(rpc_id)

    def _on_call_many(self, transport, dst, calls, *args, **kwargs) -> None:
        if self.recording:
            self.batch_sizes.append(len(calls))

    def _on_wal_last(self, wal, *args, **kwargs) -> None:
        self.wal_last_depth += len(wal)

    def _counting_scan(self, original):
        def traced(wal, *args, **kwargs):
            self.wal_scans += 1
            return original(wal, *args, **kwargs)
        return traced

    def _on_store_write(self, store, state) -> None:
        self.store_writes += 1
        self.store_bytes += len(state.payload)

    def _on_publish(self, bus, event) -> None:
        self.publishes += 1

    # -- the timed phase ----------------------------------------------------

    def begin(self, cluster) -> None:
        """Forget set-up activity; record from here on."""
        if self._stack:
            raise RuntimeError("timed phase began inside an open span")
        for store in (self.span_name, self.span_parent, self.span_action,
                      self.span_start, self.span_end):
            del store[:]
        self.count = [0] * len(self.names)
        self.incl = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.calls.clear()
        self._rpc_ids.clear()
        self.batch_sizes.clear()
        self.payload_bytes = self.payloads = self.resends = 0
        self.wal_last_depth = self.wal_scans = 0
        self.store_writes = self.store_bytes = self.publishes = 0
        self.kernel = cluster.kernel
        self.before = cluster_counts(cluster)
        self.recording = True

    def end(self, cluster) -> None:
        """Stop recording and unwrap, so the checks that follow add nothing."""
        self.recording = False
        self.after = cluster_counts(cluster)
        self.uninstall()

    # -- results --------------------------------------------------------------

    def stat(self, name: str) -> Tuple[int, float, float]:
        """(spans, inclusive seconds, self seconds) recorded under ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.count[nid], self.incl[nid], self.self_s[nid]

    def prefixed(self, prefix: str) -> Tuple[int, float, float]:
        total = [0, 0.0, 0.0]
        for name in self.names:
            if name.startswith(prefix):
                for slot, value in enumerate(self.stat(name)):
                    total[slot] += value
        return total[0], total[1], total[2]

    def self_total(self) -> float:
        return sum(self.self_s)

    def root_total(self) -> float:
        """Inclusive seconds of the spans that have no parent."""
        return sum(end - start for parent, start, end
                   in zip(self.span_parent, self.span_start, self.span_end)
                   if parent == _NO_ACTION)

    def call_units(self, *names: str) -> List[float]:
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        return [end - start for nid, start, end, _ in self.calls
                if nid in wanted]

    def write(self, path: str) -> None:
        """Write the recorded spans as one gzipped columnar JSON document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        document = {
            "format": "perfbench-spans/1",
            "names": self.names,
            "actions": self.actions,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "action": self.span_action.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
            "calls": self.calls,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(document, out)


def _served_action(payload: Dict[str, Any]) -> Optional[str]:
    """The action a server handler works for, as ``str(action.uid)``."""
    raw = payload.get("action_uid")
    if raw is None and payload.get("action"):
        raw = payload["action"][-1]["uid"]
    if raw is None:
        return payload.get("txn_id")
    return "%s:%s" % tuple(raw)


def cluster_counts(cluster) -> Dict[str, float]:
    """Counters the program keeps itself, read at both ends of the phase."""
    metrics = cluster.obs.metrics

    def total(name: str, **match: str) -> float:
        return sum(instrument.value
                   for labels, instrument in metrics.series(name)
                   if all(labels.get(k) == v for k, v in match.items()))

    waits = [h for _labels, h in metrics.series("lock_wait_time")]
    counts = {
        "callbacks": cluster.kernel.stats["callbacks_run"],
        "events": cluster.kernel.stats["events_created"],
        "dropped": cluster.network.dropped_count,
        "duplicated": cluster.network.duplicated_count,
        "timeouts": total("rpc_timeouts_total"),
        "lock_waits": sum(h.count for h in waits),
        "lock_wait_units": sum(h.total for h in waits),
    }
    for kind in PATH_KINDS:
        counts[f"path.{kind}"] = total("twopc_fast_path_total", kind=kind)
    return counts


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: LayerTracer, rnd,
                  wal_depth_end: int) -> Dict[str, float]:
    """Every per-layer metric of one traced round, by name.

    ``wal_depth_end`` is the deepest server log after a final checkpoint.
    """
    commits = rnd.committed
    wall = rnd.wall_s
    grew = {key: tracer.after[key] - tracer.before[key]
            for key in tracer.before}

    def per_commit(value: float) -> float:
        return value / commits

    def share(seconds: float) -> float:
        return seconds / wall

    def us(name: str, inclusive: bool = True) -> float:
        count, incl, own = tracer.stat(name)
        return _mean(incl if inclusive else own, count) * 1e6

    sends, _, send_self = tracer.stat("network.send")
    wal_lasts, wal_last_incl, _ = tracer.stat("wal.last")
    call_units = tracer.call_units("transport.call", "transport.call_many")
    client_self = sum(tracer.stat(f"client.{op}")[2]
                      for op in ("invoke", "commit", "abort"))
    out = {
        "sim.callbacks_per_commit": per_commit(grew["callbacks"]),
        "sim.events_per_commit": per_commit(grew["events"]),
        "sim.loop_self_share": share(tracer.stat("sim.run")[2]),
        "sim.process_self_share": share(tracer.stat("sim.process")[2]),
        "network.send_self_us": _mean(send_self, sends) * 1e6,
        "network.send_share": share(send_self),
        "network.payload_bytes_mean": _mean(tracer.payload_bytes,
                                            tracer.payloads),
        "network.dropped_per_commit": per_commit(grew["dropped"]),
        "network.duplicated_per_commit": per_commit(grew["duplicated"]),
        "transport.calls_per_commit": per_commit(len(call_units)),
        "transport.batch_size_mean": _mean(sum(tracer.batch_sizes),
                                           len(tracer.batch_sizes)),
        "transport.call_units_p50": percentile(call_units, 50),
        "transport.call_units_p99": percentile(call_units, 99),
        "transport.resends_per_commit": per_commit(tracer.resends),
        "transport.timeouts": grew["timeouts"],
        "transport.self_share": share(
            tracer.stat("transport.call")[2]
            + tracer.stat("transport.call_many")[2]),
        "server.invoke_us": us("server.invoke"),
        "server.txn_prepare_us": us("server.txn_prepare"),
        "server.txn_commit_us": us("server.txn_commit"),
        "server.finish_commit_us": us("server.finish_commit"),
        "server.handler_share": share(tracer.prefixed("server.")[2]
                                      - tracer.stat("server.checkpoint")[2]),
        "server.checkpoint_ms": us("server.checkpoint") / 1e3,
        "node.restart_ms": us("node.restart") / 1e3,
        "locking.requests_per_commit": per_commit(
            tracer.stat("locking.request")[0]),
        "locking.request_us": us("locking.request"),
        "locking.waits_per_commit": per_commit(grew["lock_waits"]),
        "locking.wait_units_mean": _mean(grew["lock_wait_units"],
                                         grew["lock_waits"]),
        "wal.append_per_commit": per_commit(tracer.stat("wal.append")[0]),
        "wal.last_per_commit": per_commit(wal_lasts),
        "wal.last_us": _mean(wal_last_incl, wal_lasts) * 1e6,
        "wal.last_share": share(tracer.stat("wal.last")[2]),
        "wal.last_depth_mean": _mean(tracer.wal_last_depth, wal_lasts),
        "wal.records_scans": float(tracer.wal_scans),
        "wal.depth_max": float(rnd.wal_depth_max),
        "wal.depth_end": float(wal_depth_end),
        "store.writes_per_commit": per_commit(tracer.store_writes),
        "store.bytes_per_commit": per_commit(tracer.store_bytes),
        "client.commit_self_us": us("client.commit", inclusive=False),
        "client.invoke_self_us": us("client.invoke", inclusive=False),
        "client.self_share": share(client_self),
        "obs.metrics_share": share(tracer.stat("obs.metrics")[2]),
        "obs.tracing_share": share(tracer.stat("obs.tracing")[2]),
        "obs.auditor_share": share(tracer.stat("obs.auditor")[2]),
        "obs.bus_share": share(tracer.stat("obs.bus")[2]),
        "obs.events_per_commit": per_commit(tracer.publishes),
        "obs.sampler_share": share(tracer.stat("obs.sampler")[2]),
        "obs.flight_share": share(tracer.stat("obs.flight")[2]),
        "obs.postmortem_share": share(tracer.stat("obs.postmortem")[2]),
        "obs.introspect_share": share(tracer.stat("obs.introspect")[2]),
        "obs.slo_share": share(tracer.stat("obs.slo")[2]),
        "trace.pickle_share": share(tracer.stat("trace.pickle")[2]),
        "trace.self_sum_share": share(tracer.self_total()),
        "trace.spans": float(len(tracer.span_name)),
    }
    for kind in PATH_KINDS:
        out[f"client.path.{kind}_per_commit"] = per_commit(
            grew[f"path.{kind}"])
    return out
