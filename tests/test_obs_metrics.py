"""Metrics primitives: counters, gauges, histogram percentiles, dumps."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.obs.bus import EventBus
from repro.obs.metrics import Histogram, MetricsRegistry, _labelset
from repro.runtime import LocalRuntime
from repro.stdobjects import Counter as CounterObject
from repro.trace import TraceRecorder


def test_counter_labels_fan_out_independently():
    registry = MetricsRegistry()
    registry.counter("actions_committed_total", colour="c1").inc()
    registry.counter("actions_committed_total", colour="c1").inc()
    registry.counter("actions_committed_total", colour="c2").inc()
    assert registry.value("actions_committed_total", colour="c1") == 2
    assert registry.value("actions_committed_total", colour="c2") == 1
    assert registry.value("actions_committed_total", colour="c3") == 0


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("x").inc(-1)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue_depth", node="n1")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(4)
    assert registry.value("queue_depth", node="n1") == 3


def test_histogram_exact_aggregates_and_percentiles():
    histogram = Histogram()
    for value in range(1, 101):  # 1..100
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.total == 5050.0
    assert histogram.min == 1.0
    assert histogram.max == 100.0
    assert histogram.mean == 50.5
    # linear interpolation over 100 samples: rank p/100*(n-1)
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.percentile(95) == pytest.approx(95.05)


def test_histogram_single_sample_and_bounds():
    histogram = Histogram()
    assert histogram.percentile(50) is None
    histogram.observe(7.0)
    assert histogram.percentile(50) == 7.0
    assert histogram.percentile(95) == 7.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_histogram_sample_cap_keeps_exact_aggregates():
    histogram = Histogram(max_samples=10)
    for value in range(100):
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.max == 99.0
    assert len(histogram.samples) == 10
    summary = histogram.summary()
    assert summary["truncated"] is True
    assert summary["count"] == 100


class EagerReservoir:
    """Reference: the reservoir with its PRNG seeded at construction."""

    def __init__(self, max_samples):
        self.count = 0
        self.samples = []
        self.max_samples = max_samples
        self.rng = random.Random(0x5EED)

    def observe(self, value):
        self.count += 1
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        else:
            slot = self.rng.randrange(self.count)
            if slot < self.max_samples:
                self.samples[slot] = value

    def percentile(self, p):
        ordered = sorted(self.samples)
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        return ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low)


def test_histogram_lazy_reservoir_matches_eager_seeding():
    histogram = Histogram(max_samples=8)
    reference = EagerReservoir(max_samples=8)
    values = random.Random(42)
    for _ in range(1000):
        value = values.uniform(-50.0, 50.0)
        histogram.observe(value)
        reference.observe(value)
    assert histogram.samples == reference.samples
    summary = histogram.summary()
    assert summary["truncated"] is True
    assert summary["count"] == 1000
    assert summary["p50"] == reference.percentile(50)
    assert summary["p95"] == reference.percentile(95)


def test_histogram_below_cap_draws_nothing():
    histogram = Histogram(max_samples=8)
    for value in range(8):
        histogram.observe(float(value))
    assert histogram._rng is None
    assert "truncated" not in histogram.summary()


label_values = st.one_of(st.text(max_size=6), st.integers(), st.booleans(),
                         st.floats(allow_nan=True), st.none())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), label_values, max_size=4))
def test_labelset_matches_sorted_form(labels):
    assert _labelset(labels) == tuple(
        sorted((str(k), str(v)) for k, v in labels.items()))


def test_dump_is_deterministic_and_json_shaped():
    registry = MetricsRegistry()
    registry.counter("b_total", node="n2").inc()
    registry.counter("b_total", node="n1").inc()
    registry.counter("a_total").inc(3)
    registry.histogram("lat", kind="x").observe(1.5)
    dump = registry.dump()
    assert [row["name"] for row in dump["counters"]] == [
        "a_total", "b_total", "b_total"]
    assert [row["labels"] for row in dump["counters"]] == [
        {}, {"node": "n1"}, {"node": "n2"}]
    histogram_row = dump["histograms"][0]
    assert histogram_row["name"] == "lat"
    assert histogram_row["count"] == 1
    assert histogram_row["p50"] == 1.5
    assert dump == registry.dump()  # stable across calls


def test_registry_clear_resets_everything():
    registry = MetricsRegistry()
    registry.counter("x").inc()
    registry.clear()
    assert registry.value("x") == 0
    assert registry.dump()["counters"] == []


def test_registry_thread_safety_under_contention():
    registry = MetricsRegistry()

    def hammer():
        for _ in range(500):
            registry.counter("hits", worker="shared").inc()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.value("hits", worker="shared") == 2000


def test_journal_misses_no_lookup_under_thread_contention():
    registry = MetricsRegistry()
    journal = registry.watch("hits")
    seen = set()
    stop = threading.Event()

    def hammer(worker):
        for index in range(300):
            registry.counter("hits", worker=worker, n=index % 50).inc()

    def drain():
        while not stop.is_set():
            seen.update(registry.drain(journal)[1])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drainer = threading.Thread(target=drain)
        drainer.start()
        threads = [threading.Thread(target=hammer, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        stop.set()
        drainer.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not drainer.is_alive()
    assert not any(thread.is_alive() for thread in threads)
    seen.update(registry.drain(journal)[1])
    assert len(seen) == registry.series_count() == 4 * 50


def test_event_bus_isolates_subscriber_errors():
    bus = EventBus()
    seen = []

    def bad(event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(bad)
    bus.subscribe(seen.append)
    bus.emit(1.0, "tick", n=1)
    assert len(seen) == 1
    assert seen[0].kind == "tick"
    assert seen[0].labels["n"] == 1


def test_event_bus_fan_out_in_progress_keeps_its_snapshot():
    """(Un)subscribing during publish takes effect from the next event."""
    bus = EventBus()
    seen = []

    def late(event):
        seen.append(("late", event.kind))

    def doomed(event):
        seen.append(("doomed", event.kind))

    def rewire(event):
        seen.append(("rewire", event.kind))
        if event.kind == "first":
            bus.subscribe(late)
            bus.unsubscribe(doomed)

    bus.subscribe(rewire)
    bus.subscribe(doomed)
    bus.emit(1.0, "first")
    bus.emit(2.0, "second")
    assert seen == [("rewire", "first"), ("doomed", "first"),
                    ("rewire", "second"), ("late", "second")]


def test_event_bus_concurrent_subscribe_loses_no_subscriber():
    bus = EventBus()
    hits = []
    stop = threading.Event()

    def publisher():
        while not stop.is_set():
            bus.emit(0.0, "tick")

    def subscriber_thread(base):
        for i in range(200):
            tag = base + i
            bus.subscribe(lambda event, tag=tag:
                          event.kind == "final" and hits.append(tag))

    pump = threading.Thread(target=publisher)
    pump.start()
    workers = [threading.Thread(target=subscriber_thread, args=(k * 1000,))
               for k in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
        stop.set()
        pump.join(timeout=30)
    assert not any(t.is_alive() for t in [pump, *workers])
    bus.emit(1.0, "final")
    assert sorted(hits) == sorted(k * 1000 + i for k in range(4)
                                  for i in range(200))


def test_local_runtime_attach_observability():
    runtime = LocalRuntime()
    hub = Observability()
    runtime.attach_observability(hub)
    counter = CounterObject(runtime, value=0)
    with runtime.top_level(name="A"):
        counter.increment(1)
    try:
        with runtime.top_level(name="B"):
            counter.increment(1)
            raise RuntimeError("force abort")
    except RuntimeError:
        pass
    dump = hub.dump()
    committed = [row for row in dump["counters"]
                 if row["name"] == "actions_committed_total"]
    aborted = [row for row in dump["counters"]
               if row["name"] == "actions_aborted_total"]
    assert sum(row["value"] for row in committed) == 1
    assert sum(row["value"] for row in aborted) == 1
    grants = [row for row in dump["counters"]
              if row["name"] == "lock_grants_total"]
    assert grants
    spans = {s.name for s in hub.tracer.snapshot()}
    assert {"action:A", "action:B"} <= spans


def test_trace_recorder_snapshot_is_safe_during_mutation():
    recorder = TraceRecorder()
    stop = threading.Event()
    errors = []

    class FakeAction:
        def __init__(self, index):
            self.uid = f"a{index}"
            self.name = f"act{index}"
            self.parent = None
            self.colours = ()

    def writer():
        index = 0
        while not stop.is_set():
            recorder.on_action_created(FakeAction(index))
            index += 1

    def reader():
        try:
            for _ in range(200):
                for event in recorder.snapshot():  # must never see a torn list
                    assert event.kind == "begin"
        except Exception as error:  # pragma: no cover - the failure mode
            errors.append(error)

    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    reader_thread.join()
    stop.set()
    writer_thread.join()
    assert errors == []
