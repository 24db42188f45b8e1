"""The journal-driven sampler and SLO engine against full registry scans.

Both consumers read only the series looked up since their last tick
(``MetricsRegistry.watch``/``drain``).  Here a seeded cluster runs twice
with the sampler, introspection and SLO engine attached: once as shipped,
once with the per-tick reads swapped for the reference full scans below,
which revisit every series of every metric on every tick.  The timelines,
SLO ledgers and metric dumps must be equal, including across a
``metrics.clear()`` partway through the run.
"""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import ReproError
from repro.obs import Observability
from repro.obs.perf import TimeSeriesSampler
from repro.obs.perf.sampler import _COLOUR_COUNTERS, _COLOUR_HISTOGRAMS
from repro.obs.slo import SLOEngine
from repro.sim.kernel import Timeout


def full_scan_colour_rows(sampler):
    """Per-colour point rows from every series, deltas per label set."""
    metrics = sampler.hub.metrics
    last = sampler.__dict__.setdefault("_reference_last", {})
    colours = {}
    for key, metric in _COLOUR_COUNTERS:
        for labels, counter in sorted(metrics.series(metric),
                                      key=lambda kv: sorted(kv[0].items())):
            colour = labels.get("colour")
            if colour is None:
                continue
            ident = (metric, tuple(sorted(labels.items())))
            total = counter.value
            delta = total - last.get(ident, 0.0)
            last[ident] = total
            if delta:
                row = colours.setdefault(colour, {})
                row[key] = row.get(key, 0.0) + delta
    for key, metric in _COLOUR_HISTOGRAMS:
        merged = {}
        for labels, histogram in metrics.series(metric):
            colour = labels.get("colour")
            if colour is not None:
                merged.setdefault(colour, []).append(histogram)
        for colour, histograms in sorted(merged.items()):
            count = sum(h.count for h in histograms)
            total = sum(h.total for h in histograms)
            before, before_sum = last.get((metric, colour), (0.0, 0.0))
            last[(metric, colour)] = (count, total)
            if count == before:
                continue
            row = colours.setdefault(colour, {})
            row[f"{key}_count"] = count - before
            row[f"{key}_mean"] = (total - before_sum) / (count - before)
            widest = max(histograms, key=lambda h: h.count)
            row[f"{key}_p50"] = widest.percentile(50)
            row[f"{key}_p95"] = widest.percentile(95)
    return colours


def full_scan_measure(engine):
    """Cumulative measures per objective from every series."""
    metrics = engine.hub.metrics
    out = {}
    for objective in engine.objectives:
        if objective.kind == "latency":
            count = total = 0.0
            for labels, histogram in metrics.series(objective.metric):
                if objective.colour and \
                        labels.get("colour") != objective.colour:
                    continue
                count += histogram.count
                total += histogram.total
            out[objective.name] = (count, total)
        elif objective.kind == "abort_rate":
            pair = []
            for metric in ("actions_aborted_total",
                           "actions_committed_total"):
                value = 0.0
                for labels, counter in metrics.series(metric):
                    if objective.colour and \
                            labels.get("colour") != objective.colour:
                        continue
                    value += counter.value
                pair.append(value)
            out[objective.name] = tuple(pair)
        elif objective.kind == "zero":
            out[objective.name] = (sum(
                counter.value
                for _, counter in metrics.series(objective.metric)),)
        else:
            worst, node = 0.0, ""
            for labels, gauge in metrics.series(
                    objective.metric or "cluster_health"):
                if gauge.value > worst:
                    worst, node = gauge.value, labels.get("node", "")
            out[objective.name] = (worst, node)
    return out


NODES = ("n0", "n1", "n2")


def observed_run(seed, clear_at=None):
    """A small contended workload with sampler, introspection and SLOs."""
    cluster = Cluster(seed=seed)
    for name in NODES:
        cluster.add_node(name)
    sampler, _recorder = cluster.attach_perf(interval=2.0, seed=seed)
    cluster.attach_introspection(interval=5.0)
    # tight targets so breaches open and close during the run
    slo = cluster.attach_slo(latency_target=4.0, abort_budget=0.05)
    refs = []

    def create():
        client = cluster.client(NODES[0])
        for index in range(6):
            ref = yield from client.create(NODES[index % 3], "counter",
                                           value=0)
            refs.append(ref)

    cluster.run_process(NODES[0], create())

    def worker(index):
        client = cluster.client(NODES[index % 3], name=f"w{index}")
        for op in range(12):
            a, b = (index + op) % 6, (index * 5 + op * 7 + 1) % 6
            if a == b:
                b = (b + 1) % 6
            pair = sorted((refs[a], refs[b]), key=lambda r: (r.node, r.uid))
            action = client.top_level(f"w{index}.{op}")
            try:
                for ref in pair:
                    yield from client.invoke(action, ref, "increment", 1)
                if op % 4 == 3:
                    yield from client.abort(action)  # feeds abort-rate
                else:
                    yield from client.commit(action)
            except ReproError:
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + (op % 3) * 0.5)

    for index in range(6):
        cluster.spawn(NODES[index % 3], worker(index), name=f"worker{index}")
    if clear_at is not None:
        def clearer():
            yield Timeout(clear_at)
            cluster.obs.metrics.clear()
        cluster.spawn(NODES[0], clearer(), name="clearer")
    cluster.run()
    sampler.sample()
    return (json.dumps(sampler.timeline()), json.dumps(slo.dump()),
            json.dumps(cluster.obs.metrics.dump()))


@pytest.mark.parametrize("clear_at", [None, 150.0])
def test_journal_driven_sampler_and_slo_match_full_scans(monkeypatch,
                                                         clear_at):
    journal = observed_run(3, clear_at)
    with monkeypatch.context() as patch:
        patch.setattr(TimeSeriesSampler, "_colour_rows",
                      full_scan_colour_rows)
        patch.setattr(SLOEngine, "_measure", full_scan_measure)
        reference = observed_run(3, clear_at)
    timeline, ledger, metrics = journal
    assert timeline == reference[0]
    assert ledger == reference[1]
    assert metrics == reference[2]
    points = json.loads(timeline)["points"]
    assert sum(1 for point in points if point.get("colours")) > 5
    breached = {entry["objective"] for entry in json.loads(ledger)["breaches"]}
    assert {"commit-latency", "abort-rate"} <= breached


def test_journal_follows_clear_and_seeds_existing_series():
    hub = Observability()
    hub.count("actions_committed_total", colour="c", node="a")
    hub.observe("commit_latency", 3.0, colour="c", node="a")
    sampler = TimeSeriesSampler(hub, interval=1.0)
    engine = SLOEngine(hub=hub)
    # series made before the consumers existed are in their first read
    assert sampler.sample()["colours"]["c"]["committed"] == 1.0
    assert engine._measure()["commit-latency"] == (1.0, 3.0)
    hub.count("actions_committed_total", colour="c", node="a")
    hub.metrics.clear()
    assert "colours" not in sampler.sample()
    assert engine._measure()["commit-latency"] == (0.0, 0.0)
    hub.observe("commit_latency", 5.0, colour="d", node="a")
    assert engine._measure()["commit-latency"] == (1.0, 5.0)
    assert sampler.sample()["colours"]["d"]["commit_latency_count"] == 1.0


def test_slo_fold_redoes_from_the_earliest_touched_series():
    hub = Observability()
    engine = SLOEngine(hub=hub)
    hub.observe("commit_latency", 1.0, colour="c1")
    assert engine._measure()["commit-latency"] == (1.0, 1.0)
    # a new series, then an older one, within one frame
    hub.observe("commit_latency", 2.0, colour="c2")
    hub.observe("commit_latency", 4.0, colour="c1")
    assert engine._measure()["commit-latency"] == full_scan_measure(
        engine)["commit-latency"] == (3.0, 7.0)
