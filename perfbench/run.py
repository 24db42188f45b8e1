"""Run one benchmark workload and print one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady_writes --seed 1 \\
        --seconds 60 --trace 0

``--trace 0`` times a batch of set-ups, then runs rounds of the workload
(parts 0, 1, 2 of the seed, then the same parts again) until another round
would overrun ``--seconds``, and reports the end-to-end metrics: medians
over rounds for wall-clock figures, scaled to a reference host speed (see
``hostspeed.py``), and the three parts pooled for cluster-clock figures,
which repeat exactly and are checked to.  ``--trace 1`` runs a traced round of part 0
between two untraced ones and reports the per-layer metrics plus the
tracing overhead; the spans are written to ``--spans`` after the run.

Every round's outputs are checked (see ``workloads.py``).  A failed check
prints ``"correct": false`` with no metrics and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "commits_per_s": "1/s",
    "cpu_ms_per_commit": "ms",
    "commit_latency_p50": "units",
    "commit_latency_p99": "units",
    "commits_per_unit": "1/units",
    "msgs_per_commit": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (``--trace 1``): name -> (unit, which way is better)
PER_LAYER = {
    "sim.callbacks_per_commit": ("count", "lower"),
    "sim.events_per_commit": ("count", "lower"),
    "sim.loop_self_share": ("ratio", "lower"),
    "sim.process_self_share": ("ratio", "lower"),
    "network.send_self_us": ("us", "lower"),
    "network.send_share": ("ratio", "lower"),
    "network.payload_bytes_mean": ("bytes", "lower"),
    "network.dropped_per_commit": ("count", "lower"),
    "network.duplicated_per_commit": ("count", "lower"),
    "transport.calls_per_commit": ("count", "lower"),
    "transport.batch_size_mean": ("count", "higher"),
    "transport.call_units_p50": ("units", "lower"),
    "transport.call_units_p99": ("units", "lower"),
    "transport.resends_per_commit": ("count", "lower"),
    "transport.timeouts": ("count", "lower"),
    "transport.self_share": ("ratio", "lower"),
    "server.invoke_us": ("us", "lower"),
    "server.txn_prepare_us": ("us", "lower"),
    "server.txn_commit_us": ("us", "lower"),
    "server.finish_commit_us": ("us", "lower"),
    "server.handler_share": ("ratio", "lower"),
    "server.checkpoint_ms": ("ms", "lower"),
    "node.restart_ms": ("ms", "lower"),
    "locking.requests_per_commit": ("count", "lower"),
    "locking.request_us": ("us", "lower"),
    "locking.waits_per_commit": ("count", "lower"),
    "locking.wait_units_mean": ("units", "lower"),
    "wal.append_per_commit": ("count", "lower"),
    "wal.last_per_commit": ("count", "lower"),
    "wal.last_us": ("us", "lower"),
    "wal.last_share": ("ratio", "lower"),
    "wal.last_depth_mean": ("records", "lower"),
    "wal.records_scans": ("count", "lower"),
    "wal.depth_max": ("records", "lower"),
    "wal.depth_end": ("records", "lower"),
    "store.writes_per_commit": ("count", "lower"),
    "store.bytes_per_commit": ("bytes", "lower"),
    "client.commit_self_us": ("us", "lower"),
    "client.invoke_self_us": ("us", "lower"),
    "client.self_share": ("ratio", "lower"),
    "client.path.one_phase_per_commit": ("count", "higher"),
    "client.path.piggyback_per_commit": ("count", "higher"),
    "client.path.read_only_per_commit": ("count", "higher"),
    "client.path.commute_per_commit": ("count", "higher"),
    "client.abort_ratio": ("ratio", "lower"),
    "obs.metrics_share": ("ratio", "lower"),
    "obs.tracing_share": ("ratio", "lower"),
    "obs.auditor_share": ("ratio", "lower"),
    "obs.bus_share": ("ratio", "lower"),
    "obs.events_per_commit": ("count", "lower"),
    "obs.sampler_share": ("ratio", "lower"),
    "obs.flight_share": ("ratio", "lower"),
    "obs.postmortem_share": ("ratio", "lower"),
    "obs.introspect_share": ("ratio", "lower"),
    "obs.slo_share": ("ratio", "lower"),
    "trace.commits_per_s": ("1/s", "higher"),
    "trace.untraced_commits_per_s": ("1/s", "higher"),
    "trace.overhead_x": ("x", "lower"),
    "trace.pickle_share": ("ratio", "lower"),
    "trace.self_sum_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

#: set-ups timed per run for ``setup_s``
SETUP_SAMPLES = 30
#: share of the traced wall time that may run under no layer span
UNATTRIBUTED_MAX = 0.02


def _result(correct: bool, attempted: int, failed: int,
            metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def setup_seconds(workload: str, seed: int) -> float:
    """Median of :data:`SETUP_SAMPLES` set-ups, at the reference host speed."""
    from hostspeed import HostProbe
    from workloads import PARTS, WORKLOADS

    probe = HostProbe()
    probe.sample()
    times = []
    for index in range(SETUP_SAMPLES):
        gc.collect()
        times.append(WORKLOADS[workload](seed, index % PARTS).setup_s)
        probe.sample()
    gc.collect()
    return statistics.median(times) * probe.speed


def end_to_end(workload: str, seed: int, seconds: float):
    """Rounds until the budget is spent; returns (metrics, rounds).

    The first :data:`~workloads.PARTS` rounds (parts 0, 1, 2) give the
    cluster-clock figures; later rounds cycle through the parts again,
    must repeat them exactly, and add wall-clock samples.  Each round's
    wall and CPU time is scaled by the host speed sampled through it.
    """
    from hostspeed import HostProbe
    from workloads import PARTS, CheckFailed, percentile, run_round

    started = time.perf_counter()
    setup_s = setup_seconds(workload, seed)
    rounds = []
    while True:
        began = time.perf_counter()
        part = len(rounds) % PARTS
        rnd = run_round(workload, seed, part, probe=HostProbe())
        rnd.cluster = None
        gc.collect()
        if len(rounds) >= PARTS and \
                rnd.fingerprint() != rounds[part].fingerprint():
            raise CheckFailed("cluster-clock results differ between rounds "
                              "of one seed and part")
        rounds.append(rnd)
        took = time.perf_counter() - began
        if len(rounds) >= PARTS and \
                time.perf_counter() - started + took > seconds:
            break
    pooled = rounds[:PARTS]
    latencies = [value for rnd in pooled for value in rnd.latencies]
    committed = sum(rnd.committed for rnd in pooled)
    metrics = {
        "commits_per_s": statistics.median(
            rnd.committed / rnd.wall_s / rnd.speed for rnd in rounds),
        "cpu_ms_per_commit": statistics.median(
            rnd.cpu_s * 1e3 / rnd.committed * rnd.speed for rnd in rounds),
        "commit_latency_p50": percentile(latencies, 50),
        "commit_latency_p99": percentile(latencies, 99),
        "commits_per_unit": committed / sum(rnd.sim_units for rnd in pooled),
        "msgs_per_commit": sum(rnd.sends for rnd in pooled) / committed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, rounds, len(latencies)


def check_attribution(self_sum: float, roots: float, wall: float) -> None:
    """Self times must account for the traced timed phase, once each.

    Summed over all spans, self times telescope to the inclusive time of
    the root spans; a child counted twice or not at all breaks that.  The
    root spans must in turn cover all but :data:`UNATTRIBUTED_MAX` of the
    traced wall time, which fails when part of the phase runs under no
    span (the loop's entry point is no longer wrapped, say).
    """
    from workloads import CheckFailed

    if abs(self_sum - roots) > 1e-6 * wall:
        raise CheckFailed(f"per-layer self times sum to {self_sum:.6f} s, "
                          f"root spans to {roots:.6f} s")
    if not (1.0 - UNATTRIBUTED_MAX) * wall <= roots <= wall:
        raise CheckFailed(f"root spans cover {roots:.6f} s of the "
                          f"{wall:.6f} s traced wall time")


def traced(workload: str, seed: int, spans_path: Optional[str]):
    """A traced round of part 0 between two untraced ones.

    Returns (metrics, rounds, latency samples).
    """
    from layers import LayerTracer, layer_metrics
    from workloads import CheckFailed, WORKLOADS, run_round

    def untraced():
        rnd = run_round(workload, seed)
        rnd.cluster = None
        gc.collect()
        return rnd

    before = untraced()
    tracer = LayerTracer().install()
    try:
        setup = WORKLOADS[workload](seed)
        rnd = setup.run(hooks=tracer)
    finally:
        tracer.uninstall()
    for name in setup.servers():
        setup.cluster.servers[name].checkpoint()
    depth_end = max(len(setup.cluster.nodes[name].wal)
                    for name in setup.servers())
    setup.cluster = rnd.cluster = None
    gc.collect()
    after = untraced()
    if not before.fingerprint() == rnd.fingerprint() == after.fingerprint():
        raise CheckFailed("tracing changed the cluster-clock results")
    check_attribution(tracer.self_total(), tracer.root_total(), rnd.wall_s)
    metrics = layer_metrics(tracer, rnd, depth_end)
    metrics["client.abort_ratio"] = (
        (rnd.attempts - rnd.committed) / rnd.attempts)
    traced_cps = rnd.committed / rnd.wall_s
    plain_cps = statistics.mean(
        plain.committed / plain.wall_s for plain in (before, after))
    metrics["trace.commits_per_s"] = traced_cps
    metrics["trace.untraced_commits_per_s"] = plain_cps
    metrics["trace.overhead_x"] = plain_cps / traced_cps
    if spans_path:
        tracer.write(spans_path)
    return metrics, [before, rnd, after], len(rnd.latencies)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="traced run: write spans here (gzipped JSON); "
                             "default .perfbench/spans-<workload>-<seed>"
                             ".json.gz")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    spans = args.spans or os.path.join(
        ".perfbench", f"spans-{args.workload}-{args.seed}.json.gz")
    try:
        if args.trace:
            metrics, rounds, samples = traced(args.workload, args.seed,
                                              spans)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, rounds, samples = end_to_end(args.workload, args.seed,
                                                  args.seconds)
            units = END_TO_END
    except CheckFailed as failure:
        # the failing round's operations count as attempted and failed
        ops = WORKLOADS[args.workload].OPS
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        print(_result(False, ops, ops, {}, {}))
        return 1
    attempted = sum(rnd.ops for rnd in rounds)
    failed = sum(rnd.failed_ops for rnd in rounds)
    per_round = " ".join(f"{rnd.committed / rnd.wall_s:.1f}" for rnd in rounds)
    speeds = " ".join(f"{rnd.speed:.2f}" for rnd in rounds)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={rounds[0].ops} "
          f"latency_samples={samples} "
          f"wal_depth_max={max(r.wal_depth_max for r in rounds)} "
          f"unscaled_commits_per_s/round=[{per_round}] "
          f"host_speed/round=[{speeds}]")
    print(_result(True, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
