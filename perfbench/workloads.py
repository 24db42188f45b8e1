"""The benchmark's workloads, each one fixed-size *round* per seed.

A round makes its inputs from the seed and its part number, builds a
fresh cluster (the timed set-up: ``Cluster()``, ``add_node``, object
creation and ``attach_*``), then drives the workload to drain on the sim
backend (the timed phase) and checks its outputs.  A seed's measurement
pools :data:`PARTS` rounds, parts ``0 .. PARTS-1``, so that latency
percentiles rest on several thousand samples.  Everything a round produces
on the cluster clock is a pure function of (seed, part), so repeated rounds
must agree exactly; the runner repeats rounds to fill its time budget and
takes medians of the wall-clock figures.

Why each workload exists:

* ``steady_writes`` -- the re-anchor profile: a closed loop of 12 workers
  on 3 nodes doing canonical-order two-counter increments over 24
  counters, think time 1-2 units, no faults, no ``attach_*``.  The kernel,
  network, transport, server, locking and WAL do almost all the work; the
  WAL is never checkpointed, so ``wal.last`` reverse scans grow with the
  round, whose length is therefore part of the workload.
* ``observed_writes`` -- the same inputs and seed plus every obs
  attachment (sampler + flight recorder, postmortem, introspection, SLO).
  The obs layers do most of the work here and none in ``steady_writes``:
  a sampler, flight-recorder or dark-mode change moves this workload and
  leaves ``steady_writes`` unchanged.  Introspection probes add messages,
  so its results are not asserted equal to ``steady_writes``.
* ``faulty_mix`` -- an open loop in cluster time: Poisson arrivals over
  transfers (2PC), commuting adds (commute path) and audited two-account
  reads (read-only votes: the accounts' servers only read, while a third
  server's audit counter is written) on 1 home node and 3 servers, with
  message drops and
  duplicates, seeded server crash/restart and periodic checkpoints.  It
  runs retransmission, dedupe, recovery scans, checkpoint truncation and
  semantic locks, which the write workloads barely touch.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FaultSchedule
from repro.cluster.network import NetworkConfig
from repro.errors import ReproError
from repro.objects.state import ObjectState
from repro.sim.kernel import Timeout

from hostspeed import HostProbe

#: rounds, with distinct inputs, pooled into one seed's measurement
PARTS = 3
#: attempts per logical operation before it counts as failed; an aborted
#: attempt is retried, so a fault costs latency, not a lost operation
MAX_ATTEMPTS = 8
#: cluster units before retry ``n`` of an aborted operation: n x this
RETRY_BACKOFF = 10.0

WRITE_NODES = ("n0", "n1", "n2")
WRITE_WORKERS = 12
WRITE_OPS = 90            # per worker: 1,080 operations per round
WRITE_COUNTERS = 24

MIX_SERVERS = ("s1", "s2", "s3")
MIX_ARRIVALS = 1050
MIX_RATE = 0.2            # arrivals per cluster-clock unit
MIX_ACCOUNTS = 24
MIX_COUNTERS = 12
#: plain counters, one bumped by each read on a server holding neither
#: account read, so the readers' servers vote read-only
MIX_AUDITS = 6
MIX_BALANCE = 1000
MIX_DROP = 0.05
MIX_DUPLICATE = 0.03
MIX_MEAN_UPTIME = 300.0
MIX_MEAN_DOWNTIME = 40.0
MIX_CHECKPOINT_EVERY = 50.0


class CheckFailed(AssertionError):
    """A round's outputs are wrong; the run must not report metrics."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile of ``values`` (0.0 when there are none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Round:
    """What one round measured.

    The cluster-clock fields repeat exactly for every round of one
    (seed, part).
    """

    setup_s: float
    wall_s: float
    cpu_s: float
    #: host speed through the timed phase (1.0 when it was not probed)
    speed: float
    ops: int
    failed_ops: int
    attempts: int
    committed: int
    latencies: List[float]
    sim_units: float
    sends: int
    wal_depth_max: int
    cluster: Any = field(repr=False, default=None)

    def fingerprint(self) -> Tuple:
        """The cluster-clock outcome, to compare rounds of one (seed, part)."""
        return (self.ops, self.failed_ops, self.attempts, self.committed,
                tuple(self.latencies), self.sim_units, self.sends,
                self.wal_depth_max)


class Tally:
    """Outcome bookkeeping shared by a round's client processes."""

    def __init__(self):
        self.attempts = 0
        self.committed = 0
        self.failed_ops = 0
        self.latencies: List[float] = []

    def attempt(self, client, name: str, body: Callable, start: float):
        """Run ``body(action)`` then commit, retrying aborted attempts.

        Returns True when an attempt committed; latency runs from
        ``start`` (action start or due time) to the return of ``commit``.
        """
        kernel = client.kernel
        for number in range(1, MAX_ATTEMPTS + 1):
            self.attempts += 1
            action = client.top_level(f"{name}.a{number}")
            try:
                yield from body(action)
                yield from client.commit(action)
            except ReproError:
                if not action.status.terminated:
                    yield from client.abort(action)
                if number < MAX_ATTEMPTS:
                    yield Timeout(RETRY_BACKOFF * number)
                continue
            self.committed += 1
            self.latencies.append(kernel.now - start)
            return True
        self.failed_ops += 1
        return False


class Setup:
    """A built cluster plus its inputs; :meth:`run` drives the timed phase.

    Subclasses make the inputs, build the cluster (timed as ``setup_s``),
    spawn the workload in ``drive()`` and check its outputs in
    ``verify()``.
    """

    #: logical operations per round
    OPS = 0

    def __init__(self, seed: int, part: int = 0):
        #: one integer per (seed, part) for the cluster's own RNG streams
        self.cluster_seed = seed * PARTS + part
        self.tally = Tally()
        self.inputs = self.make_inputs(f"{seed}:{part}")
        started = time.perf_counter()
        self.cluster = self.build()
        self.setup_s = time.perf_counter() - started

    def make_inputs(self, key: str):
        raise NotImplementedError

    def build(self) -> Cluster:
        raise NotImplementedError

    def drive(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def servers(self) -> List[str]:
        return list(self.cluster.servers)

    def run(self, hooks=None, probe: Optional[HostProbe] = None) -> Round:
        """Drive to drain, check, and report.

        ``hooks`` (a :class:`~layers.LayerTracer`, or None) gets
        ``begin(cluster)`` before the workload starts and ``end(cluster)``
        once it drained, before the checks.  A ``probe`` samples the
        host's speed through the timed phase; its own time is taken out of
        the phase's wall and CPU time.
        """
        cluster = self.cluster
        if hooks is not None:
            hooks.begin(cluster)
        self.drive()
        gc.collect()
        if probe is not None:
            probe.sample()
        sends0, now0 = cluster.network.sent_count, cluster.kernel.now
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if probe is not None:
            probe.arm()
        try:
            cluster.run()
        finally:
            if probe is not None:
                probe.disarm()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        speed = 1.0
        if probe is not None:
            probe.sample()
            wall -= probe.wall_s
            cpu -= probe.cpu_s
            speed = probe.speed
        if hooks is not None:
            hooks.end(cluster)
        depth = max(len(cluster.nodes[name].wal) for name in self.servers())
        self.verify()
        findings = cluster.obs.auditor.report()
        check(not findings, f"auditor findings: {[str(f) for f in findings]}")
        for name, server in cluster.servers.items():
            check(not server.prepared,
                  f"{name} still holds prepared {sorted(server.prepared)}")
            check(not server.in_doubt_txns, f"{name} still holds in-doubt "
                  f"{sorted(server.in_doubt_txns)}")
        tally = self.tally
        return Round(self.setup_s, wall, cpu, speed, self.OPS,
                     tally.failed_ops, tally.attempts, tally.committed,
                     tally.latencies, cluster.kernel.now - now0,
                     cluster.network.sent_count - sends0, depth, cluster)

    def stable_state(self, ref) -> ObjectState:
        node = self.cluster.nodes[ref.node]
        return ObjectState.from_bytes(
            node.stable_store.read_committed(ref.uid).payload)


# -- steady_writes / observed_writes ---------------------------------------

class Writes(Setup):
    """Closed loop: each worker increments two counters per transaction."""

    OPS = WRITE_WORKERS * WRITE_OPS
    observed = False

    def make_inputs(self, key: str) -> List[List[Tuple[int, int, float]]]:
        """Per worker: (counter a, counter b, think time) per operation."""
        plans = []
        for worker in range(WRITE_WORKERS):
            rng = random.Random(f"writes:{key}:{worker}")
            ops = []
            for _ in range(WRITE_OPS):
                a, b = rng.sample(range(WRITE_COUNTERS), 2)
                ops.append((a, b, 1.0 + rng.random()))
            plans.append(ops)
        return plans

    def build(self) -> Cluster:
        cluster = Cluster(seed=self.cluster_seed)
        for name in WRITE_NODES:
            cluster.add_node(name)
        if self.observed:
            cluster.attach_perf(seed=self.cluster_seed)
            cluster.attach_postmortem()
            cluster.attach_introspection()
            cluster.attach_slo()
        self.refs: List[Any] = []

        def create():
            client = cluster.client(WRITE_NODES[0])
            for index in range(WRITE_COUNTERS):
                ref = yield from client.create(
                    WRITE_NODES[index % len(WRITE_NODES)], "counter",
                    value=0)
                self.refs.append(ref)

        cluster.run_process(WRITE_NODES[0], create())
        return cluster

    def drive(self) -> None:
        cluster, refs, tally = self.cluster, self.refs, self.tally

        def worker(index: int):
            client = cluster.client(WRITE_NODES[index % len(WRITE_NODES)],
                                    name=f"w{index}")
            for op, (a, b, think) in enumerate(self.inputs[index]):
                # canonical acquisition order: contention, not deadlock
                pair = sorted((refs[a], refs[b]),
                              key=lambda r: (r.node, r.uid))

                def body(action, pair=pair):
                    for ref in pair:
                        yield from client.invoke(action, ref, "increment", 1)

                yield from tally.attempt(client, f"w{index}.op{op}", body,
                                         cluster.kernel.now)
                yield Timeout(think)

        for index in range(WRITE_WORKERS):
            cluster.spawn(WRITE_NODES[index % len(WRITE_NODES)],
                          worker(index), name=f"worker{index}")

    def verify(self) -> None:
        total = sum(self.stable_state(ref).unpack_int() for ref in self.refs)
        check(total == 2 * self.tally.committed,
              f"counter total {total} != 2 x {self.tally.committed} committed")


class ObservedWrites(Writes):
    """The same rounds as :class:`Writes` with every obs layer attached."""

    observed = True


# -- faulty_mix ---------------------------------------------------------------

class FaultyMix(Setup):
    """Open loop: one process per Poisson arrival, under injected faults."""

    OPS = MIX_ARRIVALS

    def make_inputs(self, key: str) -> List[Tuple[float, str, int, int, int]]:
        """(due time offset, kind, object a, object b, amount) per arrival.

        For a read, ``amount`` is the audit counter it bumps.
        """
        servers = len(MIX_SERVERS)
        rng = random.Random(f"mix:{key}")
        due, arrivals = 0.0, []
        for _ in range(MIX_ARRIVALS):
            due += rng.expovariate(MIX_RATE)
            roll = rng.random()
            if roll < 0.4:
                kind, pool = "transfer", MIX_ACCOUNTS
            elif roll < 0.7:
                kind, pool = "add", MIX_COUNTERS
            else:
                kind, pool = "read", MIX_ACCOUNTS
            a, b = rng.sample(range(pool), 2)
            if kind == "read":
                read_on = {a % servers, b % servers}
                amount = rng.choice([index for index in range(MIX_AUDITS)
                                     if index % servers not in read_on])
            else:
                amount = rng.randint(1, 9)
            arrivals.append((due, kind, a, b, amount))
        return arrivals

    def build(self) -> Cluster:
        cluster = Cluster(
            seed=self.cluster_seed,
            config=NetworkConfig(drop_probability=MIX_DROP,
                                 duplicate_probability=MIX_DUPLICATE))
        for name in ("home",) + MIX_SERVERS:
            cluster.add_node(name)
        self.client = client = cluster.client("home")
        self.accounts: List[Any] = []
        self.counters: List[Any] = []
        self.audits: List[Any] = []

        def create():
            for index in range(MIX_ACCOUNTS):
                ref = yield from client.create(
                    MIX_SERVERS[index % len(MIX_SERVERS)], "account",
                    owner=f"acct{index}", balance=MIX_BALANCE)
                self.accounts.append(ref)
            for index in range(MIX_COUNTERS):
                ref = yield from client.create(
                    MIX_SERVERS[index % len(MIX_SERVERS)],
                    "commuting_counter", value=0)
                self.counters.append(ref)
            for index in range(MIX_AUDITS):
                ref = yield from client.create(
                    MIX_SERVERS[index % len(MIX_SERVERS)], "counter",
                    value=0)
                self.audits.append(ref)

        cluster.run_process("home", create())
        return cluster

    def servers(self) -> List[str]:
        return list(MIX_SERVERS)

    def drive(self) -> None:
        cluster, client, tally = self.cluster, self.client, self.tally
        self.added = self.audited = 0
        start = cluster.kernel.now

        def transaction(index: int, kind: str, a: int, b: int, amount: int,
                        due: float):
            pool = self.counters if kind == "add" else self.accounts
            source = pool[a]
            pair = sorted((pool[a], pool[b]), key=lambda r: (r.node, r.uid))

            def body(action):
                for ref in pair:
                    if kind == "transfer":
                        method = "withdraw" if ref is source else "deposit"
                        yield from client.invoke(action, ref, method, amount)
                    elif kind == "add":
                        yield from client.invoke(action, ref, "add", amount)
                    else:
                        yield from client.invoke(action, ref, "read_balance")
                if kind == "read":
                    yield from client.invoke(action, self.audits[amount],
                                             "increment", 1)

            committed = yield from tally.attempt(client, f"{kind}{index}",
                                                 body, due)
            if committed and kind == "add":
                self.added += 2 * amount
            elif committed and kind == "read":
                self.audited += 1

        def arrivals():
            for index, (offset, kind, a, b, amount) in enumerate(self.inputs):
                due = start + offset
                yield Timeout(due - cluster.kernel.now)
                cluster.spawn("home",
                              transaction(index, kind, a, b, amount, due),
                              name=f"txn{index}")

        def checkpoint_live() -> None:
            for name in MIX_SERVERS:
                if cluster.nodes[name].alive:
                    cluster.servers[name].checkpoint()

        self.schedule = FaultSchedule(cluster, seed=self.cluster_seed,
                                      mean_uptime=MIX_MEAN_UPTIME,
                                      mean_downtime=MIX_MEAN_DOWNTIME)
        self.schedule.arm(list(MIX_SERVERS),
                          horizon=start + self.inputs[-1][0],
                          start_after=start + 50.0)
        cluster.kernel.every(MIX_CHECKPOINT_EVERY, checkpoint_live)
        cluster.spawn("home", arrivals(), name="arrivals")

    def verify(self) -> None:
        cluster = self.cluster
        check(self.schedule.crash_count() > 0,
              "the fault schedule crashed nothing")
        check(all(node.alive for node in cluster.nodes.values()),
              "a node is still down after the drain")
        balances = 0
        for ref in self.accounts:
            state = self.stable_state(ref)
            state.unpack_string()
            balances += state.unpack_int()
        check(balances == MIX_ACCOUNTS * MIX_BALANCE,
              f"account total {balances} != {MIX_ACCOUNTS * MIX_BALANCE}")
        adds = sum(self.stable_state(ref).unpack_int()
                   for ref in self.counters)
        check(adds == self.added,
              f"commuting total {adds} != committed adds {self.added}")
        audits = sum(self.stable_state(ref).unpack_int()
                     for ref in self.audits)
        check(audits == self.audited,
              f"audit total {audits} != committed reads {self.audited}")


WORKLOADS: Dict[str, Callable[..., Setup]] = {
    "steady_writes": Writes,
    "observed_writes": ObservedWrites,
    "faulty_mix": FaultyMix,
}


def run_round(name: str, seed: int, part: int = 0,
              probe: Optional[HostProbe] = None) -> Round:
    """Build and run part ``part`` of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed, part).run(probe=probe)
