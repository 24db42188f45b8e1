"""Simulated network: delivery, faults, partitions, payload isolation."""

import enum

import pytest

from repro.cluster.message import Message
from repro.cluster.network import Network, NetworkConfig
from repro.colours.colour import Colour
from repro.errors import ClusterError
from repro.obs import Observability
from repro.sim.kernel import Kernel
from repro.util.rng import SplitRandom
from repro.util.uid import Uid


def make_network(config=None, seed=0):
    kernel = Kernel()
    network = Network(kernel, SplitRandom(seed), config)
    return kernel, network


def attach_sink(network, name):
    inbox = []
    network.attach(name, inbox.append)
    return inbox


def test_message_delivered_within_delay_bounds():
    kernel, network = make_network(NetworkConfig(min_delay=1.0, max_delay=3.0))
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.send(Message("a", "b", "ping", {}, msg_id=1))
    kernel.run()
    assert len(inbox) == 1
    assert 1.0 <= kernel.now <= 3.0


def test_send_to_unknown_endpoint_raises():
    kernel = Kernel()
    obs = Observability(tick_source=lambda: kernel.now)
    network = Network(kernel, SplitRandom(0), observability=obs)
    network.attach("a", lambda m: None)
    with pytest.raises(ClusterError):
        network.send(Message("a", "ghost", "ping", {}))
    assert network.sent_count == 0
    assert obs.metrics.counter("messages_sent_total", kind="ping").value == 0


def test_down_endpoint_drops_silently():
    kernel, network = make_network()
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.set_up("b", False)
    network.send(Message("a", "b", "ping", {}))
    kernel.run()
    assert inbox == []
    assert network.dropped_count == 1


def test_crash_during_flight_loses_message():
    """Reachability is evaluated at delivery time."""
    kernel, network = make_network(NetworkConfig(min_delay=5.0, max_delay=5.0))
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.send(Message("a", "b", "ping", {}))
    kernel.schedule(1.0, lambda: network.set_up("b", False))
    kernel.run()
    assert inbox == []


def test_partition_blocks_both_directions_until_healed():
    kernel, network = make_network()
    inbox_a = attach_sink(network, "a")
    inbox_b = attach_sink(network, "b")
    network.partition("a", "b")
    network.send(Message("a", "b", "x", {}))
    network.send(Message("b", "a", "y", {}))
    kernel.run()
    assert inbox_a == [] and inbox_b == []
    network.heal("a", "b")
    network.send(Message("a", "b", "x", {}))
    kernel.run()
    assert len(inbox_b) == 1


def test_drop_probability_loses_some_messages():
    kernel, network = make_network(NetworkConfig(drop_probability=0.5), seed=3)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    for i in range(200):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    assert 0 < len(inbox) < 200
    assert network.dropped_count == 200 - len(inbox)


def test_duplicate_probability_duplicates_some_messages():
    kernel, network = make_network(NetworkConfig(duplicate_probability=0.5), seed=5)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    for i in range(100):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    assert len(inbox) > 100


def test_payload_deep_copied_at_send():
    """Mutating the payload after send must not affect the receiver."""
    kernel, network = make_network()
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    payload = {"xs": [1, 2]}
    network.send(Message("a", "b", "data", payload))
    payload["xs"].append(99)
    kernel.run()
    assert inbox[0].payload["xs"] == [1, 2]


class Mode(enum.Enum):
    FAST = 1


@pytest.mark.parametrize("payload, culprit", [
    ({"uid": Uid("n", 1)}, "Uid"),
    ({"colours": [Colour(Uid("c", 1), "red")]}, "Colour"),
    ({"mode": Mode.FAST}, "Mode"),
])
def test_unencodable_payload_rejected_with_kind_and_type(payload, culprit):
    kernel, network = make_network()
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    with pytest.raises(ClusterError) as raised:
        network.send(Message("a", "b", "prepare", payload))
    assert "'prepare'" in str(raised.value)
    assert culprit in str(raised.value)
    kernel.run()
    assert inbox == [] and network.sent_count == 0


def test_rejected_payload_consumes_no_fault_draw():
    """A rejected send never reaches the fault draws (even when it would
    have been dropped), so the following messages' fates are unchanged."""
    config = NetworkConfig(drop_probability=0.5, duplicate_probability=0.3)

    def fates(reject_first):
        kernel, network = make_network(config, seed=9)
        inbox = attach_sink(network, "b")
        network.attach("a", lambda m: None)
        if reject_first:
            with pytest.raises(ClusterError):
                network.send(Message("a", "b", "ping", {"uid": Uid("n", 1)}))
        for i in range(40):
            network.send(Message("a", "b", "ping", {"i": i}))
        kernel.run()
        return sorted(m.payload["i"] for m in inbox), network.stats()

    assert fates(reject_first=True) == fates(reject_first=False)


def test_duplicated_copies_are_independent():
    kernel, network = make_network(
        NetworkConfig(duplicate_probability=0.999999))
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    network.send(Message("a", "b", "data", {"xs": [1, 2], "nested": {"k": 1}}))
    kernel.run()
    assert len(inbox) == 2
    first, second = inbox
    first.payload["xs"].append(99)
    first.payload["nested"]["k"] = 2
    assert second.payload == {"xs": [1, 2], "nested": {"k": 1}}


def test_same_seed_same_fault_pattern():
    def run(seed):
        kernel, network = make_network(
            NetworkConfig(drop_probability=0.3, duplicate_probability=0.2), seed=seed
        )
        inbox = attach_sink(network, "b")
        network.attach("a", lambda m: None)
        for i in range(50):
            network.send(Message("a", "b", "ping", {"i": i}))
        kernel.run()
        return [m.payload["i"] for m in inbox]

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_invalid_config_rejected():
    with pytest.raises(ClusterError):
        NetworkConfig(min_delay=2.0, max_delay=1.0).validate()
    with pytest.raises(ClusterError):
        NetworkConfig(drop_probability=1.5).validate()


def run_fault_pattern(config, seed=7, count=150):
    """Deliver ``count`` messages; return (dropped, duplicated) index sets."""
    kernel, network = make_network(config, seed=seed)
    inbox = attach_sink(network, "b")
    network.attach("a", lambda m: None)
    for i in range(count):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    seen = {}
    for m in inbox:
        seen[m.payload["i"]] = seen.get(m.payload["i"], 0) + 1
    dropped = {i for i in range(count) if i not in seen}
    duplicated = {i for i, n in seen.items() if n == 2}
    return dropped, duplicated


def test_drop_decisions_independent_of_duplicate_knob():
    """The Nth message's drop fate depends only on (seed, N): turning
    duplication on must not reshuffle which messages get dropped."""
    dropped_plain, _ = run_fault_pattern(NetworkConfig(drop_probability=0.3))
    dropped_dup, _ = run_fault_pattern(
        NetworkConfig(drop_probability=0.3, duplicate_probability=0.5))
    assert dropped_plain == dropped_dup


def test_duplicate_decisions_independent_of_drop_knob():
    """Duplicate draws are consumed for every send — dropped or not — so
    the per-index duplicate pattern is fixed: under loss, the surviving
    duplicated messages are exactly the fixed pattern minus the drops."""
    _, dup_baseline = run_fault_pattern(
        NetworkConfig(duplicate_probability=0.4))
    dropped, dup_lossy = run_fault_pattern(
        NetworkConfig(drop_probability=0.3, duplicate_probability=0.4))
    assert dup_lossy == dup_baseline - dropped
