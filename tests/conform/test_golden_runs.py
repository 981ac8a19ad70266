"""Golden pins: simulated outcomes of three short network runs.

Each run is reduced to per-packet delivery times plus the end-of-run
:func:`~repro.conform.digest.fingerprint_network` with only
``events_executed`` scrubbed, and the SHA-256 of that is pinned.  The
pins were taken from the always-ticking slot loop, so a change to how
switches schedule their slot ticks must leave every delivery instant,
every counter and every switch's frame phase (``slot_index``) exactly
as they were.  A pin that stops matching means simulated behaviour
changed: find out why before touching it.
"""

from __future__ import annotations

import hashlib
import random

from repro.conform.digest import (
    canonical_bytes,
    fingerprint_network,
    replay_network,
)
from repro.constants import CELL_PAYLOAD_BYTES
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology

from tests.conftest import fast_host_config, fast_switch_config

GOLDEN = {
    "replay": "3a2d03c117def8ec4285269f66351a383d03169187e03525132f42aaebba097e",
    "reservation_line": "a296bfc295f923a4201d1e4d8ab77941ff6acf12d8953bb189b3a5e54fd2e1ef",
    "stranded_trunk": "cd76c2cd82cefb7fcb49ef6f3aaf0414a48359947f08712fa145efff63c4f751",
}


def outcome_digest(net: Network) -> str:
    fingerprint = fingerprint_network(net)
    fingerprint.pop("events_executed")
    deliveries = [
        [str(node), [packet.delivered_at for packet in host.delivered]]
        for node, host in sorted(net.hosts.items())
    ]
    blob = canonical_bytes({"deliveries": deliveries, "state": fingerprint})
    return hashlib.sha256(blob).hexdigest()


def four_host_line(seed: int, **overrides) -> Network:
    """s0 - s1 - s2 with h0, h2 on s0 and h1, h3 on s2, booted."""
    topo = Topology.line(3)
    for h in range(4):
        topo.add_host(h)
    for host, switch in (("h0", "s0"), ("h1", "s2"), ("h2", "s0"), ("h3", "s2")):
        topo.connect(host, switch, port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=fast_switch_config(**overrides),
        host_config=fast_host_config(),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def send_at(net: Network, at: float, src: str, vc: int, size: int) -> None:
    host = net.host(src)
    destination = host.senders[vc].destination

    def send() -> None:
        host.send_packet(
            vc, Packet(source=host.node_id, destination=destination, size=size)
        )

    net.sim.schedule_at(at, send)


def run_replay() -> Network:
    return replay_network(seed=1, duration_us=40_000.0)


def run_reservation_line() -> Network:
    """A guaranteed circuit with 8 cells per 32-slot frame next to light
    best effort.  The reservation sits idle for most of the run; s1's
    oscillator steps once under traffic and once while idle."""
    net = four_host_line(seed=3)
    cbr, _ = net.reserve_bandwidth("h0", "h1", 8)
    net.run(2_000.0)
    be = net.setup_circuit("h2", "h3")
    frame_us = 32 * net.switch("s0").config.slot_time_us
    rng = random.Random(7)
    t0 = net.now
    for k in range(60):
        send_at(net, t0 + k * 1.618 * frame_us, "h0", cbr.vc, 4 * CELL_PAYLOAD_BYTES)
    for _ in range(150):
        at = t0 + rng.uniform(0.0, 60 * 1.618 * frame_us)
        send_at(net, at, "h2", be.vc, CELL_PAYLOAD_BYTES * rng.randint(1, 3))
    s1 = net.switch("s1")
    net.sim.schedule_at(t0 + 900.0, s1.clock.set_drift, 80.0)
    net.sim.schedule_at(t0 + 5_000.0, s1.clock.set_drift, -40.0)
    net.run(8_000.0)
    return net


def run_stranded_trunk() -> Network:
    """Best-effort floods over the only trunk, which dies mid-flow: cells
    strand behind the dead output and credits leak on the wire.  The
    trunk comes back (credit resync repairs the leak), then dies for
    good under a second burst, leaving cells stranded at the end."""
    net = four_host_line(seed=5, resync_interval_us=2_000.0)
    flow = net.setup_circuit("h0", "h1")
    other = net.setup_circuit("h2", "h3")
    t0 = net.now
    for start in (0.0, 14_000.0):
        for k in range(40):
            send_at(net, t0 + start + 20.0 * k, "h0", flow.vc, 10 * CELL_PAYLOAD_BYTES)
            send_at(net, t0 + start + 35.0 * k, "h2", other.vc, 2 * CELL_PAYLOAD_BYTES)
    trunk = net.link_between("s1", "s2")
    net.sim.schedule_at(t0 + 300.0, trunk.fail)
    net.sim.schedule_at(t0 + 6_000.0, trunk.restore)
    net.sim.schedule_at(t0 + 14_300.0, trunk.fail)
    net.run(30_000.0)
    return net


RUNS = {
    "replay": run_replay,
    "reservation_line": run_reservation_line,
    "stranded_trunk": run_stranded_trunk,
}


def test_replay_scenario_outcome_pinned():
    assert outcome_digest(run_replay()) == GOLDEN["replay"]


def test_reservation_line_outcome_pinned():
    assert outcome_digest(run_reservation_line()) == GOLDEN["reservation_line"]


def test_stranded_trunk_outcome_pinned():
    assert outcome_digest(run_stranded_trunk()) == GOLDEN["stranded_trunk"]


if __name__ == "__main__":  # print fresh digests (for a deliberate re-pin)
    for name, run in RUNS.items():
        print(name, outcome_digest(run()))
