"""The three whole-network workloads.

Each workload draws its installation from a fixed seed and its traffic
from ``--seed`` in ``__init__``, builds and boots the network in
:meth:`Workload.setup`, and runs the timed region in
:meth:`Workload.drive`, which calls ``region.begin()`` and
``region.end()`` around the part that is measured.  :meth:`outcome`
then judges the run: every workload checks its own correctness rule.

Best-effort packet latency runs from ``Host.send_packet``, so time a
packet waits in its host's queue counts.  Arrivals are open loop: each
source gets a fixed number of packets at seeded times, so a slow network
never throttles its own input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.constants import CELL_PAYLOAD_BYTES, FAST_CELL_TIME_US, FAST_LINK_BPS
from repro.core.guaranteed.latency import guaranteed_latency_bound_us
from repro.faults.plan import FaultPlan, LinkCut, SwitchCrash
from repro.faults.runner import ScenarioRunner, TrafficLoad
from repro.faults.scenarios import scenario_host_config, scenario_switch_config
from repro.net.network import Network, NetworkError
from repro.net.packet import Packet
from repro.net.topogen import fat_tree
from repro.net.topology import Topology

#: how long a run may take to deliver its last packet after the load ends.
DRAIN_LIMIT_US = 100_000.0
DRAIN_STEP_US = 100.0
BOOT_TIMEOUT_US = 2_000_000.0


@dataclass
class Outcome:
    """What one repetition of a workload produced, in simulated terms."""

    sent: int = 0  # packets offered (operations attempted)
    intact: int = 0  # packets delivered with the payload they were sent with
    failed: int = 0  # operations that failed by the workload's rule
    latencies: List[float] = field(default_factory=list)  # best effort, us
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)  # printed, not metrics


@dataclass
class Flow:
    """One circuit's open-loop packet source."""

    source: str
    destination: str
    size: int  # bytes per packet
    offsets: List[float]  # send times after the region opens, us
    payloads: List[bytes]
    vc: int = 0  # set once the circuit is open


def poisson_times(rng: random.Random, count: int, span_us: float) -> List[float]:
    """``count`` arrival offsets of a Poisson process seen on ``[0, span)``,
    conditioned on the count (sorted uniform draws)."""
    return sorted(rng.uniform(0.0, span_us) for _ in range(count))


def jittered_times(rng: random.Random, count: int, span_us: float) -> List[float]:
    """One arrival drawn uniformly inside each of ``count`` equal slices
    of ``[0, span)``: the same mean rate as a Poisson source, without
    its bursts."""
    gap = span_us / count
    return [k * gap + rng.uniform(0.0, gap) for k in range(count)]


def load_gap_us(packet_bytes: int, load: float) -> float:
    """Mean packet spacing that offers ``load`` of one fast link."""
    cells = -(-packet_bytes // CELL_PAYLOAD_BYTES)
    return cells * FAST_CELL_TIME_US / load


class Workload:
    """One network, its seeded inputs, and its correctness rule.

    The installation is fixed: topology, who talks to whom, and the
    network's own random seed (PIM draws, ping phases), all drawn from
    :data:`INSTALLATION_SEED`.  ``--seed`` draws only the traffic, so
    two seeds run the same network under different traffic.
    """

    name = ""
    INSTALLATION_SEED = 1993
    #: simulated length of the pieces an untraced region is timed in,
    #: chosen so that a piece takes tens of host milliseconds.
    SLICE_US = 100.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.installation = random.Random(self.INSTALLATION_SEED)
        self.net: Optional[Network] = None
        self.boot_us = 0.0

    def _build(self, topology: Topology) -> Network:
        return Network(
            topology,
            seed=self.INSTALLATION_SEED,
            switch_config=scenario_switch_config(),
            host_config=scenario_host_config(),
        )

    def _boot(self) -> None:
        net = self.net
        net.start()
        self.boot_us = net.run_until(
            net.fully_reconfigured, timeout_us=BOOT_TIMEOUT_US
        )

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self, region) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


class _PacketSource(Workload):
    """Shared open-loop driver: schedule every packet, run, then drain."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.flows: List[Flow] = []
        self.duration_us = 0.0
        self.sent: List[Tuple[int, Packet]] = []

    def _send(self, host, vc: int, destination, payload: bytes, size: int) -> None:
        packet = Packet(
            source=host.node_id, destination=destination, payload=payload,
            size=size,
        )
        self.sent.append((vc, packet))
        host.send_packet(vc, packet)

    def _delivered(self) -> int:
        return sum(len(h.delivered) for h in self.net.hosts.values())

    def drive(self, region) -> None:
        net = self.net
        sim = net.sim
        region.begin()
        t0 = sim.now
        for flow in self.flows:
            host = net.host(flow.source)
            dst = host.senders[flow.vc].destination
            for at, payload in zip(flow.offsets, flow.payloads):
                sim.schedule_at(
                    t0 + at, self._send, host, flow.vc, dst, payload, flow.size
                )
        sim.run(until=t0 + self.duration_us)
        total = sum(len(flow.offsets) for flow in self.flows)
        try:
            net.run_until(
                lambda: self._delivered() >= total,
                timeout_us=DRAIN_LIMIT_US,
                check_interval_us=DRAIN_STEP_US,
            )
        except NetworkError:
            pass  # judged in outcome(): packets missing
        region.end()

    def _judge_packets(self, out: Outcome, be_vcs) -> None:
        """Intact delivery of every packet sent; latency of best effort."""
        net = self.net
        by_uid = {packet.uid: (vc, packet) for vc, packet in self.sent}
        seen = set()
        for host in net.hosts.values():
            for packet in host.delivered:
                entry = by_uid.get(packet.uid)
                if entry is None or packet.uid in seen:
                    out.problems.append(f"unexpected packet #{packet.uid}")
                    continue
                seen.add(packet.uid)
                vc, original = entry
                if (packet.payload != original.payload
                        or packet.destination != host.node_id):
                    out.problems.append(f"packet #{packet.uid} corrupted")
                    continue
                out.intact += 1
                if vc in be_vcs:
                    out.latencies.append(packet.latency)
        out.sent = len(self.sent)
        out.failed = out.sent - out.intact
        if out.failed:
            out.problems.append(f"{out.failed} of {out.sent} packets not delivered intact")
        errors = sum(h.reassembly_errors for h in net.hosts.values())
        if errors:
            out.problems.append(f"{errors} reassembly errors")
        dropped = net.total_cells_dropped()
        if dropped:
            out.problems.append(f"{dropped} data cells dropped")


class FatTreeBestEffort(_PacketSource):
    """``fat_tree(k=4)`` with two hosts per edge switch (20 switches,
    16 hosts); each host has one best-effort circuit to a host in another
    pod (a fixed derangement), offered 960-byte packets at 10% of its
    link by a jittered periodic source.  The run drains until every
    packet is delivered.

    Jittered rather than Poisson: with Poisson bursts the median and
    99th-percentile latency of 1,024 packets moved by 10-12% from one
    seed to the next; jittered arrivals hold them within about 3%."""

    name = "fattree_be"
    PACKET_BYTES = 960
    LOAD = 0.10
    PACKETS_PER_HOST = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.structure = fat_tree(4, hosts_per_edge=2)
        pod_of = {
            str(host): self.structure.pod[edge]
            for edge, hosts in self.structure.hosts_of.items()
            for host in hosts
        }
        hosts = sorted(pod_of)
        while True:
            targets = hosts[:]
            self.installation.shuffle(targets)
            if all(pod_of[a] != pod_of[b] for a, b in zip(hosts, targets)):
                break
        self.duration_us = self.PACKETS_PER_HOST * load_gap_us(
            self.PACKET_BYTES, self.LOAD
        )
        for source, destination in zip(hosts, targets):
            offsets = jittered_times(self.rng, self.PACKETS_PER_HOST, self.duration_us)
            payloads = [self.rng.randbytes(16) for _ in offsets]
            self.flows.append(
                Flow(source, destination, self.PACKET_BYTES, offsets, payloads)
            )

    def setup(self) -> None:
        self.net = self._build(self.structure.topology)
        self._boot()
        for flow in self.flows:
            flow.vc = self.net.setup_circuit(flow.source, flow.destination).vc

    def outcome(self) -> Outcome:
        out = Outcome()
        self._judge_packets(out, {flow.vc for flow in self.flows})
        queued = sum(s.buffered_cells() for s in self.net.switches.values())
        if queued:
            out.problems.append(f"{queued} cells still queued in switches")
        out.info["reconverge_ms"] = self.boot_us / 1000.0
        return out


class CbrMixed(_PacketSource):
    """The E8/E12 shape: a 3-switch line with 4 hosts.  h0 -> h1 holds a
    guaranteed reservation of 8 cells per 32-slot frame and sends a
    4-cell CBR packet every 1.618 frames, a period incommensurate with
    the frame so the stream meets every frame phase whatever its seeded
    start; h2 -> h3 is a light Poisson best-effort flow of one-cell
    packets (4% of a link) on the same trunks.  Every switch ticks every slot for the reservation, though
    few slots carry a cell."""

    name = "cbr_mixed"
    SLICE_US = 1_000.0
    RESERVED_CELLS_PER_FRAME = 8
    CBR_PACKET_BYTES = 4 * CELL_PAYLOAD_BYTES
    CBR_PERIOD_FRAMES = 1.618
    BE_PACKET_BYTES = CELL_PAYLOAD_BYTES
    BE_LOAD = 0.04
    BE_PACKETS = 1500

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        topology = Topology.line(3)
        for h in range(4):
            topology.add_host(h)
        for host, switch in (("h0", "s0"), ("h1", "s2"), ("h2", "s0"), ("h3", "s2")):
            topology.connect(host, switch, port_a=0, bps=FAST_LINK_BPS)
        self.topology = topology
        frame_us = scenario_switch_config().frame_slots * FAST_CELL_TIME_US
        self.frame_us = frame_us
        self.duration_us = self.BE_PACKETS * load_gap_us(
            self.BE_PACKET_BYTES, self.BE_LOAD
        )
        period = self.CBR_PERIOD_FRAMES * frame_us
        phase = self.rng.uniform(0.0, period)
        cbr_offsets = [
            phase + k * period
            for k in range(int((self.duration_us - phase) // period))
        ]
        be_offsets = poisson_times(self.rng, self.BE_PACKETS, self.duration_us)
        self.cbr = Flow(
            "h0", "h1", self.CBR_PACKET_BYTES, cbr_offsets,
            [self.rng.randbytes(16) for _ in cbr_offsets],
        )
        self.be = Flow(
            "h2", "h3", self.BE_PACKET_BYTES, be_offsets,
            [self.rng.randbytes(16) for _ in be_offsets],
        )
        self.flows = [self.cbr, self.be]

    def setup(self) -> None:
        net = self.net = self._build(self.topology)
        self._boot()
        cbr, reservation = net.reserve_bandwidth(
            "h0", "h1", self.RESERVED_CELLS_PER_FRAME
        )
        net.run(2_000.0)  # hop-by-hop reservation notices install
        self.cbr.vc = cbr.vc
        self.be.vc = net.setup_circuit("h2", "h3").vc
        self.path_length = reservation.path_length

    def outcome(self) -> Outcome:
        net = self.net
        out = Outcome()
        self._judge_packets(out, {self.be.vc})
        link_latency = max(link.latency_us for link in net.links.values())
        bound = guaranteed_latency_bound_us(
            self.path_length, self.frame_us, link_latency
        )
        worst = net.host("h1").cell_latency[self.cbr.vc].maximum
        if worst > bound:
            out.problems.append(
                f"CBR cell took {worst:.2f} us, bound p(2f+l) is {bound:.2f} us"
            )
        out.info["cbr_latency_max_us"] = worst
        out.info["cbr_latency_bound_us"] = bound
        out.info["reconverge_ms"] = self.boot_us / 1000.0
        return out


class _RegionRunner(ScenarioRunner):
    """The ScenarioRunner of ``lan_faults``.

    Once its circuits are up it aims the fault plan at the trunk and the
    switch that carry the most of them, then opens the timed region.
    Each packet's size, up to the load's ``packet_size``, is drawn
    from the load's own stream in the runner, like its payload.  Those
    streams hang off the network's seed, so the size sequence is part of
    the fixed installation: drawing it from ``--seed`` instead moved the
    99th-percentile latency by 24% between seeds, because it decides
    which packets are large when a fault hits.
    """

    def __init__(self, workload: "LanFaults", region) -> None:
        super().__init__(
            workload.net, FaultPlan.of(), workload.loads,
            settle_us=workload.SETTLE_US,
        )
        self.workload = workload
        self.region = region

    def _open_circuits(self) -> List[int]:
        vcs = super()._open_circuits()
        self.plan = self.workload.fault_plan(set(vcs))
        self.region.begin()
        return vcs

    def _send_one(self, vc: int, load: TrafficLoad, rng) -> None:
        host = self.net.host(load.source)
        if vc not in host.senders:
            return  # circuit was torn down by the scenario
        cells = rng.randint(1, load.packet_size // CELL_PAYLOAD_BYTES)
        packet = Packet(
            source=host.node_id,
            destination=host.senders[vc].destination,
            payload=rng.randbytes(cells * CELL_PAYLOAD_BYTES),
        )
        self.sent[vc].append(packet)
        host.send_packet(vc, packet)


class LanFaults(Workload):
    """``Topology.src_lan`` with 24 switches and 16 dual-homed hosts,
    driven by :class:`~repro.faults.runner.ScenarioRunner`.  Every host
    runs one light best-effort load to another (a fixed derangement) of
    1 to 20 cell packets.  The trunk that carries the most circuits is
    cut and spliced back; then the busiest switch without host links
    crashes and restarts.  The installation and who talks to whom are
    fixed; the seed draws each load's start.

    The crashed switch has no host links because host-link state changes
    do not trigger reconfiguration (paper, section 2): a host link that
    comes back after the last epoch stays out of the converged view, and
    the runner's convergence invariant then fails.
    """

    name = "lan_faults"
    SLICE_US = 250.0
    N_SWITCHES = 24
    N_HOSTS = 16
    PACKETS_PER_LOAD = 80
    MAX_PACKET_BYTES = 960
    INTERVAL_US = 100.0
    SETTLE_US = 7_500.0
    CUT_US, RESTORE_US = 1_000.0, 3_000.0
    CRASH_US, RESTART_US = 3_500.0, 5_500.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.topology = Topology.src_lan(
            self.N_SWITCHES, self.N_HOSTS, rng=self.installation
        )
        hosts = sorted(str(h) for h in self.topology.hosts())
        while True:
            targets = hosts[:]
            self.installation.shuffle(targets)
            if all(a != b for a, b in zip(hosts, targets)):
                break
        self.loads = tuple(
            TrafficLoad(
                source=source,
                destination=destination,
                packet_size=self.MAX_PACKET_BYTES,
                interval_us=self.INTERVAL_US,
                count=self.PACKETS_PER_LOAD,
                start_us=self.rng.uniform(0.0, self.INTERVAL_US),
            )
            for source, destination in zip(hosts, targets)
        )

    def _core_connected_without(self, node=None, trunk=None) -> bool:
        adjacency: Dict[str, set] = {str(s): set() for s in self.topology.switches()}
        for (a, _), (b, _) in self.topology.switch_edges():
            if {str(a), str(b)} != set(trunk or ()):
                adjacency[str(a)].add(str(b))
                adjacency[str(b)].add(str(a))
        nodes = [n for n in adjacency if n != node]
        seen, stack = {nodes[0]}, [nodes[0]]
        while stack:
            for other in adjacency[stack.pop()] - seen:
                if other != node:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(nodes)

    def fault_plan(self, vcs) -> FaultPlan:
        """Cut the busiest trunk, then crash the busiest host-free switch
        not on that trunk; both leave the switch core connected."""
        net = self.net
        through: Dict[str, int] = {}
        on_trunk: Dict[Tuple[str, str], int] = {}
        for node, switch in net.switches.items():
            for card in switch.cards:
                for entry in card.routing_table.entries():
                    if entry.vc not in vcs:
                        continue
                    through[str(node)] = through.get(str(node), 0) + 1
                    peer = switch.ports[entry.out_port].peer()
                    if peer is not None and peer.node.node_id.is_switch:
                        trunk = tuple(sorted((str(node), str(peer.node.node_id))))
                        on_trunk[trunk] = on_trunk.get(trunk, 0) + 1
        with_hosts = {
            str(end[0]) for edge in self.topology.host_attachments()
            for end in edge if end[0].is_switch
        }
        crashed = min(
            (s for s in map(str, net.switches)
             if s not in with_hosts and self._core_connected_without(node=s)),
            key=lambda s: (-through.get(s, 0), s),
        )
        trunks = {
            tuple(sorted((str(a), str(b))))
            for (a, _), (b, _) in self.topology.switch_edges()
        }
        trunk = min(
            (t for t in trunks
             if crashed not in t and self._core_connected_without(trunk=t)),
            key=lambda t: (-on_trunk.get(t, 0), t),
        )
        return FaultPlan.of(
            LinkCut(at_us=self.CUT_US, a=trunk[0], b=trunk[1],
                    restore_at_us=self.RESTORE_US),
            SwitchCrash(at_us=self.CRASH_US, switch=crashed,
                        restart_at_us=self.RESTART_US),
        )

    def setup(self) -> None:
        self.net = self._build(self.topology)
        self._boot()

    def drive(self, region) -> None:
        self.result = _RegionRunner(self, region).run()
        region.end()

    def outcome(self) -> Outcome:
        result = self.result
        out = Outcome()
        out.sent = sum(len(packets) for packets in result.sent.values())
        out.intact = result.delivered
        out.latencies = [
            packet.latency
            for host in self.net.hosts.values()
            for packet in host.delivered
        ]
        failed = [r for r in result.invariants if not r.passed]
        out.failed = len(failed)
        out.problems.extend(f"invariant failed: {r}" for r in failed)
        settle = result.settle_after_last_fault_us
        if settle is not None:
            out.info["reconverge_ms"] = settle / 1000.0
        out.info["faults"] = result.plan.describe()
        return out


WORKLOADS = {w.name: w for w in (FatTreeBestEffort, CbrMixed, LanFaults)}
