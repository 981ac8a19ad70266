"""FabricSlotDriver: wave coalescing semantics and network neutrality.

The driver's contract has three legs:

1. **Adoption is conservative** -- only drift-free switches with the
   driver's exact slot time are adopted; everything else keeps its
   private timer (the hybrid-fidelity fallback).
2. **Waves coalesce** -- S switches requesting ticks in one slot window
   cost one kernel event, dispatched in node-id order.
3. **Count neutrality** -- on the conformance replay scenario a Network
   run with ``fabric_slot_driver=True`` ends with byte-identical counts
   (forwarding, queues, credits, epochs, link/host state) while
   executing strictly fewer kernel events; the per-switch tick phase
   (``slot_index``) and per-cell delivery times may differ, because the
   wave models one fabric-wide slot clock.
"""

from types import SimpleNamespace

from repro.conform.oracle import compare_slot_driver
from repro.fastpath.driver import FabricSlotDriver
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.kernel import Simulator

from tests.conftest import fast_switch_config


def fake_switch(node_id, order, drift=0.0, slot_time=1.0):
    switch = SimpleNamespace(
        node_id=node_id,
        clock=SimpleNamespace(drift_ppm=drift),
        config=SimpleNamespace(slot_time_us=slot_time),
    )
    switch._slot_tick = lambda: order.append(node_id)
    return switch


class TestWaves:
    def test_adopt_refuses_drift_and_slot_mismatch(self):
        driver = FabricSlotDriver(Simulator(), slot_time_us=1.0)
        order = []
        assert not driver.adopt(fake_switch("s0", order, drift=50.0))
        assert not driver.adopt(fake_switch("s1", order, slot_time=2.0))
        assert driver.adopt(fake_switch("s2", order))
        assert driver.adopted == 1

    def test_one_wave_many_ticks_sorted(self):
        sim = Simulator()
        driver = FabricSlotDriver(sim, slot_time_us=1.0)
        order = []
        switches = [fake_switch(f"s{i}", order) for i in (3, 1, 2, 0)]
        for switch in switches:
            assert driver.adopt(switch)
            driver.request_tick(switch)
        # re-requesting within the same window is idempotent
        driver.request_tick(switches[0])
        sim.run(until=2.0)
        assert driver.waves == 1
        assert driver.ticks == 4
        assert order == ["s0", "s1", "s2", "s3"]

    def test_waves_rearm_per_window(self):
        sim = Simulator()
        driver = FabricSlotDriver(sim, slot_time_us=1.0)
        order = []
        switch = fake_switch("s0", order)
        driver.adopt(switch)
        driver.request_tick(switch)
        sim.run(until=1.5)
        driver.request_tick(switch)
        sim.run(until=3.0)
        assert driver.waves == 2
        assert order == ["s0", "s0"]


class TestNetwork:
    def test_driver_off_by_default(self):
        net = Network(Topology.line(2), switch_config=fast_switch_config())
        assert net.slot_driver is None

    def test_driver_adopts_drift_free_fabric(self):
        topo = Topology.grid(2, 2)
        net = Network(
            topo,
            switch_config=fast_switch_config(),
            fabric_slot_driver=True,
        )
        assert net.slot_driver is not None
        assert net.slot_driver.adopted == len(net.switches)

    def test_drifted_switches_keep_private_timers(self):
        """Clock drift is the fault the driver must not paper over."""
        topo = Topology.grid(2, 2)
        net = Network(
            topo,
            switch_config=fast_switch_config(),
            drift_ppm=40.0,
            fabric_slot_driver=True,
        )
        assert net.slot_driver.adopted == 0
        net.start()
        net.run(5_000.0)  # drifted fabric still runs, on private timers
        assert net.slot_driver.waves == 0

    def test_driver_coalesces_events_on_a_live_network(self):
        """Slot waves only fire when cells actually queue -- drive a
        circuit's worth of traffic and watch waves coalesce ticks."""
        from repro.traffic.workload import PoissonPacketWorkload

        topo = Topology.line(3)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h1", "s2", port_a=0, bps=622_000_000)
        net = Network(
            topo,
            seed=1,
            switch_config=fast_switch_config(),
            fabric_slot_driver=True,
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_circuit("h0", "h1")
        workload = PoissonPacketWorkload(
            net.sim,
            net.host("h0"),
            circuit.vc,
            circuit.destination,
            mean_interval_us=200.0,
            packet_bytes=480,
            rng=net.streams.stream("test.driver.workload"),
            duration_us=10_000.0,
        )
        workload.start()
        net.run(20_000.0)
        assert net.slot_driver.waves > 0
        assert net.slot_driver.ticks >= net.slot_driver.waves

    def test_traffic_neutral_with_fewer_events(self):
        """The oracle's statement end to end: identical scrubbed
        fingerprints, strictly fewer kernel events."""
        divergence, record = compare_slot_driver(seed=3)
        assert divergence is None, str(divergence)
        assert record["events_on"] < record["events_off"]
