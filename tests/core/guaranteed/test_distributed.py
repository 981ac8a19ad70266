"""Tests for the distributed bandwidth admission protocol."""

import pytest

from repro._types import host_id, switch_id
from repro.core.guaranteed.frames import ScheduleError
from repro.core.routing.circuits import CircuitState
from repro.net.network import Network
from repro.net.topology import Topology
from tests.conftest import fast_host_config, fast_switch_config


@pytest.fixture
def net(small_net):
    return small_net


class TestGrantPath:
    def test_grant_installs_schedule_and_circuit(self, net):
        circuit, outcome = net.reserve_bandwidth_distributed("h0", "h1", 8)
        assert outcome == "granted"
        assert circuit.state is CircuitState.ESTABLISHED
        for sid in ("s0", "s1", "s2"):
            switch = net.switch(sid)
            assert switch.frame_schedule.total_reserved() == 8
            assert circuit.vc in switch._vc_in_port
        assert circuit.vc in net.host("h1").incoming_circuits

    def test_granted_circuit_carries_cbr_traffic(self, net):
        circuit, outcome = net.reserve_bandwidth_distributed("h0", "h1", 4)
        assert outcome == "granted"
        net.host("h0").send_raw_cells(circuit.vc, 30)
        net.run(300_000)
        assert net.host("h1").cells_received == 30

    def test_ledger_decrements_per_grant(self, net):
        s1 = net.switch("s1")
        before = {p: s1.admission.residual(p) for p in range(s1.n_ports)}
        circuit, _ = net.reserve_bandwidth_distributed("h0", "h1", 8)
        in_port = s1._vc_in_port[circuit.vc]
        out_port = s1.cards[in_port].routing_table.lookup(circuit.vc).out_port
        assert s1.admission.residual(out_port) == before[out_port] - 8


class TestRejection:
    def test_overload_rejected_with_rollback(self, net):
        a, outcome_a = net.reserve_bandwidth_distributed("h0", "h1", 20)
        assert outcome_a == "granted"
        b, outcome_b = net.reserve_bandwidth_distributed("h0", "h1", 20)
        assert outcome_b.startswith("rejected")
        assert b.state is CircuitState.TORN_DOWN
        # Rollback left only the first reservation's state behind.
        for sid in ("s0", "s1", "s2"):
            switch = net.switch(sid)
            assert switch.frame_schedule.total_reserved() == 20
            assert b.vc not in switch._vc_in_port
            assert switch.admission.held_cells() == 20

    def test_rejection_reason_surfaces(self, net):
        net.reserve_bandwidth_distributed("h0", "h1", 30)
        _, outcome = net.reserve_bandwidth_distributed("h0", "h1", 30)
        assert "link full" in outcome

    def test_unroutable_destination_rejected(self, net):
        circuit, outcome = net.reserve_bandwidth_distributed(
            "h0", "h1", 8
        )
        assert outcome == "granted"
        # A request toward a host that exists nowhere is rejected at the
        # first switch.
        from repro.core.guaranteed.distributed import ReserveRequest
        from repro.net.cell import Cell, CellKind, TrafficClass

        host = net.host("h0")
        vc = net.vc_allocator.allocate()
        host.open_circuit(
            vc, host_id(42),
            traffic_class=TrafficClass.GUARANTEED,
            cells_per_frame=1, send_setup=False,
        )
        host.active_port.send(
            Cell(vc=1, kind=CellKind.SIGNALING, payload=ReserveRequest(
                vc=vc, source=host_id(0), destination=host_id(42),
                cells_per_frame=1,
            ))
        )
        net.run_until(
            lambda: vc in host.reservation_outcomes, timeout_us=100_000
        )
        assert host.reservation_outcomes[vc].startswith("rejected")


class TestScheduleErrors:
    def test_schedule_error_rejects(self, net, monkeypatch):
        def full(in_port, out_port, cells_per_frame):
            raise ScheduleError("no free slot")

        monkeypatch.setattr(net.switch("s1"), "add_reservation", full)
        circuit, outcome = net.reserve_bandwidth_distributed("h0", "h1", 8)
        assert outcome.startswith("rejected")
        assert "schedule full" in outcome
        assert circuit.state is CircuitState.TORN_DOWN

    def test_unrelated_error_propagates(self, net, monkeypatch):
        def broken(in_port, out_port, cells_per_frame):
            raise RuntimeError("bug in add_reservation")

        monkeypatch.setattr(net.switch("s1"), "add_reservation", broken)
        with pytest.raises(RuntimeError, match="bug in add_reservation"):
            net.reserve_bandwidth_distributed("h0", "h1", 8)


class TestLocalKnowledgeLimit:
    def test_greedy_hop_choice_can_reject_what_central_admits(self):
        """The documented fidelity gap: on a diamond whose preferred arm
        is full, hop-by-hop admission (which cannot re-route around a
        full *remote* link) may reject while the centralized service
        finds the other arm."""
        topo = Topology()
        for i in range(4):
            topo.add_switch(i)
        topo.connect("s0", "s1")
        topo.connect("s1", "s3")
        topo.connect("s0", "s2")
        topo.connect("s2", "s3")
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h1", "s3", port_a=0, bps=622_000_000)
        net = Network(
            topo,
            seed=91,
            switch_config=fast_switch_config(),
            host_config=fast_host_config(),
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)

        # Saturate one arm via distributed grants until a rejection.
        granted, rejected = 0, 0
        for _ in range(8):
            _, outcome = net.reserve_bandwidth_distributed("h0", "h1", 8)
            if outcome == "granted":
                granted += 1
            else:
                rejected += 1
        # The 32-slot frame admits 4 x 8 on a single arm; hop-by-hop
        # admission sticks to one next-hop choice, so at most the host
        # link's capacity minus... the first arm fills after 4 grants.
        assert granted >= 4
        # Centralized admission over the same residual state would have
        # found the second arm; distributed may or may not, depending on
        # the deterministic next-hop choice.  What must NEVER happen is
        # an over-commitment:
        for switch in net.switches.values():
            for port in range(switch.n_ports):
                assert switch.admission.residual(port) >= 0
