"""Event-driven switch behaviour observed through small networks."""

from types import SimpleNamespace

import pytest

from repro._types import host_id, switch_id
from repro.core.flowcontrol.credits import DownstreamCredits
from repro.core.reconfig.skeptic import LinkVerdict
from repro.core.routing.paths import RoutingError
from repro.net.cell import Cell, TrafficClass
from repro.net.packet import Packet
from tests.conftest import converged_line, line_with_hosts


class TestDataPath:
    def test_cut_through_latency_lightly_loaded(self, small_net):
        """E14 (network flavour): a single cell crosses each switch in a
        couple of microseconds when nothing contends."""
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"f" * 40),
        )
        net.run(50_000)
        [packet] = net.host("h1").delivered
        # 3 switches x (~slot + control) + 4 links' serialization+latency:
        # generous bound of 30 us; the point is microseconds, not millis.
        assert packet.latency < 30.0

    def test_credit_accounting_balances_after_quiescence(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"q" * 960),
        )
        net.run(100_000)
        # All cells delivered; every upstream balance restored to its
        # allocation; every downstream buffer empty.
        assert len(net.host("h1").delivered) == 1
        for switch in net.switches.values():
            for card in switch.cards:
                for vc, upstream in card.upstream.items():
                    assert upstream.balance == upstream.allocation
                for vc, downstream in card.downstream.items():
                    assert downstream.occupied == 0
        sender = net.host("h0").senders[circuit.vc]
        assert sender.upstream.balance == sender.upstream.allocation

    def test_no_cell_loss_under_sustained_load(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        for _ in range(20):
            net.host("h0").send_packet(
                circuit.vc,
                Packet(source=host_id(0), destination=host_id(1), payload=b"z" * 480),
            )
        net.run(300_000)
        assert len(net.host("h1").delivered) == 20
        assert net.total_cells_dropped() == 0
        assert net.host("h1").reassembly_errors == 0

    def test_per_output_stats_populated(self, small_net):
        net = small_net
        circuit = net.setup_circuit("h0", "h1")
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), payload=b"s" * 96),
        )
        net.run(50_000)
        s1 = net.switch("s1")
        assert s1.stats.cells_forwarded >= 2
        assert sum(s1.stats.per_output_forwarded.values()) == s1.stats.cells_forwarded


class TestGuaranteedPath:
    def test_reservation_installs_schedule(self, small_net):
        net = small_net
        circuit, reservation = net.reserve_bandwidth("h0", "h1", 4)
        net.run(5_000)
        for switch_ref in ("s0", "s1", "s2"):
            schedule = net.switch(switch_ref).frame_schedule
            assert schedule.total_reserved() == 4

    def test_guaranteed_cells_bypass_credits(self, small_net):
        net = small_net
        circuit, _ = net.reserve_bandwidth("h0", "h1", 4)
        net.run(2_000)
        net.host("h0").send_raw_cells(circuit.vc, 50)
        net.run(200_000)
        assert net.host("h1").cells_received == 50
        # No credit state was created for the guaranteed circuit.
        for switch in net.switches.values():
            for card in switch.cards:
                assert circuit.vc not in card.upstream
                assert circuit.vc not in card.downstream

    def test_release_restores_schedule(self, small_net):
        net = small_net
        circuit, reservation = net.reserve_bandwidth("h0", "h1", 4)
        net.run(5_000)
        for switch_ref, in_port, out_port in [
            (str(s), i, o) for (s, i, o) in reservation.switch_hops
        ]:
            net.switch(switch_ref).remove_reservation(in_port, out_port, 4)
        for switch_ref in ("s0", "s1", "s2"):
            assert net.switch(switch_ref).frame_schedule.total_reserved() == 0


class TestControlPlane:
    def test_reconfig_ports_exclude_host_links(self, small_net):
        s0 = small_net.switch("s0")
        ports = s0.reconfig_ports()
        for port_index in ports:
            neighbor = s0.cards[port_index].monitor.neighbor
            assert neighbor[0].is_switch

    def test_local_edges_include_host_links(self, small_net):
        s0 = small_net.switch("s0")
        edges = s0.local_edges()
        host_edges = [
            e for e in edges if any(n.is_host for (n, _) in e)
        ]
        assert len(host_edges) == 1

    def test_dead_port_excluded_from_reconfig_ports(self):
        net = converged_line(3)
        s1 = net.switch("s1")
        before = len(s1.reconfig_ports())
        net.fail_link("s1", "s2")
        net.run_until(
            lambda: len(s1.reconfig_ports()) == before - 1,
            timeout_us=100_000,
        )

    def test_buffered_cells_reported(self, small_net):
        assert small_net.switch("s1").buffered_cells() == 0


class TestTypedErrorHandlers:
    """Each handler catches only the error its call is documented to
    raise; any other exception is a bug and must propagate."""

    def test_credit_overflow_is_a_counted_drop(self, small_net):
        switch = small_net.switch("s1")
        state = switch.cards[0].ensure_downstream(999, 1)
        state.occupied = state.allocation
        switch._accept_data(0, Cell(vc=999))
        assert switch.stats.cells_dropped == 1
        assert switch.cards[0].cells_dropped == 1

    def test_unrelated_receive_error_propagates(self, small_net, monkeypatch):
        def broken(self):
            raise RuntimeError("bug in receive")

        monkeypatch.setattr(DownstreamCredits, "receive", broken)
        switch = small_net.switch("s1")
        with pytest.raises(RuntimeError, match="bug in receive"):
            switch._accept_data(0, Cell(vc=999))
        assert switch.stats.cells_dropped == 0

    @staticmethod
    def _reroute_with(switch, error):
        def attachment(host, preferred_port=0):
            raise error

        entry = SimpleNamespace(
            request=SimpleNamespace(destination=host_id(1), gone_down=False),
            out_port=1,
        )
        return switch._reroute_entry(
            switch.cards[0],
            entry,
            SimpleNamespace(attachment=attachment),
            frozenset(),
        )

    def test_unroutable_destination_is_not_rerouted(self, small_net):
        switch = small_net.switch("s0")
        assert self._reroute_with(switch, RoutingError("gone")) is False

    def test_unrelated_reroute_error_propagates(self, small_net):
        switch = small_net.switch("s0")
        with pytest.raises(RuntimeError, match="bug in attachment"):
            self._reroute_with(switch, RuntimeError("bug in attachment"))
