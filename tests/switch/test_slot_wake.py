"""The work-proportional slot loop: one test per wake source.

A switch ticks only in slots where a cell could move, but on the same
grid of instants (and with the same frame phase, ``_slot_index``) as a
switch that ticks every slot.  Each test blocks a switch, checks that it
does not tick while blocked, fires one wake source, and checks that the
cell moves at exactly the grid instant, and in exactly the slot, that
stepping the grid slot by slot from the last real tick gives.
"""

from __future__ import annotations

from itertools import takewhile

from repro._types import switch_id
from repro.net.cell import CellKind
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.switch.switch import AN2Switch

from tests.conftest import SlotTickLog, converged_line, fast_switch_config

OFF_GRID = 0.3  # us past "now": wake sources land between grid instants


def grid_instants(time: float, index: int, delay: float):
    """``(instant, slot index)`` of a slot grid from one tick on."""
    while True:
        yield time, index
        time += delay
        index += 1


def first_at_or_after(grid, when: float):
    return next(point for point in grid if point[0] >= when)


def slot_delay(switch) -> float:
    return switch.clock.global_delay(switch.config.slot_time_us)


def send(net, src: str, vc: int, cells: int) -> None:
    host = net.host(src)
    host.send_packet(
        vc,
        Packet(
            source=host.node_id,
            destination=host.senders[vc].destination,
            size=48 * cells,
        ),
    )


def trunk_port(net, switch, other: str):
    link = net.link_between(str(switch.node_id), other)
    return link, (link.port_a if link.port_a.node is switch else link.port_b)


class CreditHold:
    """Holds back the credit cells a link delivers to one port."""

    def __init__(self, link, port) -> None:
        self.link = link
        self.port = port
        self.held = []
        link.deliver_hook = self._hook

    def _hook(self, link, direction, cell) -> bool:
        if cell.kind is CellKind.CREDIT and link.target_port(direction) is self.port:
            self.held.append(cell)
            return True
        return False

    def release(self) -> None:
        self.link.deliver_hook = None
        for cell in self.held:
            self.port.deliver(cell)


def test_credit_arrival_wakes_a_starved_switch():
    net = converged_line(2, credit_allocation=2)
    circuit = net.setup_circuit("h0", "h1")
    s0 = net.switch("s0")
    link, port = trunk_port(net, s0, "s1")
    hold = CreditHold(link, port)
    log = SlotTickLog(net.sim)
    send(net, "h0", circuit.vc, 8)
    net.run(2_000.0)
    assert hold.held and s0.buffered_cells() == 2
    last = log.of("s0")[-1]
    quiet_from = net.now
    net.run(5_000.0)
    assert log.of("s0", quiet_from) == []  # starved: no ticks

    wake_at = net.now + OFF_GRID
    net.sim.schedule_at(wake_at, hold.release)
    net.run(1_000.0)
    first = log.of("s0", wake_at)[0]
    grid = grid_instants(last[1], last[2], slot_delay(s0))
    assert first[1:3] == first_at_or_after(grid, wake_at)
    assert first[3] == 1
    assert s0.buffered_cells() == 0


def test_link_restore_wakes_cells_stranded_behind_it():
    net = converged_line(2)
    circuit = net.setup_circuit("h0", "h1")
    s0 = net.switch("s0")
    link, _ = trunk_port(net, s0, "s1")
    log = SlotTickLog(net.sim)
    link.fail()
    send(net, "h0", circuit.vc, 4)
    net.run(1_000.0)
    assert s0.buffered_cells() == 4
    last = log.of("s0")[-1]
    quiet_from = net.now
    net.run(5_000.0)
    assert log.of("s0", quiet_from) == []  # stranded: no ticks

    wake_at = net.now + OFF_GRID
    net.sim.schedule_at(wake_at, link.restore)
    net.run(1_000.0)
    first = log.of("s0", wake_at)[0]
    grid = grid_instants(last[1], last[2], slot_delay(s0))
    assert first[1:3] == first_at_or_after(grid, wake_at)
    assert first[3] == 1
    assert s0.buffered_cells() == 0


def reserved_line():
    """A 1-cell-per-frame reservation h0 -> h1, installed and idle."""
    net = converged_line(2)
    log = SlotTickLog(net.sim)
    circuit, reservation = net.reserve_bandwidth("h0", "h1", 1)
    net.run(2_000.0)
    s0 = net.switch("s0")
    (in_port, out_port), = [
        (i, o) for node, i, o in reservation.switch_hops if node == s0.node_id
    ]
    return net, log, circuit, s0, in_port, out_port


def test_guaranteed_cell_sleeps_until_its_reserved_slot():
    net, log, circuit, s0, in_port, out_port = reserved_line()
    quiet_from = net.now
    net.run(3_000.0)
    assert log.of("s0", quiet_from) == []  # an idle reservation costs no ticks
    arrived_from = net.now

    send(net, "h0", circuit.vc, 1)
    net.run(1_000.0)
    ticks = log.of("s0", arrived_from)
    # One tick on the cell's arrival finds it off its slot; the next
    # tick is the reserved slot, where it moves; a tick that moved a
    # cell always looks at the slot after it, then the switch sleeps.
    assert [t[3] for t in ticks] == [0, 1, 0]
    arrival, moved, after = ticks
    assert after[2] == moved[2] + 1
    frame = s0.config.frame_slots
    grid = grid_instants(arrival[1], arrival[2], slot_delay(s0))
    reserved = next(
        point for point in grid
        if s0.frame_schedule.output_of(point[1] % frame, in_port) == out_port
    )
    assert moved[1:3] == reserved
    assert moved[2] > arrival[2] + 1  # it slept through skipped slots
    assert s0.slot_index > moved[2]


def test_reservation_add_and_remove_on_an_idle_switch():
    sim = Simulator()
    s0 = AN2Switch(
        sim, switch_id(0), RandomStreams(0), config=fast_switch_config(),
        n_ports=4,
    )
    log = SlotTickLog(sim)
    delay = slot_delay(s0)
    sim.run(until=10.0)
    s0.add_reservation(0, 1, 4)
    sim.run(until=500.0)
    # The add kicks one tick a slot later, then the idle chain sleeps.
    assert log.of("s0") == [("s0", 10.0 + delay, 0, 0)]
    counted = takewhile(
        lambda point: point[0] <= 500.0, grid_instants(10.0 + delay, 0, delay)
    )
    assert s0.slot_index == len(list(counted))

    remove_at = 612.0 + OFF_GRID
    sim.schedule_at(remove_at, s0.remove_reservation, 0, 1, 4)
    sim.run(until=2_000.0)
    # The chain ends at its first slot at or after the removal.
    _, end = first_at_or_after(grid_instants(10.0 + delay, 0, delay), remove_at)
    assert s0.slot_index == end + 1
    assert len(log.of("s0")) == 1

    # The next kick starts a new chain a slot after it.
    sim.schedule_at(3_000.0, s0.add_reservation, 0, 1, 4)
    sim.run(until=3_100.0)
    assert log.of("s0", 3_000.0) == [("s0", 3_000.0 + delay, end + 1, 0)]


def test_circuit_teardown_ends_a_sleeping_chain():
    net = converged_line(2)
    circuit = net.setup_circuit("h0", "h1")
    s0 = net.switch("s0")
    link, _ = trunk_port(net, s0, "s1")
    log = SlotTickLog(net.sim)
    link.fail()
    send(net, "h0", circuit.vc, 4)
    net.run(1_000.0)
    assert s0.buffered_cells() == 4
    last = log.of("s0")[-1]
    quiet_from = net.now

    teardown_at = net.now + 500.0 + OFF_GRID
    net.sim.schedule_at(teardown_at, s0.remove_circuit, circuit.vc)
    net.run(5_000.0)
    assert s0.buffered_cells() == 0
    grid = grid_instants(last[1], last[2], slot_delay(s0))
    _, end = first_at_or_after(grid, teardown_at)
    assert s0.slot_index == end + 1

    # With nothing queued a restore wakes nothing, and the chain stays
    # dead.
    link.restore()
    net.run(2_000.0)
    assert log.of("s0", quiet_from) == []
    assert s0.slot_index == end + 1


def drifted_grid(time, index, old_delay, step_at, new_delay):
    """The grid of a switch whose clock steps at ``step_at``: instants up
    to the first at or after the step keep the old rate."""
    grid = {}
    while time < step_at:
        grid[index] = time
        time += old_delay
        index += 1
    for index, time in zip(range(index, index + 200_000), _steps(time, new_delay)):
        grid[index] = time
    return grid


def _steps(time, delay):
    while True:
        yield time
        time += delay


def test_clock_step_while_idle_keeps_the_grid():
    net, log, circuit, s0, in_port, out_port = reserved_line()
    anchor = log.of("s0")[-1]
    quiet_from = net.now
    old_delay = slot_delay(s0)
    step_at = net.now + 200.0 + OFF_GRID
    net.sim.schedule_at(step_at, s0.clock.set_drift, 500.0)
    net.run(1_000.0)
    assert log.of("s0", quiet_from) == []  # asleep through the step
    new_delay = slot_delay(s0)
    assert new_delay != old_delay
    grid = drifted_grid(anchor[1], anchor[2], old_delay, step_at, new_delay)

    sent_at = net.now
    send(net, "h0", circuit.vc, 2)
    net.run(1_000.0)
    ticks = log.of("s0", sent_at)
    assert sum(t[3] for t in ticks) == 2
    for _, time, index, _ in ticks:
        assert grid[index] == time
    assert s0.slot_index == max(i for i, t in grid.items() if t <= net.now) + 1


def test_clock_step_while_a_guaranteed_cell_waits():
    net, log, circuit, s0, in_port, out_port = reserved_line()
    sent_at = net.now
    send(net, "h0", circuit.vc, 1)
    while not log.of("s0", sent_at):
        net.sim.step()  # the arrival's tick, which finds the slot not yet due
    arrival = log.of("s0", sent_at)[0]
    frame = s0.config.frame_slots
    wait = next(
        k for k in range(arrival[2] + 1, arrival[2] + 1 + frame)
        if s0.frame_schedule.output_of(k % frame, in_port) == out_port
    ) - arrival[2]
    assert wait > 3  # the cell sleeps through several slots
    old_delay = slot_delay(s0)
    step_at = arrival[1] + 1.5 * old_delay  # between skipped slots
    net.sim.schedule_at(step_at, s0.clock.set_drift, -300.0)
    net.run(1_000.0)
    new_delay = slot_delay(s0)
    grid = drifted_grid(arrival[1], arrival[2], old_delay, step_at, new_delay)
    ticks = log.of("s0", sent_at)
    moved = [t for t in ticks if t[3]]
    assert len(moved) == 1
    _, time, index, _ = moved[0]
    assert index == arrival[2] + wait
    assert time == grid[index]
    for _, time, index, _ in ticks:
        assert grid[index] == time
