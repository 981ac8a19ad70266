"""Tests of the benchmark's own arithmetic and of its tracing hygiene.

Run from the repository root: ``python3 -m pytest an2bench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from an2bench.measure import (  # noqa: E402
    SelfTimer,
    ReferenceBlock,
    SliceClock,
    empty_tick_share,
    median,
    normalised,
    sliced_total,
    supported_percentile,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# (name, layer, start, end, parent) -- a properly nested span tree.
SPANS = (
    ("region", "sim", 0.0, 100.0, None),
    ("tick", "switch", 10.0, 50.0, "region"),
    ("match", "matcher", 20.0, 30.0, "tick"),
    ("send", "link", 35.0, 45.0, "tick"),
    ("send2", "link", 40.0, 44.0, "send"),
    ("deliver", "link", 55.0, 58.0, "region"),
    ("packet", "traffic", 60.0, 70.0, "region"),
    ("segment", "aal", 61.0, 63.0, "packet"),
)


def reference_self_times(spans):
    """Span duration minus its children's durations, summed per layer."""
    child_time = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for name, layer, start, end, _ in spans:
        own = (end - start) - child_time.get(name, 0.0)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def replay(spans, timer, clock):
    boundaries = []
    for name, layer, start, end, _ in spans:
        boundaries.append((start, 1, layer))
        boundaries.append((end, 0, layer))
    # At equal times close before opening, so siblings do not overlap.
    for time, is_open, layer in sorted(boundaries, key=lambda b: (b[0], b[1])):
        clock.now = time
        if is_open:
            timer.enter(layer)
        else:
            timer.exit()


def test_self_time_matches_span_minus_children():
    clock = FakeClock()
    timer = SelfTimer(clock)
    replay(SPANS, timer, clock)
    expected = reference_self_times(SPANS)
    assert timer.self_s == pytest.approx(expected)
    assert expected == pytest.approx({
        "sim": 100.0 - 40.0 - 3.0 - 10.0,
        "switch": 40.0 - 10.0 - 10.0,
        "matcher": 10.0,
        "link": (10.0 - 4.0) + 4.0 + 3.0,
        "traffic": 10.0 - 2.0,
        "aal": 2.0,
    })
    assert timer.depth == 0


def test_self_times_sum_to_the_root_span():
    clock = FakeClock()
    timer = SelfTimer(clock)
    replay(SPANS, timer, clock)
    assert timer.total() == pytest.approx(100.0)


def test_nothing_is_charged_outside_every_span():
    clock = FakeClock()
    timer = SelfTimer(clock)
    clock.now = 5.0
    timer.enter("sim")
    clock.now = 7.0
    timer.exit()
    clock.now = 50.0
    timer.enter("sim")
    clock.now = 51.0
    timer.exit()
    assert timer.self_s == {"sim": pytest.approx(3.0)}


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    assert supported_percentile(samples, 99.0) == 990.0
    assert supported_percentile(samples, 50.0) == 500.0
    with pytest.raises(ValueError):
        supported_percentile(samples[:-1], 99.0)  # 9 beyond
    assert supported_percentile(samples[:20], 50.0) == 10.0
    with pytest.raises(ValueError):
        supported_percentile(samples[:19], 50.0)


def test_percentile_ignores_input_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert supported_percentile(samples, 50.0) == 3.0


def test_empty_tick_share():
    assert empty_tick_share(10, 9) == 0.9
    assert empty_tick_share(0, 0) == 0.0
    for ticks, empty in ((5, 6), (-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            empty_tick_share(ticks, empty)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


class FakeSim:
    """Records the ``until`` of every run call; each call takes 1 s."""

    def __init__(self, clock) -> None:
        self.now = 10.0
        self.calls = []
        self.clock = clock

    def run(self, until=None, max_events=None):
        self.calls.append(until)
        self.clock.now += 1.0
        if until is not None and until > self.now:
            self.now = until


def test_slice_clock_cuts_runs_on_its_grid():
    clock = FakeClock()
    sim = FakeSim(clock)

    def reference():
        clock.now += 0.25  # kept out of the pieces
        return 0.1 * len(slices.refs)

    slices = SliceClock(sim, 100.0, reference, clock=clock)
    slices.start()
    sim.run(until=250.0)  # grid from 10: cuts at 110 and 210
    sim.run(until=260.0)
    clock.now += 0.5  # work between runs counts in the next piece
    sim.run(until=310.0)  # ends exactly on a grid point
    sim.run()  # unbounded runs are one piece
    clock.now += 0.5  # work after the last run
    slices.stop()
    assert sim.calls == [110.0, 210.0, 250.0, 260.0, 310.0, None]
    assert slices.pieces == [1.0, 1.0, 1.0, 1.0, 1.5, 1.0, 0.5]
    assert slices.refs == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    assert "run" not in sim.__dict__


def test_normalised_scales_each_piece_by_the_references_near_it():
    pieces = [2.0, 2.0, 4.0, 4.0, 4.0]
    refs = [1.0, 1.0, 2.0, 2.0]  # the host halves its speed mid-run
    assert normalised(pieces, refs, 1.0, window=0) == [2.0, 2.0, 2.0, 2.0, 2.0]
    # windows are cut at the ends of the list; medians drop the outlier
    assert normalised(pieces, refs, 0.5, window=1) == [1.0] * 5
    assert normalised([2.0, 2.0], [9.0], 9.0, window=3) == [2.0, 2.0]
    with pytest.raises(ValueError):
        normalised(pieces, refs[:-1], 1.0)


def test_reference_block_is_timed_and_leaves_the_collector_on():
    import gc

    block = ReferenceBlock()
    assert block() > 0.0
    assert gc.isenabled()


def test_sliced_total_takes_each_pieces_median():
    reps = [[1.0, 2.0, 3.0], [1.5, 9.0, 3.0], [9.0, 2.5, 3.5]]
    assert sliced_total(reps) == 1.5 + 2.5 + 3.0
    with pytest.raises(ValueError):
        sliced_total([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        sliced_total([])


def test_slice_clock_leaves_the_simulation_unchanged():
    from repro.sim.kernel import Simulator

    def trace(sliced):
        sim = Simulator()
        fired = []

        def tick(n):
            fired.append((sim.now, n))
            if n < 40:
                sim.schedule(7.5, tick, n + 1)
                sim.schedule(0.0, fired.append, ("same-time", n))

        sim.schedule(0.0, tick, 0)
        slices = SliceClock(sim, 10.0, ReferenceBlock()) if sliced else None
        if slices:
            slices.start()
        sim.run(until=100.0)
        sim.run(until=250.0)
        if slices:
            slices.stop()
            assert len(slices.pieces) == 26
        return fired, sim.now, sim.events_executed

    assert trace(True) == trace(False)


def test_event_callbacks_land_in_their_layers():
    from an2bench.layers import classify
    from repro.core.reconfig.monitor import PortMonitor
    from repro.net.host import Host
    from repro.net.link import Link
    from repro.switch.switch import AN2Switch

    assert classify(AN2Switch._slot_tick) == "switch"
    assert classify(AN2Switch._resync_tick) == "flowcontrol"
    assert classify(AN2Switch._reply_ping) == "monitor"
    assert classify(PortMonitor._send_ping) == "monitor"
    assert classify(Host._pump) == "host"
    assert classify(Link._deliver) == "link"


def test_trace_restores_every_wrapped_class():
    from an2bench.layers import WRAPPED, LayerTrace
    from repro.net.network import Network
    from repro.net.topology import Topology
    import importlib

    before = {
        (cls, method): getattr(importlib.import_module(module), cls).__dict__[method]
        for module, cls, method, _ in WRAPPED
    }
    net = Network(Topology.line(2), seed=3)
    trace = LayerTrace(net)
    trace.start()
    assert not LayerTrace.wrappers_removed()
    net.start()
    net.run(5_000.0)
    trace.stop(cells=0)
    assert LayerTrace.wrappers_removed()
    assert net.sim.profiler is None
    for module, cls, method, _ in WRAPPED:
        current = getattr(importlib.import_module(module), cls).__dict__[method]
        assert current is before[(cls, method)]
    assert trace.metrics["sim.events"] > 0
    assert trace.metrics["monitor.pings"] > 0
    assert not trace.unclassified
