"""The benchmark's own arithmetic: percentiles, shares, self time.

Kept free of any ``repro`` import so the tests in ``test_measure.py``
exercise it on synthetic inputs.
"""

from __future__ import annotations

import gc
import heapq
import math
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def supported_percentile(
    samples: Sequence[float], q: float, min_beyond: int = 10
) -> float:
    """Nearest-rank ``q``-th percentile, refused when the tail is thin.

    A percentile is reported only when at least ``min_beyond`` samples
    lie strictly above the rank it is read from; otherwise the value
    would rest on a handful of samples and :class:`ValueError` is raised.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"fewer than {min_beyond}"
        )
    return ordered[rank - 1]


def empty_tick_share(ticks: int, empty_ticks: int) -> float:
    """Share of switch slot ticks that forwarded no cell."""
    if ticks < 0 or empty_ticks < 0 or empty_ticks > ticks:
        raise ValueError(f"bad tick counts: {empty_ticks} empty of {ticks}")
    if ticks == 0:
        return 0.0
    return empty_ticks / ticks


class SelfTimer:
    """Exclusive (self) time per layer from properly nested spans.

    ``enter(layer)`` opens a span and ``exit()`` closes the innermost
    one.  Each interval between two consecutive boundaries is charged to
    the layer on top of the stack at the time, which is exactly a span's
    duration minus the part of it its child spans cover.  Nothing is
    charged while the stack is empty.
    """

    __slots__ = ("self_s", "_stack", "_mark", "_clock")

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.self_s: Dict[str, float] = {}
        self._stack: List[str] = []
        self._mark = 0.0
        self._clock = clock

    def enter(self, layer: str) -> None:
        now = self._clock()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._mark)
        stack.append(layer)
        self._mark = now

    def exit(self) -> None:
        now = self._clock()
        top = self._stack.pop()
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._mark)
        self._mark = now

    @property
    def depth(self) -> int:
        return len(self._stack)

    def total(self) -> float:
        return sum(self.self_s.values())


class SliceClock:
    """Host time of a timed region, cut at a grid of simulated times.

    While installed, every ``sim.run(until=...)`` call is split at the
    multiples of ``slice_us`` after the region's start, and the host time
    of each part is a piece.  The cuts only split the run:
    ``run(until=a)`` then ``run(until=b)`` executes exactly the events of
    ``run(until=b)``, so the simulation is unchanged.  Because a seed's
    runs are deterministic, its repetitions cut at the same places, and
    piece ``k`` of one repetition did the same work as piece ``k`` of
    another.  Work between runs counts in the next piece; the last piece
    ends at :meth:`stop`, so the pieces sum to the region.

    With a ``reference`` callable, it runs after every piece but the
    last, outside the pieces, and its results are kept in ``refs``.
    """

    def __init__(
        self,
        sim,
        slice_us: float,
        reference: Optional[Callable[[], float]] = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        if slice_us <= 0:
            raise ValueError(f"slice of {slice_us} us")
        self.sim = sim
        self.slice_us = slice_us
        self.reference = reference
        self.pieces: List[float] = []
        self.refs: List[float] = []
        self._clock = clock
        self._begun = 0.0

    def start(self) -> None:
        sim = self.sim
        run = type(sim).run
        origin = sim.now
        slice_us = self.slice_us
        edge = [1]  # index of the next grid point

        def sliced(until=None, max_events=None):
            if until is None or max_events is not None:
                run(sim, until, max_events)
                self._cut()
                return
            while True:
                cut = origin + edge[0] * slice_us
                if cut <= sim.now:
                    edge[0] += 1
                    continue
                if cut >= until:
                    run(sim, until)
                    self._cut()
                    return
                run(sim, cut)
                self._cut()

        sim.__dict__["run"] = sliced
        self._begun = self._clock()

    def _cut(self) -> None:
        self.pieces.append(self._clock() - self._begun)
        if self.reference is not None:
            self.refs.append(self.reference())
        self._begun = self._clock()

    def stop(self) -> None:
        self.pieces.append(self._clock() - self._begun)
        self.sim.__dict__.pop("run", None)


def normalised(
    pieces: Sequence[float], refs: Sequence[float], nominal: float, window: int = 5
) -> List[float]:
    """Each piece scaled by ``nominal`` over the median of the reference
    times taken within ``window`` pieces of it, as :class:`SliceClock`
    records them: one after every piece but the last, which is centred
    on the reference just before it.

    The host's speed drifts, by tens of percent over minutes on a shared
    host; a piece and the reference blocks around it see the same speed,
    so the ratio keeps only what the piece's own work costs.
    """
    if len(refs) != len(pieces) - 1 or not refs:
        raise ValueError(f"{len(refs)} reference times for {len(pieces)} pieces")
    last = len(refs) - 1
    return [
        t * nominal / median(refs[max(0, min(k, last) - window): min(k, last) + window + 1])
        for k, t in enumerate(pieces)
    ]


def sliced_total(repetitions: Sequence[Sequence[float]]) -> float:
    """Region host time from several repetitions cut into the same pieces:
    the sum over pieces of each piece's median across repetitions.

    A burst of load from elsewhere on the host slows the pieces it falls
    on in one repetition; the median drops them, where a median of whole
    repetitions would need the burst to miss most repetitions entirely.
    """
    if not repetitions:
        raise ValueError("no repetitions")
    counts = {len(pieces) for pieces in repetitions}
    if len(counts) != 1:
        raise ValueError(f"repetitions cut into different piece counts: {sorted(counts)}")
    return sum(median(column) for column in zip(*repetitions))


class _Node:
    __slots__ = ("count", "peer", "tag")

    def __init__(self, i: int) -> None:
        self.count = i
        self.peer = None
        self.tag = i * 31


class ReferenceBlock:
    """A fixed piece of pure-Python work; calling it returns its host
    seconds.

    The work is of the simulator's kind, none of its code: attribute
    reads and writes through object links, a bounded heap of tuples and
    a dict.  Its objects are built once and are few, so a block never
    sets the run's peak resident memory.  The collector is off while a
    block runs, and everything the block allocates is freed before it
    returns, so the workload's collections neither land in a block nor
    move.
    """

    NODES = 4_096
    STEPS = 10_000

    def __init__(self) -> None:
        n = self.NODES
        self.nodes = [_Node(i) for i in range(n)]
        for i, node in enumerate(self.nodes):
            node.peer = self.nodes[(i * 7919) % n]

    def __call__(self) -> float:
        nodes = self.nodes
        n = len(nodes)
        heap: list = []
        seen: Dict[int, int] = {}
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for i in range(self.STEPS):
                node = nodes[(i * 104729) % n].peer
                node.count += 1
                heapq.heappush(heap, (node.count, i, node))
                if len(heap) > 2000:
                    heapq.heappop(heap)
                seen[node.tag] = i
            return perf_counter() - start
        finally:
            heap.clear()
            if enabled:
                gc.enable()
