"""Input buffering for the event-driven switch.

Section 3: "the AN2 switch avoids the head-of-line blocking problem by
using random-access input buffers.  Cells that cannot be forwarded in a
time slot are retained at the input in a queue associated with their
virtual circuit.  The first cell of any queued virtual circuit can be
selected for transmission across the switch."

:class:`VcQueues` is one line card's input buffering: a FIFO per virtual
circuit, grouped by the output port the circuit leaves through, with
round-robin service among a group's circuits (so one credit-starved VC
cannot block its siblings -- "if one virtual circuit is blocked, other
virtual circuits passing over the same link are not affected").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro._types import VcId
from repro.net.cell import Cell

#: can_send(out_port, vc) -> bool: does the circuit have credit, and is
#: the output able to transmit?
CanSend = Callable[[int, VcId], bool]


class VcQueues:
    """Per-VC random-access input buffers for one line card."""

    def __init__(self) -> None:
        # out_port -> vc -> cells
        self._queues: Dict[int, Dict[VcId, Deque[Cell]]] = {}
        # out_port -> round-robin order of its VCs
        self._rotation: Dict[int, Deque[VcId]] = {}
        self._occupancy = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupancy

    def occupancy_for(self, out_port: int) -> int:
        group = self._queues.get(out_port)
        if not group:
            return 0
        return sum(len(q) for q in group.values())

    def queued_vcs(self, out_port: int) -> List[VcId]:
        group = self._queues.get(out_port, {})
        return [vc for vc, q in group.items() if q]

    def push(self, out_port: int, vc: VcId, cell: Cell) -> None:
        group = self._queues.setdefault(out_port, {})
        queue = group.get(vc)
        if queue is None:
            queue = group[vc] = deque()
            self._rotation.setdefault(out_port, deque()).append(vc)
        queue.append(cell)
        self._occupancy += 1
        self.peak_occupancy = max(self.peak_occupancy, self._occupancy)

    # ------------------------------------------------------------------
    def eligible_outputs(self, can_send: CanSend) -> Set[int]:
        """Outputs for which some queued circuit is currently sendable."""
        eligible: Set[int] = set()
        for out_port, group in self._queues.items():
            for vc, queue in group.items():
                if queue and can_send(out_port, vc):
                    eligible.add(out_port)
                    break
        return eligible

    def has_backlog(self) -> bool:
        return self._occupancy > 0

    def pop(
        self, out_port: int, can_send: CanSend
    ) -> Optional[Tuple[VcId, Cell]]:
        """Serve the next sendable circuit destined for ``out_port``.

        Round-robin among the group's circuits: the served VC moves to the
        back of the rotation, which is the starvation-freedom complement
        to PIM's randomization at the port level.
        """
        rotation = self._rotation.get(out_port)
        group = self._queues.get(out_port)
        if not rotation or not group:
            return None
        for _ in range(len(rotation)):
            vc = rotation[0]
            rotation.rotate(-1)
            queue = group.get(vc)
            if queue and can_send(out_port, vc):
                cell = queue.popleft()
                self._occupancy -= 1
                return (vc, cell)
        return None

    def drain_vc(self, vc: VcId) -> List[Cell]:
        """Remove and return all cells of one circuit (teardown/reroute)."""
        drained: List[Cell] = []
        for out_port, group in list(self._queues.items()):
            queue = group.pop(vc, None)
            if queue:
                drained.extend(queue)
                self._occupancy -= len(queue)
            if queue is not None:
                rotation = self._rotation.get(out_port)
                if rotation and vc in rotation:
                    rotation.remove(vc)
        return drained


class GuaranteedQueues:
    """Guaranteed-traffic buffers for one line card.

    "Separate buffer pools are maintained for guaranteed and best-effort
    traffic" (section 4).  A FIFO per output port suffices: the frame
    schedule already dedicates specific slots to specific (input, output)
    pairs, and cells of circuits sharing a pair are interchangeable in
    arrival order.
    """

    def __init__(self) -> None:
        self._queues: Dict[int, Deque[Cell]] = {}
        self._occupancy = 0
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        return self._occupancy

    def push(self, out_port: int, cell: Cell) -> None:
        self._queues.setdefault(out_port, deque()).append(cell)
        self._occupancy += 1
        self.peak_occupancy = max(self.peak_occupancy, self._occupancy)

    def pop(self, out_port: int) -> Optional[Cell]:
        queue = self._queues.get(out_port)
        if not queue:
            return None
        self._occupancy -= 1
        return queue.popleft()

    def has_backlog(self) -> bool:
        return self._occupancy > 0

    def backlogged_outputs(self) -> List[int]:
        """Outputs with at least one cell waiting."""
        return [out_port for out_port, queue in self._queues.items() if queue]
