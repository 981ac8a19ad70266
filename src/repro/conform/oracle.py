"""Differential oracles: reference vs fast-path, AN1 vs AN2.

Two families of cross-checks, both reporting the *first* divergence they
find as a :class:`Divergence` (never just a boolean -- a conformance
failure must say exactly where the implementations disagreed):

- **Matchers** -- :func:`compare_matchers` drives a reference scheduler
  (:class:`~repro.core.matching.pim.ParallelIterativeMatcher`,
  :class:`~repro.core.matching.islip.IslipMatcher`) and its bitmask
  counterpart (strict-RNG mode) cell by cell through two identically-fed
  fabrics from identical seeds, comparing every slot's full matching.
  This checks the matchers *and* the fabric's incremental mask
  bookkeeping against the set-based reference path in one sweep.  The
  reference :class:`~repro.core.matching.fifo.FifoScheduler` has no
  fast counterpart; its cases run the reference alone and only pin its
  matchings.
- **Routing** -- :func:`compare_routing` builds the same up*/down*
  orientation twice over a shared topology and cross-checks AN1's
  hop-by-hop forwarding (``next_hop`` with the gone-down bit, the
  :class:`~repro.switch.an1.An1Switch` discipline) against AN2's
  end-to-end ``shortest_legal_path`` for every switch pair: the walk
  must terminate, stay legal, and be exactly as short as the end-to-end
  path; and the end-to-end answer must be identical across independently
  constructed orientations (no hash-order sensitivity).

:func:`matcher_sweep` / :func:`routing_sweep` run these over a seeded
grid of sizes and load patterns and also return plain-data records
(including a hash of every slot's matching) suitable for committing as a
regression corpus.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim
from repro.core.matching.fifo import FifoScheduler
from repro.core.matching.islip import IslipMatcher
from repro.core.matching.pim import MatchResult, ParallelIterativeMatcher
from repro._types import NodeId, parse_node_id
from repro.core.routing.updown import UpDownOrientation
from repro.net.cell import Cell, CellKind
from repro.net.link import Link
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.random import derived_stream
from repro.switch.fabric import FifoFabric, VoqFabric
from repro.traffic.arrivals import (
    ArrivalProcess,
    BernoulliUniform,
    BurstyOnOff,
    Hotspot,
    Permutation,
)


@dataclass(frozen=True)
class Divergence:
    """The first point where two implementations disagreed."""

    kind: str        # "matcher" or "routing"
    pair: str        # e.g. "pim", "fifo", "an1-vs-an2"
    seed: int
    size: int        # fabric ports / topology switches
    case: str        # load pattern name / "src->dst" switch pair
    round: int       # slot index / hop index
    port: int        # first divergent input port (-1 when not port-shaped)
    reference: Any   # what the reference produced there
    candidate: Any   # what the implementation under test produced

    def __str__(self) -> str:
        return (
            f"{self.kind}:{self.pair} diverged (seed={self.seed}, "
            f"size={self.size}, case={self.case}) at round {self.round} "
            f"port {self.port}: reference={self.reference!r} "
            f"candidate={self.candidate!r}"
        )


# ======================================================================
# matcher differential
# ======================================================================
MATCHER_KINDS = ("pim", "islip", "fifo")

#: pattern name -> factory(n_ports, rng) for the sweep's load patterns.
PATTERNS: Dict[str, Callable[[int, random.Random], ArrivalProcess]] = {
    "bernoulli-0.6": lambda n, rng: BernoulliUniform(n, 0.6, rng=rng),
    "bernoulli-0.95": lambda n, rng: BernoulliUniform(n, 0.95, rng=rng),
    "hotspot": lambda n, rng: Hotspot(
        n, 0.8, hot_output=0, hot_fraction=0.5, rng=rng
    ),
    "bursty": lambda n, rng: BurstyOnOff(n, 0.7, mean_burst=8.0, rng=rng),
    "permutation": lambda n, rng: Permutation(n, 0.9, rng=rng),
}


def _seeded_rng(label: str, seed: int) -> random.Random:
    return derived_stream(f"conform.oracle/{label}", seed)


def _build_pair(kind: str, n_ports: int, seed: int):
    """(reference fabric, candidate fabric) with identically-seeded RNGs.

    The candidate is ``None`` for a kind with no fast-path counterpart.
    """
    if kind == "pim":
        reference = VoqFabric(
            n_ports,
            ParallelIterativeMatcher(
                n_ports, iterations=3, rng=_seeded_rng("pim", seed)
            ),
        )
        candidate = VoqFabric(
            n_ports,
            BitmaskPim(
                n_ports,
                iterations=3,
                rng=_seeded_rng("pim", seed),
                strict_rng=True,
            ),
        )
    elif kind == "islip":
        reference = VoqFabric(n_ports, IslipMatcher(n_ports, iterations=3))
        candidate = VoqFabric(n_ports, BitmaskIslip(n_ports, iterations=3))
    elif kind == "fifo":
        # No fast FIFO scheduler exists: the fifo cases replay the
        # reference alone, pinning its matchings in the corpus.
        reference = FifoFabric(
            n_ports, FifoScheduler(n_ports, rng=_seeded_rng("fifo", seed))
        )
        candidate = None
    else:
        raise ValueError(f"unknown matcher kind {kind!r}")
    return reference, candidate


def _first_divergent_port(
    ref: MatchResult, cand: MatchResult
) -> Tuple[int, Optional[int], Optional[int]]:
    """(port, reference grant, candidate grant) at the lowest divergent input."""
    for port in sorted(set(ref.matching) | set(cand.matching)):
        ref_grant = ref.matching.get(port)
        cand_grant = cand.matching.get(port)
        if ref_grant != cand_grant:
            return port, ref_grant, cand_grant
    return -1, None, None


def compare_matchers(
    kind: str,
    n_ports: int,
    seed: int,
    pattern: str,
    n_slots: int = 200,
) -> Tuple[Optional[Divergence], str]:
    """Drive reference and bitmask fabrics cell-by-cell from one seed.

    Returns ``(divergence, matchings_hash)`` where ``divergence`` is
    ``None`` on full agreement and ``matchings_hash`` is a SHA-256 over
    every slot's reference matching -- the value the regression corpus
    pins.
    """
    reference, candidate = _build_pair(kind, n_ports, seed)
    traffic = PATTERNS[pattern](
        n_ports, _seeded_rng(f"traffic/{pattern}", seed)
    )
    matchings = hashlib.sha256()
    for slot in range(n_slots):
        arrivals = traffic.arrivals(slot)
        for input_port, output_port in arrivals:
            reference.offer(input_port, output_port, slot)
            if candidate is not None:
                candidate.offer(input_port, output_port, slot)
        ref_result = reference.step(slot)
        matchings.update(
            repr(sorted(ref_result.matching.items())).encode("utf-8")
        )
        if candidate is None:
            continue
        cand_result = candidate.step(slot)
        if ref_result.matching != cand_result.matching:
            port, ref_grant, cand_grant = _first_divergent_port(
                ref_result, cand_result
            )
            return (
                Divergence(
                    kind="matcher",
                    pair=kind,
                    seed=seed,
                    size=n_ports,
                    case=pattern,
                    round=slot,
                    port=port,
                    reference=ref_grant,
                    candidate=cand_grant,
                ),
                matchings.hexdigest(),
            )
    return None, matchings.hexdigest()


def matcher_sweep(
    seeds: Sequence[int],
    sizes: Sequence[int] = (4, 8, 16),
    kinds: Sequence[str] = MATCHER_KINDS,
    patterns: Sequence[str] = tuple(PATTERNS),
    n_slots: int = 200,
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """The full differential grid.  Returns (divergences, corpus records)."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for kind in kinds:
        for n_ports in sizes:
            for pattern in patterns:
                for seed in seeds:
                    divergence, matchings_hash = compare_matchers(
                        kind, n_ports, seed, pattern, n_slots=n_slots
                    )
                    if divergence is not None:
                        divergences.append(divergence)
                    records.append(
                        {
                            "kind": kind,
                            "n_ports": n_ports,
                            "pattern": pattern,
                            "seed": seed,
                            "n_slots": n_slots,
                            "matchings_sha256": matchings_hash,
                            "agreed": divergence is None,
                        }
                    )
    return divergences, records


# ======================================================================
# routing differential (AN1 hop-by-hop vs AN2 end-to-end)
# ======================================================================
def _an1_walk(
    orientation: UpDownOrientation, source, destination, max_hops: int
):
    """Hop-by-hop forwarding with the gone-down bit (AN1 discipline).

    Returns (nodes, edges) on success or the hop index where forwarding
    returned no legal continuation.
    """
    nodes = [source]
    edges = []
    here = source
    gone_down = False
    for _ in range(max_hops):
        if here == destination:
            return nodes, edges
        hop = orientation.next_hop(here, destination, gone_down)
        if hop is None:
            return len(edges)
        neighbor, edge = hop
        if not orientation.is_up_traversal(edge, here):
            gone_down = True
        nodes.append(neighbor)
        edges.append(edge)
        here = neighbor
    return len(edges)


def compare_routing(
    seed: int, n_switches: int = 8, extra_edges: int = 4
) -> Tuple[Optional[Divergence], str]:
    """Cross-check AN1 and AN2 routing over one shared random topology.

    For every ordered switch pair: AN1's hop-by-hop walk must terminate,
    stay up*/down*-legal, and use exactly as many hops as AN2's
    end-to-end shortest legal path; and a second, independently
    constructed orientation must produce the identical end-to-end path
    (construction-order / hash-order insensitivity).  Returns
    ``(divergence, paths_hash)`` with a SHA-256 over every end-to-end
    path for the regression corpus.
    """
    topo = Topology.random_connected(
        n_switches,
        extra_edges=extra_edges,
        rng=_seeded_rng("routing/topology", seed),
    )
    view = topo.view()
    switches = view.switches()
    root = switches[0]
    orientation = UpDownOrientation(view, root)
    shadow = UpDownOrientation(view, root)  # independently constructed
    paths_hash = hashlib.sha256()
    max_hops = 4 * n_switches
    for src in switches:
        for dst in switches:
            if src == dst:
                continue
            case = f"{src}->{dst}"
            an2 = orientation.shortest_legal_path(src, dst)
            an2_shadow = shadow.shortest_legal_path(src, dst)
            if an2 is None or an2_shadow is None or an2 != an2_shadow:
                return (
                    Divergence(
                        kind="routing",
                        pair="an2-determinism",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=0,
                        port=-1,
                        reference=None if an2 is None else [str(n) for n in an2[0]],
                        candidate=(
                            None if an2_shadow is None
                            else [str(n) for n in an2_shadow[0]]
                        ),
                    ),
                    paths_hash.hexdigest(),
                )
            paths_hash.update(
                ("|".join(str(n) for n in an2[0])).encode("utf-8")
            )
            paths_hash.update(b"\x00")
            an1 = _an1_walk(orientation, src, dst, max_hops)
            if isinstance(an1, int):
                return (
                    Divergence(
                        kind="routing",
                        pair="an1-vs-an2",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=an1,
                        port=-1,
                        reference=[str(n) for n in an2[0]],
                        candidate="no legal continuation",
                    ),
                    paths_hash.hexdigest(),
                )
            an1_nodes, an1_edges = an1
            if not orientation.path_is_legal(an1_nodes, an1_edges):
                return (
                    Divergence(
                        kind="routing",
                        pair="an1-vs-an2",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=len(an1_edges),
                        port=-1,
                        reference="legal path",
                        candidate=[str(n) for n in an1_nodes],
                    ),
                    paths_hash.hexdigest(),
                )
            if len(an1_edges) != len(an2[1]):
                return (
                    Divergence(
                        kind="routing",
                        pair="an1-vs-an2",
                        seed=seed,
                        size=n_switches,
                        case=case,
                        round=len(an1_edges),
                        port=-1,
                        reference=len(an2[1]),
                        candidate=len(an1_edges),
                    ),
                    paths_hash.hexdigest(),
                )
    return None, paths_hash.hexdigest()


def routing_sweep(
    seeds: Sequence[int],
    sizes: Sequence[int] = (5, 8, 12),
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """Routing cross-checks over a grid of random topologies."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for n_switches in sizes:
        for seed in seeds:
            divergence, paths_hash = compare_routing(
                seed, n_switches=n_switches, extra_edges=max(2, n_switches // 2)
            )
            if divergence is not None:
                divergences.append(divergence)
            records.append(
                {
                    "kind": "routing",
                    "n_switches": n_switches,
                    "seed": seed,
                    "paths_sha256": paths_hash,
                    "agreed": divergence is None,
                }
            )
    return divergences, records


# ======================================================================
# link cell-train differential
# ======================================================================
class _SinkNode(Node):
    """Records delivered payloads in arrival order; the link oracle's
    endpoint.  Payloads are unique per cell, so the recorded sequence
    identifies exactly which cells got through and in what order."""

    def __init__(self, sim, node_id: "NodeId") -> None:
        super().__init__(sim, node_id, n_ports=1)
        self.received: List[Any] = []

    def on_cell(self, port, cell) -> None:
        self.received.append(cell.payload)


#: solution-shaped fault profiles for the link differential.  "plain"
#: is the original script; the others reproduce the *deterministic* op
#: shapes of the loss-recovery solutions so batching is exercised while
#: recovery machinery flips link state mid-train.  (The closed-loop
#: solutions themselves react at delivery times, which batching is
#: allowed to shift -- so the oracle scripts their actions instead of
#: letting them observe.)
LINK_PROFILES = ("plain", "disable_and_repair", "link_retx")


def _link_script(
    seed: int, n_bursts: int, profile: str = "plain"
) -> List[Tuple[float, str, Any]]:
    """A deterministic (time, op, arg) fault-and-traffic script.

    Bursts are multi-cell and same-instant -- the shape that actually
    forms cell trains -- and the fault ops are the ones whose semantics
    batching must not change: a mid-train cut, a restore, and
    ``drop_filter`` windows that open and close while cells are on the
    wire (the credit-loss-burst shape from the fault scenarios).

    Profiles:

    - ``plain`` -- the original mix (cuts and credit filters).
    - ``disable_and_repair`` -- adds administrative fail/restore pairs
      and full-corruption windows (``error_rate`` stepped to 1.0 and
      back): 1.0 is the only rate the differential may use, because
      every RNG draw then corrupts regardless of draw order, so batched
      and unbatched schedules agree even though they interleave the
      per-direction draws differently.
    - ``link_retx`` -- wide burst gaps and once-only per-payload
      corruption targets (``corrupt`` entries, collected by the driver
      into a payload-keyed filter): each targeted cell is corrupted on
      exactly its first delivery attempt wherever that falls in either
      schedule, so the guard's NACK/resend/resequence cycle completes
      identically.  No cuts: a resend over a dead link is a *timing*
      race between schedules, not a batching property.
    """
    label = "link-script" if profile == "plain" else f"link-script/{profile}"
    rng = _seeded_rng(label, seed)
    script: List[Tuple[float, str, Any]] = []
    t = 1.0
    payload = 0
    for _ in range(n_bursts):
        if profile == "link_retx":
            # Wide gaps: every NACK/resend cycle (~one link round trip)
            # finishes before the next burst can crowd the wire, so the
            # serialization horizon never diverges between schedules.
            t += rng.uniform(45.0, 80.0)
        else:
            t += rng.uniform(3.0, 30.0)
        direction = 1 if rng.random() < 0.3 else 0
        size = rng.randint(1, 12)
        cells = []
        for _ in range(size):
            kind = CellKind.CREDIT if rng.random() < 0.25 else CellKind.DATA
            cells.append((kind, payload))
            if profile == "link_retx" and rng.random() < 0.3:
                script.append((0.0, "corrupt", payload))
            payload += 1
        script.append((t, "burst", (direction, cells)))
        if profile == "link_retx":
            continue
        roll = rng.random()
        if roll < 0.15:
            # Cut while the burst is still serializing/propagating, then
            # restore: the canonical mid-train fault.
            script.append((t + rng.uniform(0.1, 8.0), "fail", None))
            script.append((t + rng.uniform(9.0, 20.0), "restore", None))
        elif roll < 0.30:
            # Credit-loss window opening mid-flight.
            script.append((t + rng.uniform(0.1, 8.0), "filter_on", None))
            script.append((t + rng.uniform(9.0, 20.0), "filter_off", None))
        elif profile == "disable_and_repair" and roll < 0.45:
            # The administrative repair cycle: deliberate fail, held
            # down, restore -- opening and closing around in-flight
            # cells exactly like DisableAndRepair's repair window.
            script.append((t + rng.uniform(0.1, 8.0), "fail", None))
            script.append((t + rng.uniform(12.0, 25.0), "restore", None))
        elif profile == "disable_and_repair" and roll < 0.60:
            # Full-corruption window (the noisy-link phase that trips
            # the repair threshold).
            script.append((t + rng.uniform(0.1, 8.0), "error_full_on", None))
            script.append((t + rng.uniform(9.0, 20.0), "error_off", None))
    script.sort(key=lambda entry: (entry[0], entry[1]))
    return script


def _drive_link(
    seed: int, batch: bool, n_bursts: int, profile: str = "plain"
) -> Tuple[List[Any], List[Any], Tuple[int, ...]]:
    """Run the scripted scenario on one link; returns (received at b,
    received at a, (delivered, dropped, data_dropped, corrupted [, guard
    counters for the link_retx profile]))."""
    sim = Simulator()
    node_a = _SinkNode(sim, parse_node_id("h0"))
    node_b = _SinkNode(sim, parse_node_id("h1"))
    link = Link(
        sim,
        node_a.port(0),
        node_b.port(0),
        length_km=2.0,
        rng=_seeded_rng("link-err", seed),
        batch_trains=batch,
        max_train_cells=8,
    )
    script = _link_script(seed, n_bursts, profile)
    guard = None
    if profile == "link_retx":
        from repro.solutions.link_retx import LinkRetxGuard

        guard = LinkRetxGuard(link)
        # Once-only per-payload corruption: schedule-invariant because
        # the verdict is a pure function of the (unique) payload and
        # whether its first attempt already happened.
        targets = {arg for _, op, arg in script if op == "corrupt"}
        corrupted_once: set = set()

        def corrupt_filter(cell: Cell) -> bool:
            if cell.payload in targets and cell.payload not in corrupted_once:
                corrupted_once.add(cell.payload)
                return True
            return False

        link.drop_filter = corrupt_filter

    def burst(direction: int, cells) -> None:
        for kind, payload in cells:
            link.transmit(direction, Cell(vc=0, kind=kind, payload=payload))

    ops: Dict[str, Callable[..., None]] = {
        "burst": burst,
        "fail": lambda _arg: link.fail(),
        "restore": lambda _arg: link.restore(),
        "filter_on": lambda _arg: setattr(
            link, "drop_filter", lambda cell: cell.kind is CellKind.CREDIT
        ),
        "filter_off": lambda _arg: setattr(link, "drop_filter", None),
        "error_full_on": lambda _arg: link.set_error_rate(1.0),
        "error_off": lambda _arg: link.set_error_rate(0.0),
    }
    for time, op, arg in script:
        if op == "corrupt":
            continue  # collected above, not a scheduled event
        if op == "burst":
            sim.schedule_at(time, burst, *arg)
        else:
            sim.schedule_at(time, ops[op], arg)
    sim.run()
    counters: Tuple[int, ...] = (
        link.cells_delivered,
        link.cells_dropped,
        link.data_cells_dropped,
        link.cells_corrupted,
    )
    if guard is not None:
        counters = counters + (
            guard.nacks,
            guard.resends,
            guard.recovered,
            guard.abandoned,
            guard.duplicates,
        )
    return node_b.received, node_a.received, counters


def compare_link_delivery(
    seed: int, n_bursts: int = 40, profile: str = "plain"
) -> Optional[Divergence]:
    """Cell-train batching differential: batched vs unbatched link.

    Runs an identical burst/cut/restore/drop-filter script through a
    plain link and a ``batch_trains`` link and requires identical
    delivered-payload sequences (per direction, in FIFO order) and
    identical delivered/dropped/corrupted counters.  Batching is allowed
    to change *when* a cell surfaces (by a bounded train span) and how
    many kernel events that takes -- never *which* cells arrive or are
    lost.  Arbitrary ``error_rate`` stays out of every profile: its RNG
    draw order across concurrently-batched opposite directions is not
    pinned by the batching contract (``disable_and_repair`` steps the
    rate to exactly 1.0, where the verdict is draw-order independent).

    The ``link_retx`` profile additionally attaches a live
    :class:`~repro.solutions.link_retx.LinkRetxGuard` and requires its
    recovery counters (nacks, resends, recovered, abandoned,
    duplicates) to agree as well: the retransmission state machine must
    settle every targeted corruption identically under both schedules.
    """
    if profile not in LINK_PROFILES:
        raise ValueError(
            f"unknown link profile {profile!r}; choose from {LINK_PROFILES}"
        )
    reference = _drive_link(seed, batch=False, n_bursts=n_bursts, profile=profile)
    candidate = _drive_link(seed, batch=True, n_bursts=n_bursts, profile=profile)
    cases = ("delivered@b", "delivered@a", "counters")
    pair = (
        "train-batching" if profile == "plain"
        else f"train-batching:{profile}"
    )
    for case, ref, cand in zip(cases, reference, candidate):
        if ref != cand:
            port = -1
            if case != "counters":
                port = _first_divergent_index(list(ref), list(cand))
            return Divergence(
                kind="link",
                pair=pair,
                seed=seed,
                size=n_bursts,
                case=case,
                round=-1,
                port=port,
                reference=ref,
                candidate=cand,
            )
    return None


def _first_divergent_index(reference: List[Any], candidate: List[Any]) -> int:
    for index, (ref, cand) in enumerate(zip(reference, candidate)):
        if ref != cand:
            return index
    return min(len(reference), len(candidate))


def link_sweep(
    seeds: Sequence[int],
    n_bursts: int = 40,
    profiles: Sequence[str] = LINK_PROFILES,
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """Train-batching differential over a grid of fault scripts, one
    pass per solution-shaped profile."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for profile in profiles:
        for seed in seeds:
            divergence = compare_link_delivery(
                seed, n_bursts=n_bursts, profile=profile
            )
            if divergence is not None:
                divergences.append(divergence)
            records.append(
                {
                    "kind": "link",
                    "profile": profile,
                    "seed": seed,
                    "n_bursts": n_bursts,
                    "agreed": divergence is None,
                }
            )
    return divergences, records


# ======================================================================
# slot driver differential (wave-coalesced vs per-switch slot timers)
# ======================================================================
def _scrub_tick_phase(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the fields the slot driver is allowed to change.

    Wave coalescing re-phases per-switch slot timers onto one fabric-wide
    tick and replaces N timer events with one, so ``slot_index`` and
    ``events_executed`` differ by design; every end-of-run outcome
    (forwarding counts, queue occupancy, credits, epochs, link and host
    state) must be byte-identical.  Per-cell delivery times are not in
    the fingerprint, and they do shift: a tick requested mid-window runs
    at the wave boundary.
    """
    scrubbed = dict(fingerprint)
    scrubbed.pop("events_executed", None)
    scrubbed["switches"] = [
        dict(switch, slot_index=0) for switch in scrubbed["switches"]
    ]
    return scrubbed


def compare_slot_driver(
    seed: int = 0, duration_us: float = 40_000.0
) -> Tuple[Optional[Divergence], Dict[str, Any]]:
    """Run the replay scenario with and without the fabric slot driver.

    Builds the same 2x2 grid + dual-homed-hosts scenario as the digest
    gate, once with per-switch slot timers and once with
    ``fabric_slot_driver=True``, then compares the end-of-run
    :func:`~repro.conform.digest.fingerprint_network` with the tick phase
    scrubbed (see :func:`_scrub_tick_phase`).  The driver must also
    *reduce* the kernel event count -- that is the whole point of wave
    coalescing -- so equal-or-more events is reported as a divergence
    too.  Returns ``(divergence, record)``.
    """
    import hashlib as _hashlib

    from repro.conform.digest import canonical_bytes, fingerprint_network
    from repro.net.host import HostConfig
    from repro.net.network import Network
    from repro.switch.switch import SwitchConfig
    from repro.traffic.workload import PoissonPacketWorkload

    def run_scenario(use_driver: bool):
        topo = Topology.grid(2, 2)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h0", "s2", port_a=1, bps=622_000_000)
        topo.connect("h1", "s3", port_a=0, bps=622_000_000)
        topo.connect("h1", "s1", port_a=1, bps=622_000_000)
        net = Network(
            topo,
            seed=seed,
            switch_config=SwitchConfig(
                frame_slots=32,
                control_delay_us=10.0,
                ping_interval_us=500.0,
                ack_timeout_us=200.0,
                miss_threshold=2,
                boot_reconfig_delay_us=1_500.0,
                resync_interval_us=5_000.0,
            ),
            host_config=HostConfig(
                ping_interval_us=500.0,
                ack_timeout_us=200.0,
                miss_threshold=2,
                frame_slots=32,
            ),
            fabric_slot_driver=use_driver,
        )
        net.start()
        net.run_until(net.converged, timeout_us=duration_us)
        circuit = net.setup_circuit("h0", "h1")
        workload = PoissonPacketWorkload(
            net.sim,
            net.host("h0"),
            circuit.vc,
            circuit.destination,
            mean_interval_us=400.0,
            packet_bytes=480,
            rng=net.streams.stream("conform.digest.workload"),
            duration_us=duration_us * 0.5,
        )
        workload.start()
        net.run(duration_us)
        return fingerprint_network(net), net.sim.events_executed

    baseline, events_off = run_scenario(use_driver=False)
    driven, events_on = run_scenario(use_driver=True)
    ref_scrubbed = _scrub_tick_phase(baseline)
    cand_scrubbed = _scrub_tick_phase(driven)
    ref_sha = _hashlib.sha256(canonical_bytes(ref_scrubbed)).hexdigest()
    cand_sha = _hashlib.sha256(canonical_bytes(cand_scrubbed)).hexdigest()
    record = {
        "kind": "slot-driver",
        "seed": seed,
        "duration_us": duration_us,
        "events_off": events_off,
        "events_on": events_on,
        "state_sha256": ref_sha,
        "agreed": ref_sha == cand_sha and events_on < events_off,
    }
    divergence: Optional[Divergence] = None
    if ref_sha != cand_sha:
        divergence = Divergence(
            kind="fastpath",
            pair="slot-driver",
            seed=seed,
            size=len(baseline["switches"]),
            case="replay-scenario",
            round=-1,
            port=-1,
            reference=ref_sha,
            candidate=cand_sha,
        )
    elif events_on >= events_off:
        divergence = Divergence(
            kind="fastpath",
            pair="slot-driver",
            seed=seed,
            size=len(baseline["switches"]),
            case="event-count",
            round=-1,
            port=-1,
            reference=f"<{events_off}",
            candidate=events_on,
        )
    return divergence, record


def slot_driver_sweep(
    seeds: Sequence[int], duration_us: float = 40_000.0
) -> Tuple[List[Divergence], List[Dict[str, Any]]]:
    """:func:`compare_slot_driver` over a seed list."""
    divergences: List[Divergence] = []
    records: List[Dict[str, Any]] = []
    for seed in seeds:
        divergence, record = compare_slot_driver(
            seed, duration_us=duration_us
        )
        if divergence is not None:
            divergences.append(divergence)
        records.append(record)
    return divergences, records
