"""Per-layer attribution of a traced run, measured from outside ``src/``.

:class:`LayerTrace` charges host time to the repository's layers
without editing them:

- the kernel's public ``Simulator.profiler`` dispatch hook opens one
  span per event, in the layer of the event's callback;
- public entry points are wrapped at class level for the duration of
  the traced region only (:data:`WRAPPED`), each call opening a span in
  its layer;
- ``sim`` is the base span of the whole region, so its self time is the
  kernel loop plus everything no other span covers.

Self time is span time minus child spans (:class:`SelfTimer`).  The
wrappers are removed in :meth:`LayerTrace.stop`, so untraced runs
execute the unmodified classes.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from an2bench.measure import SelfTimer, empty_tick_share

#: layers reported as ``<layer>.self_s``.
LAYERS = (
    "sim", "switch", "matcher", "buffers", "link", "host", "aal",
    "flowcontrol", "reconfig", "monitor", "routing", "traffic",
)

#: (qualname prefix, layer) for event callbacks, checked first.
EVENT_QUALNAME_RULES: Tuple[Tuple[str, str], ...] = (
    ("AN2Switch._slot_tick", "switch"),
    ("AN2Switch._resync_tick", "flowcontrol"),
    ("AN2Switch._handle_reconfig", "reconfig"),
    ("AN2Switch._boot_trigger", "reconfig"),
    ("AN2Switch._reply_ping", "monitor"),
    ("AN2Switch._handle_signaling", "routing"),
    ("AN2Switch.install_circuit", "routing"),
    ("AN2Switch.add_reservation", "routing"),
    ("AN2Switch._reroute_port", "routing"),
    ("AN2Switch._repair_broken_circuits", "routing"),
    ("Host._reply_ping", "monitor"),
    ("Host._accept_signaling", "routing"),
    ("Host._pump", "host"),
    ("Host._pace", "host"),
)

#: (module prefix, layer) for event callbacks no qualname rule matched.
EVENT_MODULE_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.reconfig.monitor", "monitor"),
    ("repro.core.reconfig", "reconfig"),
    ("repro.core.routing", "routing"),
    ("repro.core.guaranteed", "routing"),
    ("repro.core.flowcontrol", "flowcontrol"),
    ("repro.core.matching", "matcher"),
    ("repro.net.link", "link"),
    ("repro.net.port", "link"),
    ("repro.net.aal", "aal"),
    ("repro.net.host", "host"),
    ("repro.switch", "switch"),
    ("repro.faults", "traffic"),  # fault actions and mid-run sampling
    ("repro.traffic", "traffic"),
    ("an2bench", "traffic"),  # the workloads' packet sources
)

#: (module, class, method, layer) wrapped at class level while traced.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.switch.crossbar", "Crossbar", "schedule", "matcher"),
    ("repro.switch.buffers", "VcQueues", "eligible_outputs", "buffers"),
    ("repro.switch.buffers", "VcQueues", "pop", "buffers"),
    ("repro.switch.buffers", "VcQueues", "push", "buffers"),
    ("repro.net.port", "Port", "send", "link"),
    ("repro.switch.switch", "AN2Switch", "on_cell", "switch"),
    ("repro.net.host", "Host", "on_cell", "host"),
    ("repro.net.host", "Host", "send_packet", "host"),
    ("repro.net.aal", "Segmenter", "segment", "aal"),
    ("repro.net.aal", "Reassembler", "accept", "aal"),
    ("repro.core.flowcontrol.credits", "UpstreamCredits", "consume", "flowcontrol"),
    ("repro.core.flowcontrol.credits", "UpstreamCredits", "credit", "flowcontrol"),
    ("repro.core.flowcontrol.credits", "UpstreamCredits", "note_stall", "flowcontrol"),
    ("repro.core.flowcontrol.credits", "DownstreamCredits", "receive", "flowcontrol"),
    ("repro.core.flowcontrol.credits", "DownstreamCredits", "free", "flowcontrol"),
    ("repro.core.reconfig.algorithm", "ReconfigurationAgent", "handle", "reconfig"),
    ("repro.core.reconfig.monitor", "PortMonitor", "on_ack", "monitor"),
    ("repro.core.routing.signaling", "SignalingAgent", "handle", "routing"),
)

#: per-layer metrics: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "switch.slot_ticks": ("count", "lower"),
    "switch.empty_tick_share": ("ratio", "lower"),
    "switch.queued_at_end": ("count", "lower"),
    "matcher.calls": ("count", "lower"),
    "matcher.pairs_per_call": ("count", "higher"),
    "buffers.calls": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_cell": ("count", "lower"),
    "link.cells_sent": ("count", "lower"),
    "link.cells_dropped": ("count", "lower"),
    "aal.reassembly_errors": ("count", "lower"),
    "flowcontrol.stalls": ("count", "lower"),
    "flowcontrol.resync_rounds": ("count", "lower"),
    "reconfig.epochs": ("count", "lower"),
    "monitor.pings": ("count", "lower"),
    "routing.route_installs": ("count", "lower"),
    "routing.reroutes": ("count", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def classify(func: Callable[..., Any]) -> str:
    """Layer of one event callback's underlying function."""
    qualname = getattr(func, "__qualname__", "") or ""
    for prefix, layer in EVENT_QUALNAME_RULES:
        if qualname.startswith(prefix):
            return layer
    module = getattr(func, "__module__", "") or ""
    for prefix, layer in EVENT_MODULE_RULES:
        if module.startswith(prefix):
            return layer
    return "other"


def _network_totals(net) -> Dict[str, int]:
    """Cumulative counters read at the region's two ends."""
    switches = net.switches.values()
    return {
        "link.cells_dropped": sum(l.cells_dropped for l in net.links.values()),
        "aal.reassembly_errors": sum(
            h.reassembly_errors for h in net.hosts.values()
        ),
        "reconfig.epochs": sum(s.reconfig.stats.completions for s in switches),
        "routing.route_installs": sum(
            s.stats.route_installs_incremental + s.stats.route_installs_full
            for s in switches
        ),
        "routing.reroutes": sum(s.stats.reroutes for s in switches),
    }


class LayerTrace:
    """Spans and counts per layer over one region of one network's run."""

    def __init__(self, net) -> None:
        self.net = net
        self.timer = SelfTimer()
        self.counts: Dict[str, int] = {
            "matcher.calls": 0, "matcher.pairs": 0, "buffers.calls": 0,
            "link.cells_sent": 0, "flowcontrol.stalls": 0,
            "switch.slot_ticks": 0, "switch.empty_ticks": 0,
            "flowcontrol.resync_rounds": 0, "monitor.pings": 0,
        }
        #: qualnames of event callbacks no rule maps to a layer.
        self.unclassified: Set[str] = set()
        self._layers: Dict[Any, str] = {}
        self._originals: List[Tuple[type, str, Any]] = []
        self._totals: Dict[str, int] = {}
        self._events0 = 0
        self.metrics: Dict[str, float] = {}
        from repro.core.reconfig.monitor import PortMonitor
        from repro.switch.switch import AN2Switch

        self._slot_tick = AN2Switch._slot_tick
        self._resync_tick = AN2Switch._resync_tick
        self._send_ping = PortMonitor._send_ping

    # ------------------------------------------------------------------
    # kernel dispatch hook (Simulator.profiler protocol)
    # ------------------------------------------------------------------
    def dispatch(self, callback: Callable[..., Any], args: tuple) -> None:
        func = getattr(callback, "__func__", callback)
        layer = self._layers.get(func)
        if layer is None:
            layer = self._layers[func] = classify(func)
            if layer == "other":
                self.unclassified.add(getattr(func, "__qualname__", repr(func)))
        timer = self.timer
        if func is self._slot_tick:
            stats = callback.__self__.stats
            before = stats.cells_forwarded
            timer.enter(layer)
            try:
                callback(*args)
            finally:
                timer.exit()
            self.counts["switch.slot_ticks"] += 1
            if stats.cells_forwarded == before:
                self.counts["switch.empty_ticks"] += 1
            return
        if func is self._resync_tick:
            self.counts["flowcontrol.resync_rounds"] += 1
        elif func is self._send_ping:
            self.counts["monitor.pings"] += 1
        timer.enter(layer)
        try:
            callback(*args)
        finally:
            timer.exit()

    # ------------------------------------------------------------------
    # class-level wrappers
    # ------------------------------------------------------------------
    def _wrap(self, func: Callable[..., Any], layer: str, count: Optional[str],
              on_result: Optional[Callable[[Any, tuple], None]]):
        enter, exit_ = self.timer.enter, self.timer.exit
        counts = self.counts

        if on_result is None and count is None:
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    exit_()
        else:
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    exit_()
                if count is not None:
                    counts[count] += 1
                if on_result is not None:
                    on_result(result, args)
                return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_pairs(self, result, args) -> None:
        self.counts["matcher.pairs"] += len(result.matching)

    def _count_stall(self, began: bool, args) -> None:
        if began:
            self.counts["flowcontrol.stalls"] += 1

    def _install(self) -> None:
        special = {
            ("Crossbar", "schedule"): ("matcher.calls", self._count_pairs),
            ("VcQueues", "eligible_outputs"): ("buffers.calls", None),
            ("VcQueues", "pop"): ("buffers.calls", None),
            ("VcQueues", "push"): ("buffers.calls", None),
            ("Port", "send"): ("link.cells_sent", None),
            ("UpstreamCredits", "note_stall"): (None, self._count_stall),
        }
        for module, cls_name, method, layer in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            count, on_result = special.get((cls_name, method), (None, None))
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(original, layer, count, on_result))

    def close(self) -> None:
        """Detach from the kernel and restore every wrapped class; safe to
        call more than once."""
        self.net.sim.profiler = None
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    @staticmethod
    def wrappers_removed() -> bool:
        """True when no wrapped entry point still carries a wrapper."""
        for module, cls_name, method, _ in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name)
            if hasattr(cls.__dict__[method], "__wrapped__"):
                return False
        return True

    # ------------------------------------------------------------------
    # region
    # ------------------------------------------------------------------
    def start(self) -> None:
        net = self.net
        self._totals = _network_totals(net)
        self._events0 = net.sim.events_executed
        self._install()
        net.sim.profiler = self
        self.timer.enter("sim")

    def stop(self, cells: int) -> None:
        """Close the region, in which ``cells`` data cells were delivered."""
        net = self.net
        try:
            self.timer.exit()
        finally:
            self.close()
        counts = self.counts
        end = _network_totals(net)
        events = net.sim.events_executed - self._events0
        metrics: Dict[str, float] = {
            f"{layer}.self_s": self.timer.self_s.get(layer, 0.0)
            for layer in LAYERS
        }
        metrics.update(
            {name: end[name] - start for name, start in self._totals.items()}
        )
        calls = counts["matcher.calls"]
        metrics.update({
            "switch.slot_ticks": counts["switch.slot_ticks"],
            "switch.empty_tick_share": empty_tick_share(
                counts["switch.slot_ticks"], counts["switch.empty_ticks"]
            ),
            "switch.queued_at_end": sum(
                s.buffered_cells() for s in net.switches.values()
            ),
            "matcher.calls": calls,
            "matcher.pairs_per_call": counts["matcher.pairs"] / calls if calls else 0.0,
            "buffers.calls": counts["buffers.calls"],
            "sim.events": events,
            "sim.events_per_cell": events / max(cells, 1),
            "link.cells_sent": counts["link.cells_sent"],
            "flowcontrol.stalls": counts["flowcontrol.stalls"],
            "flowcontrol.resync_rounds": counts["flowcontrol.resync_rounds"],
            "monitor.pings": counts["monitor.pings"],
        })
        self.metrics = metrics
        self.self_total_s = self.timer.total()
