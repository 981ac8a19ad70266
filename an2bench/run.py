"""Run one AN2 network workload and print its metrics as JSON.

Usage, from the repository root::

    python3 an2bench/run.py --workload fattree_be --seed 1 --seconds 20 --trace 0

The run repeats the workload, each time building, booting and setting
up a fresh network from the same seed, while another repetition still
fits in ``--seconds`` of host time (at least three times); every
repetition must reproduce the first one's simulated results exactly.
``--trace 0`` reports the end-to-end metrics: the timed region is cut
into short pieces of simulated time, with a short fixed reference block
timed after each piece; each piece is normalised by the reference
blocks around it, so that the drift of a shared host's speed cancels
out, and the region's time is the sum of each piece's median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fewest untraced repetitions of a run, whatever ``--seconds`` says:
#: a piece's median needs three to drop one slow repetition.
MIN_REPS = 3
#: fewest traced repetitions of a ``--trace 1`` run.
MIN_TRACED = 2
#: set-ups timed per run (extra set-ups are built and discarded).
SETUP_SAMPLES = 15
#: reference blocks timed just before and just after each set-up.
SETUP_REFERENCES = 2
#: traced self times must add up to the region's wall time this closely.
SELF_TIME_TOLERANCE = 0.01
#: the reference block's typical time on the host the benchmark was
#: tuned on (2 vCPUs of an Intel Xeon, CPython 3.11): normalised host
#: times are scaled to a host as fast as that one.
REFERENCE_NOMINAL_S = 0.010

END_TO_END = {
    "norm_ms_per_sim_ms": "ms/ms",
    "cells_per_norm_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delivered_ratio": "ratio",
    "pkt_latency_p50_us": "us",
    "pkt_latency_p99_us": "us",
}


class Region:
    """Host and simulated time, events and cells over the timed region.

    An untraced region is timed piece by piece on a grid of ``slice_us``
    simulated microseconds, with a ``reference`` block after each piece
    (:class:`SliceClock`); its ``wall_s`` leaves the blocks out.
    """

    def __init__(self, net, trace, slice_us: float, reference) -> None:
        from an2bench.measure import SliceClock

        self.net = net
        self.trace = trace
        self.wall_s = 0.0
        self.pieces, self.refs = [], []
        self.slices = (
            SliceClock(net.sim, slice_us, reference) if trace is None else None
        )

    def begin(self) -> None:
        gc.collect()
        sim = self.net.sim
        if self.trace is not None:
            self.trace.start()
        self._sim0 = sim.now
        self._events0 = sim.events_executed
        self._cells0 = self._cells()
        self._t0 = perf_counter()
        if self.slices is not None:
            self.slices.start()

    def end(self) -> None:
        self.wall_s = perf_counter() - self._t0
        if self.slices is not None:
            self.slices.stop()
            self.pieces, self.refs = self.slices.pieces, self.slices.refs
            self.wall_s = sum(self.pieces)
            self.slices = None
        sim = self.net.sim
        self.sim_us = sim.now - self._sim0
        self.events = sim.events_executed - self._events0
        self.cells = self._cells() - self._cells0
        if self.trace is not None:
            self.trace.stop(self.cells)

    def _cells(self) -> int:
        return sum(h.cells_received for h in self.net.hosts.values())


def host_fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def timed_setup(workload, reference) -> float:
    """Set the workload up; returns its normalised host seconds, scaled
    like the region's pieces by the ``reference`` blocks just before and
    after it."""
    from an2bench.measure import median

    gc.collect()
    refs = [reference() for _ in range(SETUP_REFERENCES)]
    start = perf_counter()
    workload.setup()
    setup_s = perf_counter() - start
    refs += [reference() for _ in range(SETUP_REFERENCES)]
    return setup_s * REFERENCE_NOMINAL_S / median(refs)


def one_rep(workload_cls, seed: int, traced: bool, reference):
    """Set up and run one repetition; returns (setup_s, region, outcome).
    An untraced region runs the ``reference`` block between its pieces."""
    from an2bench.layers import LayerTrace

    workload = workload_cls(seed)
    setup_s = timed_setup(workload, reference)
    region = Region(
        workload.net, LayerTrace(workload.net) if traced else None,
        workload.SLICE_US, reference,
    )
    try:
        workload.drive(region)
    finally:
        if traced:
            region.trace.close()
    outcome = workload.outcome()
    # Keep numbers, not networks: peak memory must not grow with the
    # number of repetitions that fit in a run.
    region.net = None
    if traced:
        region.trace.net = None
    return setup_s, region, outcome


def simulated(region, outcome) -> tuple:
    """Everything a run must reproduce exactly for its seed."""
    return (
        region.sim_us, region.events, region.cells, outcome.sent,
        outcome.intact, outcome.failed, sum(outcome.latencies),
        len(outcome.latencies), tuple(sorted(outcome.info.items())),
    )


def region_s(reps, normalise: bool) -> float:
    """Host seconds of the timed region of the untraced repetitions
    ``reps``: the sum of its pieces' medians over the repetitions, each
    piece first normalised by the reference blocks around it if
    ``normalise``."""
    from an2bench.measure import normalised, sliced_total

    return sliced_total([
        normalised(r.pieces, r.refs, REFERENCE_NOMINAL_S) if normalise else r.pieces
        for _, r, _ in reps
    ])


def e2e_metrics(reps, setups) -> dict:
    """End-to-end metrics from the untraced repetitions ``reps``: the
    region's normalised host time (:func:`region_s`), and set-up as the
    median of the normalised ``setups``.  Simulated values are the
    same in every repetition."""
    from an2bench.measure import median, supported_percentile

    region, outcome = reps[0][1], reps[0][2]
    latencies = outcome.latencies
    norm_s = region_s(reps, normalise=True)
    return {
        "norm_ms_per_sim_ms": norm_s * 1e3 / (region.sim_us / 1e3),
        "cells_per_norm_s": region.cells / norm_s,
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "delivered_ratio": outcome.intact / outcome.sent,
        "pkt_latency_p50_us": supported_percentile(latencies, 50.0),
        "pkt_latency_p99_us": supported_percentile(latencies, 99.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"an2bench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from an2bench.layers import PER_LAYER, LayerTrace
    from an2bench.measure import ReferenceBlock, median
    from an2bench.workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"an2bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    reference = ReferenceBlock()
    deadline = perf_counter() + args.seconds
    untraced, traced = [], []
    while True:
        begun = perf_counter()
        untraced.append(one_rep(workload_cls, args.seed, False, reference))
        if args.trace:
            traced.append(one_rep(workload_cls, args.seed, True, reference))
        now = perf_counter()
        enough = len(traced) >= MIN_TRACED if args.trace else len(untraced) >= MIN_REPS
        # Start no repetition that would end past the deadline.
        if enough and now + (now - begun) > deadline:
            break
    setups = [setup_s for setup_s, _, _ in untraced + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(timed_setup(workload_cls(args.seed), reference))

    problems = []
    reps = untraced + traced
    first = simulated(reps[0][1], reps[0][2])
    for _, region, outcome in reps:
        problems.extend(outcome.problems)
        if simulated(region, outcome) != first:
            problems.append("simulated results differ between repetitions of one seed")
    attempted = sum(outcome.sent for _, _, outcome in reps)
    failed = sum(outcome.failed for _, _, outcome in reps)

    host_ms_per_sim_ms = None  # the untraced region's plain host time
    if args.trace:
        if not LayerTrace.wrappers_removed():
            problems.append("class-level wrappers left installed")
        for _, region, _ in traced:
            trace = region.trace
            gap = abs(trace.self_total_s - region.wall_s) / region.wall_s
            if gap > SELF_TIME_TOLERANCE:
                problems.append(
                    f"layer self times sum to {trace.self_total_s:.4f} s, "
                    f"region took {region.wall_s:.4f} s"
                )
            if trace.unclassified:
                problems.append(f"unclassified events: {sorted(trace.unclassified)}")
        names = [name for name in PER_LAYER if name != "trace_overhead"]
        values = {
            name: median([r.trace.metrics[name] for _, r, _ in traced])
            for name in names
        }
        values["trace_overhead"] = median(
            [r.wall_s for _, r, _ in traced]
        ) / median([r.wall_s for _, r, _ in untraced])
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        try:
            values = e2e_metrics(untraced, setups)
            host_ms_per_sim_ms = (
                region_s(untraced, normalise=False) * 1e3 / (reps[0][1].sim_us / 1e3)
            )
        except ValueError as exc:
            problems.append(str(exc))
            values = {name: 0.0 for name in END_TO_END}
        units = END_TO_END

    outcome = reps[0][2]
    info = {
        "workload": args.workload, "seed": args.seed,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "setups": len(setups), "host": host_fingerprint(),
        "simulated": outcome.info,
        "sim_ms": reps[0][1].sim_us / 1e3,
        "reference_s": median([t for _, r, _ in untraced for t in r.refs]),
        "host_ms_per_sim_ms": host_ms_per_sim_ms,
        "region_wall_s": [region.wall_s for _, region, _ in reps],
        "problems": problems[:10],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed + (1 if problems and failed == 0 else 0),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
