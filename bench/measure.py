"""Timing, resource accounting and the statistics the report is built on."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: The percentile reported as ``unit_tail_ms``.  Fixed, so the statistic
#: cannot jump between two runs whose unit counts straddle a threshold;
#: it has the ten samples beyond it that make it trustworthy from 100
#: units on (``tail_samples_beyond``), and is flagged below that.
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10

def percentile(samples: List[float], pct: float) -> float:
    """Linear-interpolation percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_samples_beyond(count: int, pct: float = TAIL_PERCENTILE) -> float:
    """How many of ``count`` samples lie beyond percentile ``pct``."""
    return count * (100.0 - pct) / 100.0


def tail_supported(count: int, pct: float = TAIL_PERCENTILE) -> bool:
    """Whether ``pct`` has at least ten samples beyond it: true for p90
    from 100 units and for p95 from 200."""
    return tail_samples_beyond(count, pct) >= TAIL_MIN_BEYOND


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has
    reaped (pool workers count once their pool has shut down)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped
    child, in MB (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class _Vote:
    __slots__ = ("node", "topic", "path")

    def __init__(self, node, topic, path):
        self.node = node
        self.topic = topic
        self.path = path


class Speed(NamedTuple):
    """One reading of the machine's speed: what the kernel cost on the
    wall clock and in CPU time (ms)."""

    wall: float
    cpu: float


def speed_reading(loops: int = 6000) -> Speed:
    """One pass of a fixed kernel that does what the library's hot paths
    do — allocate small objects, fill and scan dicts, hash and
    JSON-encode — so that whatever slows the workload (a busy host, a
    colder cache) slows the kernel alike."""
    cpu = time.process_time()
    start = time.perf_counter()
    table: Dict[Tuple[int, str, int], List[_Vote]] = {}
    for value in range(loops):
        topic = (value % 97, "Vote", value & 1)
        table.setdefault(topic, []).append(
            _Vote(value, topic, [value, value + 1]))
        if value % 64 == 0:
            hashlib.sha256(repr(topic).encode("ascii")).digest()
    for topic, votes in table.items():
        sum(vote.node for vote in votes if vote.topic[2])
    json.dumps({"rows": [{"n": index, "x": index * 0.5, "s": "abc"}
                         for index in range(150)]}, sort_keys=True)
    return Speed((time.perf_counter() - start) * 1000.0,
                 (time.process_time() - cpu) * 1000.0)


def machine_speed(count: int = 3) -> Speed:
    """The machine's speed right now: the median of ``count`` readings."""
    readings = [speed_reading() for _ in range(count)]
    return Speed(statistics.median(reading.wall for reading in readings),
                 statistics.median(reading.cpu for reading in readings))


#: ``machine_speed()`` on the machine the expected bands in README.md
#: were recorded on.  Every reported time is scaled by
#: ``REFERENCE_SPEED_MS / <speed measured beside the work>``: the host
#: this runs on changes speed by a third within seconds, and the same
#: code must read the same on a fast and on a slow minute.  Wall times
#: are scaled by the kernel's wall time and CPU times by its CPU time (a
#: descheduled process loses wall time but is charged no CPU).
REFERENCE_SPEED_MS = 5.0

#: Take a speed reading at least this often during a measured phase.
PROBE_EVERY_S = 0.2

#: A phase whose speed readings swing by more than this is marked noisy.
NOISE_LIMIT = 0.10


def scale(amount: float, speed_before: float, speed_after: float) -> float:
    """``amount`` of time measured between two speed readings, as the
    reference machine would have taken."""
    return amount * REFERENCE_SPEED_MS / ((speed_before + speed_after) / 2)


@dataclass
class Phase:
    """What a measured phase produced.  Times are scaled to the reference
    machine; ``raw_ms`` keeps the unit times as the clock read them."""

    samples_ms: List[float] = field(default_factory=list)
    raw_ms: List[float] = field(default_factory=list)
    failed: int = 0
    #: Summed wall / CPU time of the steps (speed readings excluded).
    busy_s: float = 0.0
    cpu_s: float = 0.0
    raw_busy_s: float = 0.0
    raw_cpu_s: float = 0.0
    speeds: List[Speed] = field(default_factory=list)

    @property
    def swing(self) -> float:
        """How much the machine's speed moved during the phase: the
        interquartile range of the wall readings as a share of their
        median."""
        walls = [speed.wall for speed in self.speeds]
        if len(walls) < 4:
            return (max(walls) - min(walls)) / statistics.median(walls)
        low, _, high = statistics.quantiles(walls, n=4)
        return (high - low) / statistics.median(walls)


def run_until(seconds: float,
              step: Callable[[int], Tuple[Optional[List[float]], int]],
              group: int = 1, sum_group: bool = False,
              unit_limit: Optional[int] = None) -> Phase:
    """Closed loop: run ``step(index)`` back to back for ``seconds``.

    ``step`` returns the wall times (ms) of the units it completed — or
    None when the step is itself one unit, timed here — and how many of
    them failed an output check.  Steps come in groups of ``group`` that
    are only measured whole (a pass over a fixed list, so every sample
    holds the same mix); with ``sum_group`` a whole group is one unit,
    the sum of its steps.  Another group is started only while finishing
    it is expected to land closer to the deadline than stopping now
    would, so the phase lasts ``seconds`` give or take half a group —
    or ends early, once ``unit_limit`` units are done.

    A speed reading is taken before the first step and after a step
    whenever ``PROBE_EVERY_S`` has passed; the steps between two
    readings are scaled by their mean."""
    phase = Phase(speeds=[machine_speed()])
    pending: List[Tuple[List[float], float, float]] = []
    step_failed: List[int] = []
    units = 0

    def settle() -> None:
        phase.speeds.append(machine_speed())
        before, after = phase.speeds[-2:]
        for raw, wall_s, cpu_s in pending:
            phase.raw_ms.extend(raw)
            phase.samples_ms.extend(scale(sample, before.wall, after.wall)
                                    for sample in raw)
            phase.busy_s += scale(wall_s, before.wall, after.wall)
            phase.cpu_s += scale(cpu_s, before.cpu, after.cpu)
            phase.raw_busy_s += wall_s
            phase.raw_cpu_s += cpu_s
        pending.clear()

    steps = 0
    begin = probed = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if steps and steps % group == 0 and (
                elapsed + 0.5 * group * elapsed / steps >= seconds
                or (unit_limit is not None and units >= unit_limit)):
            break
        cpu = cpu_seconds()
        start = time.perf_counter()
        own, bad = step(steps)
        wall_s = time.perf_counter() - start
        own = [wall_s * 1000.0] if own is None else own
        pending.append((own, wall_s, cpu_seconds() - cpu))
        units += len(own)
        step_failed.append(bad)
        steps += 1
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            settle()
            probed = time.perf_counter()
    if pending:
        settle()
    phase.failed = sum(step_failed)
    if sum_group:
        starts = range(0, steps, group)
        for samples in (phase.samples_ms, phase.raw_ms):
            samples[:] = [sum(samples[start:start + group])
                          for start in starts]
        phase.failed = sum(1 for start in starts
                           if any(step_failed[start:start + group]))
    return phase


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of one measured phase, contract-shaped."""
    units = len(phase.samples_ms)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "unit_p50_ms": {"value": statistics.median(phase.samples_ms),
                        "unit": "ms"},
        "unit_tail_ms": {"value": percentile(phase.samples_ms,
                                             TAIL_PERCENTILE),
                         "unit": "ms"},
        "units_per_s": {"value": units / phase.busy_s, "unit": "1/s"},
        "cpu_ms_per_unit": {"value": phase.cpu_s * 1000.0 / units,
                            "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def environment() -> Dict[str, object]:
    """What the numbers were measured on.  The garbage collector is left
    at the interpreter default, because users pay it."""
    try:
        load: Optional[Tuple[float, float, float]] = os.getloadavg()
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "loadavg": load, "gc_enabled": gc.isenabled(),
            "gc_threshold": gc.get_threshold()}
