"""How fast the CPUs a child runs on are, measured while it runs.

On a virtual machine whose CPUs are shared with other guests of the host, the
same code can run a third slower for seconds to minutes at a time, and a vCPU
can be descheduled altogether (steal time).  Both show up in a child's times
as if the program had changed.  SpeedProbe measures both, so that the
benchmark can report times at a fixed reference speed:

- the contention: one thread pinned to each usable CPU times probe_unit(), a
  fixed pure-Python loop of about a millisecond, every INTERVAL_S.  A thread
  that has just woken gets its CPU at once, so the median time of the loop
  follows how fast that CPU runs Python while the child runs;
- the steal: /proc/stat gives each CPU's busy and stolen time over the
  child's life.  The child's share of stolen time is the mean of the CPUs'
  steal fractions, weighted by how busy each CPU was.

Reading.speed is REFERENCE_S over the mean median loop time, times one minus
the stolen share.  A child's times multiplied by it are its times on CPUs that
run the loop in REFERENCE_S and are never descheduled.  The factor depends on
the machine only, so it takes the host's phases out of the times and leaves
every change of the program in them.  The probe costs each CPU about
REFERENCE_S / INTERVAL_S (1%), the same on every run.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from dataclasses import dataclass

INTERVAL_S = 0.1
REFERENCE_S = 0.001  # the time of probe_unit() at reference speed
MAX_CPUS = 8
USER_HZ = os.sysconf("SC_CLK_TCK")


def probe_unit() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


def cpu_times() -> dict[int, tuple[float, float]]:
    """Per CPU, (busy, stolen) seconds since boot from /proc/stat; {} where
    it cannot be read."""
    out = {}
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[:8])
                    out[int(name[3:])] = ((user + nice + system + irq + softirq) / USER_HZ,
                                          steal / USER_HZ)
    except (OSError, ValueError):
        return {}
    return out


def stolen_share(before: dict[int, tuple[float, float]], after: dict[int, tuple[float, float]],
                 wall_s: float) -> float:
    """The busy-weighted mean of the CPUs' steal fractions over wall_s."""
    weighted = busy_total = 0.0
    for cpu in before.keys() & after.keys():
        busy = after[cpu][0] - before[cpu][0]
        steal = after[cpu][1] - before[cpu][1]
        weighted += busy * min(steal / wall_s, 1.0)
        busy_total += busy
    return weighted / busy_total if busy_total > 0 and wall_s > 0 else 0.0


@dataclass
class Reading:
    unit_s: dict[int, float]  # per CPU, the median time of probe_unit()
    stolen: float  # share of the CPUs' time the host took away

    @property
    def speed(self) -> float:
        contention = REFERENCE_S / statistics.fmean(self.unit_s.values()) if self.unit_s else 1.0
        return contention * (1.0 - self.stolen)


class _CpuProbe(threading.Thread):
    def __init__(self, cpu: int, offset_s: float):
        super().__init__(name=f"speed-probe-{cpu}", daemon=True)
        self.cpu = cpu
        self.offset_s = offset_s
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        # the signal that times a child out must reach the main thread's wait
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        os.sched_setaffinity(0, {self.cpu})
        if self.done.wait(self.offset_s):
            return
        while True:
            start = time.perf_counter()
            probe_unit()
            self.samples.append(time.perf_counter() - start)
            if self.done.wait(INTERVAL_S):
                return


class SpeedProbe:
    """Measures every usable CPU (at most MAX_CPUS) from start() to stop()."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        self._threads: list[_CpuProbe] = []
        self._start = 0.0
        self._times: dict[int, tuple[float, float]] = {}

    def start(self) -> None:
        # staggered, so that two probe threads never wait for each other's GIL
        step = INTERVAL_S / len(self.cpus)
        self._threads = [_CpuProbe(cpu, i * step) for i, cpu in enumerate(self.cpus)]
        for thread in self._threads:
            thread.start()
        self._times = cpu_times()
        self._start = time.perf_counter()

    def stop(self) -> Reading:
        """Stop and join every thread and return what they measured."""
        wall = time.perf_counter() - self._start
        stolen = stolen_share(self._times, cpu_times(), wall)
        for thread in self._threads:
            thread.done.set()
        for thread in self._threads:
            thread.join()
        return Reading({t.cpu: statistics.median(t.samples) for t in self._threads if t.samples},
                       stolen)
