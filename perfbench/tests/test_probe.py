"""Tests of the speed probe that takes the host's phases out of the times.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from probe import INTERVAL_S, REFERENCE_S, Reading, SpeedProbe, cpu_times, stolen_share  # noqa: E402


def test_stolen_share_weights_each_cpu_by_how_busy_it_was():
    before = {0: (100.0, 10.0), 1: (50.0, 5.0)}
    # cpu0: 8 s busy and 2 s stolen in 10 s; cpu1: 2 s busy and nothing stolen
    after = {0: (108.0, 12.0), 1: (52.0, 5.0)}
    assert stolen_share(before, after, 10.0) == pytest.approx((8 * 0.2 + 2 * 0.0) / 10)


def test_stolen_share_without_readings_is_zero():
    assert stolen_share({}, {}, 5.0) == 0.0
    assert stolen_share({0: (1.0, 0.0)}, {0: (1.0, 0.0)}, 5.0) == 0.0


def test_speed_combines_contention_and_steal():
    # the loop ran at half the reference speed and a quarter of the time was stolen
    reading = Reading({0: 2 * REFERENCE_S, 1: 2 * REFERENCE_S}, 0.25)
    assert reading.speed == pytest.approx(0.5 * 0.75)
    assert Reading({}, 0.0).speed == 1.0


def test_probe_samples_every_cpu_and_stops_its_threads():
    probe = SpeedProbe()
    probe.start()
    time.sleep(3 * INTERVAL_S)  # past every thread's staggered first sample
    reading = probe.stop()
    assert set(reading.unit_s) == set(probe.cpus)
    assert all(t > 0 for t in reading.unit_s.values())
    assert 0.0 <= reading.stolen <= 1.0
    assert reading.speed > 0
    assert not any(thread.is_alive() for thread in probe._threads)


def test_cpu_times_reads_every_cpu_or_nothing():
    times = cpu_times()
    assert times == {} or all(busy >= 0 and stolen >= 0 for busy, stolen in times.values())
