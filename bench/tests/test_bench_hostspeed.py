import signal
import time

import pytest

from hostspeed import PROBE_REF_S, Block, HostSpeed


def test_factor_is_reference_over_median_probe():
    block = Block()
    block.wall = 2.0
    block.probes = [PROBE_REF_S * k for k in (1.0, 3.0, 2.0)]
    assert block.factor() == pytest.approx(0.5)
    assert block.scaled == pytest.approx(1.0)


def test_block_too_short_to_be_probed_is_probed_after():
    speed = HostSpeed()
    with speed.measure() as block:
        pass
    assert len(block.probes) == 1
    assert speed.probes == block.probes
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probes_run_during_the_block_and_their_time_is_left_out():
    speed = HostSpeed()
    busy = 0.3
    with speed.measure() as block:
        end = time.perf_counter() + busy
        while time.perf_counter() < end:
            pass
    assert len(block.probes) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the loop ran `busy` seconds of wall time, probes included
    assert busy - sum(block.probes) - 0.02 <= block.wall <= busy - sum(block.probes) + 0.02


def test_timer_stops_when_the_block_raises():
    speed = HostSpeed()
    with pytest.raises(KeyError):
        with speed.measure():
            raise KeyError("inside")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
