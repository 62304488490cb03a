"""NAND timing preset tests."""

import pytest

from repro.common.errors import ConfigError
from repro.flash.timing import MLC_TIMING, NandTiming, TLC_TIMING


def test_timing_presets_sensible():
    assert TLC_TIMING.t_prog > MLC_TIMING.t_prog
    assert TLC_TIMING.endurance < MLC_TIMING.endurance


def test_timing_rejects_nonpositive():
    with pytest.raises(ConfigError):
        NandTiming(t_read=0, t_prog=1, t_erase=1, t_xfer_per_byte=1,
                   endurance=100)
