"""Tests for the virtual clock and timing model."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.instrument import TimingModel, VirtualClock


class TestTimingModel:
    def test_paper_default_dwell(self):
        timing = TimingModel.paper_default()
        assert timing.dwell_time_s == pytest.approx(0.050)
        assert timing.cost_per_probe_s == pytest.approx(0.050)

    def test_cost_sums_components(self):
        timing = TimingModel(dwell_time_s=0.05, set_voltage_s=0.002, readout_s=0.003)
        assert timing.cost_per_probe_s == pytest.approx(0.055)

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingModel(dwell_time_s=-0.01)

    @pytest.mark.parametrize("field", ["dwell_time_s", "set_voltage_s", "readout_s"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), np.float64("nan"), np.inf]
    )
    def test_non_finite_costs_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            TimingModel(**{field: value})
        # A model derived from a valid one is checked too.
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TimingModel.paper_default(), **{field: value})


class TestVirtualClock:
    def test_starts_at_zero(self):
        clock = VirtualClock()
        assert clock.elapsed_s == 0.0

    def test_charge_probe_accumulates_dwell(self):
        clock = VirtualClock(TimingModel(dwell_time_s=0.05))
        for _ in range(10):
            clock.charge_probe()
        assert clock.elapsed_s == pytest.approx(0.5)

    def test_advance_arbitrary(self):
        clock = VirtualClock()
        clock.advance(1.25)
        assert clock.elapsed_s == pytest.approx(1.25)

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)

    @pytest.mark.parametrize(
        "seconds", [float("nan"), float("inf"), np.float64("nan"), -np.inf]
    )
    def test_non_finite_advance_rejected(self, seconds):
        clock = VirtualClock()
        clock.advance(0.5)
        with pytest.raises(ConfigurationError):
            clock.advance(seconds)
        assert clock.elapsed_s == 0.5

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(2.0)
        clock.reset()
        assert clock.elapsed_s == 0.0

    def test_no_real_sleep_by_default(self):
        clock = VirtualClock(TimingModel(dwell_time_s=10.0))
        started = time.monotonic()
        clock.charge_probe()  # must return immediately
        assert time.monotonic() - started < 1.0
        assert clock.elapsed_s == pytest.approx(10.0)
