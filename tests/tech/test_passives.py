"""Unit tests for passive-component models."""

import pytest

from repro.tech import CMOS025, capacitor_mismatch_sigma, switch_on_resistance


class TestCapacitorMatching:
    def test_sigma_decreases_with_size(self):
        s_small = capacitor_mismatch_sigma(CMOS025, 50e-15)
        s_large = capacitor_mismatch_sigma(CMOS025, 200e-15)
        assert s_large == pytest.approx(s_small / 2.0)

    def test_one_square_micron_reference(self):
        # 1 um^2 at 1 fF/um^2 is 1 fF; sigma should equal cap_matching.
        sigma = capacitor_mismatch_sigma(CMOS025, 1e-15)
        assert sigma == pytest.approx(CMOS025.cap_matching)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            capacitor_mismatch_sigma(CMOS025, -1e-15)


class TestSwitches:
    def test_on_resistance_scales_inversely_with_width(self):
        r1 = switch_on_resistance(CMOS025, 1e-6)
        r2 = switch_on_resistance(CMOS025, 2e-6)
        assert r1 == pytest.approx(2 * r2)

    def test_on_resistance_magnitude(self):
        # A 10 um switch in 0.25 um should be tens to hundreds of ohms.
        r = switch_on_resistance(CMOS025, 10e-6)
        assert 10.0 < r < 1000.0

    def test_subthreshold_drive_rejected(self):
        with pytest.raises(ValueError):
            switch_on_resistance(CMOS025, 1e-6, vgs_drive=0.3)

    def test_halving_overdrive_doubles_resistance(self):
        vth = CMOS025.nmos.vth0
        full = switch_on_resistance(CMOS025, 1e-6)
        half_drive = vth + (CMOS025.vdd - vth) / 2
        half = switch_on_resistance(CMOS025, 1e-6, vgs_drive=half_drive)
        assert half == pytest.approx(2 * full)

    def test_zero_sizes_rejected(self):
        with pytest.raises(ValueError, match="width"):
            switch_on_resistance(CMOS025, 0.0)
        with pytest.raises(ValueError, match="capacitance"):
            capacitor_mismatch_sigma(CMOS025, 0.0)
