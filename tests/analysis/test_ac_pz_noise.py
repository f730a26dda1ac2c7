"""AC and noise analyses validated against closed forms."""

import math

import numpy as np
import pytest

from repro.analysis import ac_transfer, integrated_output_noise, linearize, solve_dc
from repro.analysis.ac import dc_gain, unity_gain_frequency
from repro.circuit.builder import CircuitBuilder
from repro.constants import KT_ROOM
from repro.errors import AnalysisError
from repro.tech import CMOS025


def rc_lowpass(r=1e3, c=1e-9):
    b = CircuitBuilder("rc")
    b.v("in", "gnd", dc=0.0, ac=1.0)
    b.r("in", "out", r)
    b.c("out", "gnd", c)
    return b.build()


class TestAc:
    def test_rc_lowpass_pole_magnitude(self):
        r, c = 1e3, 1e-9
        lin = linearize(rc_lowpass(r, c))
        fp = 1.0 / (2 * math.pi * r * c)
        h = ac_transfer(lin, "out", np.array([fp]))
        assert abs(h[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-6)
        assert math.degrees(math.atan2(h[0].imag, h[0].real)) == pytest.approx(
            -45.0, abs=0.01
        )

    def test_rc_lowpass_dc_gain_unity(self):
        lin = linearize(rc_lowpass())
        assert dc_gain(lin, "out") == pytest.approx(1.0, rel=1e-9)

    def test_rc_highpass(self):
        b = CircuitBuilder("hp")
        b.v("in", "gnd", ac=1.0)
        b.c("in", "out", 1e-9)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        fp = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        h_low = ac_transfer(lin, "out", np.array([fp / 100]))
        h_high = ac_transfer(lin, "out", np.array([fp * 100]))
        assert abs(h_low[0]) < 0.02
        assert abs(h_high[0]) == pytest.approx(1.0, rel=1e-3)

    def test_common_source_gain_matches_gm_ro(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=0.9, ac=1.0)
        b.nmos("out", "bias", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 20e3)
        ckt = b.build()
        op = solve_dc(ckt)
        m = op.device_ops["m1"]
        lin = linearize(ckt, op)
        gain = dc_gain(lin, "out")
        expected = -m.gm * (1.0 / (m.gds + 1.0 / 20e3))
        assert gain == pytest.approx(expected, rel=1e-6)

    def test_unity_gain_frequency_of_integrator_stage(self):
        # gm stage into a cap: fu = gm/(2 pi C).
        b = CircuitBuilder("gmC")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "gnd", 1e6)
        b.vccs("gnd", "out", "in", "gnd", gm=1e-3)
        b.r("out", "gnd", 1e9)  # large finite DC gain
        b.c("out", "gnd", 1e-12)
        lin = linearize(b.build())
        fu = unity_gain_frequency(lin, "out")
        assert fu == pytest.approx(1e-3 / (2 * math.pi * 1e-12), rel=1e-3)

    def test_phase_margin_of_single_pole_stage_near_90(self):
        b = CircuitBuilder("gmC")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "gnd", 1e6)
        b.vccs("gnd", "out", "in", "gnd", gm=1e-3)
        b.r("out", "gnd", 1e9)
        b.c("out", "gnd", 1e-12)
        lin = linearize(b.build())
        fu = unity_gain_frequency(lin, "out")
        h = ac_transfer(lin, "out", np.array([fu]))[0]
        pm = 180.0 + math.degrees(math.atan2(h.imag, h.real))
        assert pm == pytest.approx(90.0, abs=1.0)

    def test_differential_output(self):
        b = CircuitBuilder("diff")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "p", 1e3)
        b.r("p", "gnd", 1e3)
        b.r("in", "n", 2e3)
        b.r("n", "gnd", 2e3)
        lin = linearize(b.build())
        h = ac_transfer(lin, "p", np.array([1.0]), negative_net="n")
        assert abs(h[0]) == pytest.approx(0.0, abs=1e-12)

    def test_series_rlc_peaks_at_resonance(self):
        # At w0 = 1/sqrt(LC) the output is -j Q, with Q = sqrt(L/C) / R.
        r, ind, c = 10.0, 1e-6, 1e-9
        b = CircuitBuilder("rlc")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "mid", r)
        b.l("mid", "out", ind)
        b.c("out", "gnd", c)
        lin = linearize(b.build())
        f0 = 1.0 / (2 * math.pi * math.sqrt(ind * c))
        h = ac_transfer(lin, "out", np.array([f0]))[0]
        assert abs(h) == pytest.approx(math.sqrt(ind / c) / r, rel=1e-6)
        assert math.degrees(math.atan2(h.imag, h.real)) == pytest.approx(
            -90.0, abs=0.01
        )

    def test_lead_network_matches_closed_form(self):
        # R1 parallel C feeding R2: zero at 1/(R1 C), pole at 1/((R1 || R2) C).
        r1, r2, c = 10e3, 1e3, 1e-9
        b = CircuitBuilder("lead")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "out", r1)
        b.c("in", "out", c)
        b.r("out", "gnd", r2)
        lin = linearize(b.build())
        freqs = np.logspace(2, 8, 13)
        s = 2j * np.pi * freqs
        expected = r2 * (1 + s * r1 * c) / (r1 + r2 + s * r1 * r2 * c)
        h = ac_transfer(lin, "out", freqs)
        np.testing.assert_allclose(h, expected, rtol=1e-9)

    def test_dc_sources_do_not_drive_the_sweep(self):
        b = CircuitBuilder("noac")
        b.v("in", "gnd", dc=1.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        h = ac_transfer(lin, "out", np.array([1.0, 1e6]))
        assert np.all(h == 0.0)

    def test_ground_output_rejected(self):
        lin = linearize(rc_lowpass())
        with pytest.raises(AnalysisError, match="output_net must not be ground"):
            ac_transfer(lin, "gnd", np.array([1.0]))
        with pytest.raises(AnalysisError, match="negative_net must not be ground"):
            ac_transfer(lin, "out", np.array([1.0]), negative_net="gnd")

    def test_sub_unity_gain_has_no_crossing(self):
        # A divider's gain of 1/2 never reaches unity: no fu.
        b = CircuitBuilder("div")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        assert unity_gain_frequency(lin, "out") is None


class TestNoise:
    def test_rc_integrated_noise_is_kt_over_c(self):
        # The classic: total noise of an RC lowpass = sqrt(kT/C), independent of R.
        for r in (1e2, 1e4):
            c = 1e-12
            lin = linearize(rc_lowpass(r, c))
            vn = integrated_output_noise(lin, "out", f_min=1.0, f_max=1e14)
            assert vn == pytest.approx(math.sqrt(KT_ROOM / c), rel=0.02)

    def test_resistor_divider_noise_psd(self):
        # Two equal resistors: output sees R/2 thermal noise.
        b = CircuitBuilder("div")
        b.v("in", "gnd", dc=0.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        from repro.analysis import output_noise_psd

        psd = output_noise_psd(lin, "out", np.array([1e3]))
        assert psd[0] == pytest.approx(4 * KT_ROOM * 500.0, rel=1e-6)

    def test_mosfet_noise_matches_analytic(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=0.9)
        b.nmos("out", "bias", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 20e3)
        ckt = b.build()
        op = solve_dc(ckt)
        m = op.device_ops["m1"]
        lin = linearize(ckt, op)
        from repro.analysis import output_noise_psd
        from repro.tech.mosfet import flicker_noise_psd, thermal_noise_psd

        f = 10e6  # far above the 1/f corner, below output pole
        psd = output_noise_psd(lin, "out", np.array([f]))[0]
        zout = 1.0 / (m.gds + 1.0 / 20e3)
        i_psd = (
            thermal_noise_psd(CMOS025.nmos, m.gm)
            + flicker_noise_psd(CMOS025.nmos, 20e-6, 0.5e-6, m.gm, f)
            + 4 * KT_ROOM / 20e3
        )
        assert psd == pytest.approx(i_psd * zout**2, rel=0.02)
