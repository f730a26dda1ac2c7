"""Transient engine tests against analytic step responses."""

import math

import numpy as np
import pytest

from repro.analysis import simulate_transient
from repro.circuit.builder import CircuitBuilder
from repro.errors import AnalysisError
from repro.tech import CMOS025


def settling_time(result, net: str, target: float, tolerance: float) -> float | None:
    """First time after which ``net`` stays within ``tolerance`` of ``target``.

    None when the waveform's last sample is still outside.
    """
    outside = np.flatnonzero(~(np.abs(result.voltage(net) - target) <= tolerance))
    if len(outside) == 0:
        return float(result.time[0])
    if outside[-1] == len(result.time) - 1:
        return None
    return float(result.time[outside[-1] + 1])


class TestRcStep:
    def make_rc(self, r=1e3, c=1e-9, vstep=1.0):
        b = CircuitBuilder("rc")
        b.v("in", "gnd", dc=0.0, waveform=lambda t: vstep if t > 0 else 0.0)
        b.r("in", "out", r)
        b.c("out", "gnd", c)
        return b.build()

    def test_rc_charging_curve(self):
        r, c = 1e3, 1e-9
        tau = r * c
        result = simulate_transient(self.make_rc(r, c), t_stop=5 * tau, dt=tau / 200)
        expected = 1.0 - np.exp(-result.time / tau)
        error = np.max(np.abs(result.voltage("out") - expected))
        assert error < 5e-3

    def test_final_value(self):
        result = simulate_transient(self.make_rc(), t_stop=10e-6, dt=10e-9)
        assert result.final_value("out") == pytest.approx(1.0, abs=1e-4)

    def test_backward_euler_also_converges(self):
        r, c = 1e3, 1e-9
        tau = r * c
        result = simulate_transient(
            self.make_rc(r, c), t_stop=8 * tau, dt=tau / 400, method="be"
        )
        assert result.final_value("out") == pytest.approx(1.0, abs=1e-3)

    def test_settling_time_measurement(self):
        r, c = 1e3, 1e-9
        tau = r * c
        result = simulate_transient(self.make_rc(r, c), t_stop=12 * tau, dt=tau / 100)
        ts = settling_time(result, "out", target=1.0, tolerance=math.exp(-5))
        # Settling to e^-5 of a unit step takes 5 tau.
        assert ts == pytest.approx(5 * tau, rel=0.05)

    def test_unknown_net_raises(self):
        result = simulate_transient(self.make_rc(), t_stop=1e-6, dt=1e-8, record=["out"])
        with pytest.raises(AnalysisError):
            result.voltage("nope")

    def test_invalid_timestep_rejected(self):
        with pytest.raises(AnalysisError):
            simulate_transient(self.make_rc(), t_stop=1e-6, dt=0.0)
        with pytest.raises(AnalysisError):
            simulate_transient(self.make_rc(), t_stop=1e-6, dt=1e-5)
        with pytest.raises(AnalysisError):
            simulate_transient(self.make_rc(), t_stop=1e-6, dt=1e-8, method="rk4")


class TestRlStep:
    def test_rl_current_rise(self):
        r, l = 1e3, 1e-6
        tau = l / r
        b = CircuitBuilder("rl")
        b.v("in", "gnd", dc=0.0, waveform=lambda t: 1.0 if t > 0 else 0.0)
        b.r("in", "mid", r)
        b.l("mid", "gnd", l)
        result = simulate_transient(b.build(), t_stop=6 * tau, dt=tau / 200)
        # v_mid decays to 0 as the inductor current ramps to 1/R.
        assert result.voltage("mid")[1] > 0.9
        assert result.final_value("mid") == pytest.approx(0.0, abs=5e-3)


class TestSwitching:
    def test_switched_rc_tracks_phase(self):
        # Switch closes for t < 0.5us (charging), then opens (hold).
        b = CircuitBuilder("swrc")
        b.v("in", "gnd", dc=1.0)
        b.switch("in", "out", phase=lambda t: t < 0.5e-6, r_on=100.0)
        b.c("out", "gnd", 100e-12)
        result = simulate_transient(b.build(), t_stop=1e-6, dt=1e-9)
        # tau_on = 10ns, so fully charged by 0.5us; then held.
        mid = result.voltage("out")[len(result.time) // 2]
        assert mid == pytest.approx(1.0, abs=1e-3)
        assert result.final_value("out") == pytest.approx(1.0, abs=1e-2)

    def test_sample_and_hold_action(self):
        # Track a ramp, then hold its value at the switching instant.
        b = CircuitBuilder("sah")
        b.v("in", "gnd", dc=0.0, waveform=lambda t: 1e6 * t)  # 1 V/us ramp
        b.switch("in", "out", phase=lambda t: t < 1e-6, r_on=10.0)
        b.c("out", "gnd", 10e-12)
        result = simulate_transient(b.build(), t_stop=2e-6, dt=2e-9)
        held = result.final_value("out")
        assert held == pytest.approx(1.0, rel=0.01)


class TestNonlinearTransient:
    def test_nmos_source_follower_step(self):
        b = CircuitBuilder("sf", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("in", "gnd", dc=1.5, waveform=lambda t: 1.5 + (0.5 if t > 10e-9 else 0.0))
        b.nmos("vdd", "in", "out", w=50e-6, l=0.25e-6)
        b.i("out", "gnd", dc=200e-6)
        b.c("out", "gnd", 1e-12)
        result = simulate_transient(b.build(), t_stop=100e-9, dt=0.2e-9)
        v0 = result.voltage("out")[0]
        vf = result.final_value("out")
        # Follower tracks the 0.5 V input step with near-unity gain.
        assert vf - v0 == pytest.approx(0.5, abs=0.1)

    def test_slewing_behaviour_of_gm_stage(self):
        # A differential-pair-like stage with finite tail current slews:
        # output ramp limited to I/C, not the linear prediction.
        b = CircuitBuilder("slew", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("step", "gnd", dc=0.6, waveform=lambda t: 0.6 if t < 5e-9 else 2.2)
        b.nmos("out", "step", "gnd", w=4e-6, l=1e-6)
        b.r("vdd", "out", 100e3)
        b.c("out", "gnd", 5e-12)
        result = simulate_transient(b.build(), t_stop=200e-9, dt=0.2e-9)
        v = result.voltage("out")
        # Output starts high (device nearly off), ends low (device on hard).
        assert v[0] > 2.5
        assert result.final_value("out") < 0.7
