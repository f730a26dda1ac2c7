"""DC operating-point solver tests against hand-calculable circuits."""

import math

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.errors import ConvergenceError
from repro.analysis import solve_dc
from repro.tech import CMOS025


class TestLinearCircuits:
    def test_voltage_divider(self):
        b = CircuitBuilder("divider")
        b.v("in", "gnd", dc=3.3)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 2e3)
        sol = solve_dc(b.build())
        assert sol.voltages["out"] == pytest.approx(3.3 * 2 / 3, rel=1e-9)

    def test_solutions_compare_by_identity(self):
        b = CircuitBuilder("divider")
        b.v("in", "gnd", dc=3.3)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 2e3)
        circuit = b.build()
        first, second = solve_dc(circuit), solve_dc(circuit)
        assert first == first
        assert (first == second) is False

    def test_source_current_through_divider(self):
        b = CircuitBuilder("divider")
        v = b.v("in", "gnd", dc=3.0)
        b.r("in", "gnd", 1e3)
        sol = solve_dc(b.build())
        # 3 mA delivered by the source.
        assert sol.supply_current(v.name) == pytest.approx(3e-3, rel=1e-9)

    def test_current_source_into_resistor(self):
        b = CircuitBuilder("isrc")
        b.i("gnd", "out", dc=1e-3)  # pushes current into node out
        b.r("out", "gnd", 2e3)
        sol = solve_dc(b.build())
        assert sol.voltages["out"] == pytest.approx(2.0, rel=1e-9)

    def test_vcvs_amplifier(self):
        b = CircuitBuilder("vcvs")
        b.v("in", "gnd", dc=0.1)
        b.r("in", "gnd", 1e6)
        b.vcvs("out", "gnd", "in", "gnd", gain=50.0)
        b.r("out", "gnd", 1e3)
        sol = solve_dc(b.build())
        assert sol.voltages["out"] == pytest.approx(5.0, rel=1e-9)

    def test_vccs(self):
        b = CircuitBuilder("vccs")
        b.v("in", "gnd", dc=1.0)
        b.r("in", "gnd", 1e6)
        b.vccs("gnd", "out", "in", "gnd", gm=1e-3)  # 1 mA into out
        b.r("out", "gnd", 1e3)
        sol = solve_dc(b.build())
        assert sol.voltages["out"] == pytest.approx(1.0, rel=1e-9)

    def test_inductor_is_dc_short(self):
        b = CircuitBuilder("rl")
        b.v("in", "gnd", dc=1.0)
        b.l("in", "out", 1e-6)
        b.r("out", "gnd", 1e3)
        sol = solve_dc(b.build())
        assert sol.voltages["out"] == pytest.approx(1.0, rel=1e-9)
        assert sol.branch_currents["l1"] == pytest.approx(1e-3, rel=1e-9)

    def test_capacitor_is_dc_open(self):
        b = CircuitBuilder("rc")
        b.v("in", "gnd", dc=2.0)
        b.r("in", "out", 1e3)
        b.c("out", "gnd", 1e-12)
        b.r("out", "gnd", 1e6)
        sol = solve_dc(b.build())
        # No current through the cap: divider 1k/1M.
        assert sol.voltages["out"] == pytest.approx(2.0 * 1e6 / (1e6 + 1e3), rel=1e-9)

    def test_wheatstone_bridge(self):
        b = CircuitBuilder("bridge")
        b.v("top", "gnd", dc=1.0)
        b.r("top", "a", 1e3)
        b.r("top", "b", 2e3)
        b.r("a", "gnd", 2e3)
        b.r("b", "gnd", 1e3)
        b.r("a", "b", 5e3)
        sol = solve_dc(b.build())
        # Solved by hand: nodal equations with bridge resistor.
        va, vb = sol.voltages["a"], sol.voltages["b"]
        # KCL check at node a: (va-1)/1k + va/2k + (va-vb)/5k = 0
        assert (va - 1) / 1e3 + va / 2e3 + (va - vb) / 5e3 == pytest.approx(0.0, abs=1e-12)
        assert (vb - 1) / 2e3 + vb / 1e3 + (vb - va) / 5e3 == pytest.approx(0.0, abs=1e-12)


class TestNonlinearCircuits:
    def test_diode_connected_nmos(self):
        b = CircuitBuilder("diode", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.r("vdd", "d", 10e3)
        b.nmos("d", "d", "gnd", w=10e-6, l=1e-6)
        sol = solve_dc(b.build())
        vgs = sol.voltages["d"]
        # Device must be on, in saturation (diode connected), below VDD.
        assert CMOS025.nmos.vth0 < vgs < 3.3
        op = sol.device_ops["m1"]
        assert op.region == "saturation"
        # Current through resistor equals device current.
        i_r = (3.3 - vgs) / 10e3
        assert op.ids == pytest.approx(i_r, rel=1e-3)

    def test_common_source_amplifier_bias(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=0.9)
        b.nmos("out", "bias", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 5e3)
        sol = solve_dc(b.build())
        assert 0.0 < sol.voltages["out"] < 3.3
        assert sol.device_ops["m1"].gm > 0

    def test_nmos_current_mirror(self):
        b = CircuitBuilder("mirror", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.i("vdd", "ref", dc=100e-6)  # reference current into diode device
        b.nmos("ref", "ref", "gnd", w=10e-6, l=1e-6, name="mref")
        b.nmos("out", "ref", "gnd", w=20e-6, l=1e-6, name="mout")
        b.r("vdd", "out", 5e3)
        sol = solve_dc(b.build())
        iout = sol.device_ops["mout"].ids
        # 2x mirror ratio, allow CLM error.
        assert iout == pytest.approx(200e-6, rel=0.1)

    def test_pmos_common_source(self):
        b = CircuitBuilder("csp", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=2.2)  # vgs = -1.1 for the PMOS
        b.pmos("out", "bias", "vdd", "vdd", w=40e-6, l=0.5e-6)
        b.r("out", "gnd", 5e3)
        sol = solve_dc(b.build())
        assert 0.0 < sol.voltages["out"] < 3.3
        assert sol.device_ops["m1"].ids < 0  # current out of PMOS drain

    def test_five_transistor_ota_bias(self):
        tech = CMOS025
        b = CircuitBuilder("ota5", tech=tech)
        b.v("vdd", "gnd", dc=3.3)
        b.v("vip", "gnd", dc=1.2)
        b.v("vim", "gnd", dc=1.2)
        b.i("vdd", "bias", dc=50e-6)
        b.nmos("bias", "bias", "gnd", w=10e-6, l=1e-6, name="mb1")
        b.nmos("tail", "bias", "gnd", w=20e-6, l=1e-6, name="mb2")
        b.nmos("x", "vip", "tail", w=20e-6, l=0.5e-6, name="m1")
        b.nmos("out", "vim", "tail", w=20e-6, l=0.5e-6, name="m2")
        b.pmos("x", "x", "vdd", "vdd", w=20e-6, l=0.5e-6, name="m3")
        b.pmos("out", "x", "vdd", "vdd", w=20e-6, l=0.5e-6, name="m4")
        sol = solve_dc(b.build())
        # Balanced inputs: output should sit near the mirror voltage vx.
        assert sol.voltages["out"] == pytest.approx(sol.voltages["x"], abs=0.2)
        # Tail current splits evenly.
        i1 = sol.device_ops["m1"].ids
        i2 = sol.device_ops["m2"].ids
        assert i1 == pytest.approx(i2, rel=0.05)
        assert i1 + i2 == pytest.approx(100e-6, rel=0.15)


class TestSolverRobustness:
    def test_warm_start_from_previous_solution(self):
        b = CircuitBuilder("warm", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.r("vdd", "d", 10e3)
        b.nmos("d", "d", "gnd", w=10e-6, l=1e-6)
        ckt = b.build()
        cold = solve_dc(ckt)
        warm = solve_dc(ckt, x0=cold.x)
        assert warm.iterations <= cold.iterations
        assert warm.voltages["d"] == pytest.approx(cold.voltages["d"], abs=1e-9)

    def test_initial_guess_by_net(self):
        b = CircuitBuilder("guess", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.r("vdd", "d", 10e3)
        b.nmos("d", "d", "gnd", w=10e-6, l=1e-6)
        sol = solve_dc(b.build(), initial_guess={"d": 0.8, "vdd": 3.3})
        assert sol.voltages["d"] > 0.5

    def test_kcl_residual_is_tiny(self):
        b = CircuitBuilder("res", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=1.0)
        b.nmos("out", "bias", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 5e3)
        sol = solve_dc(b.build())
        assert sol.residual < 1e-9

    def test_bad_x0_size_rejected(self):
        import numpy as np

        b = CircuitBuilder("divider")
        b.v("in", "gnd", dc=3.3)
        b.r("in", "gnd", 1e3)
        with pytest.raises(ConvergenceError):
            solve_dc(b.build(), x0=np.zeros(99))
