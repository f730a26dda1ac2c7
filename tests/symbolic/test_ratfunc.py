"""Unit tests for rational functions (transfer functions)."""

import math

import numpy as np
import pytest

from tests.symbolic import Poly, RationalFunction, Sym, SymbolicError, symbols


def single_pole(gain: float, pole_hz: float) -> RationalFunction:
    """H(s) = gain / (1 + s / (2 pi pole_hz))."""
    tau = 1.0 / (2 * math.pi * pole_hz)
    return RationalFunction(Poly([gain]), Poly([1.0, tau]))


class TestConstruction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(SymbolicError):
            RationalFunction(Poly([1]), Poly([0]))

    def test_default_denominator_is_one(self):
        h = RationalFunction(Poly([2]))
        assert h.dc_gain() == pytest.approx(2.0)

    def test_zero_and_one_constructors(self):
        assert RationalFunction.zero().is_zero()
        assert RationalFunction.one().dc_gain() == pytest.approx(1.0)


class TestFieldOps:
    def test_add_same_denominator_keeps_it(self):
        d = Poly([1, 1])
        h = RationalFunction(Poly([1]), d) + RationalFunction(Poly([2]), d)
        assert h.num.evaluate_coeffs({}).tolist() == [3.0]
        assert h.den == d

    def test_add_cross_multiplies(self):
        h = RationalFunction(1, Poly([1, 1])) + RationalFunction(1, Poly([2, 1]))
        # 1/(1+s) + 1/(2+s) = (3+2s)/((1+s)(2+s))
        assert h(0.0) == pytest.approx(1.5)

    def test_multiplication_cascades(self):
        h = single_pole(10.0, 1e6) * single_pole(5.0, 1e7)
        assert h.dc_gain() == pytest.approx(50.0)
        assert len(h.poles()) == 2

    def test_division(self):
        h = RationalFunction(Poly([1, 1])) / RationalFunction(Poly([2, 1]))
        assert h(0.0) == pytest.approx(0.5)

    def test_divide_by_zero_rejected(self):
        with pytest.raises(SymbolicError):
            RationalFunction.one() / RationalFunction.zero()

    def test_subtraction(self):
        h = single_pole(3.0, 1e6) - single_pole(1.0, 1e6)
        assert h.dc_gain() == pytest.approx(2.0)

    def test_negation(self):
        assert (-RationalFunction.one()).dc_gain() == pytest.approx(-1.0)


class TestNumericViews:
    def test_dc_gain(self):
        assert single_pole(42.0, 1e6).dc_gain() == pytest.approx(42.0)

    def test_dc_gain_pole_at_origin_raises(self):
        h = RationalFunction(Poly([1]), Poly([0, 1]))  # 1/s
        with pytest.raises(SymbolicError):
            h.dc_gain()

    def test_poles_and_zeros(self):
        # H = (1 + s) / (1 + s/10)(1 + s/100) with poles at -10, -100.
        h = RationalFunction(Poly([1, 1]), Poly([1, 0.1]) * Poly([1, 0.01]))
        assert sorted(h.poles().real) == pytest.approx([-100.0, -10.0])
        assert h.zeros().real == pytest.approx([-1.0])

    def test_zeros_of_zero_function_empty(self):
        assert RationalFunction.zero().zeros().size == 0

    def test_frequency_response_magnitude_single_pole(self):
        h = single_pole(1.0, 1e3)
        mag_at_pole = abs(h.frequency_response(np.array([1e3]))[0])
        assert mag_at_pole == pytest.approx(1 / math.sqrt(2), rel=1e-6)

    def test_symbolic_pole_binds_late(self):
        gm, cl = symbols("gm cl")
        h = RationalFunction(Poly([gm]), Poly([0, cl]))  # gm / (s cl): integrator
        fu = h.unity_gain_frequency({"gm": 2 * math.pi * 1e-3, "cl": 1e-12})
        assert fu == pytest.approx(1e9, rel=1e-3)

    def test_unity_gain_frequency_single_pole(self):
        # GBW of gain-A single-pole amp is ~A * fp for A >> 1.
        h = single_pole(1000.0, 1e4)
        fu = h.unity_gain_frequency()
        assert fu == pytest.approx(1e7, rel=1e-2)

    def test_unity_gain_none_when_always_below(self):
        assert single_pole(0.5, 1e6).unity_gain_frequency() is None

    def test_phase_margin_integrator_is_90(self):
        h = RationalFunction(Poly([1e9 * 2 * math.pi]), Poly([0, 1]))
        assert h.phase_margin_deg() == pytest.approx(90.0, abs=0.5)

    def test_phase_margin_two_pole(self):
        # pole1 << fu, pole2 at the nominal GBW: the true unity crossing
        # moves down to u = sqrt((sqrt(5)-1)/2) of the second pole, giving
        # PM = 90 - atan(u) = 51.83 degrees (textbook two-pole result).
        a0 = 1e5
        p1 = 10.0  # Hz
        gbw = a0 * p1  # 1 MHz
        h = (
            RationalFunction(Poly([a0]), Poly([1, 1 / (2 * math.pi * p1)]))
            * RationalFunction(Poly([1]), Poly([1, 1 / (2 * math.pi * gbw)]))
        )
        pm = h.phase_margin_deg()
        expected = 90.0 - math.degrees(math.atan(math.sqrt((math.sqrt(5) - 1) / 2)))
        assert pm == pytest.approx(expected, abs=1.0)

    def test_numeric_coeffs_normalizes_leading_den(self):
        h = RationalFunction(Poly([4]), Poly([2, 2]))
        num, den = h.numeric_coeffs()
        assert den[-1] == pytest.approx(1.0)
        assert num[0] / den[0] == pytest.approx(2.0)

    def test_call_at_pole_raises(self):
        h = RationalFunction(Poly([1]), Poly([1, 1]))  # pole at s=-1
        with pytest.raises(SymbolicError):
            h(-1.0)

    def test_unity_gain_frequency_unchanged(self):
        # The coefficient hoisting inside unity_gain_frequency is exact:
        # same crossing, same bisection path, same value.
        gm, ro, cl = symbols("gm ro cl")
        h = RationalFunction(Poly([gm * ro]), Poly([1.0, ro * cl]))
        b = {"gm": 1e-2, "ro": 1e5, "cl": 1e-12}
        fu = h.unity_gain_frequency(b)
        assert fu is not None
        # |H| at the crossing is ~1 and the value is stable/deterministic.
        assert abs(abs(complex(h.frequency_response(np.array([fu]), b)[0])) - 1.0) < 1e-3
        assert fu == h.unity_gain_frequency(b)

    def test_frequency_response_refuses_array_bindings(self):
        gm, cl = symbols("gm cl")
        h = RationalFunction(Poly([gm]), Poly([0, cl]))
        with pytest.raises(SymbolicError, match="scalar bindings"):
            h.frequency_response(
                np.logspace(3, 9, 13), {"gm": np.array([1e-3, 2e-3]), "cl": 1e-12}
            )


class TestSubstitute:
    def test_substitute_binds_symbols(self):
        gm = Sym("gm")
        h = RationalFunction(Poly([gm]), Poly([1])).substitute({"gm": 5})
        assert h.dc_gain() == pytest.approx(5.0)

    def test_free_symbols(self):
        gm, ro = symbols("gm ro")
        h = RationalFunction(Poly([gm]), Poly([1, ro]))
        assert h.free_symbols() == {"gm", "ro"}
