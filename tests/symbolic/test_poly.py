"""Unit tests for polynomials in s with symbolic coefficients."""

import numpy as np
import pytest

from tests.symbolic import Poly, Sym, SymbolicError, symbols


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = Poly([1, 2, 0, 0])
        assert p.degree == 1

    def test_zero_poly_has_degree_zero(self):
        assert Poly([0]).degree == 0
        assert Poly([0]).is_zero()

    def test_s_monomial(self):
        assert Poly.s().degree == 1
        assert Poly.s().evaluate_coeffs({}).tolist() == [0.0, 1.0]

    def test_admittance_constructor(self):
        g, c = symbols("g c")
        y = Poly.admittance(g, c)
        coeffs = y.evaluate_coeffs({"g": 1e-3, "c": 1e-12})
        assert coeffs.tolist() == [1e-3, 1e-12]

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Poly([1]).coeffs = ()


class TestArithmetic:
    def test_addition_aligns_degrees(self):
        p = Poly([1, 2]) + Poly([3, 0, 5])
        assert p.evaluate_coeffs({}).tolist() == [4.0, 2.0, 5.0]

    def test_subtraction_cancels(self):
        p = Poly([1, 2, 3])
        assert (p - p).is_zero()

    def test_multiplication_convolves(self):
        # (1 + s)(1 - s) = 1 - s^2
        p = Poly([1, 1]) * Poly([1, -1])
        assert p.evaluate_coeffs({}).tolist() == [1.0, 0.0, -1.0]

    def test_scalar_multiplication(self):
        p = 2 * Poly([1, 3])
        assert p.evaluate_coeffs({}).tolist() == [2.0, 6.0]

    def test_symbolic_coefficients_multiply(self):
        g1, g2, c1, c2 = symbols("g1 g2 c1 c2")
        y1 = Poly.admittance(g1, c1)
        y2 = Poly.admittance(g2, c2)
        product = y1 * y2
        b = {"g1": 2.0, "c1": 3.0, "g2": 5.0, "c2": 7.0}
        # (2 + 3s)(5 + 7s) = 10 + 29 s + 21 s^2
        assert product.evaluate_coeffs(b).tolist() == [10.0, 29.0, 21.0]

    def test_zero_times_anything_is_zero(self):
        assert (Poly([0]) * Poly([1, 2, 3])).is_zero()

    def test_negation(self):
        p = -Poly([1, -2])
        assert p.evaluate_coeffs({}).tolist() == [-1.0, 2.0]


class TestEvaluation:
    def test_call_evaluates_at_s(self):
        p = Poly([1, 2, 1])  # (1 + s)^2
        assert p(2.0, {}) == pytest.approx(9.0)

    def test_call_with_complex_s(self):
        p = Poly([0, 1])  # s
        assert p(1j, {}) == 1j

    def test_roots_of_quadratic(self):
        # s^2 + 3s + 2 = (s+1)(s+2)
        roots = sorted(Poly([2, 3, 1]).roots({}).real)
        assert roots == pytest.approx([-2.0, -1.0])

    def test_roots_with_symbolic_coeffs(self):
        tau = Sym("tau")
        p = Poly([1, tau])  # 1 + tau*s -> root at -1/tau
        roots = p.roots({"tau": 1e-9})
        assert roots[0] == pytest.approx(-1e9)

    def test_roots_of_constant_poly_empty(self):
        assert Poly([5]).roots({}).size == 0

    def test_roots_of_zero_poly_raises(self):
        with pytest.raises(SymbolicError):
            Poly([0]).roots({})

    def test_roots_with_binding_killing_leading_term(self):
        a = Sym("a")
        p = Poly([1, 1, a])  # degree drops when a -> 0
        roots = p.roots({"a": 0.0})
        assert roots == pytest.approx(np.array([-1.0]))


class TestSubstitute:
    def test_substitute_into_coefficients(self):
        g = Sym("g")
        p = Poly([g, g * 2]).substitute({"g": 3})
        assert p.evaluate_coeffs({}).tolist() == [3.0, 6.0]

    def test_free_symbols_union(self):
        a, b = symbols("a b")
        assert Poly([a, b]).free_symbols() == {"a", "b"}
