"""Unit tests for the symbolic expression engine."""

import math

import pytest

from tests.symbolic import Const, Sym, SymbolicError, symbols
from tests.symbolic.expr import ONE, ZERO, add, mul, power


class TestConstruction:
    def test_const_value(self):
        assert Const(3).value == 3.0
        assert Const(2.5).value == 2.5

    def test_const_rejects_non_numbers(self):
        with pytest.raises(SymbolicError):
            Const("x")
        with pytest.raises(SymbolicError):
            Const(True)

    def test_const_rejects_nan_and_inf(self):
        with pytest.raises(SymbolicError):
            Const(float("nan"))
        with pytest.raises(SymbolicError):
            Const(float("inf"))

    def test_symbol_name(self):
        assert Sym("gm").name == "gm"

    def test_symbol_rejects_empty_name(self):
        with pytest.raises(SymbolicError):
            Sym("")

    def test_symbols_helper_splits_names(self):
        gm, ro, cl = symbols("gm ro cl")
        assert (gm.name, ro.name, cl.name) == ("gm", "ro", "cl")

    def test_symbols_helper_accepts_commas(self):
        names = [s.name for s in symbols("a, b, c")]
        assert names == ["a", "b", "c"]

    def test_expressions_are_immutable(self):
        with pytest.raises(AttributeError):
            Sym("x").name = "y"
        with pytest.raises(AttributeError):
            Const(1.0).value = 2.0


class TestFolding:
    def test_constant_addition_folds(self):
        assert (Const(2) + Const(3)).constant_value() == 5.0

    def test_constant_multiplication_folds(self):
        assert (Const(2) * Const(3)).constant_value() == 6.0

    def test_add_zero_is_identity(self):
        x = Sym("x")
        assert x + 0 == x
        assert 0 + x == x

    def test_mul_one_is_identity(self):
        x = Sym("x")
        assert x * 1 == x
        assert 1 * x == x

    def test_mul_zero_annihilates(self):
        x = Sym("x")
        assert (x * 0).is_zero()
        assert (0 * x).is_zero()

    def test_like_terms_collect(self):
        x = Sym("x")
        assert x + x == 2 * x
        assert 2 * x + 3 * x == 5 * x

    def test_cancelling_terms_give_zero(self):
        x = Sym("x")
        assert (x - x).is_zero()
        assert (2 * x - x - x).is_zero()

    def test_powers_collect(self):
        x = Sym("x")
        assert x * x == x**2
        assert x**2 * x**3 == x**5

    def test_power_of_power_flattens(self):
        x = Sym("x")
        assert (x**2) ** 3 == x**6

    def test_power_distributes_over_products(self):
        x, y = symbols("x y")
        assert (x * y) ** 2 == x**2 * y**2

    def test_self_division_cancels(self):
        x = Sym("x")
        assert (x / x).is_one()

    def test_pow_zero_is_one(self):
        assert (Sym("x") ** 0).is_one()

    def test_zero_pow_zero_rejected(self):
        with pytest.raises(SymbolicError):
            power(ZERO, 0)

    def test_negative_power_of_zero_rejected(self):
        with pytest.raises(SymbolicError):
            power(ZERO, -1)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(SymbolicError):
            power(Sym("x"), 0.5)  # type: ignore[arg-type]


class TestEvaluation:
    def test_simple_polynomial(self):
        x, y = symbols("x y")
        expr = 3 * x**2 + 2 * x * y - 7
        assert expr.evaluate({"x": 2.0, "y": 1.5}) == pytest.approx(
            3 * 4 + 2 * 2 * 1.5 - 7
        )

    def test_division_evaluates(self):
        gm, ro = symbols("gm ro")
        gain = gm * ro / (1 + gm * ro)
        val = gain.evaluate({"gm": 1e-3, "ro": 1e5})
        assert val == pytest.approx(100.0 / 101.0)

    def test_missing_binding_raises(self):
        with pytest.raises(SymbolicError, match="gm"):
            Sym("gm").evaluate({})

    def test_divide_by_zero_binding_raises(self):
        x = Sym("x")
        with pytest.raises(SymbolicError):
            (1 / x).evaluate({"x": 0.0})


class TestSubstitution:
    def test_substitute_number(self):
        x, y = symbols("x y")
        expr = (x + y).substitute({"x": 2.0})
        assert expr == y + 2

    def test_substitute_expression(self):
        x, y, z = symbols("x y z")
        expr = (x * y).substitute({"x": z + 1})
        assert expr.evaluate({"y": 2.0, "z": 3.0}) == pytest.approx(8.0)

    def test_substitute_leaves_others_alone(self):
        x = Sym("x")
        assert x.substitute({"y": 5}) == x


class TestFreeSymbols:
    def test_const_has_no_symbols(self):
        assert Const(4).free_symbols() == frozenset()

    def test_nested_expression_symbols(self):
        x, y, z = symbols("x y z")
        expr = (x + y) * z**2 / (x + 1)
        assert expr.free_symbols() == {"x", "y", "z"}


class TestStr:
    def test_const_str(self):
        assert str(Const(3)) == "3"
        assert str(Const(2.5)) == "2.5"

    def test_negative_term_renders_with_minus(self):
        x, y = symbols("x y")
        s = str(x - y)
        assert " - " in s or "-" in s

    def test_str_roundtrips_through_eval_stability(self):
        # str() must be deterministic for equal expressions.
        x, y = symbols("x y")
        a = x * y + y * x
        b = 2 * (x * y)
        assert str(a) == str(b)


class TestHashEq:
    def test_structural_equality_is_order_insensitive(self):
        x, y = symbols("x y")
        assert x + y == y + x
        assert x * y == y * x

    def test_equal_expressions_share_hash(self):
        x, y = symbols("x y")
        assert hash(x + y) == hash(y + x)

    def test_usable_as_dict_keys(self):
        x = Sym("x")
        d = {x + 1: "a"}
        assert d[1 + x] == "a"
