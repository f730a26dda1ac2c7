"""Property-based tests: the symbolic engine must behave like a real ring.

Semantic equality is checked by evaluating both sides at random bindings,
since structural normalization is deliberately not canonical.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.symbolic import Poly, RationalFunction, Sym
from tests.symbolic.expr import Expr, add, mul

SYMBOL_NAMES = ("x", "y", "z")


@st.composite
def exprs(draw, max_depth: int = 3) -> Expr:
    """Random small expressions over the symbols x, y, z."""
    if max_depth == 0:
        kind = draw(st.sampled_from(["const", "sym"]))
    else:
        kind = draw(st.sampled_from(["const", "sym", "add", "mul", "pow"]))
    if kind == "const":
        return Expr.__new__(Expr) if False else _const(draw)
    if kind == "sym":
        return Sym(draw(st.sampled_from(SYMBOL_NAMES)))
    if kind == "add":
        return add(draw(exprs(max_depth=max_depth - 1)), draw(exprs(max_depth=max_depth - 1)))
    if kind == "mul":
        return mul(draw(exprs(max_depth=max_depth - 1)), draw(exprs(max_depth=max_depth - 1)))
    base = draw(exprs(max_depth=max_depth - 1))
    return base ** draw(st.integers(min_value=1, max_value=3))


def _const(draw):
    from tests.symbolic import Const

    return Const(draw(st.integers(min_value=-4, max_value=4)))


BINDINGS = st.fixed_dictionaries(
    {name: st.floats(min_value=-3.0, max_value=3.0, allow_nan=False) for name in SYMBOL_NAMES}
)


def _agree(a: Expr, b: Expr, bindings) -> bool:
    va = a.evaluate(bindings)
    vb = b.evaluate(bindings)
    scale = max(abs(va), abs(vb), 1.0)
    return math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9 * scale)


@settings(max_examples=150, deadline=None)
@given(exprs(), exprs(), BINDINGS)
def test_addition_commutes(a, b, bindings):
    assert _agree(a + b, b + a, bindings)


@settings(max_examples=150, deadline=None)
@given(exprs(), exprs(), BINDINGS)
def test_multiplication_commutes(a, b, bindings):
    assert _agree(a * b, b * a, bindings)


@settings(max_examples=100, deadline=None)
@given(exprs(), exprs(), exprs(), BINDINGS)
def test_addition_associates(a, b, c, bindings):
    assert _agree((a + b) + c, a + (b + c), bindings)


@settings(max_examples=100, deadline=None)
@given(exprs(), exprs(), exprs(), BINDINGS)
def test_distributivity(a, b, c, bindings):
    assert _agree(a * (b + c), a * b + a * c, bindings)


@settings(max_examples=100, deadline=None)
@given(exprs(), BINDINGS)
def test_subtracting_self_is_zero(a, bindings):
    assert (a - a).evaluate(bindings) == 0.0


@settings(max_examples=100, deadline=None)
@given(exprs(), BINDINGS)
def test_structural_equality_implies_semantic(a, bindings):
    rebuilt = a + 0
    assert a == rebuilt
    assert _agree(a, rebuilt, bindings)


@st.composite
def polys(draw, max_degree: int = 3) -> Poly:
    n = draw(st.integers(min_value=1, max_value=max_degree + 1))
    coeffs = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)]
    return Poly(coeffs)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_poly_product_evaluates_like_scalar_product(p, q, s):
    lhs = (p * q)(s, {})
    rhs = p(s, {}) * q(s, {})
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_poly_sum_evaluates_like_scalar_sum(p, q, s):
    lhs = (p + q)(s, {})
    rhs = p(s, {}) + q(s, {})
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=100, deadline=None)
@given(polys(), st.floats(min_value=-0.5, max_value=2, allow_nan=False))
def test_ratfunc_add_inverse(p, s):
    # Denominator pole sits at s = -1; keep evaluation away from it.
    h = RationalFunction(p, Poly([1, 1]))
    diff = h - h
    assert abs(diff(s)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), st.floats(min_value=-0.9, max_value=0.9, allow_nan=False))
def test_ratfunc_mul_matches_pointwise(p, q, s):
    h1 = RationalFunction(p, Poly([1, 1]))
    h2 = RationalFunction(q, Poly([2, 1]))
    lhs = (h1 * h2)(s)
    rhs = h1(s) * h2(s)
    assert math.isclose(abs(lhs), abs(rhs), rel_tol=1e-9, abs_tol=1e-9)
