"""Polynomials in the Laplace variable ``s`` with symbolic coefficients.

A :class:`Poly` stores coefficients in ascending powers of ``s``:
``Poly([a0, a1, a2])`` represents ``a0 + a1*s + a2*s**2``.  Coefficients are
:class:`tests.symbolic.expr.Expr` instances, so a polynomial can carry
small-signal parameters symbolically and be bound to numbers later with
:meth:`Poly.evaluate_coeffs`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from tests.symbolic.expr import SymbolicError, Expr, Number, ZERO, ONE, as_expr


class Poly:
    """An immutable polynomial in ``s`` over symbolic coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Expr | Number]):
        normalized = [as_expr(c) for c in coeffs]
        while len(normalized) > 1 and normalized[-1].is_zero():
            normalized.pop()
        if not normalized:
            normalized = [ZERO]
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly objects are immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def constant(value: Expr | Number) -> "Poly":
        """The degree-0 polynomial ``value``."""
        return Poly([as_expr(value)])

    @staticmethod
    def s() -> "Poly":
        """The monomial ``s``."""
        return Poly([ZERO, ONE])

    @staticmethod
    def admittance(conductance: Expr | Number, capacitance: Expr | Number) -> "Poly":
        """The admittance polynomial ``g + s*c`` of a parallel RC branch."""
        return Poly([as_expr(conductance), as_expr(capacitance)])

    # -- basic properties --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial (0 for constants, including zero)."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True iff this is the structural zero polynomial."""
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero()

    def free_symbols(self) -> frozenset[str]:
        """Union of symbols over all coefficients."""
        out: frozenset[str] = frozenset()
        for c in self.coeffs:
            out |= c.free_symbols()
        return out

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Poly | Expr | Number") -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else ZERO
            b = other.coeffs[i] if i < len(other.coeffs) else ZERO
            out.append(a + b)
        return Poly(out)

    def __radd__(self, other: "Expr | Number") -> "Poly":
        return self.__add__(other)

    def __sub__(self, other: "Poly | Expr | Number") -> "Poly":
        return self + (_as_poly(other) * Poly.constant(-1.0))

    def __rsub__(self, other: "Expr | Number") -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other: "Poly | Expr | Number") -> "Poly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly([ZERO])
        out: list[Expr] = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other: "Expr | Number") -> "Poly":
        return self.__mul__(other)

    def __neg__(self) -> "Poly":
        return self * Poly.constant(-1.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self!s})"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero() and len(self.coeffs) > 1:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*s")
            else:
                parts.append(f"({c})*s**{i}")
        return " + ".join(parts) if parts else "0"

    # -- evaluation ----------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> "Poly":
        """Substitute symbols in every coefficient."""
        return Poly([c.substitute(bindings) for c in self.coeffs])

    def evaluate_coeffs(self, bindings: Mapping[str, float]) -> np.ndarray:
        """Bind all symbols, returning numeric coefficients (ascending powers)."""
        return np.array([c.evaluate(bindings) for c in self.coeffs], dtype=float)

    def __call__(self, s_value: complex, bindings: Mapping[str, float]) -> complex:
        """Evaluate the polynomial at a complex frequency ``s_value``."""
        coeffs = self.evaluate_coeffs(bindings)
        return complex(np.polyval(coeffs[::-1], s_value))

    def roots(self, bindings: Mapping[str, float]) -> np.ndarray:
        """Numeric roots after binding all symbols (ascending-power input)."""
        coeffs = self.evaluate_coeffs(bindings)
        # Strip trailing (highest-order) zeros that would confuse np.roots.
        nonzero = np.nonzero(coeffs)[0]
        if len(nonzero) == 0:
            raise SymbolicError("cannot take roots of the zero polynomial")
        coeffs = coeffs[: nonzero[-1] + 1]
        if len(coeffs) == 1:
            return np.array([], dtype=complex)
        return np.roots(coeffs[::-1])


def _as_poly(value: "Poly | Expr | Number") -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)
