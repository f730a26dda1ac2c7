"""Rational functions in ``s`` — the shape of every circuit transfer function.

A :class:`RationalFunction` is a pair of :class:`~tests.symbolic.poly.Poly`
objects.  Mason's rule produces these directly; binding the small-signal
symbols turns one into a numeric transfer function with poles, zeros, DC
gain, unity-gain frequency and phase margin.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from tests.symbolic.expr import SymbolicError, Expr, Number, as_expr
from tests.symbolic.poly import Poly, _as_poly


class RationalFunction:
    """An immutable ratio of two polynomials in ``s``."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Expr | Number, den: Poly | Expr | Number = 1.0):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise SymbolicError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalFunction objects are immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunction":
        """The zero transfer function."""
        return RationalFunction(0.0, 1.0)

    @staticmethod
    def one() -> "RationalFunction":
        """The unity transfer function."""
        return RationalFunction(1.0, 1.0)

    # -- field operations -------------------------------------------------------

    def __add__(self, other: "RationalFunction | Poly | Expr | Number") -> "RationalFunction":
        other = as_ratfunc(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __radd__(self, other: "Poly | Expr | Number") -> "RationalFunction":
        return self.__add__(other)

    def __sub__(self, other: "RationalFunction | Poly | Expr | Number") -> "RationalFunction":
        return self + (as_ratfunc(other) * RationalFunction(-1.0))

    def __rsub__(self, other: "Poly | Expr | Number") -> "RationalFunction":
        return as_ratfunc(other) - self

    def __mul__(self, other: "RationalFunction | Poly | Expr | Number") -> "RationalFunction":
        other = as_ratfunc(other)
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __rmul__(self, other: "Poly | Expr | Number") -> "RationalFunction":
        return self.__mul__(other)

    def __truediv__(self, other: "RationalFunction | Poly | Expr | Number") -> "RationalFunction":
        other = as_ratfunc(other)
        if other.is_zero():
            raise SymbolicError("division of rational function by zero")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "Poly | Expr | Number") -> "RationalFunction":
        return as_ratfunc(other) / self

    def __neg__(self) -> "RationalFunction":
        return self * RationalFunction(-1.0)

    def __repr__(self) -> str:
        return f"RationalFunction(({self.num!s}) / ({self.den!s}))"

    def is_zero(self) -> bool:
        """True iff the numerator is structurally zero."""
        return self.num.is_zero()

    def free_symbols(self) -> frozenset[str]:
        """Union of symbols in numerator and denominator."""
        return self.num.free_symbols() | self.den.free_symbols()

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> "RationalFunction":
        """Substitute symbols in both polynomials."""
        return RationalFunction(
            self.num.substitute(bindings), self.den.substitute(bindings)
        )

    # -- numeric views -----------------------------------------------------------

    def __call__(self, s_value: complex, bindings: Mapping[str, float] | None = None) -> complex:
        """Evaluate the transfer function at complex frequency ``s_value``."""
        bindings = bindings or {}
        den = self.den(s_value, bindings)
        if den == 0:
            raise SymbolicError(f"pole hit exactly at s = {s_value!r}")
        return self.num(s_value, bindings) / den

    def numeric_coeffs(
        self, bindings: Mapping[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bind all symbols; return (num, den) coefficients, ascending powers.

        The pair is normalized so the denominator's leading nonzero
        coefficient is 1, which makes downstream root finding stable.
        """
        bindings = bindings or {}
        num = self.num.evaluate_coeffs(bindings)
        den = self.den.evaluate_coeffs(bindings)
        nz = np.nonzero(den)[0]
        if len(nz) == 0:
            raise SymbolicError("denominator evaluated to zero polynomial")
        lead = den[nz[-1]]
        return num / lead, den / lead

    def poles(self, bindings: Mapping[str, float] | None = None) -> np.ndarray:
        """Numeric poles (roots of the bound denominator)."""
        return self.den.roots(bindings or {})

    def zeros(self, bindings: Mapping[str, float] | None = None) -> np.ndarray:
        """Numeric zeros (roots of the bound numerator)."""
        if self.is_zero():
            return np.array([], dtype=complex)
        return self.num.roots(bindings or {})

    def dc_gain(self, bindings: Mapping[str, float] | None = None) -> float:
        """Gain at s = 0.  Raises if there is a pole at the origin."""
        bindings = bindings or {}
        den0 = self.den.coeffs[0].evaluate(bindings)
        if den0 == 0.0:
            raise SymbolicError("dc_gain undefined: pole at s = 0")
        num0 = self.num.coeffs[0].evaluate(bindings)
        return num0 / den0

    def frequency_response(
        self,
        frequencies_hz: np.ndarray,
        bindings: Mapping[str, float] | None = None,
    ) -> np.ndarray:
        """Complex response over an array of frequencies in Hz, shape ``(F,)``.

        Bindings are scalars; an array binding raises
        :class:`~tests.symbolic.expr.SymbolicError`.
        """
        if bindings and any(np.ndim(v) for v in bindings.values()):
            raise SymbolicError("frequency_response takes scalar bindings only")
        num, den = self.numeric_coeffs(bindings)
        s = 2j * math.pi * np.asarray(frequencies_hz, dtype=float)
        return np.polyval(num[::-1], s) / np.polyval(den[::-1], s)

    def unity_gain_frequency(
        self,
        bindings: Mapping[str, float] | None = None,
        f_min: float = 1.0,
        f_max: float = 1e12,
    ) -> float | None:
        """Frequency in Hz where |H| crosses 1, or None if it never does.

        Uses a log-spaced scan followed by bisection; adequate for the
        monotone-magnitude region around an opamp's unity crossing.

        The symbolic coefficients are bound *once* and reused across the
        scan and every bisection step (they are deterministic in the
        bindings, so this is exactly the value the per-step re-binding used
        to produce — just without ~60 redundant coefficient tree walks).
        """
        num, den = self.numeric_coeffs(bindings)

        def response_at(freqs: np.ndarray) -> np.ndarray:
            s = 2j * math.pi * np.asarray(freqs, dtype=float)
            return np.polyval(num[::-1], s) / np.polyval(den[::-1], s)

        freqs = np.logspace(math.log10(f_min), math.log10(f_max), 481)
        mags = np.abs(response_at(freqs))
        above = mags >= 1.0
        if not above.any() or above.all():
            return None
        # Find the last crossing from above to below 1.
        crossing_index = None
        for i in range(len(freqs) - 1):
            if above[i] and not above[i + 1]:
                crossing_index = i
        if crossing_index is None:
            return None
        lo, hi = freqs[crossing_index], freqs[crossing_index + 1]
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            mag = abs(complex(response_at(np.array([mid]))[0]))
            if mag >= 1.0:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    def phase_margin_deg(
        self, bindings: Mapping[str, float] | None = None
    ) -> float | None:
        """Phase margin in degrees at the unity-gain crossing, or None."""
        fu = self.unity_gain_frequency(bindings)
        if fu is None:
            return None
        h = complex(self.frequency_response(np.array([fu]), bindings)[0])
        phase_deg = math.degrees(math.atan2(h.imag, h.real))
        return 180.0 + phase_deg


def as_ratfunc(value: "RationalFunction | Poly | Expr | Number") -> RationalFunction:
    """Coerce a polynomial/expression/number to a rational function."""
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(_as_poly(value), Poly.constant(1.0))
