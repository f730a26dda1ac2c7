"""Immutable symbolic expressions over named real-valued symbols.

Expressions form a commutative ring with rational powers restricted to
integer exponents (that is all circuit admittances need).  Construction
performs light normalization:

* constants fold (``2 + 3`` becomes ``5``);
* sums and products flatten and collect like terms
  (``g + g`` becomes ``2*g``, ``g*g`` becomes ``g**2``);
* a deterministic term ordering makes ``str`` output and equality stable.

The goal is predictable, fast evaluation — not full canonical simplification.
Two mathematically equal expressions built along different routes may compare
unequal structurally; tests that need semantic equality evaluate both at
random bindings instead.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Union

Number = Union[int, float]


class SymbolicError(Exception):
    """Raised for invalid symbolic-algebra operations."""


#: Tolerance below which folded constants are treated as exactly zero.
_ZERO_TOL = 0.0  # exact: we only fold genuine float arithmetic


class Expr:
    """Base class for all symbolic expressions.

    Use the module-level helpers (:func:`symbols`, arithmetic operators) to
    build expressions; do not instantiate :class:`Expr` directly.
    """

    __slots__ = ("_hash", "_key")

    # -- construction helpers ------------------------------------------------

    def __add__(self, other: Expr | Number) -> Expr:
        return add(self, as_expr(other))

    def __radd__(self, other: Number) -> Expr:
        return add(as_expr(other), self)

    def __sub__(self, other: Expr | Number) -> Expr:
        return add(self, mul(Const(-1.0), as_expr(other)))

    def __rsub__(self, other: Number) -> Expr:
        return add(as_expr(other), mul(Const(-1.0), self))

    def __mul__(self, other: Expr | Number) -> Expr:
        return mul(self, as_expr(other))

    def __rmul__(self, other: Number) -> Expr:
        return mul(as_expr(other), self)

    def __truediv__(self, other: Expr | Number) -> Expr:
        return mul(self, power(as_expr(other), -1))

    def __rtruediv__(self, other: Number) -> Expr:
        return mul(as_expr(other), power(self, -1))

    def __neg__(self) -> Expr:
        return mul(Const(-1.0), self)

    def __pow__(self, exponent: int) -> Expr:
        return power(self, exponent)

    # -- protocol ------------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        return f"Expr({self!s})"

    # -- interface -----------------------------------------------------------

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        """Numerically evaluate with symbol values taken from ``bindings``."""
        raise NotImplementedError

    def substitute(self, bindings: Mapping[str, "Expr | Number"]) -> Expr:
        """Replace symbols with expressions/numbers; returns a new Expr."""
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        """Names of all symbols appearing in this expression."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        """True iff the expression is the literal constant 0."""
        return isinstance(self, Const) and self.value == 0.0

    def is_one(self) -> bool:
        """True iff the expression is the literal constant 1."""
        return isinstance(self, Const) and self.value == 1.0

    def constant_value(self) -> float | None:
        """The float value if this is a constant, else ``None``."""
        return self.value if isinstance(self, Const) else None


class Const(Expr):
    """A floating-point constant."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SymbolicError(f"Const requires a real number, got {value!r}")
        if not math.isfinite(value):
            raise SymbolicError(f"Const requires a finite number, got {value!r}")
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "_key", ("c", float(value)))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Expr objects are immutable")

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        return self.value

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> Expr:
        return self

    def free_symbols(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)


class Sym(Expr):
    """A named symbol, e.g. a small-signal parameter ``gm1``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise SymbolicError(f"symbol name must be a non-empty str, got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_key", ("s", name))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Expr objects are immutable")

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        try:
            return float(bindings[self.name])
        except KeyError:
            raise SymbolicError(f"no binding provided for symbol {self.name!r}") from None

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> Expr:
        if self.name in bindings:
            return as_expr(bindings[self.name])
        return self

    def free_symbols(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:
        return self.name


class Add(Expr):
    """A sum of two or more terms (flattened, like terms collected)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        # Callers must go through add(); this constructor trusts its input.
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", ("+",) + tuple(t._key for t in terms))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Expr objects are immutable")

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        return math.fsum(t.evaluate(bindings) for t in self.terms)

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> Expr:
        return add(*(t.substitute(bindings) for t in self.terms))

    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.terms:
            out |= t.free_symbols()
        return out

    def __str__(self) -> str:
        parts = []
        for i, t in enumerate(self.terms):
            s = str(t)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s}")
        return "(" + "".join(parts) + ")"


class Mul(Expr):
    """A product of two or more factors (flattened, powers collected)."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_key", ("*",) + tuple(f._key for f in factors))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Expr objects are immutable")

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        out = 1.0
        for f in self.factors:
            out *= f.evaluate(bindings)
        return out

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> Expr:
        return mul(*(f.substitute(bindings) for f in self.factors))

    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for f in self.factors:
            out |= f.free_symbols()
        return out

    def __str__(self) -> str:
        head = ""
        factors = list(self.factors)
        if isinstance(factors[0], Const):
            c = factors[0].value
            if c == -1.0 and len(factors) > 1:
                head = "-"
                factors = factors[1:]
        return head + "*".join(str(f) for f in factors)


class Pow(Expr):
    """An integer power of a base expression."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "_key", ("^", base._key, exponent))
        object.__setattr__(self, "_hash", hash(self._key))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Expr objects are immutable")

    def evaluate(self, bindings: Mapping[str, float]) -> float:
        b = self.base.evaluate(bindings)
        if b == 0.0 and self.exponent < 0:
            raise SymbolicError(
                f"division by zero evaluating {self.base!s}**{self.exponent}"
            )
        return b**self.exponent

    def substitute(self, bindings: Mapping[str, Expr | Number]) -> Expr:
        return power(self.base.substitute(bindings), self.exponent)

    def free_symbols(self) -> frozenset[str]:
        return self.base.free_symbols()

    def __str__(self) -> str:
        if self.exponent < 0:
            return f"{self.base}**({self.exponent})"
        return f"{self.base}**{self.exponent}"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(value: Expr | Number) -> Expr:
    """Coerce a Python number to :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    return Const(value)


def symbols(names: str | Iterable[str]) -> list[Sym]:
    """Create symbols from a whitespace/comma separated string or iterable.

    >>> gm, ro = symbols("gm ro")
    """
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return [Sym(n) for n in names]


def _monomial_split(term: Expr) -> tuple[float, Expr]:
    """Split a term into (numeric coefficient, monomial-without-constant)."""
    if isinstance(term, Const):
        return term.value, ONE
    if isinstance(term, Mul):
        coeff = 1.0
        rest: list[Expr] = []
        for f in term.factors:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                rest.append(f)
        if not rest:
            return coeff, ONE
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Mul(tuple(rest))
    return 1.0, term


def add(*terms: Expr) -> Expr:
    """Build a normalized sum: flatten, collect like terms, fold constants."""
    constant = 0.0
    collected: dict[object, tuple[float, Expr]] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
            continue
        if isinstance(t, Const):
            constant += t.value
            continue
        coeff, mono = _monomial_split(t)
        if mono.is_one():
            constant += coeff
            continue
        key = mono._key
        if key in collected:
            prev_coeff, _ = collected[key]
            collected[key] = (prev_coeff + coeff, mono)
        else:
            collected[key] = (coeff, mono)

    out: list[Expr] = []
    for coeff, mono in collected.values():
        if coeff == 0.0:
            continue
        if coeff == 1.0:
            out.append(mono)
        else:
            out.append(mul(Const(coeff), mono))
    out.sort(key=lambda e: repr(e._key))
    if constant != 0.0:
        out.append(Const(constant))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors: Expr) -> Expr:
    """Build a normalized product: flatten, fold constants, collect powers."""
    constant = 1.0
    powers: dict[object, tuple[Expr, int]] = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
            continue
        if isinstance(f, Const):
            constant *= f.value
            continue
        if isinstance(f, Pow):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, 1
        key = base._key
        if key in powers:
            prev_base, prev_exp = powers[key]
            powers[key] = (prev_base, prev_exp + exp)
        else:
            powers[key] = (base, exp)

    if constant == 0.0:
        return ZERO

    out: list[Expr] = []
    for base, exp in powers.values():
        if exp == 0:
            continue
        if exp == 1:
            out.append(base)
        else:
            out.append(Pow(base, exp))
    out.sort(key=lambda e: repr(e._key))
    if not out:
        return Const(constant)
    # Distribute a non-unit constant into a single Add factor so that
    # expressions like a - a cancel structurally: -1*(x + 1) -> (-x - 1).
    if constant != 1.0 and len(out) == 1 and isinstance(out[0], Add):
        return add(*(mul(Const(constant), t) for t in out[0].terms))
    if constant != 1.0:
        out.insert(0, Const(constant))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def power(base: Expr, exponent: int) -> Expr:
    """Build a normalized integer power of ``base``."""
    if isinstance(exponent, bool) or not isinstance(exponent, int):
        raise SymbolicError(f"exponent must be an int, got {exponent!r}")
    if exponent == 0:
        if base.is_zero():
            raise SymbolicError("0**0 is undefined")
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0.0 and exponent < 0:
            raise SymbolicError("division by constant zero")
        return Const(base.value**exponent)
    if isinstance(base, Pow):
        return power(base.base, base.exponent * exponent)
    if isinstance(base, Mul):
        return mul(*(power(f, exponent) for f in base.factors))
    return Pow(base, exponent)
