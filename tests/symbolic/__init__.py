"""Lightweight symbolic algebra for circuit transfer functions: a test oracle.

The paper's block-level flow derives *symbolic* transfer functions from
signal-flow graphs via Mason's rule, then plugs in numeric small-signal
values ("formulating the numerical transfer function").  This package
implements just enough computer algebra for that:

* :mod:`tests.symbolic.expr` — immutable expression DAGs over named symbols
  (small-signal parameters such as ``gm1`` or ``cgs2``) with constant folding
  and like-term collection;
* :mod:`tests.symbolic.poly` — polynomials in the Laplace variable ``s``
  whose coefficients are expressions;
* :mod:`tests.symbolic.ratfunc` — rational functions in ``s`` (transfer
  functions) with pole/zero extraction once numeric bindings are supplied.

No external CAS is used; expression swell is bounded because opamp-scale
signal-flow graphs have only a handful of loops.  It is the algebra of the
signal-flow-graph test oracle :mod:`tests.sfg`.
"""

from tests.symbolic.expr import Expr, Sym, Const, SymbolicError, symbols, as_expr
from tests.symbolic.poly import Poly
from tests.symbolic.ratfunc import RationalFunction

__all__ = [
    "Expr",
    "Sym",
    "Const",
    "symbols",
    "as_expr",
    "Poly",
    "RationalFunction",
    "SymbolicError",
]
