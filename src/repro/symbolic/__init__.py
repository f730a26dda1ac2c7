"""Lightweight symbolic algebra for circuit transfer functions.

The paper's block-level flow derives *symbolic* transfer functions from
signal-flow graphs via Mason's rule, then plugs in numeric small-signal
values ("formulating the numerical transfer function").  This package
implements just enough computer algebra for that:

* :mod:`repro.symbolic.expr` — immutable expression DAGs over named symbols
  (small-signal parameters such as ``gm1`` or ``cgs2``) with constant folding
  and like-term collection;
* :mod:`repro.symbolic.poly` — polynomials in the Laplace variable ``s``
  whose coefficients are expressions;
* :mod:`repro.symbolic.ratfunc` — rational functions in ``s`` (transfer
  functions) with pole/zero extraction once numeric bindings are supplied.

No external CAS is used; expression swell is bounded because opamp-scale
signal-flow graphs have only a handful of loops.
"""

from repro.symbolic.expr import Expr, Sym, Const, symbols, as_expr
from repro.symbolic.poly import Poly
from repro.symbolic.ratfunc import RationalFunction

__all__ = [
    "Expr",
    "Sym",
    "Const",
    "symbols",
    "as_expr",
    "Poly",
    "RationalFunction",
]
