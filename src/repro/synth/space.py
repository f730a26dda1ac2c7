"""Design spaces for opamp sizing, reduced by DPI/SFG-derived relations.

The paper's block flow first draws the circuit's signal-flow graph and
derives the symbolic transfer function via Mason's rule; the resulting
pole/zero relations then *shrink the design space* before any optimization
runs.  For the two-stage Miller opamp those relations are (validated
against the DPI/SFG engine in ``tests/sfg/test_dpi.py``):

* unity-gain bandwidth ``GBW = gm1 / (2 pi Cc)``;
* non-dominant pole ``p2 ~ gm6 / C_L``;
* 60-degree phase margin needs ``p2 >= ~2.2 GBW``, i.e.
  ``gm6 >= 2.2 gm1 C_L / Cc``;
* the nulling resistor cancels the RHP zero at ``gm6 / Cc``.

Given the MDAC's problem (required loaded GBW, load, feedback factor),
these relations bound every variable to about a decade instead of the raw
4-6 decades a blind search would face.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.blocks.mdac import MdacNetwork
from repro.blocks.opamp import TwoStageSizing
from repro.errors import SynthesisError
from repro.specs.stage import MdacProblem
from repro.tech.process import Technology


@dataclass(frozen=True)
class DesignVariable:
    """One optimizable sizing variable with (log-scaled) bounds."""

    name: str
    low: float
    high: float
    log_scale: bool = True

    def __post_init__(self) -> None:
        if self.low <= 0 or self.high <= self.low:
            raise SynthesisError(f"bad bounds for {self.name}: [{self.low}, {self.high}]")

    def from_unit(self, u: float) -> float:
        """Map u in [0,1] to the variable's range."""
        u = min(max(u, 0.0), 1.0)
        if self.log_scale:
            return self.low * (self.high / self.low) ** u
        return self.low + (self.high - self.low) * u

    def to_unit(self, value: float) -> float:
        """Inverse of :meth:`from_unit` (clipped)."""
        value = min(max(value, self.low), self.high)
        if self.log_scale:
            return math.log(value / self.low) / math.log(self.high / self.low)
        return (value - self.low) / (self.high - self.low)


class DesignSpace:
    """An ordered set of design variables plus a sizing factory."""

    def __init__(
        self,
        variables: Sequence[DesignVariable],
        factory: Callable[[dict[str, float]], object],
    ):
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise SynthesisError("duplicate design-variable names")
        self.variables = list(variables)
        self.factory = factory
        #: Per variable: name, low end, log flag, and ``high / low`` (log
        #: scale) or ``high - low`` (linear), as
        #: :meth:`DesignVariable.from_unit` computes them.
        self._maps = [
            (
                v.name,
                v.low,
                v.log_scale,
                v.high / v.low if v.log_scale else v.high - v.low,
            )
            for v in self.variables
        ]

    @property
    def dimension(self) -> int:
        """Number of design variables."""
        return len(self.variables)

    def decode(self, unit_vector: np.ndarray) -> object:
        """Map a [0,1]^d vector to a sizing object.

        Each value is :meth:`DesignVariable.from_unit` of its coordinate,
        bit for bit, on the per-variable constants bound at construction.
        """
        if len(unit_vector) != self.dimension:
            raise SynthesisError("unit vector has wrong dimension")
        values = {}
        for (name, low, log_scale, span), u in zip(
            self._maps, np.asarray(unit_vector, dtype=float).tolist()
        ):
            # min(max(u, 0.0), 1.0), without the builtin calls.
            u = 0.0 if 0.0 > u else u
            u = 1.0 if 1.0 < u else u
            values[name] = low * span**u if log_scale else low + span * u
        return self.factory(values)

    def encode(self, values: dict[str, float]) -> np.ndarray:
        """Map named values back into [0,1]^d."""
        return np.array([v.to_unit(values[v.name]) for v in self.variables])

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform random point in [0,1]^d."""
        return rng.random(self.dimension)


def two_stage_space(problem: MdacProblem, tech: Technology) -> DesignSpace:
    """SFG-reduced design space for a two-stage Miller opamp on this problem.

    Centres every bound on the Mason-rule relations listed in the module
    docstring, spanning roughly a decade around each nominal value.
    """
    network = MdacNetwork.from_spec(problem)
    c_eff = network.c_eff

    # Nominal compensation cap: a fraction of the effective load.
    cc_nom = max(0.4 * c_eff, 0.1e-12)
    # gm1 from GBW = beta-referred closed-loop bandwidth requirement.
    gbw = problem.gbw_hz
    gm1_nom = 2 * math.pi * gbw * cc_nom
    i_tail_nom = gm1_nom / 7.0  # gm/Id ~ 7 at moderate inversion
    # gm6 for the phase-margin relation.
    gm6_nom = 2.2 * gm1_nom * c_eff / cc_nom
    i2_nom = gm6_nom / 7.0
    stage2_ratio_nom = max(i2_nom / i_tail_nom, 0.5)

    # Widths from gm = sqrt(2 kp (W/L) I): W = gm^2 L / (2 kp I).
    l_in = 2 * tech.lmin
    w1_nom = gm1_nom**2 * l_in / (2 * tech.nmos.kp * (i_tail_nom / 2))
    w6_nom = gm6_nom**2 * l_in / (2 * tech.pmos.kp * i2_nom)

    def bounded(nominal: float, lo_factor: float, hi_factor: float, floor: float):
        return max(nominal * lo_factor, floor), max(nominal * hi_factor, floor * 4)

    w1_lo, w1_hi = bounded(w1_nom, 0.3, 6.0, tech.wmin)
    w6_lo, w6_hi = bounded(w6_nom, 0.3, 6.0, tech.wmin)
    it_lo, it_hi = bounded(i_tail_nom, 0.3, 5.0, 5e-6)
    cc_lo, cc_hi = bounded(cc_nom, 0.25, 4.0, 50e-15)

    variables = [
        DesignVariable("w_input", w1_lo, w1_hi),
        DesignVariable("w_load", w1_lo * 0.25, w1_hi),
        DesignVariable("w_stage2", w6_lo, w6_hi),
        DesignVariable("w_tail", max(0.2 * w1_nom, tech.wmin), max(2 * w1_nom, 4 * tech.wmin)),
        DesignVariable("l_input", 1.2 * tech.lmin, 4.0 * tech.lmin),
        DesignVariable("l_mirror", 1.5 * tech.lmin, 5.0 * tech.lmin),
        DesignVariable("i_tail", it_lo, it_hi),
        DesignVariable("stage2_ratio", max(0.3 * stage2_ratio_nom, 0.3), max(4 * stage2_ratio_nom, 1.2)),
        DesignVariable("c_comp", cc_lo, cc_hi),
    ]

    def factory(values: dict[str, float]) -> TwoStageSizing:
        return TwoStageSizing(
            w_input=values["w_input"],
            w_load=values["w_load"],
            w_stage2=values["w_stage2"],
            w_tail=values["w_tail"],
            l_input=values["l_input"],
            l_mirror=values["l_mirror"],
            i_tail=values["i_tail"],
            stage2_ratio=values["stage2_ratio"],
            c_comp=values["c_comp"],
        )

    return DesignSpace(variables, factory)
