"""Sizing parameter sets for the opamp topologies.

These dataclasses are the *design vectors* block synthesis optimizes.  All
geometry is in meters, currents in amps, capacitance in farads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SpecificationError


@dataclass(frozen=True)
class TwoStageSizing:
    """Two-stage Miller-compensated opamp (NMOS input pair).

    Stage 1: NMOS diff pair with PMOS mirror load; stage 2: PMOS
    common-source with NMOS current-sink; Miller cap with nulling resistor.
    """

    #: Input-pair device width [m].
    w_input: float = 40e-6
    #: First-stage PMOS mirror width [m].
    w_load: float = 20e-6
    #: Second-stage PMOS width [m].
    w_stage2: float = 120e-6
    #: Tail / sink mirror unit width [m].
    w_tail: float = 20e-6
    #: Input-pair channel length [m].
    l_input: float = 0.5e-6
    #: Mirror/sink channel length [m].
    l_mirror: float = 0.5e-6
    #: Bias (tail) current [A].
    i_tail: float = 400e-6
    #: Second-stage current as a multiple of the tail current.
    stage2_ratio: float = 2.0
    #: Miller compensation capacitor [F].
    c_comp: float = 1.0e-12

    def __post_init__(self) -> None:
        _check_positive(self)

    @property
    def i_stage2(self) -> float:
        """Second-stage quiescent current [A]."""
        return self.i_tail * self.stage2_ratio

    @property
    def supply_current(self) -> float:
        """Nominal signal-path supply current (tail + stage 2) [A]."""
        return self.i_tail + self.i_stage2


@dataclass(frozen=True)
class FoldedCascodeSizing:
    """Folded-cascode OTA (NMOS input pair, PMOS folding branches)."""

    #: Input-pair device width [m].
    w_input: float = 60e-6
    #: PMOS current-source width (sources input + fold branch) [m].
    w_source: float = 80e-6
    #: PMOS cascode width [m].
    w_cascode_p: float = 40e-6
    #: NMOS cascode width [m].
    w_cascode_n: float = 30e-6
    #: NMOS mirror (fold sink) width [m].
    w_mirror: float = 30e-6
    #: Input-pair channel length [m].
    l_input: float = 0.35e-6
    #: Current-source / mirror channel length [m].
    l_mirror: float = 0.5e-6
    #: Tail current of the input pair [A].
    i_tail: float = 400e-6
    #: Fold-branch current as a fraction of half the tail current.
    fold_ratio: float = 1.0

    def __post_init__(self) -> None:
        _check_positive(self)

    @property
    def i_fold(self) -> float:
        """Current in each folded branch [A]."""
        return 0.5 * self.i_tail * self.fold_ratio

    @property
    def supply_current(self) -> float:
        """Nominal signal-path supply current (tail + two folds) [A]."""
        return self.i_tail + 2.0 * self.i_fold


def _check_positive(sizing) -> None:
    for f in fields(sizing):
        value = getattr(sizing, f.name)
        # ``value != value`` refuses NaN, which ``value <= 0`` lets through.
        if isinstance(value, (int, float)) and (value <= 0 or value != value):
            raise SpecificationError(f"{type(sizing).__name__}.{f.name} must be positive")
