"""Technology models: the 0.25 um 3.3 V CMOS process the paper targets.

The paper synthesizes MDACs in a 0.25 um 3.3 V CMOS process using foundry
BSIM models inside a commercial tool.  We substitute a compact square-law
model with velocity saturation and channel-length modulation
(:mod:`repro.tech.mosfet`); the process's passive parameters (capacitor
density, matching and floor) live on :class:`Technology`.  Synthesis trends — gm/Id, intrinsic gain,
f_T scaling — drive the paper's result, and those are captured here; BSIM
minutiae are not needed (see DESIGN.md, substitutions table).
"""

from repro.tech.process import (
    CORNERS,
    MosfetParams,
    Technology,
    CMOS025,
    CMOS025_SLOW,
    resolve_corner,
)
from repro.tech.mosfet import MosfetOperatingPoint, dc_current

__all__ = [
    "CORNERS",
    "MosfetParams",
    "Technology",
    "CMOS025",
    "CMOS025_SLOW",
    "MosfetOperatingPoint",
    "dc_current",
    "resolve_corner",
]
