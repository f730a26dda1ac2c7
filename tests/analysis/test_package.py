"""``solve_dc`` packages its solution as the per-device walk did.

The bound program builds every operating point from the constants bound
at :meth:`~repro.analysis.template.BoundMna.rebind`, in one model loop, and
without the frozen dataclass's ``__init__``.  ``package_reference.py``
keeps the packaging it replaced.  Over the netlists of
``test_mna_single_path.py`` (all nine element kinds, ``mult`` up to 3),
the voltages, branch currents and operating points must equal it field
for field by IEEE bits, with the same key order, type and pickle bytes.
"""

import dataclasses
import math
import pickle
import struct

from hypothesis import given, settings

from repro.analysis.dc import solve_dc
from repro.analysis.mna import MnaLayout
from repro.circuit.builder import CircuitBuilder
from repro.errors import ReproError
from repro.tech import CMOS025
from repro.tech.mosfet import MosfetOperatingPoint
from tests.analysis import package_reference
from tests.analysis.test_mna_single_path import netlists


def _bits(value):
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def _fields(op) -> list:
    return [_bits(getattr(op, f.name)) for f in dataclasses.fields(op)]


@settings(max_examples=60, deadline=None)
@given(netlists())
def test_packaged_solution_matches_the_reference_packaging(circuit):
    try:
        got = solve_dc(circuit)
    except ReproError:
        return
    expected = package_reference.package(
        MnaLayout(circuit), got.x, got.iterations, got.strategy, got.residual
    )
    for name in ("voltages", "branch_currents"):
        want, have = getattr(expected, name), getattr(got, name)
        assert list(have) == list(want), name
        assert [_bits(v) for v in have.values()] == [_bits(v) for v in want.values()]
    assert list(got.device_ops) == list(expected.device_ops)
    for name, want in expected.device_ops.items():
        have = got.device_ops[name]
        assert type(have) is MosfetOperatingPoint
        assert _fields(have) == _fields(want)
        assert list(vars(have)) == list(vars(want))
        if not any(v != v for v in vars(want).values() if isinstance(v, float)):
            assert have == want and hash(have) == hash(want)
    assert pickle.dumps(got.device_ops) == pickle.dumps(expected.device_ops)


def test_every_region_reverse_mode_and_mult_are_packaged_alike():
    # Devices in cutoff, triode and saturation, two of them reverse-biased
    # (drain below source for the NMOS, above it for the PMOS), with m > 1.
    b = CircuitBuilder("regions", tech=CMOS025)
    b.v("vdd", "gnd", dc=3.3)
    b.v("g", "gnd", dc=1.5)
    b.v("s", "gnd", dc=1.0)
    b.r("vdd", "d1", 1e4)
    b.nmos("d1", "g", "gnd", w=5e-6, l=0.5e-6, mult=2)  # saturation
    b.r("vdd", "d2", 1e3)
    b.nmos("d2", "vdd", "gnd", w=20e-6, l=0.5e-6)  # triode
    b.r("vdd", "d3", 1e4)
    b.nmos("d3", "gnd", "gnd", w=2e-6, l=0.5e-6)  # cutoff
    b.r("d4", "gnd", 1e4)
    b.nmos("d4", "g", "s", w=4e-6, l=0.5e-6, mult=3)  # reverse
    b.r("d5", "vdd", 1e4)
    b.pmos("d5", "gnd", "s", "vdd", w=4e-6, l=0.5e-6, mult=2)  # reverse
    circuit = b.circuit
    got = solve_dc(circuit)
    expected = package_reference.package(
        MnaLayout(circuit), got.x, got.iterations, got.strategy, got.residual
    )
    regions = {op.region for op in got.device_ops.values()}
    assert regions == {"cutoff", "triode", "saturation"}
    assert sum(op.vds * circuit[n].params.polarity < 0 for n, op in got.device_ops.items()) == 2
    for name, want in expected.device_ops.items():
        assert _fields(got.device_ops[name]) == _fields(want), name
    assert pickle.dumps(got) == pickle.dumps(
        dataclasses.replace(expected, x=got.x)
    )
