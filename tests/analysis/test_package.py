"""``solve_dc`` packages its solution as the per-device walk did.

A solution of the bound program carries its MOSFETs as plain arrays, the
converged Newton loop's last device evaluation where that is the
operating points' own (every ``mult`` 1, no NaN vds), and builds its
voltages, branch currents and operating points from them on first read,
without the frozen dataclass's ``__init__``.  ``package_reference.py``
keeps the packaging it replaced.  Over the netlists of
``test_mna_single_path.py`` (all nine element kinds, ``mult`` up to 3),
the lazily built fields must equal it field for field by IEEE bits, with
the same key order, type and pickle bytes; so must solves that end on
gmin or source stepping, and a packaging whose ``x`` is not the last
residual's iterate, which evaluates the devices again.
"""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings

import repro.analysis.dc as dc
from repro.analysis.dc import _package, solve_dc
from repro.analysis.mna import MnaLayout
from repro.analysis.template import ValueWriter, bind_template
from repro.circuit.builder import CircuitBuilder
from repro.errors import ConvergenceError, ReproError
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


def _regions_circuit(mults=(2, 1, 1, 3, 2)):
    """Devices in cutoff, triode and saturation, two of them reverse-biased
    (drain below source for the NMOS, above it for the PMOS)."""
    m1, m2, m3, m4, m5 = mults
    b = CircuitBuilder("regions", tech=CMOS025)
    b.v("vdd", "gnd", dc=3.3)
    b.v("g", "gnd", dc=1.5)
    b.v("s", "gnd", dc=1.0)
    b.r("vdd", "d1", 1e4)
    b.nmos("d1", "g", "gnd", w=5e-6, l=0.5e-6, mult=m1)  # saturation
    b.r("vdd", "d2", 1e3)
    b.nmos("d2", "vdd", "gnd", w=20e-6, l=0.5e-6, mult=m2)  # triode
    b.r("vdd", "d3", 1e4)
    b.nmos("d3", "gnd", "gnd", w=2e-6, l=0.5e-6, mult=m3)  # cutoff
    b.r("d4", "gnd", 1e4)
    b.nmos("d4", "g", "s", w=4e-6, l=0.5e-6, mult=m4)  # reverse
    b.r("d5", "vdd", 1e4)
    b.pmos("d5", "gnd", "s", "vdd", w=4e-6, l=0.5e-6, mult=m5)  # reverse
    return b.circuit


def _assert_packaged_alike(circuit, got) -> None:
    """``got`` equals the reference packaging of its ``x``, field for field."""
    expected = package_reference.package(
        MnaLayout(circuit), got.x, got.iterations, got.strategy, got.residual
    )
    for name in ("voltages", "branch_currents"):
        want, have = getattr(expected, name), getattr(got, name)
        assert list(have) == list(want), name
        assert [_bits(v) for v in have.values()] == [_bits(v) for v in want.values()]
    assert list(got.device_ops) == list(expected.device_ops)
    for name, want in expected.device_ops.items():
        assert _fields(got.device_ops[name]) == _fields(want), name
    assert pickle.dumps(got) == pickle.dumps(
        dataclasses.replace(expected, x=got.x)
    )


@pytest.mark.parametrize(
    "mults, reused",
    [((2, 1, 1, 3, 2), False), ((1, 1, 1, 1, 1), True)],
    ids=["mult", "unit"],
)
def test_every_region_reverse_mode_and_mult_are_packaged_alike(mults, reused):
    # With every mult 1 the solution reuses the Newton loop's last device
    # evaluation; with m > 1 the devices are evaluated again at their
    # multiplied width.
    circuit = _regions_circuit(mults)
    bound = bind_template(circuit)
    got = solve_dc(circuit, assembly=bound)
    assert (got.devices.ids is bound._last[1]) == reused
    regions = {op.region for op in got.device_ops.values()}
    assert regions == {"cutoff", "triode", "saturation"}
    assert sum(op.vds * circuit[n].params.polarity < 0 for n, op in got.device_ops.items()) == 2
    _assert_packaged_alike(circuit, got)


def _failing_attempts(monkeypatch, failing: set[int]) -> None:
    """Make the Newton attempts numbered ``failing`` (from 0) raise."""
    newton = dc._newton
    calls = []

    def attempt(*args, **kwargs):
        calls.append(len(calls))
        if calls[-1] in failing:
            raise ConvergenceError("forced")
        return newton(*args, **kwargs)

    monkeypatch.setattr(dc, "_newton", attempt)


@pytest.mark.parametrize(
    "strategy, failing", [("gmin", {0}), ("source", {0, 1})]
)
@pytest.mark.parametrize("mults", [(1, 1, 1, 1, 1), (2, 1, 1, 3, 2)])
def test_solves_ending_on_a_homotopy_are_packaged_alike(
    monkeypatch, strategy, failing, mults
):
    # Plain Newton fails, and for source stepping the first gmin step too.
    _failing_attempts(monkeypatch, failing)
    circuit = _regions_circuit(mults)
    bound = bind_template(circuit)
    got = solve_dc(circuit, assembly=bound)
    assert got.strategy == strategy
    assert (got.devices.ids is bound._last[1]) == (mults == (1, 1, 1, 1, 1))
    _assert_packaged_alike(circuit, got)


def _reference_ops(circuit, x):
    return package_reference.device_ops(MnaLayout(circuit), x)


def _assert_ops_alike(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, op in want.items():
        assert _fields(got[name]) == _fields(op), name


class TestReuseIsSkipped:
    """A packaging evaluates the devices again unless ``x`` is the last
    residual's iterate, unwritten since, with no NaN vds."""

    def _solved(self):
        circuit = _regions_circuit((1, 1, 1, 1, 1))
        bound = bind_template(circuit)
        return circuit, bound, solve_dc(circuit, assembly=bound)

    def test_another_iterate(self):
        circuit, bound, sol = self._solved()
        x = sol.x + 0.01
        bound.residual(sol.x.copy(), 0.0, 1.0)
        got = _package(bound, x, 1, "newton", 0.0)
        assert got.devices.ids is not bound._last[1]
        _assert_ops_alike(got.device_ops, _reference_ops(circuit, x))
        # Equal values in another array are another iterate too.
        bound.residual(sol.x, 0.0, 1.0)
        again = _package(bound, sol.x.copy(), 1, "newton", 0.0)
        assert again.devices.ids is not bound._last[1]
        _assert_ops_alike(again.device_ops, _reference_ops(circuit, sol.x))

    def test_a_write_since_the_residual(self):
        circuit, bound, sol = self._solved()
        index = [e.name for e in circuit].index("m1")
        bound.residual(sol.x, 0.0, 1.0)
        ValueWriter(bound, [index])([(7e-6, 0.6e-6)])
        got = _package(bound, sol.x, 1, "newton", 0.0)
        assert got.devices.ids is not bound._last[1]
        rebuilt = _regions_circuit((1, 1, 1, 1, 1))
        rebuilt.replace(dataclasses.replace(rebuilt["m1"], w=7e-6, l=0.6e-6))
        _assert_ops_alike(got.device_ops, _reference_ops(rebuilt, sol.x))

    def test_a_nan_vds(self):
        # The residual runs a NaN vds reversed; an operating point keeps it
        # forward, so its threshold and region differ from the residual's.
        circuit, bound, sol = self._solved()
        x = sol.x.copy()
        x[MnaLayout(circuit).index("d4")] = math.nan
        bound.residual(x, 0.0, 1.0)
        got = _package(bound, x, 1, "newton", 0.0)
        assert got.devices.ids is not bound._last[1]
        _assert_ops_alike(got.device_ops, _reference_ops(circuit, x))
        want = _reference_ops(circuit, x)["m4"]
        assert not math.isnan(want.vth) and np.isnan(want.ids)
