"""The public DC solve and linearization run the compiled stamp program.

``solve_dc(circuit)`` without an ``assembly`` binds the circuit's cached
template, and ``linearize`` takes G, C and ``b_ac`` from the bound program
and its noise sources from a pass of its own.  These properties draw
netlists from all nine element kinds, including kinds the synthesis flow
never compiles, and require both entry points to reproduce the element walk
of ``tests/analysis/mna_reference.py`` byte for byte: the same solution,
iterations and strategy, the same matrices, the same noise sources, and the
same exception type where the walk raises.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dc import solve_dc
from repro.analysis.mna import MnaLayout
from repro.analysis.smallsignal import linearize
from repro.analysis.template import bind_template
from repro.circuit.builder import CircuitBuilder
from repro.errors import ReproError
from repro.tech import CMOS025
from tests.analysis import mna_reference
from tests.analysis.mna_reference import walk_solve_dc

#: Terminals a random element may touch: four nets and ground.
_TERMINALS = ("a", "b", "c", "d", "gnd")

#: Frequencies the noise PSDs are compared at [Hz].
_NOISE_FREQS = (1.0, 1e3, 1e6)


@st.composite
def netlists(draw):
    """A random netlist over all nine element kinds, DC-solvable by design.

    Terminals are drawn from four nets and ground, so grounded, shared and
    shorted terminals all occur.  Every net is tied to ground through a
    resistor, and the ties land at random places in the netlist, so the
    order of resistors and MOSFETs the noise list must keep varies.  A
    circuit can still be singular (two sources fighting over one net),
    and both paths must then fail alike.
    """
    b = CircuitBuilder("random", tech=CMOS025)

    def node():
        return draw(st.sampled_from(_TERMINALS))

    def value(low, high):
        return draw(st.floats(min_value=low, max_value=high))

    def signed(bound):
        return draw(st.floats(min_value=-bound, max_value=bound))

    adders = {
        "r": lambda: b.r(node(), node(), value(10.0, 1e6)),
        "c": lambda: b.c(node(), node(), value(1e-15, 1e-9)),
        "l": lambda: b.l(node(), node(), value(1e-9, 1e-3)),
        "v": lambda: b.v(node(), node(), dc=signed(2.0), ac=signed(1.0)),
        "i": lambda: b.i(node(), node(), dc=signed(1e-3), ac=signed(1e-3)),
        "vcvs": lambda: b.vcvs(node(), node(), node(), node(), signed(10.0)),
        "vccs": lambda: b.vccs(node(), node(), node(), node(), signed(1e-2)),
        "mos": lambda: (b.pmos if draw(st.booleans()) else b.nmos)(
            node(), node(), node(), node(),
            w=value(0.5e-6, 50e-6), l=value(0.25e-6, 2e-6),
            mult=draw(st.integers(min_value=1, max_value=3)),
        ),
        "switch": lambda: b.switch(
            node(), node(), phase=lambda t, closed=draw(st.booleans()): closed,
            r_on=value(1.0, 1e3),
        ),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(adders)), min_size=1, max_size=8))
    steps = [adders[kind] for kind in kinds] + [
        lambda net=net: b.r(net, "gnd", value(1e3, 1e7)) for net in _TERMINALS[:-1]
    ]
    for index in draw(st.permutations(range(len(steps)))):
        steps[index]()
    return b.circuit


def _outcome(analysis, *args, **kwargs):
    """The result, or the type of the package error it raised."""
    try:
        return analysis(*args, **kwargs)
    except ReproError as exc:
        return type(exc)


def assert_same_bytes(expected: np.ndarray, got: np.ndarray) -> None:
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert got.tobytes() == expected.tobytes()


def assert_same_solution(expected, got) -> None:
    assert_same_bytes(expected.x, got.x)
    assert (got.iterations, got.strategy) == (expected.iterations, expected.strategy)
    assert got.residual == expected.residual
    assert got.voltages == expected.voltages
    assert got.branch_currents == expected.branch_currents
    assert got.device_ops == expected.device_ops


def assert_same_linearization(expected, got) -> None:
    assert_same_bytes(expected.g_matrix, got.g_matrix)
    assert_same_bytes(expected.c_matrix, got.c_matrix)
    assert_same_bytes(expected.b_ac, got.b_ac)
    assert [s[:3] for s in got.noise_sources] == [
        s[:3] for s in expected.noise_sources
    ]
    for (_, _, _, want), (_, _, _, have) in zip(
        expected.noise_sources, got.noise_sources
    ):
        assert_same_bytes(
            np.array([want(f) for f in _NOISE_FREQS]),
            np.array([have(f) for f in _NOISE_FREQS]),
        )


@settings(max_examples=60, deadline=None)
@given(netlists())
def test_solve_dc_runs_the_walks_newton_trajectory(circuit):
    expected = _outcome(walk_solve_dc, circuit)
    got = _outcome(solve_dc, circuit)
    if isinstance(expected, type):
        assert got is expected
        return
    assert not isinstance(got, type), got
    assert_same_solution(expected, got)


@settings(max_examples=60, deadline=None)
@given(netlists())
def test_linearize_stamps_the_walks_matrices_and_noise(circuit):
    expected = _outcome(mna_reference.linearize, circuit)
    got = _outcome(linearize, circuit)
    if isinstance(expected, type):
        assert got is expected
        return
    assert not isinstance(got, type), got
    assert_same_solution(expected.op, got.op)
    assert_same_linearization(expected, got)
    # At an operating point the caller supplies, with noise switched off.
    quiet = linearize(circuit, expected.op, include_noise=False)
    assert quiet.noise_sources == []
    assert_same_linearization(
        mna_reference.linearize(circuit, expected.op, include_noise=False), quiet
    )


def _nan_bits(values: np.ndarray) -> list:
    """IEEE bits of each entry, a NaN as any NaN: the walk and the program
    propagate a NaN through different operations, which keep its sign
    differently."""
    return ["nan" if v != v else v.tobytes() for v in values]


@settings(max_examples=60, deadline=None)
@given(netlists(), st.data())
def test_residuals_at_iterates_holding_a_nan_match_the_walk(circuit, data):
    # A NaN vds runs reversed in the residual, as in the walk, though the
    # residual also keeps each device's forward-frame detail.
    n = MnaLayout(circuit).size
    x = np.array(
        data.draw(
            st.lists(
                st.one_of(st.floats(-3.0, 3.0), st.just(math.nan)),
                min_size=n,
                max_size=n,
            )
        )
    )
    x[data.draw(st.integers(0, n - 1))] = math.nan
    gmin, scale = data.draw(st.sampled_from([(0.0, 1.0), (1e-9, 0.35)]))
    bound = bind_template(circuit)
    _, expected = mna_reference.assemble(MnaLayout(circuit), x, gmin, scale)
    got = bound.residual(x, gmin, scale)
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert _nan_bits(got) == _nan_bits(expected)


def test_include_noise_false_drops_every_noise_source():
    b = CircuitBuilder("rc")
    b.v("in", "gnd", dc=0.0, ac=1.0)
    b.r("in", "out", 1e3)
    b.c("out", "gnd", 1e-9)
    circuit = b.build()
    assert [s[0] for s in linearize(circuit).noise_sources] == ["r1"]
    assert linearize(circuit, include_noise=False).noise_sources == []
