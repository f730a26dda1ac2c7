"""The compiled transient step must replay the per-element walk bit for bit.

:func:`repro.analysis.transient.simulate_transient` runs on the compiled
stamp program; ``transient_reference.py`` keeps the walk it replaced.
Every comparison is exact: the bytes of the time axis and of every
recorded waveform (``np.array_equal`` would let -0.0 meet +0.0), and the
same exception message when a run fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import transient
from repro.analysis.transient import simulate_transient
from repro.blocks.mdac import SETTLING_STEP_TIME, build_settling_bench
from repro.blocks.opamp_library import build_two_stage_miller
from repro.circuit.builder import CircuitBuilder
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import ConvergenceError, ReproError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, two_stage_space
from repro.tech import CMOS025
from tests.analysis.transient_reference import (
    simulate_transient as reference_transient,
)


def _outcome(simulate, circuit, **kwargs):
    try:
        return simulate(circuit, **kwargs)
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def assert_identical(circuit, **kwargs):
    """Compiled and reference runs agree exactly; returns the result."""
    expected = _outcome(reference_transient, circuit, **kwargs)
    got = _outcome(simulate_transient, circuit, **kwargs)
    if isinstance(expected, tuple):
        assert got == expected
        return None
    assert not isinstance(got, tuple), got
    assert got.time.tobytes() == expected.time.tobytes()
    assert list(got.waveforms) == list(expected.waveforms)
    for net, wave in expected.waveforms.items():
        assert got.waveforms[net].dtype == wave.dtype, net
        assert got.waveforms[net].tobytes() == wave.tobytes(), net
    return got


# -- random circuits with every element type -------------------------------


@st.composite
def mixed_circuits(draw):
    """A random netlist using every element type the transient supports.

    Sources step and ramp inside the run, the switch toggles mid-run, and
    the element order is shuffled, so the per-cell accumulation order the
    compiled program must replay varies from example to example.
    """
    n_steps = draw(st.integers(min_value=20, max_value=60))
    dt = draw(st.floats(min_value=5e-11, max_value=1e-9))
    t_stop = n_steps * dt

    def r():
        return draw(st.floats(min_value=100.0, max_value=1e5))

    def c():
        return draw(st.floats(min_value=1e-13, max_value=1e-10))

    def frac():
        return draw(st.floats(min_value=0.1, max_value=0.9))

    v0 = draw(st.floats(min_value=-1.0, max_value=1.0))
    v_step = draw(st.floats(min_value=-1.0, max_value=1.0))
    t_step = frac() * t_stop
    i0 = draw(st.floats(min_value=-1e-4, max_value=1e-4))
    i_slope = draw(st.floats(min_value=-1e5, max_value=1e5))
    t_switch = frac() * t_stop
    closed_first = draw(st.booleans())
    vg0 = draw(st.floats(min_value=0.6, max_value=1.6))
    vg_step = draw(st.floats(min_value=-0.5, max_value=0.5))
    pmos = draw(st.booleans())

    b = CircuitBuilder("mixed", tech=CMOS025)
    adders = [
        lambda: b.v("a", "gnd", dc=v0,
                    waveform=lambda t: v0 + (v_step if t >= t_step else 0.0)),
        lambda: b.r("a", "b", r()),
        lambda: b.c("b", "gnd", c()),
        lambda: b.l("b", "c", draw(st.floats(min_value=1e-9, max_value=1e-6))),
        lambda: b.r("c", "gnd", r()),
        lambda: b.switch("b", "d", phase=lambda t: (t < t_switch) == closed_first,
                         r_on=draw(st.floats(min_value=10.0, max_value=1e3))),
        lambda: b.c("d", "gnd", c()),
        lambda: b.r("d", "gnd", r()),
        lambda: b.vccs("e", "gnd", "b", "gnd",
                       draw(st.floats(min_value=1e-5, max_value=1e-3))),
        lambda: b.r("e", "gnd", r()),
        lambda: b.vcvs("f", "gnd", "e", "c",
                       draw(st.floats(min_value=0.1, max_value=3.0))),
        lambda: b.r("f", "g", r()),
        lambda: b.i("g", "gnd", dc=i0, waveform=lambda t: i0 + i_slope * t),
        lambda: b.c("g", "f", c()),
        lambda: b.r("g", "gnd", r()),
        lambda: b.v("vdd", "gnd", dc=3.3),
        lambda: b.v("vg", "gnd", dc=vg0,
                    waveform=lambda t: vg0 + (vg_step if t >= t_step else 0.0)),
        lambda: b.r("vg", "gate", r()),
        lambda: (
            b.pmos("h", "gate", "vdd", "vdd", w=4e-6, l=0.5e-6)
            if pmos
            else b.nmos("h", "gate", "gnd", w=4e-6, l=0.5e-6)
        ),
        lambda: b.r("h", "gnd" if pmos else "vdd", draw(st.floats(5e3, 5e4))),
        lambda: b.c("h", "gnd", c()),
    ]
    for index in draw(st.permutations(range(len(adders)))):
        adders[index]()
    circuit = b.build()

    nets = circuit.non_ground_nets()
    record = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(nets + ["gnd"]), min_size=1, max_size=4),
        )
    )
    method = draw(st.sampled_from(["trap", "be"]))
    return circuit, dict(t_stop=t_stop, dt=dt, record=record, method=method)


@settings(max_examples=40, deadline=None)
@given(mixed_circuits())
def test_random_circuits_bit_identical(case):
    circuit, kwargs = case
    assert_identical(circuit, **kwargs)


# -- the settling benches the synthesis loop verifies ---------------------


def _settling_bench(stage: int, seed: int):
    plan = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    )
    mdac = plan.mdacs[stage]
    evaluator = HybridEvaluator(mdac, CMOS025)
    space = two_stage_space(mdac, CMOS025)
    sizing = space.decode(np.random.default_rng(seed).random(space.dimension))
    network = evaluator.network
    step = -(mdac.output_swing / 4.0) / (network.cs / network.cf)
    bench, _ = build_settling_bench(
        build_two_stage_miller(CMOS025, sizing),
        network,
        CMOS025,
        step_voltage=step,
        common_mode=evaluator.common_mode,
    )
    t_settle = mdac.linear_settling_time + mdac.slew_time
    return bench, SETTLING_STEP_TIME + t_settle, t_settle / evaluator.transient_points


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stage", [0, 1, 2])
def test_settling_benches_bit_identical(stage, seed):
    bench, t_stop, dt = _settling_bench(stage, seed)
    result = assert_identical(bench, t_stop=t_stop, dt=dt)
    assert result is not None and len(result.time) > 500


def test_settling_bench_recorded_output_matches_full_record():
    bench, t_stop, dt = _settling_bench(2, 4)
    full = assert_identical(bench, t_stop=t_stop, dt=dt)
    out = assert_identical(bench, t_stop=t_stop, dt=dt, record=["out"])
    assert list(out.waveforms) == ["out"]
    assert out.voltage("out").tobytes() == full.voltage("out").tobytes()


# -- error parity ----------------------------------------------------------


def test_floating_node_raises_the_same_error_at_the_same_time():
    # The f1-f2 island has no path to ground: the t=0 DC solve regularizes
    # it, the first step that has to move a node cannot.
    b = CircuitBuilder("floating")
    b.v("in", "gnd", dc=0.0, waveform=lambda t: 1.0 if t > 2e-9 else 0.0)
    b.r("in", "out", 1e3)
    b.c("out", "gnd", 1e-12)
    b.r("f1", "f2", 1e3)
    kwargs = dict(t_stop=1e-8, dt=1e-9)
    with pytest.raises(ConvergenceError) as expected:
        reference_transient(b.circuit, **kwargs)
    with pytest.raises(ConvergenceError) as got:
        simulate_transient(b.circuit, **kwargs)
    assert str(got.value) == str(expected.value)
    assert "t=3.000e-09s" in str(got.value)


def test_nan_waveform_raises_the_same_error_at_the_same_time():
    # The source turns NaN after 2 ns: its residual row never converges.
    b = CircuitBuilder("nan_wave", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, waveform=lambda t: math.nan if t > 2e-9 else 0.0)
    b.r("in", "out", 1e3)
    b.c("out", "gnd", 1e-12)
    b.nmos("out", "out", "gnd", w=4e-6, l=0.5e-6)
    kwargs = dict(t_stop=1e-8, dt=1e-9)
    with pytest.raises(ConvergenceError) as expected:
        reference_transient(b.circuit, **kwargs)
    with pytest.raises(ConvergenceError) as got:
        simulate_transient(b.circuit, **kwargs)
    assert str(got.value) == str(expected.value)
    assert "t=3.000e-09s" in str(got.value)


# -- jacobians only for iterates that take a step -------------------------


def _count_iterates(monkeypatch):
    """Count the step program's residual and jacobian builds."""
    counts = {"residual": 0, "jacobian": 0}
    program = transient._StepProgram
    for name in counts:
        method = getattr(program, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(program, name, counted)
    return counts


def test_step_converging_at_its_first_iterate_builds_no_jacobian(monkeypatch):
    # A circuit at rest: every step's first iterate is its solution.
    b = CircuitBuilder("at_rest", tech=CMOS025)
    b.v("vdd", "gnd", dc=3.3)
    b.r("vdd", "out", 1e4)
    b.c("out", "gnd", 1e-12)
    b.nmos("out", "out", "gnd", w=4e-6, l=0.5e-6)
    counts = _count_iterates(monkeypatch)
    result = simulate_transient(b.circuit, t_stop=2e-8, dt=1e-9)
    assert counts == {"residual": len(result.time) - 1, "jacobian": 0}


def test_every_iterate_but_the_converging_one_builds_a_jacobian(monkeypatch):
    bench, t_stop, dt = _settling_bench(0, 1)
    counts = _count_iterates(monkeypatch)
    result = simulate_transient(bench, t_stop=t_stop, dt=dt)
    steps = len(result.time) - 1
    assert counts["jacobian"] > 0
    assert counts["residual"] == counts["jacobian"] + steps
