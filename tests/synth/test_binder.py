"""Per-candidate value writes equal a fresh bind of the candidate's netlist.

``HybridEvaluator`` binds its testbench's stamp program once and then, per
candidate, writes only the values the sizing sets
(``two_stage_miller_values``) into it through a
:class:`~repro.analysis.template.ValueWriter`.  Over seeded candidate
sequences on the K = 10..13 Fig. 2 plans' MDAC specs at both corners, the
written program must equal a fresh ``bind_template`` of
``build_two_stage_miller`` plus the testbench byte for byte: every constant
slot, device tuple and operating-point input, and the residual, jacobian,
operating points and linearization at fixed points.  A counting test shows
that a synthesis builds no netlist and computes no topology key per
candidate.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.synth.evaluator as evaluator_module
import repro.synth.synthesis
from repro.analysis.dc import _package
from repro.analysis.template import ValueWriter, bind_template
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.errors import AnalysisError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW
from tests.analysis.bound_state import bound_state

#: Every MDAC spec of the K = 10..13 Fig. 2 plans.
FIG2_MDACS = tuple(
    mdac
    for k in (10, 11, 12, 13)
    for candidate in enumerate_candidates(k)
    for mdac in plan_stages(AdcSpec(resolution_bits=k), candidate).mdacs
)

#: (gmin, source scale) of the residual and jacobian checks.  The last
#: scale equals the first, so a write the next residual did not refill
#: ``e`` and ``inj`` for would show.
STEPS = ((1e-9, 0.35), (0.0, 1.0), (1e-3, 0.35))


def assert_same_bytes(expected: np.ndarray, got: np.ndarray) -> None:
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert got.tobytes() == expected.tobytes()


def _fixed_point(evaluator: HybridEvaluator, bound, rng) -> np.ndarray:
    """The evaluator's DC guess, with branch currents, perturbed by ``rng``."""
    layout = bound.layout
    x = np.full(layout.size, 1e-4)
    for net, voltage in evaluator._dc_guess().items():
        x[layout.index(net)] = voltage
    return x + 0.05 * rng.standard_normal(layout.size)


def assert_same_program(written, fresh, x: np.ndarray) -> None:
    """Same slots, systems, operating points and linearization at ``x``."""
    assert bound_state(written) == bound_state(fresh)
    for gmin, scale in STEPS:
        resid = written.residual(x, gmin, scale)
        assert_same_bytes(fresh.residual(x, gmin, scale), resid)
        assert_same_bytes(fresh.jacobian(gmin), written.jacobian(gmin))
    assert_same_bytes(fresh._fused.e, written._fused.e)
    assert_same_bytes(fresh._fused.inj, written._fused.inj)
    op_fresh = _package(fresh, x, 1, "newton", 0.0)
    op_written = _package(written, x, 1, "newton", 0.0)
    assert pickle.dumps(op_written.device_ops) == pickle.dumps(op_fresh.device_ops)
    lin_fresh = fresh.linearize(op_fresh)
    lin_written = written.linearize(op_written)
    assert_same_bytes(lin_fresh.g_matrix, lin_written.g_matrix)
    assert_same_bytes(lin_fresh.c_matrix, lin_written.c_matrix)
    assert_same_bytes(lin_fresh.b_ac, lin_written.b_ac)


@st.composite
def candidate_sequences(draw):
    """A Fig. 2 MDAC spec, a corner, a seed and a sequence length."""
    mdac = draw(st.sampled_from(FIG2_MDACS))
    tech = draw(st.sampled_from((CMOS025, CMOS025_SLOW)))
    seed = draw(st.integers(0, 2**32 - 1))
    return mdac, tech, seed, draw(st.integers(1, 5))


class TestEvaluatorWrites:
    @given(candidate_sequences())
    @settings(max_examples=25, deadline=None)
    def test_writes_equal_a_fresh_bind(self, case):
        mdac, tech, seed, length = case
        evaluator = HybridEvaluator(mdac, tech)
        space = two_stage_space(mdac, tech)
        rng = np.random.default_rng(seed)
        for _ in range(length):
            sizing = space.decode(rng.random(space.dimension))
            evaluator.evaluate(sizing)
            written = evaluator._bound
            fresh = bind_template(evaluator._ac_bench(sizing))
            assert written.template is fresh.template
            assert_same_program(written, fresh, _fixed_point(evaluator, fresh, rng))


class TestValueWriter:
    """The writer on every writable element kind, against a fresh bind."""

    #: Values of the first eight elements of :meth:`_circuit`: a resistor,
    #: capacitor, inductor, VCVS, VCCS, voltage and current source and a
    #: MOSFET, every kind the writer takes.
    FIRST = (1e3, 1e-12, 1e-6, 2.5, 1e-3, 1.0, 1e-4, (2e-6, 0.5e-6))

    @staticmethod
    def _circuit(values) -> Circuit:
        r, c, l, gain, gm, vdc, idc, (w, length) = values
        b = CircuitBuilder("writable", tech=CMOS025)
        b.r("a", "b", r, name="r1")
        b.c("b", "gnd", c, name="c1")
        b.l("b", "d", l, name="l1")
        b.vcvs("e", "gnd", "b", "gnd", gain, name="e1")
        b.vccs("d", "gnd", "e", "gnd", gm, name="g1")
        b.v("a", "gnd", dc=vdc, ac=1.0, name="v1")
        b.i("vdd", "d", dc=idc, name="i1")
        b.nmos("d", "e", "gnd", w=w, l=length, mult=2, name="m1")
        b.r("d", "gnd", 2e3, name="r2")
        b.v("vdd", "gnd", dc=3.3, name="vdd_src")
        b.r("e", "gnd", 1e4, name="r3")
        return b.circuit

    def test_every_kind_equals_a_fresh_bind(self):
        bound = bind_template(self._circuit(self.FIRST))
        write = ValueWriter(bound, range(len(self.FIRST)))
        rng = np.random.default_rng(7)
        for _ in range(4):
            r, c, l, gain, gm, vdc, idc, w = rng.uniform(0.5, 2.0, size=8)
            values = (
                1e3 * r, 1e-12 * c, 1e-6 * l, 2.5 * gain, -1e-3 * gm,
                vdc, 1e-4 * idc, (2e-6 * w, 0.5e-6),
            )
            write(values)
            fresh = bind_template(self._circuit(values))
            x = rng.uniform(0.0, 2.0, size=fresh.layout.size)
            assert_same_program(bound, fresh, x)

    def test_switch_is_not_writable(self):
        b = CircuitBuilder("sw", tech=CMOS025)
        b.v("a", "gnd", dc=1.0, name="v1")
        b.switch("a", "b", phase=lambda t: True, name="s1")
        b.r("b", "gnd", 1e3, name="r1")
        bound = bind_template(b.circuit)
        with pytest.raises(AnalysisError, match="switch 's1' is not writable"):
            ValueWriter(bound, [1])

    def test_index_must_name_an_element(self):
        bound = bind_template(self._circuit(self.FIRST))
        with pytest.raises(AnalysisError, match="no element at index 11"):
            ValueWriter(bound, [0, 11])


def test_synthesis_builds_no_netlist_per_candidate(monkeypatch):
    """One amplifier netlist per evaluator plus one per settling transient,
    and one testbench topology key per evaluator."""
    built = []
    build = evaluator_module.build_two_stage_miller

    def counting_build(*args, **kwargs):
        built.append(args[1])
        return build(*args, **kwargs)

    keys = []
    topology_key = Circuit.topology_key

    def counting_key(self):
        if self._topology_key is None and self.name.startswith("acbench_"):
            keys.append(self.name)
        return topology_key(self)

    evaluators = []

    class CountedEvaluator(HybridEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)

    monkeypatch.setattr(evaluator_module, "build_two_stage_miller", counting_build)
    monkeypatch.setattr(Circuit, "topology_key", counting_key)
    monkeypatch.setattr(repro.synth.synthesis, "HybridEvaluator", CountedEvaluator)
    mdac = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    ).mdacs[2]
    result = synthesize_mdac(mdac, CMOS025, budget=60, seed=1, verify_transient=True)
    assert len(evaluators) == 1
    assert result.transient_evals == 1
    assert result.equation_evals > 100
    assert len(built) == len(evaluators) + result.transient_evals
    assert keys == ["acbench_ota2"] * len(evaluators)
