"""Compiled MNA templates must replay the element stamp walk bit-for-bit.

This is the contract that lets the compiled stamp program be the only MNA
implementation of the package while campaign records stay byte-identical
to the pre-kernel evaluator: every jacobian, residual, small-signal matrix
and DC solution the template produces equals the result of the walk in
``tests/analysis/mna_reference.py`` exactly — not to a tolerance, to the
bit.  Arrays are compared by their bytes, because ``np.array_equal``
treats -0.0 and +0.0 as equal.
"""

import math
import pickle
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ac import ac_transfer
from repro.analysis.dc import _ABS_TOL, _abs_max, _newton, solve_dc
from repro.analysis.mna import GROUND, MnaLayout
from repro.analysis.smallsignal import linearize
from repro.analysis import transient
from repro.analysis.transient import simulate_transient
from repro.analysis.template import (
    MnaTemplate,
    _TEMPLATE_CACHE,
    bind_template,
    template_for,
)
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import AnalysisError, ConvergenceError, NetlistError
from repro.obs import metrics
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, two_stage_space
from repro.tech import CMOS025
from tests.analysis import mna_reference, transient_reference
from tests.analysis.mna_reference import WalkAssembly, assemble, walk_solve_dc


def assert_same_bytes(expected: np.ndarray, got: np.ndarray) -> None:
    """Equal shape, dtype and bytes: the sign of every zero included."""
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert got.tobytes() == expected.tobytes()


def _system(bound, x, gmin, scale):
    """The compiled (jacobian, residual) at ``x``, in Newton's call order."""
    resid = bound.residual(x, gmin, scale)
    return bound.jacobian(gmin), resid


def _compiled() -> float:
    """Templates compiled so far, from the metrics registry."""
    return metrics.REGISTRY.snapshot()["counters"].get("template.compiled", 0)


def _opamp_bench(seed: int = 0):
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    mdac = plan.mdacs[2]
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(seed)
    sizing = space.decode(rng.random(space.dimension))
    return evaluator._ac_bench(sizing), evaluator


def _mixed_circuit(name: str = "mixed") -> Circuit:
    """Every element type the DC/AC templates support, in one netlist."""
    c = Circuit(name)
    c.add(VoltageSource("vin", positive="a", negative="gnd", dc=1.0, ac=1.0))
    c.add(Resistor("r1", "a", "b", 1e3))
    c.add(Inductor("l1", "b", "c", 1e-6))
    c.add(Capacitor("c1", "c", "gnd", 1e-12))
    c.add(
        Vccs("g1", out_positive="d", out_negative="gnd",
             ctrl_positive="c", ctrl_negative="gnd", gm=1e-3)
    )
    c.add(Resistor("r2", "d", "gnd", 5e3))
    c.add(
        Vcvs("e1", out_positive="e", out_negative="gnd",
             ctrl_positive="d", ctrl_negative="gnd", gain=2.5)
    )
    c.add(Switch("sw1", "e", "f", phase=lambda t: True, r_on=50.0))
    c.add(Resistor("r3", "f", "gnd", 2e3))
    c.add(CurrentSource("i1", positive="f", negative="gnd", dc=1e-4, ac=0.5))
    return c


@dataclass(frozen=True)
class Alien(Element):
    """An element kind no stamp program knows."""

    n1: str = "a"
    n2: str = "gnd"

    @property
    def nodes(self):
        return (self.n1, self.n2)


def _alien_circuit() -> Circuit:
    c = Circuit("bad2")
    c.add(VoltageSource("v1", positive="a", negative="gnd", dc=1.0))
    c.add(Alien("alien"))
    return c


class TestAssembleBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_opamp_bench_assemble(self, seed):
        bench, _ = _opamp_bench(seed)
        layout = MnaLayout(bench)
        bound = bind_template(bench)
        rng = np.random.default_rng(seed + 100)
        for _ in range(3):
            x = rng.standard_normal(layout.size)
            for gmin, scale in ((0.0, 1.0), (1e-3, 1.0), (1e-9, 0.35)):
                jac_ref, res_ref = assemble(layout, x, gmin, scale)
                jac, res = _system(bound, x, gmin, scale)
                assert_same_bytes(jac_ref, jac)
                assert_same_bytes(res_ref, res)

    def test_mixed_elements_assemble(self):
        circuit = _mixed_circuit()
        layout = MnaLayout(circuit)
        bound = bind_template(circuit)
        rng = np.random.default_rng(2)
        for _ in range(4):
            x = rng.standard_normal(layout.size)
            for gmin, scale in ((0.0, 1.0), (1e-4, 0.7), (1e-9, 0.05)):
                jac_ref, res_ref = assemble(layout, x, gmin, scale)
                jac, res = _system(bound, x, gmin, scale)
                assert_same_bytes(jac_ref, jac)
                assert_same_bytes(res_ref, res)

    def test_solve_dc_identical(self):
        bench, evaluator = _opamp_bench(5)
        ref = walk_solve_dc(bench, initial_guess=evaluator._dc_guess())
        for via_template in (
            solve_dc(bench, initial_guess=evaluator._dc_guess()),
            solve_dc(
                bench,
                initial_guess=evaluator._dc_guess(),
                assembly=bind_template(bench),
            ),
        ):
            assert_same_bytes(ref.x, via_template.x)
            assert ref.iterations == via_template.iterations
            assert ref.strategy == via_template.strategy
            assert ref.voltages == via_template.voltages
            assert ref.branch_currents == via_template.branch_currents

    def test_linearize_identical(self):
        for circuit, guess in (
            _opamp_bench(7)[:1] + (None,),
            (_mixed_circuit(), None),
        ):
            op = solve_dc(circuit)
            ref = mna_reference.linearize(circuit, op, include_noise=False)
            for lin in (
                bind_template(circuit).linearize(op),
                linearize(circuit, op, include_noise=False),
            ):
                assert_same_bytes(ref.g_matrix, lin.g_matrix)
                assert_same_bytes(ref.c_matrix, lin.c_matrix)
                assert_same_bytes(ref.b_ac, lin.b_ac)


class TestTemplateCacheAndBinding:
    def test_template_cached_per_topology(self):
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)  # same topology, different sizing
        assert template_for(bench_a) is template_for(bench_b)

    def test_compile_counter_counts_fresh_templates_only(self):
        bench, _ = _opamp_bench(1)
        saved = dict(_TEMPLATE_CACHE)
        _TEMPLATE_CACHE.clear()
        before = _compiled()
        try:
            template_for(bench)
            template_for(bench)  # in-process hit
            assert _compiled() == before + 1
        finally:
            _TEMPLATE_CACHE.clear()
            _TEMPLATE_CACHE.update(saved)

    def test_pickle_round_trip_is_bit_identical(self):
        bench, _ = _opamp_bench(1)
        template = MnaTemplate(bench)
        clone = pickle.loads(pickle.dumps(template))
        assert clone.key == template.key
        x = np.random.default_rng(0).standard_normal(MnaLayout(bench).size)
        jac_a, res_a = _system(template.bind(bench), x, 1e-9, 0.5)
        jac_b, res_b = _system(clone.bind(bench), x, 1e-9, 0.5)
        assert_same_bytes(jac_a, jac_b)
        assert_same_bytes(res_a, res_b)

    def test_bind_rejects_other_topology(self):
        bench, _ = _opamp_bench(1)
        template = template_for(bench)
        with pytest.raises(AnalysisError):
            template.bind(_mixed_circuit())

    def test_rebind_refreshes_values(self):
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)
        bound = bind_template(bench_a)
        bound.rebind(bench_b)
        reference = bind_template(bench_b)
        layout = MnaLayout(bench_b)
        x = np.random.default_rng(0).standard_normal(layout.size)
        jac_a, res_a = _system(bound, x, 0.0, 1.0)
        jac_b, res_b = _system(reference, x, 0.0, 1.0)
        assert_same_bytes(jac_a, jac_b)
        assert_same_bytes(res_a, res_b)

    def test_binds_share_layout_structure_not_values(self):
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)
        layout_a = bind_template(bench_a).layout
        layout_b = bind_template(bench_b).layout
        assert layout_a.node_of is layout_b.node_of  # shared index maps
        assert layout_a.branch_of is layout_b.branch_of
        # Values from, and errors naming, each bind's own circuit.
        assert layout_a.circuit is bench_a
        assert layout_b.circuit is bench_b

    def test_errors_name_the_callers_circuit(self):
        # Both circuits bind one template and its one layout; each bind's
        # view of that layout must still name its own circuit.
        first, second = _mixed_circuit("first"), _mixed_circuit("second")
        assert template_for(first) is template_for(second)
        solve_dc(first)
        lin = linearize(second)
        for call in (
            lambda: solve_dc(second, initial_guess={"nope": 1.0}),
            lambda: lin.index("nope"),
            lambda: ac_transfer(lin, "nope", np.array([1e3])),
            lambda: simulate_transient(second, 1e-9, 1e-10, record=["nope"]),
        ):
            with pytest.raises(NetlistError) as refused:
                call()
            assert str(refused.value) == "net 'nope' not in circuit 'second'"

    @pytest.mark.parametrize("module", (transient, transient_reference))
    def test_unknown_record_net_is_refused_before_the_dc_solve(
        self, monkeypatch, module
    ):
        # The compiled transient and its oracle resolve ``record`` first:
        # an unknown net is refused without the t=0 DC solve or any step
        # set-up, and the error names the caller's circuit.
        def no_dc(circuit):
            pytest.fail("the t=0 DC solve ran before the nets were resolved")

        monkeypatch.setattr(module, "_initial_dc", no_dc)
        with pytest.raises(NetlistError) as refused:
            module.simulate_transient(
                _mixed_circuit("caller"), 1e-9, 1e-10, record=["f", "nope"]
            )
        assert str(refused.value) == "net 'nope' not in circuit 'caller'"

    def test_topology_key_invalidates_on_mutation(self):
        circuit = _mixed_circuit()
        key = circuit.topology_key()
        circuit.add(Resistor("extra", "f", "gnd", 1e4))
        assert circuit.topology_key() != key
        circuit.remove("extra")
        assert circuit.topology_key() == key

    def test_unsupported_element_raises(self):
        c = Circuit("bad")
        c.add(VoltageSource("v1", positive="a", negative="gnd", dc=1.0))

        class Weird(Resistor):
            pass

        # A subclass is fine (isinstance dispatch); a genuinely unknown
        # element type is rejected at compile time.
        c.add(Weird("w1", "a", "gnd", 1.0))
        MnaTemplate(c)  # subclass compiles

        with pytest.raises(AnalysisError):
            MnaTemplate(_alien_circuit())

    def test_unknown_element_kind_fails_at_bind_time(self):
        # Only a user-defined Element subclass can be unknown to the stamp
        # program.  Every public analysis binds the template and refuses
        # it with one line; the walk gave up only after all three
        # homotopies.
        circuit = _alien_circuit()
        for analysis in (solve_dc, linearize):
            with pytest.raises(AnalysisError) as refused:
                analysis(circuit)
            assert str(refused.value) == (
                "element type Alien not supported by the compiled DC template"
            )
        with pytest.raises(ConvergenceError, match="Newton, gmin and source"):
            walk_solve_dc(circuit)

    def test_linearize_refuses_an_operating_point_without_the_device(self):
        bench, evaluator = _opamp_bench(2)
        op = solve_dc(bench, initial_guess=evaluator._dc_guess())
        del op.device_ops["m2"]
        expected = (
            "no operating point for device 'm2'; "
            "was the DC solution computed on the same circuit?"
        )
        for lin in (linearize, mna_reference.linearize):
            with pytest.raises(AnalysisError) as refused:
                lin(bench, op)
            assert str(refused.value) == expected


class TestCompiledDcSolve:
    """The evaluator's chained DC walk: legacy's bits, and KCL to tolerance."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_cold_and_warm_solves_match_legacy(self, seed):
        bench, evaluator = _opamp_bench(seed)
        guess = evaluator._dc_guess()
        ref = walk_solve_dc(bench, initial_guess=guess)
        sol = solve_dc(bench, initial_guess=guess, assembly=bind_template(bench))
        assert_same_bytes(ref.x, sol.x)
        assert (sol.iterations, sol.strategy) == (ref.iterations, ref.strategy)
        # KCL holds under the element walk's own assembly, not just the
        # template's.
        _, resid = assemble(MnaLayout(bench), sol.x, 0.0, 1.0)
        assert float(np.max(np.abs(resid))) < _ABS_TOL
        # The next candidate warm-starts from this solution, as the
        # evaluator's chain does, and takes the same trajectory either way.
        neighbour, _ = _opamp_bench(seed + 1)
        warm_ref = walk_solve_dc(neighbour, x0=ref.x)
        warm = solve_dc(neighbour, x0=sol.x, assembly=bind_template(neighbour))
        assert_same_bytes(warm_ref.x, warm.x)
        assert (warm.iterations, warm.strategy) == (
            warm_ref.iterations,
            warm_ref.strategy,
        )

    def test_mixed_elements_solve(self):
        circuit = _mixed_circuit()
        ref = walk_solve_dc(circuit)
        sol = solve_dc(circuit, assembly=bind_template(circuit))
        assert_same_bytes(ref.x, sol.x)
        assert ref.voltages == sol.voltages
        assert ref.branch_currents == sol.branch_currents

    def test_programs_without_entries_stay_float(self):
        # np.bincount gives integer zeros for no entries.  A netlist with
        # no jacobian entries (a current source into a capacitor) must
        # still walk every homotopy to the walk's ConvergenceError, not
        # fail adding gmin to an integer jacobian; a netlist without
        # capacitors must still get a float C matrix.
        c = Circuit("no_jacobian")
        c.add(CurrentSource("i1", positive="a", negative="gnd", dc=1e-3))
        c.add(Capacitor("c1", "a", "gnd", 1e-12))
        with pytest.raises(ConvergenceError) as expected:
            walk_solve_dc(c)
        with pytest.raises(ConvergenceError) as got:
            solve_dc(c)
        assert str(got.value) == str(expected.value)

        c = Circuit("no_capacitance")
        c.add(VoltageSource("vin", positive="a", negative="gnd", dc=1.0))
        c.add(Resistor("r1", "a", "gnd", 1e3))
        op = solve_dc(c)
        ref = mna_reference.linearize(c, op)
        lin = linearize(c, op)
        assert_same_bytes(ref.c_matrix, lin.c_matrix)
        assert_same_bytes(ref.g_matrix, lin.g_matrix)

    def test_evaluators_share_one_compiled_template(self):
        _, evaluator = _opamp_bench(4)
        space = two_stage_space(evaluator.problem, CMOS025)
        sizing = space.decode(np.random.default_rng(4).random(space.dimension))
        saved = dict(_TEMPLATE_CACHE)
        _TEMPLATE_CACHE.clear()
        before = _compiled()
        try:
            first = HybridEvaluator(evaluator.problem, CMOS025).evaluate(sizing)
            assert _compiled() == before + 1
            second = HybridEvaluator(evaluator.problem, CMOS025).evaluate(sizing)
            assert _compiled() == before + 1  # served from the cache
            assert second.cost() == first.cost()
        finally:
            _TEMPLATE_CACHE.clear()
            _TEMPLATE_CACHE.update(saved)


class TestNewtonLoopContracts:
    """A jacobian only for an iterate that steps; a NaN never converges."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_converged_newton_builds_one_jacobian_per_step(self, seed):
        bench, evaluator = _opamp_bench(seed)
        bound = bind_template(bench)
        layout = bound.layout
        x0 = np.zeros(layout.size)
        for net, value in evaluator._dc_guess().items():
            if layout.index(net) != GROUND:
                x0[layout.index(net)] = value
        built = []
        jacobian = bound.jacobian

        def counting(gmin):
            built.append(gmin)
            return jacobian(gmin)

        bound.jacobian = counting
        x, iterations, _ = _newton(bound, x0, 0.0, 1.0)
        assert iterations > 1
        assert len(built) == iterations - 1
        # The steps are the element walk's steps.
        x_ref, iterations_ref, _ = _newton(WalkAssembly(bench), x0, 0.0, 1.0)
        assert iterations_ref == iterations
        assert_same_bytes(x_ref, x)

    def test_nan_source_never_converges(self):
        c = Circuit("nan_source")
        c.add(VoltageSource("vin", positive="a", negative="gnd", dc=math.nan))
        c.add(Resistor("r1", "a", "b", 1e3))
        c.add(Resistor("r2", "b", "gnd", 2e3))
        with pytest.raises(ConvergenceError) as expected:
            walk_solve_dc(c)
        with pytest.raises(ConvergenceError) as got:
            solve_dc(c)
        assert str(got.value) == str(expected.value)
        assert "residual nan A" in str(got.value)


#: Floats with the values a residual norm must get right.
_norm_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-10, -1e-10]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_norm_floats, max_size=14))
def test_abs_max_equals_numpy_max_abs(values):
    expected = float(np.max(np.abs(values))) if values else 0.0
    got = _abs_max(list(values))
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", expected)
