"""Batched AC solves: one stacked solve, bit-identical to the per-frequency loop.

The loop is the oracle in ``tests/analysis/ac_reference.py``.
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.synth.synthesis
from repro.analysis.ac import (
    FreeNodes,
    ac_response,
    ac_system_stack,
    ac_system_tensor,
    solve_ac_stack,
)
from repro.analysis.dc import solve_dc
from repro.analysis.mna import MnaLayout
from repro.analysis.smallsignal import LinearizedCircuit, linearize
from repro.circuit.builder import CircuitBuilder
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import AnalysisError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.synth.evaluator import _GAIN, _LOOP_FREQS
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW
from tests.analysis import ac_reference


def _rc_circuit(r: float = 1e3):
    b = CircuitBuilder("rc", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, ac=1.0, name="vin")
    b.r("in", "out", r, name="r1")
    b.c("out", "gnd", 1e-9, name="c1")
    return b.circuit


def _linear(r: float = 1e3):
    circuit = _rc_circuit(r)
    return linearize(circuit, solve_dc(circuit))


def _rc_ladder():
    """Two RC sections: one node more than :func:`_rc_circuit`."""
    b = CircuitBuilder("ladder", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, ac=1.0, name="vin")
    b.r("in", "mid", 1e3, name="r1")
    b.c("mid", "gnd", 1e-9, name="c1")
    b.r("mid", "out", 1e3, name="r2")
    b.c("out", "gnd", 1e-9, name="c2")
    circuit = b.circuit
    return linearize(circuit, solve_dc(circuit))


class TestBatchedAc:
    def test_batched_equals_loop_bitwise(self):
        lin = _linear()
        freqs = np.logspace(2, 9, 181)
        loop = ac_reference.ac_response(lin, freqs)
        batched = ac_response(lin, freqs)
        assert np.array_equal(loop, batched)

    def test_system_stack_matches_system_at(self):
        lin = _linear()
        freqs = np.array([1e3, 1e6, 1e9])
        stack = ac_system_stack(lin, freqs)
        for k, f in enumerate(freqs):
            assert np.array_equal(stack[k], lin.system_at(2j * np.pi * f))

    def test_system_stack_out_buffer(self):
        lin = _linear()
        freqs = np.logspace(3, 6, 11)
        buf = np.empty((len(freqs), lin.size, lin.size), dtype=complex)
        returned = ac_system_stack(lin, freqs, out=buf)
        assert returned is buf
        assert np.array_equal(buf, ac_system_stack(lin, freqs))

    def test_empty_sweep(self):
        lin = _linear()
        out = ac_response(lin, np.array([]))
        assert out.shape == (0, lin.size)

    def test_singular_system_names_first_bad_frequency(self):
        # A row of zeros makes every frequency singular; the error must
        # name the first one in sweep order, exactly like the loop.
        lin = _linear()
        g = lin.g_matrix.copy()
        c = lin.c_matrix.copy()
        g[0, :] = 0.0
        c[0, :] = 0.0
        broken = LinearizedCircuit(
            layout=lin.layout,
            g_matrix=g,
            c_matrix=c,
            b_ac=lin.b_ac,
            op=lin.op,
            noise_sources=[],
        )
        freqs = np.array([7.5e3, 1e6])
        with pytest.raises(AnalysisError) as batched_err:
            ac_response(broken, freqs)
        with pytest.raises(AnalysisError) as loop_err:
            ac_reference.ac_response(broken, freqs)
        assert "7.500e+03" in str(batched_err.value)
        assert str(batched_err.value) == str(loop_err.value)

    def test_solve_ac_stack_partial_batch(self):
        lin = _linear()
        freqs = np.logspace(3, 6, 9)
        stack = ac_system_stack(lin, freqs)
        solutions = solve_ac_stack(stack, lin.b_ac, freqs)
        reference = ac_reference.ac_response(lin, freqs)
        assert np.array_equal(solutions, reference)


class TestAcSystemTensor:
    """A population's stacks in one tensor: each slice equals its own stack."""

    def test_slices_equal_system_stacks_bitwise(self):
        linears = [_linear(r) for r in (1e3, 4.7e3, 22e3)]
        freqs = np.logspace(2, 9, 37)
        tensor = ac_system_tensor(linears, freqs)
        size = linears[0].size
        assert tensor.shape == (3, 37, size, size)
        for b, lin in enumerate(linears):
            assert np.array_equal(tensor[b], ac_system_stack(lin, freqs))

    def test_out_buffer_is_overwritten_in_place(self):
        linears = [_linear(r) for r in (1e3, 2e3)]
        freqs = np.logspace(3, 6, 5)
        size = linears[0].size
        buf = np.full((2, len(freqs), size, size), complex(np.nan, 1.0))
        returned = ac_system_tensor(linears, freqs, out=buf)
        assert returned is buf
        assert np.array_equal(buf, ac_system_tensor(linears, freqs))

    def test_slices_solve_to_the_legacy_sweep(self):
        linears = [_linear(r) for r in (1e3, 10e3)]
        freqs = np.logspace(2, 8, 25)
        tensor = ac_system_tensor(linears, freqs)
        for b, lin in enumerate(linears):
            solutions = solve_ac_stack(tensor[b], lin.b_ac, freqs)
            assert np.array_equal(solutions, ac_reference.ac_response(lin, freqs))

    def test_opamp_population_slices(self):
        plan = plan_stages(
            AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
        )
        mdac = plan.mdacs[2]
        space = two_stage_space(mdac, CMOS025)
        evaluator = HybridEvaluator(mdac, CMOS025)
        rng = np.random.default_rng(6)
        linears = []
        for _ in range(3):
            bench = evaluator._ac_bench(space.decode(rng.random(space.dimension)))
            op = solve_dc(bench, initial_guess=evaluator._dc_guess())
            linears.append(linearize(bench, op, include_noise=False))
        freqs = np.logspace(3, 11, 41)
        tensor = ac_system_tensor(linears, freqs)
        for b, lin in enumerate(linears):
            assert np.array_equal(tensor[b], ac_system_stack(lin, freqs))

    def test_empty_population_rejected(self):
        with pytest.raises(AnalysisError, match="at least one"):
            ac_system_tensor([], np.array([1e3]))

    def test_mixed_sizes_rejected(self):
        with pytest.raises(AnalysisError, match="same-size"):
            ac_system_tensor([_linear(), _rc_ladder()], np.array([1e3, 1e6]))


def _opamp_linears(index: int, count: int, seed: int):
    """``count`` linearizations of the evaluator's bench, and its read-outs.

    Seeded sizings of the 13-bit 4-3-2 plan's MDAC ``index`` whose DC
    solve converges, linearized by the evaluator's bound program; the
    read-outs are the gain point, the top and the bottom of the loop grid,
    each as the evaluator's ``(freqs, s)``.
    """
    plan = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    )
    mdac = plan.mdacs[index]
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(seed)
    linears = []
    while len(linears) < count:
        staged = evaluator._stage_equation(space.decode(rng.random(space.dimension)))
        if staged.op is not None:
            linears.append(staged.assembly.linearize(staged.op))
    k0 = evaluator._k0
    assert evaluator._top[0].tobytes() == _LOOP_FREQS[k0:].tobytes()
    assert evaluator._bottom[0].tobytes() == _LOOP_FREQS[1:k0].tobytes()
    return evaluator, linears, (_GAIN, evaluator._top, evaluator._bottom)


def _free_cells(evaluator, lin):
    """Nonzero C cells in the free rows: ``(inside, coupling)``.

    ``inside`` lists cells of the free columns, ``coupling`` cells of the
    fixed ones, each as an index pair into the whole C matrix.
    """
    free, fixed = evaluator._free.free, evaluator._free.fixed
    rows, cols = np.nonzero(lin.c_matrix)
    pairs = [(r, c) for r, c in zip(rows, cols) if r in free]
    return (
        [(r, c) for r, c in pairs if c in free],
        [(r, c) for r, c in pairs if c in fixed],
    )


class TestFrequencyLastReadOut:
    """The evaluator's stacks solve to the per-frequency loop's bytes.

    Both solve the bench's free-node system (``FreeNodes``); the loop is
    ``ac_reference.free_transfer``.
    """

    @pytest.mark.parametrize("index, seed", [(0, 1), (1, 5), (2, 9)])
    def test_read_outs_equal_the_loop(self, index, seed):
        evaluator, linears, reads = _opamp_linears(index, 3, seed)
        for lin in linears:
            system = evaluator._free.reduce(lin)
            assert system.size == lin.size - 4
            for freqs, s in reads:
                loop = ac_reference.free_transfer(system, "out", freqs)
                assert evaluator._transfer(system, freqs, s).tobytes() == loop.tobytes()

    def test_system_stack_matches_the_dense_sum(self):
        evaluator, (lin,), reads = _opamp_linears(1, 1, 2)
        system = evaluator._free.reduce(lin)
        freqs, s_top = reads[1]
        stack = ac_system_stack(system, freqs)
        # The evaluator's s, computed once per split, fills the same bytes.
        assert ac_system_stack(system, freqs, s=s_top).tobytes() == stack.tobytes()
        for k, f in enumerate(freqs):
            s = 2j * np.pi * f
            dense = system.g_matrix + s * system.c_matrix
            assert stack[k].tobytes() == dense.tobytes()

    def test_zero_and_nan_capacitance_cells(self):
        # A structural C cell that is exactly 0.0 gets no s*C term, as the
        # dense sum adds an exact zero there; a NaN cell gets one.  A NaN
        # in a free row's fixed column reaches the right-hand side.
        evaluator, (lin,), reads = _opamp_linears(0, 1, 3)
        inside, coupling = _free_cells(evaluator, lin)
        assert inside and coupling
        zero = lin.c_matrix.copy()
        zero[inside[0]] = 0.0
        nan = lin.c_matrix.copy()
        nan[inside[-1]] = np.nan
        nan_rhs = lin.c_matrix.copy()
        nan_rhs[coupling[0]] = np.nan
        cells = len(evaluator._free.reduce(lin).c_cells[0])
        for c_matrix, nan_cells in ((zero, 0), (nan, 1), (nan_rhs, 0)):
            system = evaluator._free.reduce(dataclasses.replace(lin, c_matrix=c_matrix))
            assert len(system.c_cells[0]) == cells - (c_matrix is zero)
            assert np.isnan(system.c_cells[2]).sum() == nan_cells
            for freqs, s in reads:
                loop = ac_reference.free_transfer(system, "out", freqs)
                got = evaluator._transfer(system, freqs, s)
                assert got.tobytes() == loop.tobytes()
            assert np.isnan(got).any() == (c_matrix is not zero)

    def test_singular_stack_names_first_frequency(self):
        evaluator, (lin,), reads = _opamp_linears(2, 1, 4)
        g = lin.g_matrix.copy()
        c = lin.c_matrix.copy()
        row = lin.index("out")
        g[row, :] = 0.0
        c[row, :] = 0.0
        singular = dataclasses.replace(lin, g_matrix=g, c_matrix=c)
        system = evaluator._free.reduce(singular)
        for freqs, s in reads:
            with pytest.raises(AnalysisError) as stacked_err:
                evaluator._transfer(system, freqs, s)
            with pytest.raises(AnalysisError) as loop_err:
                ac_reference.free_transfer(system, "out", freqs)
            assert f"{freqs[0]:.3e}" in str(stacked_err.value)
            assert str(stacked_err.value) == str(loop_err.value)

    def test_replay_solves_each_frequency_against_its_own_rhs(self):
        # Only the second slice is singular: the replay must get past the
        # first, solving it against its own right-hand side row.
        lin = _rc_ladder()
        freqs = np.array([1e3, 2e3, 3e3])
        stack = ac_system_stack(lin, freqs)
        stack[1] = 0.0
        rhs = np.array([lin.b_ac * (k + 1) for k in range(len(freqs))])
        with pytest.raises(AnalysisError, match="2.000e[+]03"):
            solve_ac_stack(stack, rhs, freqs)
        stack[1] = stack[0]
        solved = solve_ac_stack(stack, rhs, freqs)
        for k in range(len(freqs)):
            assert solved[k].tobytes() == np.linalg.solve(stack[k], rhs[k]).tobytes()

    def test_frequency_last_out_is_filled_in_place(self):
        # The evaluator's scratch: an (n, n, F') buffer filled through the
        # (F, n, n) view of its first F columns.
        lin = _rc_ladder()
        freqs = np.logspace(3, 6, 7)
        cells = np.full((lin.size, lin.size, 11), complex(np.nan, 1.0))
        out = cells[:, :, : len(freqs)].transpose(2, 0, 1)
        stack = ac_system_stack(lin, freqs, out=out)
        assert stack is out
        assert stack.tobytes() == ac_system_stack(lin, freqs).tobytes()
        # Columns past the sweep are left alone.
        assert np.isnan(cells[:, :, len(freqs):].real).all()


#: The largest relative deviation of the free-node read-outs from the
#: whole MNA system's per-frequency loop this suite allows.  The campaign's
#: worst case is about 3e-13; the loop margins may move by 1e-9.
READ_OUT_TOLERANCE = 1e-10
MARGIN_TOLERANCE = 1e-9


class _WholeMnaProbe(HybridEvaluator):
    """Compares every read-out and loop margin with the whole MNA system's.

    Each read-out is solved again with ``ac_reference.ac_transfer`` on the
    candidate's whole linearization, and the loop margins again from that
    loop over the whole grid.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_outs = 0
        self.margins = 0
        self.worst = 0.0

    def _system(self, staged):
        self._lin = staged.assembly.linearize(staged.op)
        return super()._system(staged)

    def _transfer(self, system, freqs, s):
        got = super()._transfer(system, freqs, s)
        whole = ac_reference.ac_transfer(self._lin, "out", freqs)
        deviation = float(np.max(np.abs(got - whole) / np.abs(whole)))
        assert deviation <= READ_OUT_TOLERANCE, (deviation, freqs[0], len(freqs))
        self.worst = max(self.worst, deviation)
        self.read_outs += 1
        return got

    def _loop_margin_values(self, a):
        unity, pm = super()._loop_margin_values(a)
        whole = ac_reference.ac_transfer(self._lin, "out", _LOOP_FREQS)
        whole_unity, whole_pm = super()._loop_margin_values(whole)
        assert (unity is None) == (whole_unity is None)
        if unity is not None:
            assert math.isclose(unity, whole_unity, rel_tol=MARGIN_TOLERANCE)
            assert math.isclose(pm, whole_pm, rel_tol=MARGIN_TOLERANCE)
        self.margins += 1
        return unity, pm


def _vcvs_bench():
    b = CircuitBuilder("vcvs", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, ac=1.0, name="vin")
    b.vcvs("mid", "gnd", "in", "gnd", 2.0, name="e1")
    b.r("mid", "out", 1e3, name="r1")
    b.c("out", "gnd", 1e-9, name="c1")
    return b.circuit


def _inductor_bench():
    b = CircuitBuilder("inductor", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, ac=1.0, name="vin")
    b.l("in", "out", 1e-6, name="l1")
    b.c("out", "gnd", 1e-9, name="c1")
    return b.circuit


def _floating_bench():
    b = CircuitBuilder("floating", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, ac=1.0, name="vin")
    b.v("in", "mid", dc=0.0, ac=0.0, name="vfloat")
    b.r("mid", "out", 1e3, name="r1")
    b.c("out", "gnd", 1e-9, name="c1")
    return b.circuit


class TestFreeNodeReduction:
    """The free-node system against the whole MNA system."""

    @pytest.mark.parametrize("tech", [CMOS025, CMOS025_SLOW], ids=["nom", "slow"])
    def test_searched_read_outs_agree_with_the_whole_system(self, tech, monkeypatch):
        # Every candidate a short search visits, on each MDAC of the
        # 13-bit 4-3-2 plan.
        probes = []

        def probe(*args, **kwargs):
            probes.append(_WholeMnaProbe(*args, **kwargs))
            return probes[-1]

        monkeypatch.setattr(repro.synth.synthesis, "HybridEvaluator", probe)
        plan = plan_stages(
            AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
        )
        for mdac in plan.mdacs:
            synthesize_mdac(mdac, tech, budget=40, seed=1, verify_transient=False)
        assert len(probes) == len(plan.mdacs)
        assert all(p.read_outs > 0 and p.margins > 0 for p in probes)
        assert 0.0 < max(p.worst for p in probes) <= READ_OUT_TOLERANCE

    def test_the_bench_drops_its_two_sources(self):
        evaluator, (lin,), _ = _opamp_linears(0, 1, 1)
        nodes = evaluator._free
        fixed = [lin.layout.nets[i] for i in nodes.fixed]
        assert fixed == ["vdd", "inp"]
        assert len(nodes.free) == 7 and lin.size == 11
        system = nodes.reduce(lin)
        assert system.index("out") == list(nodes.free).index(lin.index("out"))
        with pytest.raises(AnalysisError, match="'inp' is not a free node"):
            system.index("inp")

    def test_a_negative_terminal_source_fixes_minus_its_ac(self):
        b = CircuitBuilder("flipped", tech=CMOS025)
        b.v("gnd", "in", dc=0.0, ac=1.0, name="vin")
        b.r("in", "out", 1e3, name="r1")
        b.c("out", "gnd", 1e-9, name="c1")
        lin = linearize(b.circuit, solve_dc(b.circuit))
        freqs = np.logspace(3, 8, 11)
        got = ac_reference.free_transfer(FreeNodes(lin.layout).reduce(lin), "out", freqs)
        whole = ac_reference.ac_transfer(lin, "out", freqs)
        assert np.max(np.abs(got - whole) / np.abs(whole)) <= READ_OUT_TOLERANCE

    @pytest.mark.parametrize(
        "bench, element",
        [
            (_vcvs_bench, "Vcvs 'e1'"),
            (_inductor_bench, "Inductor 'l1'"),
            (_floating_bench, "voltage source 'vfloat' from 'in' to 'mid'"),
        ],
    )
    def test_other_voltage_defined_elements_are_refused(self, bench, element):
        circuit = bench()
        lin = linearize(circuit, solve_dc(circuit))
        with pytest.raises(AnalysisError) as refused:
            FreeNodes(lin.layout)
        message = str(refused.value)
        assert "\n" not in message
        assert element in message
        assert message.endswith("is not a grounded independent voltage source")

    def test_a_node_fixed_twice_is_refused(self):
        b = CircuitBuilder("twice", tech=CMOS025)
        b.v("in", "gnd", dc=0.0, ac=1.0, name="va")
        b.v("gnd", "in", dc=0.0, ac=-1.0, name="vb")
        b.r("in", "out", 1e3, name="r1")
        b.c("out", "gnd", 1e-9, name="c1")
        with pytest.raises(AnalysisError) as refused:
            FreeNodes(MnaLayout(b.circuit))
        assert str(refused.value).endswith(
            "voltage source 'vb' fixes 'in', which 'va' already fixes"
        )
