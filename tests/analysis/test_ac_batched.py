"""Batched AC solves: one stacked solve, bit-identical to the per-frequency loop.

The loop is the oracle in ``tests/analysis/ac_reference.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.ac import (
    ac_response,
    ac_system_stack,
    ac_system_tensor,
    solve_ac_stack,
)
from repro.analysis.dc import solve_dc
from repro.analysis.smallsignal import LinearizedCircuit, linearize
from repro.analysis.mna import layout_for
from repro.circuit.builder import CircuitBuilder
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import AnalysisError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, two_stage_space
from repro.synth.evaluator import _GAIN_FREQS, _LOOP_FREQS
from repro.tech import CMOS025
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
    solve converges, linearized the way the evaluator does; the read-outs
    are the gain point, the top and the bottom of the loop grid.
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
            linears.append(evaluator._linearize(staged))
    k0 = evaluator._k0
    return evaluator, linears, (_GAIN_FREQS, _LOOP_FREQS[k0:], _LOOP_FREQS[1:k0])


class TestFrequencyLastReadOut:
    """The evaluator's frequency-last stacks solve to the loop's bytes."""

    @pytest.mark.parametrize("index, seed", [(0, 1), (1, 5), (2, 9)])
    def test_read_outs_equal_the_loop(self, index, seed):
        evaluator, linears, reads = _opamp_linears(index, 3, seed)
        for lin in linears:
            for freqs in reads:
                loop = ac_reference.ac_transfer(lin, "out", freqs)
                assert evaluator._transfer(lin, freqs).tobytes() == loop.tobytes()

    def test_zero_and_nan_capacitance_cells(self):
        # A structural C cell that is exactly 0.0 gets no s*C term, as the
        # dense sum adds an exact zero there; a NaN cell gets one.
        evaluator, (lin,), reads = _opamp_linears(0, 1, 3)
        rows, cols = np.nonzero(lin.c_matrix)
        zero = lin.c_matrix.copy()
        zero[rows[0], cols[0]] = 0.0
        nan = lin.c_matrix.copy()
        nan[rows[-1], cols[-1]] = np.nan
        for c_matrix in (zero, nan):
            changed = dataclasses.replace(lin, c_matrix=c_matrix)
            for freqs in reads:
                loop = ac_reference.ac_transfer(changed, "out", freqs)
                got = evaluator._transfer(changed, freqs)
                assert got.tobytes() == loop.tobytes()
        assert np.isnan(evaluator._transfer(changed, reads[1])).any()

    def test_singular_stack_names_first_frequency(self):
        evaluator, (lin,), reads = _opamp_linears(2, 1, 4)
        g = lin.g_matrix.copy()
        c = lin.c_matrix.copy()
        row = lin.index("out")
        g[row, :] = 0.0
        c[row, :] = 0.0
        broken = dataclasses.replace(lin, g_matrix=g, c_matrix=c)
        for freqs in reads:
            with pytest.raises(AnalysisError) as stacked_err:
                evaluator._transfer(broken, freqs)
            with pytest.raises(AnalysisError) as loop_err:
                ac_reference.ac_transfer(broken, "out", freqs)
            assert f"{freqs[0]:.3e}" in str(stacked_err.value)
            assert str(stacked_err.value) == str(loop_err.value)

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
