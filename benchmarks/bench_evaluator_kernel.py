"""Compiled evaluation kernels: the reference walk vs compiled.

The PR 3 tentpole claim, measured three ways on a standard
``synthesize_mdac`` workload (cold anneal, budget 400, fixed seed):

* **full-candidate throughput** — candidates/second through the whole
  equation evaluation (DC Newton + linearization + AC sweep + metrics),
  the reference walk (``tests/synth/evaluator_reference.py``, swapped in
  for the evaluator) vs the compiled kernel;
* **equation-metric stage throughput** — the transfer-function stage
  alone (the paper's "formulate the numerical transfer function" step):
  the seed solved the whole MNA system one frequency at a time through
  per-call ``np.linalg.solve``; the kernel solves each of the evaluator's
  staged read-outs (the DC-gain point, the top of the loop grid, then its
  bottom) on the bench's free node voltages as one stacked batch.  The
  joined read-out has the bytes of a per-frequency loop over the same
  free-node system, and stays within :data:`READ_OUT_TOLERANCE` (relative)
  of the whole MNA system's loop.  This is where the batched-linear-solve
  tentpole lands its biggest factor (>= 3x over the seed's loop is
  asserted here, on the best of several timed blocks);
* **result identity** — both sides must produce bit-identical
  synthesis results (the determinism contract that lets the compiled
  kernel be the default).

The reference side derives its :class:`~repro.analysis.mna.MnaLayout`
per candidate, as the pre-kernel evaluator did
(``tests/analysis/mna_reference.py``).  ``benchmarks/run_all.py`` records
the same numbers.
"""

import math
import struct
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

# The reference walks live in the test tree; import them from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.analysis.ac import FreeNodes, ac_system_stack
from repro.analysis.dc import solve_dc
from repro.analysis.smallsignal import linearize
from repro.engine.persist import sizing_digest
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.synth.evaluator import (
    _GAIN,
    _LOOP_FREQS,
    _SIGNAL_DEVICES,
    DIFFERENTIAL_FACTOR,
)
from repro.tech import CMOS025
from tests.analysis import ac_reference
from tests.synth.evaluator_reference import ReferenceEvaluator


def _block_spec():
    spec = AdcSpec(resolution_bits=13)
    plan = plan_stages(spec, PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]  # the 2-bit stage: fastest standard block


#: The largest relative deviation of the free-node read-outs from the
#: whole MNA system's loop that ``run_all.py --check`` accepts; a cold
#: Fig. 2 campaign's worst case is about 3e-13.
READ_OUT_TOLERANCE = 1e-10


def staged_read_out(evaluator: HybridEvaluator, sizing):
    """The evaluator's AC read-outs of one candidate, per frequency and stacked.

    Returns ``(legacy, batched, identical, deviation)``.  ``legacy`` and
    ``batched`` are callables that solve the DC-gain point, the top of the
    loop grid and its bottom: the seed's per-frequency loop over the whole
    MNA system, and the evaluator's stacked solves of the free-node system
    (each call builds that system again from the DC solution, as each
    candidate does).  ``identical`` says whether the stacked read-outs
    joined as ``[gain point | bottom | top]`` have the bytes of the
    per-frequency loop over the same free-node system
    (``ac_reference.free_transfer``) on the whole grid, and ``deviation``
    is their largest relative deviation from the whole MNA system's loop.
    """
    staged = evaluator._stage_equation(sizing)
    assert staged.op is not None
    lin = staged.assembly.linearize(staged.op)
    reads = (_GAIN, evaluator._top, evaluator._bottom)

    def legacy():
        return [ac_reference.ac_transfer(lin, "out", freqs) for freqs, _ in reads]

    def batched():
        system = evaluator._system(staged)
        return [evaluator._transfer(system, freqs, s) for freqs, s in reads]

    gain, top, bottom = batched()
    joined = np.concatenate((gain, bottom, top))
    oracle = ac_reference.free_transfer(evaluator._free.reduce(lin), "out", _LOOP_FREQS)
    whole = ac_reference.ac_transfer(lin, "out", _LOOP_FREQS)
    deviation = float(np.max(np.abs(joined - whole) / np.abs(whole)))
    return legacy, batched, joined.tobytes() == oracle.tobytes(), deviation


def candidate_glue_us(evaluator_cls, mdac, sizings, repeats: int) -> dict:
    """Per-candidate µs of the equation half's stages, best of ``repeats``.

    One evaluator of ``evaluator_cls`` walks ``sizings`` in order per pass,
    its warm-start chain restarted each pass: the DC stage (bind, DC solve,
    power and saturation margin) per candidate, and per candidate whose
    DC solve converged the small-signal step (its free-node system) and
    the read-out glue, what the three read-outs cost beyond one batched
    ``np.linalg.solve`` of each read-out's stack.
    """
    evaluator = evaluator_cls(mdac, CMOS025)
    reads = (_GAIN, evaluator._top, evaluator._bottom)
    clock = time.perf_counter
    keys = ("dc_stage_us", "small_signal_us", "read_out_glue_us")
    best = dict.fromkeys(keys, math.inf)
    for _ in range(repeats):
        evaluator._warm_x = None
        dc = small = glue = 0.0
        solved = 0
        for sizing in sizings:
            start = clock()
            staged = evaluator._stage_equation(sizing)
            dc += clock() - start
            if staged.op is None:
                continue
            solved += 1
            start = clock()
            system = evaluator._system(staged)
            small += clock() - start
            for freqs, s in reads:
                start = clock()
                evaluator._transfer(system, freqs, s)
                glue += clock() - start
                stack = ac_system_stack(system, freqs, s=s)
                rhs = system.excitation(s)[..., None]
                start = clock()
                np.linalg.solve(stack, rhs)
                glue -= clock() - start
        times = (dc / len(sizings), small / solved, glue / solved)
        for key, seconds in zip(best, times):
            best[key] = min(best[key], seconds * 1e6)
    return {key: round(us, 2) for key, us in best.items()}


def public_path_identical(mdac, sizings) -> bool:
    """The evaluator's DC-stage reads against the public path, by bytes.

    Each candidate starts cold, as a public ``solve_dc`` from the
    evaluator's guess does.  Its power, saturation margin and free-node
    system must equal ``solve_dc`` on the candidate's netlist, read
    through its ``device_ops`` objects, then ``linearize`` and
    ``FreeNodes.reduce``, byte for byte.
    """
    evaluator = HybridEvaluator(mdac, CMOS025)
    compared = 0
    for sizing in sizings:
        evaluator._warm_x = None
        staged = evaluator._stage_equation(sizing)
        if staged.op is None:
            continue
        bench = evaluator._ac_bench(sizing)
        op = solve_dc(bench, initial_guess=evaluator._dc_guess())
        power = CMOS025.vdd * abs(op.supply_current("vdd_src")) * DIFFERENTIAL_FACTOR
        saturation = min(
            abs(op.device_ops[name].vds) - op.device_ops[name].vdsat
            for name in _SIGNAL_DEVICES
        )
        lin = linearize(bench, op, include_noise=False)
        public = FreeNodes(lin.layout).reduce(lin)
        system = evaluator._system(staged)
        arrays = ("g_matrix", "c_matrix", "b_vector", "c_vector")
        if (
            struct.pack("<dd", staged.power, staged.saturation)
            != struct.pack("<dd", power, saturation)
            or any(
                getattr(system, name).tobytes() != getattr(public, name).tobytes()
                for name in arrays
            )
            or any(
                mine.tobytes() != theirs.tobytes()
                for mine, theirs in zip(system.c_cells, public.c_cells)
            )
        ):
            return False
        compared += 1
    return compared > 0


def best_rate(fn, repeats: int, blocks: int = 5) -> float:
    """Calls per second of ``fn``: the best of ``blocks`` timed blocks."""
    fn()
    best = 0.0
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = max(best, repeats / (time.perf_counter() - start))
    return best


def _synthesize(budget: int = 400):
    mdac = _block_spec()
    start = time.perf_counter()
    result = synthesize_mdac(
        mdac,
        CMOS025,
        budget=budget,
        seed=1,
        verify_transient=False,
    )
    wall = time.perf_counter() - start
    return result, result.equation_evals / wall


@pytest.mark.slow
def test_kernel_throughput_and_identity(once):
    """Compiled >= 2x legacy on full candidates, with identical results."""
    with mock.patch("repro.synth.synthesis.HybridEvaluator", ReferenceEvaluator):
        legacy, legacy_rate = _synthesize()
    compiled_run = once(_synthesize)
    compiled, compiled_rate = compiled_run

    print(
        f"\nlegacy:      {legacy_rate:7.1f} cand/s"
        f"\ncompiled:    {compiled_rate:7.1f} cand/s"
        f" ({compiled_rate / legacy_rate:.2f}x)"
    )
    # Bit-identical synthesis outcomes on both sides.
    assert sizing_digest(compiled) == sizing_digest(legacy)
    assert compiled.history == legacy.history
    assert compiled.equation_evals == legacy.equation_evals
    # Wall-clock: the compiled kernel must clearly beat the legacy walk.
    assert compiled_rate >= 2.0 * legacy_rate


@pytest.mark.slow
def test_equation_metric_stage_speedup():
    """The batched AC read-outs are >= 3x the per-frequency legacy loop."""
    mdac = _block_spec()
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(1)
    legacy_stage, batched_stage, identical, deviation = staged_read_out(
        evaluator, space.decode(rng.random(space.dimension))
    )
    assert identical
    assert deviation <= READ_OUT_TOLERANCE

    legacy_rate = best_rate(legacy_stage, 30)
    batched_rate = best_rate(batched_stage, 30)
    speedup = batched_rate / legacy_rate
    print(
        f"\nequation-metric stage: legacy {legacy_rate:6.1f}/s, "
        f"batched {batched_rate:6.1f}/s -> {speedup:.2f}x"
    )
    assert speedup >= 3.0
