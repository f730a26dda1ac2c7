"""Compiled evaluation kernels: the reference walk vs compiled.

The PR 3 tentpole claim, measured three ways on a standard
``synthesize_mdac`` workload (cold anneal, budget 400, fixed seed):

* **full-candidate throughput** — candidates/second through the whole
  equation evaluation (DC Newton + linearization + AC sweep + metrics),
  the reference walk (``tests/synth/evaluator_reference.py``, swapped in
  for the evaluator) vs the compiled kernel;
* **equation-metric stage throughput** — the transfer-function stage
  alone (the paper's "formulate the numerical transfer function" step):
  the seed solved it one frequency at a time through per-call
  ``np.linalg.solve``; the kernel solves each of its two grids (the
  DC-gain point, then the loop grid) as one stacked batch.  This is
  where the batched-linear-solve tentpole lands its biggest factor
  (>= 3x is asserted here);
* **result identity** — both sides must produce bit-identical
  synthesis results (the determinism contract that lets the compiled
  kernel be the default).

The reference side runs under ``layout_cache_disabled`` so it also pays
the per-call :class:`~repro.analysis.mna.MnaLayout` derivation the
pre-kernel evaluator paid.  ``benchmarks/run_all.py`` records the same
numbers.
"""

import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

# The reference walks live in the test tree; import them from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.analysis.mna import layout_cache_disabled
from repro.engine.persist import sizing_digest
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.synth.evaluator import _GAIN_FREQS, _LOOP_FREQS
from repro.tech import CMOS025
from tests.analysis import ac_reference
from tests.synth.evaluator_reference import ReferenceEvaluator


def _block_spec():
    spec = AdcSpec(resolution_bits=13)
    plan = plan_stages(spec, PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]  # the 2-bit stage: fastest standard block


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
    with layout_cache_disabled(), mock.patch(
        "repro.synth.synthesis.HybridEvaluator", ReferenceEvaluator
    ):
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
    """The batched AC sweep is >= 3x the per-frequency legacy loop."""
    mdac = _block_spec()
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(1)
    staged = evaluator._stage_equation(space.decode(rng.random(space.dimension)))
    assert staged.lin is not None
    lin = staged.lin

    # The evaluator's two read-outs: the DC-gain point, then the loop grid.
    def legacy_stage():
        return [ac_reference.ac_transfer(lin, "out", f) for f in (_GAIN_FREQS, _LOOP_FREQS)]

    def batched_stage():
        return [evaluator._transfer(lin, f) for f in (_GAIN_FREQS, _LOOP_FREQS)]

    # Identical transfer vectors, slice for slice.
    assert all(map(np.array_equal, legacy_stage(), batched_stage()))

    def rate(fn, repeats=30):
        fn()
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return repeats / (time.perf_counter() - start)

    legacy_rate = rate(legacy_stage)
    batched_rate = rate(batched_stage)
    speedup = batched_rate / legacy_rate
    print(
        f"\nequation-metric stage: legacy {legacy_rate:6.1f}/s, "
        f"batched {batched_rate:6.1f}/s -> {speedup:.2f}x"
    )
    assert speedup >= 3.0

