"""Block-level circuit synthesis — the commercial-tool substitute.

The paper sizes each MDAC with Cadence NeoCircuit, an annealing-based
sizing tool driven by a hybrid equation + simulation evaluation.  This
package reproduces that flow end to end:

* :mod:`repro.synth.space` — design variables with bounds *reduced* by the
  DPI/SFG analysis of the opamp topology (the paper's step 1);
* :mod:`repro.synth.evaluator` — the hybrid evaluation: DC simulation for
  small-signal extraction, numerical transfer function for gain/GBW/phase
  margin (fast equations), and full nonlinear transient settling for the
  large-swing behaviour (trustworthy simulation);
* :mod:`repro.synth.anneal` / :mod:`repro.synth.de` — global optimizers;
* :mod:`repro.synth.synthesis` — the per-block synthesis driver;
* :mod:`repro.synth.retarget` — warm-started re-synthesis to new specs,
  reproducing the paper's "2-3 weeks first, 1 day for retargets" economy.
"""

from repro.synth.space import DesignSpace, DesignVariable, two_stage_space
from repro.synth.evaluator import EvalResult, HybridEvaluator
from repro.synth.anneal import anneal
from repro.synth.de import differential_evolution
from repro.synth.result import SynthesisResult
from repro.synth.synthesis import synthesize_mdac
from repro.synth.retarget import retarget_mdac

__all__ = [
    "DesignSpace",
    "DesignVariable",
    "two_stage_space",
    "HybridEvaluator",
    "EvalResult",
    "anneal",
    "differential_evolution",
    "SynthesisResult",
    "synthesize_mdac",
    "retarget_mdac",
]
