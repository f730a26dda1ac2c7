"""Circuit analysis engines built on modified nodal analysis (MNA).

The paper's hybrid evaluation needs the capabilities below, all provided
here on top of dense numpy linear algebra (opamp-scale circuits have tens
of nodes, so sparsity machinery would be overhead):

* :mod:`repro.analysis.template` — the compiled MNA stamp program that
  the DC, small-signal and transient analyses run on: one compile per
  circuit topology, one bind per circuit;
* :mod:`repro.analysis.dc` — Newton operating-point solver with gmin and
  source stepping homotopies ("DC simulation to extract small-signal values");
* :mod:`repro.analysis.smallsignal` / :mod:`repro.analysis.ac` — linearized
  G/C matrices and complex frequency sweeps;
* :mod:`repro.analysis.transient` — trapezoidal/backward-Euler integration
  with clocked switches for large-swing settling ("simulation-based
  evaluation ... when circuits experience large dynamic swing");
* :mod:`repro.analysis.noise` — adjoint output-noise analysis.
"""

from repro.analysis.mna import MnaLayout
from repro.analysis.dc import DcSolution, solve_dc
from repro.analysis.smallsignal import LinearizedCircuit, linearize
from repro.analysis.ac import ac_transfer, ac_response
from repro.analysis.noise import output_noise_psd, integrated_output_noise
from repro.analysis.transient import TransientResult, simulate_transient

__all__ = [
    "MnaLayout",
    "DcSolution",
    "solve_dc",
    "LinearizedCircuit",
    "linearize",
    "ac_transfer",
    "ac_response",
    "output_noise_psd",
    "integrated_output_noise",
    "TransientResult",
    "simulate_transient",
]
