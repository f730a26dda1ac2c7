"""Simulated annealing over a unit hypercube (the NeoCircuit-style engine)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import SynthesisError

#: ``reject(bound) -> bool``: would any cost ``>= bound`` be turned down?
#: A cost function may ask it any number of times, each time with a lower
#: bound on the cost it returns.
Reject = Callable[[float], bool]

#: ``cost_fn(x, reject)``; ``reject`` is None for a point compared with nothing.
CostFn = Callable[[np.ndarray, Reject | None], float]

#: Relative slack on the acceptance probability a rejection relies on:
#: ``np.exp`` is not documented as monotone.
_EXP_SLACK = 1.0 + 1e-9


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    #: Best point found (unit coordinates).
    best_x: np.ndarray
    #: Best cost.
    best_cost: float
    #: Cost of the best point after each evaluation (learning curve).
    history: list[float]
    #: Total evaluations spent.
    evaluations: int
    #: Evaluations needed to first reach within 5% of the final best.
    evals_to_converge: int


class _Comparison:
    """One Metropolis comparison of a candidate with the current cost.

    The acceptance test draws a uniform ``u`` exactly when the candidate
    costs more than the current point.  :meth:`reject` draws that same
    ``u`` early, on the first ask whose lower bound already says the
    candidate costs more; later asks and :meth:`accepts` reuse it, so the
    random stream never moves.
    """

    def __init__(self, rng: np.random.Generator, cost: float, temperature: float):
        self.rng = rng
        self.cost = cost
        self.temperature = max(temperature, 1e-12)
        self.u: float | None = None

    def reject(self, bound: float) -> bool:
        if not bound > self.cost:
            return False
        if self.u is None:
            self.u = self.rng.random()
        # Every cost >= bound has a delta >= bound - cost, so an
        # acceptance probability no larger than this one (up to the slack).
        return self.u >= np.exp(-(bound - self.cost) / self.temperature) * _EXP_SLACK

    def accepts(self, candidate_cost: float) -> bool:
        delta = candidate_cost - self.cost
        if self.u is None:
            return delta <= 0 or self.rng.random() < np.exp(-delta / self.temperature)
        if delta <= 0:
            raise SynthesisError(
                "cost function returned a cost at or below the current one "
                "after reject drew the acceptance uniform"
            )
        return self.u < np.exp(-delta / self.temperature)


def anneal(
    cost_fn: CostFn,
    dimension: int,
    budget: int = 400,
    seed: int = 1,
    x0: np.ndarray | None = None,
    t_start: float = 1.0,
    t_end: float = 1e-3,
    step_start: float = 0.35,
    step_end: float = 0.02,
) -> AnnealResult:
    """Metropolis annealing with a geometric temperature/step schedule.

    ``cost_fn(x, reject)`` maps a point in [0,1]^dimension to a scalar
    cost; lower is better.  For each candidate, ``reject(bound)`` answers
    whether any cost ``>= bound`` would be turned down.  A cost function
    may ask it as often as it learns a lower bound on the cost, and after
    a ``True`` may return ``inf`` instead of finishing the cost: the
    candidate is turned down either way.  The acceptance uniform is drawn
    at most once per candidate, on the first ask whose bound exceeds the
    current cost, and every later answer reuses it, so asking never moves
    the random stream.  The starting point is compared with nothing and
    gets ``reject=None``.  Returning a cost at or below the current one
    after ``reject`` drew the uniform would shift the stream and raises
    :class:`SynthesisError`.  ``x0`` warm-starts the search (the
    retargeting mechanism).
    """
    if budget < 2:
        raise SynthesisError("budget must be >= 2")
    rng = np.random.default_rng(seed)
    x = rng.random(dimension) if x0 is None else np.clip(np.asarray(x0, float), 0, 1)
    cost = cost_fn(x, None)
    best_x, best_cost = x.copy(), cost
    history = [best_cost]

    for k in range(1, budget):
        frac = k / (budget - 1)
        temperature = t_start * (t_end / t_start) ** frac
        step = step_start * (step_end / step_start) ** frac
        candidate = np.clip(x + rng.normal(0.0, step, dimension), 0.0, 1.0)
        comparison = _Comparison(rng, cost, temperature)
        candidate_cost = cost_fn(candidate, comparison.reject)
        if comparison.accepts(candidate_cost):
            x, cost = candidate, candidate_cost
            if cost < best_cost:
                best_x, best_cost = x.copy(), cost
        history.append(best_cost)

    threshold = best_cost * 1.05 if best_cost > 0 else best_cost
    evals_to_converge = next(
        (i + 1 for i, c in enumerate(history) if c <= threshold), budget
    )
    return AnnealResult(
        best_x=best_x,
        best_cost=best_cost,
        history=history,
        evaluations=budget,
        evals_to_converge=evals_to_converge,
    )
