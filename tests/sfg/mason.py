"""Mason's gain formula over a signal-flow graph.

``H = sum_k P_k * Delta_k / Delta`` where

* ``P_k`` are the forward-path gains from source to sink,
* ``Delta = 1 - sum(L_i) + sum(L_i L_j, non-touching) - ...`` is the graph
  determinant over all sets of pairwise non-touching loops, and
* ``Delta_k`` is the determinant of the subgraph not touching path ``k``.

All arithmetic is over symbolic rational functions, so the result is the
circuit's symbolic transfer function — the central object of the paper's
block-level evaluation flow.
"""

from __future__ import annotations

from tests.sfg.graph import SfgError, SignalFlowGraph
from tests.symbolic import RationalFunction

#: Guard against combinatorial blow-up on pathological graphs.
_MAX_LOOPS = 64


def _determinant(
    loop_nodes: list[frozenset[str]], loop_gains: list[RationalFunction]
) -> RationalFunction:
    """Graph determinant over pairwise non-touching loop subsets."""
    delta = RationalFunction.one()
    n = len(loop_nodes)

    def recurse(start: int, used: frozenset[str], gain: RationalFunction, size: int):
        nonlocal delta
        for k in range(start, n):
            if used & loop_nodes[k]:
                continue
            term_gain = gain * loop_gains[k]
            sign = -1.0 if (size + 1) % 2 == 1 else 1.0
            delta = delta + term_gain * sign
            recurse(k + 1, used | loop_nodes[k], term_gain, size + 1)

    recurse(0, frozenset(), RationalFunction.one(), 0)
    return delta


def mason_gain(graph: SignalFlowGraph, source: str, sink: str) -> RationalFunction:
    """Symbolic transfer from ``source`` to ``sink`` by Mason's rule."""
    if source == sink:
        return RationalFunction.one()
    paths = graph.forward_paths(source, sink)
    if not paths:
        return RationalFunction.zero()

    cycles = graph.loops()
    if len(cycles) > _MAX_LOOPS:
        raise SfgError(
            f"graph {graph.name!r} has {len(cycles)} loops; Mason's rule would "
            f"blow up (limit {_MAX_LOOPS})"
        )
    loop_nodes = [frozenset(c) for c in cycles]
    loop_gains = [graph.loop_gain(c) for c in cycles]

    delta = _determinant(loop_nodes, loop_gains)
    if delta.is_zero():
        raise SfgError("graph determinant is identically zero")

    numerator = RationalFunction.zero()
    for path in paths:
        path_nodes = frozenset(path)
        # Keep only the loops that do not touch this forward path.
        keep = [k for k, nodes in enumerate(loop_nodes) if not (nodes & path_nodes)]
        delta_k = _determinant(
            [loop_nodes[k] for k in keep], [loop_gains[k] for k in keep]
        )
        numerator = numerator + graph.path_gain(path) * delta_k

    return numerator / delta
