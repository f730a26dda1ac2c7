"""Signal-flow graph container with rational-function branch weights.

The graph and its path and cycle searches are networkx's.
"""

from __future__ import annotations

from collections.abc import Iterator

import networkx as nx

from tests.symbolic import RationalFunction
from tests.symbolic.ratfunc import as_ratfunc


class SfgError(Exception):
    """Raised for malformed signal-flow graphs or Mason's-rule failures."""


class SignalFlowGraph:
    """A directed graph whose edges carry transfer weights.

    Parallel branches between the same pair of nodes are summed at insertion
    time, which is the signal-flow-graph composition rule.
    """

    def __init__(self, name: str = "sfg"):
        self.name = name
        self._graph = nx.DiGraph()

    def add_node(self, node: str) -> None:
        """Add a signal node (idempotent)."""
        self._graph.add_node(node)

    def add_branch(self, src: str, dst: str, weight) -> None:
        """Add a branch; parallel branches accumulate by addition."""
        if src == dst:
            raise SfgError(f"self-loop branch on {src!r}: use a loop via other nodes")
        weight = as_ratfunc(weight)
        if self._graph.has_edge(src, dst):
            self._graph[src][dst]["weight"] = self._graph[src][dst]["weight"] + weight
        else:
            self._graph.add_edge(src, dst, weight=weight)

    def weight(self, src: str, dst: str) -> RationalFunction:
        """Weight of the branch src -> dst."""
        try:
            return self._graph[src][dst]["weight"]
        except KeyError:
            raise SfgError(f"no branch {src!r} -> {dst!r}") from None

    @property
    def nodes(self) -> list[str]:
        """All signal nodes."""
        return list(self._graph.nodes)

    def branches(self) -> Iterator[tuple[str, str, RationalFunction]]:
        """Iterate (src, dst, weight) over all branches."""
        for src, dst, data in self._graph.edges(data=True):
            yield src, dst, data["weight"]

    def has_node(self, node: str) -> bool:
        """True if the node exists."""
        return node in self._graph

    def forward_paths(self, src: str, dst: str) -> list[list[str]]:
        """All simple paths from src to dst (Mason's forward paths)."""
        if not self.has_node(src):
            raise SfgError(f"unknown source node {src!r}")
        if not self.has_node(dst):
            raise SfgError(f"unknown sink node {dst!r}")
        return [list(p) for p in nx.all_simple_paths(self._graph, src, dst)]

    def loops(self) -> list[list[str]]:
        """All simple directed cycles (Mason's loops)."""
        return [list(c) for c in nx.simple_cycles(self._graph)]

    def path_gain(self, path: list[str]) -> RationalFunction:
        """Product of branch weights along a node path."""
        gain = RationalFunction.one()
        for a, b in zip(path, path[1:]):
            gain = gain * self.weight(a, b)
        return gain

    def loop_gain(self, cycle: list[str]) -> RationalFunction:
        """Product of branch weights around a cycle (closing edge included)."""
        gain = self.path_gain(cycle)
        return gain * self.weight(cycle[-1], cycle[0])

    def __repr__(self) -> str:
        return (
            f"SignalFlowGraph({self.name!r}, {self._graph.number_of_nodes()} nodes, "
            f"{self._graph.number_of_edges()} branches)"
        )
