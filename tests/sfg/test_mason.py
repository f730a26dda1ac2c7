"""Mason's gain formula on hand-built canonical graphs."""

import pytest

from tests.sfg import SfgError, SignalFlowGraph, mason_gain
from tests.symbolic import symbols


def evaluate(h, bindings=None, s=0.0):
    return h(s, bindings or {})


class TestBasicGraphs:
    def test_single_branch(self):
        g = SignalFlowGraph()
        g.add_branch("in", "out", 3.0)
        h = mason_gain(g, "in", "out")
        assert evaluate(h) == pytest.approx(3.0)

    def test_cascade_multiplies(self):
        g = SignalFlowGraph()
        g.add_branch("in", "x", 2.0)
        g.add_branch("x", "out", 5.0)
        h = mason_gain(g, "in", "out")
        assert evaluate(h) == pytest.approx(10.0)

    def test_parallel_branches_add(self):
        g = SignalFlowGraph()
        g.add_branch("in", "out", 2.0)
        g.add_branch("in", "out", 3.0)
        h = mason_gain(g, "in", "out")
        assert evaluate(h) == pytest.approx(5.0)

    def test_no_path_gives_zero(self):
        g = SignalFlowGraph()
        g.add_node("in")
        g.add_branch("a", "out", 1.0)
        assert mason_gain(g, "in", "out").is_zero()

    def test_source_equals_sink(self):
        g = SignalFlowGraph()
        g.add_branch("in", "out", 1.0)
        h = mason_gain(g, "in", "in")
        assert evaluate(h) == pytest.approx(1.0)

    def test_unknown_node_raises(self):
        g = SignalFlowGraph()
        g.add_branch("in", "out", 1.0)
        with pytest.raises(SfgError):
            mason_gain(g, "nope", "out")

    def test_self_loop_branch_rejected(self):
        g = SignalFlowGraph()
        with pytest.raises(SfgError):
            g.add_branch("x", "x", 1.0)


class TestFeedback:
    def test_classic_feedback_loop(self):
        # in -> x (A), x -> out (1), out -> x (-B): H = A / (1 + A... ) no:
        # loop gain = -B via x->out->x: H = A/(1 + B).
        g = SignalFlowGraph()
        g.add_branch("in", "x", 4.0)
        g.add_branch("x", "out", 1.0)
        g.add_branch("out", "x", -1.0)
        h = mason_gain(g, "in", "out")
        assert evaluate(h) == pytest.approx(4.0 / (1.0 + 1.0))

    def test_symbolic_feedback(self):
        a, f = symbols("a f")
        g = SignalFlowGraph()
        g.add_branch("in", "s", 1.0)
        g.add_branch("s", "out", a)
        g.add_branch("out", "s", -f)
        h = mason_gain(g, "in", "out")
        val = evaluate(h, {"a": 1000.0, "f": 0.1})
        assert val == pytest.approx(1000.0 / (1.0 + 100.0), rel=1e-12)

    def test_two_forward_paths_with_loop(self):
        # P1 = A*B*C through the loop region, P2 = E*C, loop L = -B*D.
        a, bsym, c, d, e = 2.0, 3.0, 5.0, 0.5, 7.0
        g = SignalFlowGraph()
        g.add_branch("in", "x1", a)
        g.add_branch("x1", "x2", bsym)
        g.add_branch("x2", "out", c)
        g.add_branch("x2", "x1", -d)
        g.add_branch("in", "x2", e)
        h = mason_gain(g, "in", "out")
        # Both paths touch the loop: H = (ABC + EC) / (1 + BD).
        expected = (a * bsym * c + e * c) / (1 + bsym * d)
        assert evaluate(h) == pytest.approx(expected, rel=1e-12)

    def test_non_touching_loop_determinant(self):
        # Path in->p->out with loop at p (L1) and a detached loop q<->r (L2).
        # H = P / (1 - L1) after the (1 - L2) factors cancel.
        p_gain, l1a, l1b, l2a, l2b = 5.0, 2.0, 0.25, 3.0, 0.1
        g = SignalFlowGraph()
        g.add_branch("in", "p", p_gain)
        g.add_branch("p", "out", 1.0)
        g.add_branch("p", "a", l1a)
        g.add_branch("a", "p", l1b)
        g.add_branch("q", "r", l2a)
        g.add_branch("r", "q", l2b)
        h = mason_gain(g, "in", "out")
        expected = p_gain / (1 - l1a * l1b)
        assert evaluate(h) == pytest.approx(expected, rel=1e-12)

    def test_two_touching_loops(self):
        # Loops sharing node x are touching: no L1*L2 term.
        g = SignalFlowGraph()
        g.add_branch("in", "x", 1.0)
        g.add_branch("x", "out", 1.0)
        g.add_branch("x", "a", 2.0)
        g.add_branch("a", "x", 0.1)  # L1 = 0.2
        g.add_branch("x", "b", 3.0)
        g.add_branch("b", "x", 0.1)  # L2 = 0.3
        h = mason_gain(g, "in", "out")
        assert evaluate(h) == pytest.approx(1.0 / (1 - 0.2 - 0.3), rel=1e-12)


class TestGraphContainer:
    def test_weight_lookup(self):
        g = SignalFlowGraph()
        g.add_branch("a", "b", 2.0)
        assert evaluate(g.weight("a", "b")) == pytest.approx(2.0)
        with pytest.raises(SfgError):
            g.weight("b", "a")

    def test_loops_enumeration(self):
        g = SignalFlowGraph()
        g.add_branch("a", "b", 1.0)
        g.add_branch("b", "a", 1.0)
        assert len(g.loops()) == 1

    def test_forward_paths(self):
        g = SignalFlowGraph()
        g.add_branch("in", "a", 1.0)
        g.add_branch("a", "out", 1.0)
        g.add_branch("in", "out", 1.0)
        assert len(g.forward_paths("in", "out")) == 2
