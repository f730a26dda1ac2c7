"""Kernel equivalence: the compiled evaluator == the reference walk, bitwise.

The PR 3 acceptance contract: every metric, cost, optimizer trajectory and
synthesis outcome of the compiled evaluator must be *bit-identical* to the
per-element equation path kept in ``tests/synth/evaluator_reference.py``.

The searches on the compiled evaluator also pass their ``reject`` callback
through, so candidates they would turn down skip the rest of their
evaluation, while the reference evaluator ignores it.  Matching
trajectories therefore show that pruning moves nothing; every such
comparison checks that it pruned, and each suite that all three stages
(after the DC solve, the gain point and the top of the loop grid)
rejected somewhere across its cases.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.synth.synthesis
from repro.analysis.ac import FreeNodes
from repro.analysis.dc import solve_dc
from repro.analysis.smallsignal import linearize
from repro.engine.persist import sizing_digest
from repro.errors import AnalysisError
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import (
    HybridEvaluator,
    anneal,
    differential_evolution,
    synthesize_mdac,
    two_stage_space,
)
from repro.synth.evaluator import (
    _LOOP_FREQS,
    DIFFERENTIAL_FACTOR,
    FAILED_COST,
    REJECT_STAGES,
    _split_index,
    _top_bandwidth_violation,
    _unity_crossing,
)
from repro.synth.patternsearch import pattern_search
from repro.tech import CMOS025
from repro.tech.process import CMOS025_SLOW
from tests.conftest import rejected_at, rejected_candidates
from tests.synth.evaluator_reference import ReferenceEvaluator

CORNERS = {"nom": CMOS025, "slow": CMOS025_SLOW}


def _mdac(index=2):
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[index]


def _sizings(tech, count, seed):
    mdac = _mdac()
    space = two_stage_space(mdac, tech)
    rng = np.random.default_rng(seed)
    return mdac, [space.decode(rng.random(space.dimension)) for _ in range(count)]


#: Compiled-side rejections by stage, per search case a test has run.
_REJECTED_AT: dict[tuple, dict[str, int]] = {}


def _assert_every_stage_rejected(cases):
    """Each stage rejected in at least one of ``cases``.

    ``cases`` maps a case key to a function that runs the case's compiled
    side and returns its rejections by stage.  A case no test has recorded
    yet (a ``-k`` selection, say) runs here.
    """
    totals = Counter()
    for key, run in cases.items():
        if key not in _REJECTED_AT:
            _REJECTED_AT[key] = run()
        totals.update(_REJECTED_AT[key])
    assert all(totals[stage] > 0 for stage in REJECT_STAGES), totals


def _assert_results_equal(a, b):
    for field in (
        "power",
        "dc_gain",
        "loop_unity_hz",
        "phase_margin",
        "saturation_margin",
        "settling_error",
        "dc_ok",
    ):
        assert getattr(a, field) == getattr(b, field), field
    assert a.violations == b.violations
    assert a.cost() == b.cost()


class TestEvaluatorEquivalence:
    def test_compiled_matches_legacy_bitwise(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(3)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(12)]
        legacy = ReferenceEvaluator(mdac, CMOS025)
        compiled_ = HybridEvaluator(mdac, CMOS025)
        for sizing in sizings:
            _assert_results_equal(
                legacy.evaluate(sizing), compiled_.evaluate(sizing)
            )
        assert legacy.equation_evals == compiled_.equation_evals

    def test_evaluate_batch_matches_sequential(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(9)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(10)]
        sequential = HybridEvaluator(mdac, CMOS025)
        batched = HybridEvaluator(mdac, CMOS025)
        seq_results = [sequential.evaluate(s) for s in sizings]
        batch_results = batched.evaluate_batch(sizings)
        for a, b in zip(seq_results, batch_results):
            _assert_results_equal(a, b)
        assert sequential.equation_evals == batched.equation_evals

    def test_empty_batch(self):
        evaluator = HybridEvaluator(_mdac(), CMOS025)
        assert evaluator.evaluate_batch([]) == []
        assert evaluator.equation_evals == 0


class TestCornerEquivalence:
    """Every corner: the batch path equals the reference walk."""

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_batch_matches_legacy_walk(self, corner):
        tech = CORNERS[corner]
        mdac, sizings = _sizings(tech, 6, seed=11)
        legacy = ReferenceEvaluator(mdac, tech)
        compiled_ = HybridEvaluator(mdac, tech)
        reference = [legacy.evaluate(s) for s in sizings]
        for a, b in zip(reference, compiled_.evaluate_batch(sizings)):
            _assert_results_equal(a, b)
        assert legacy.equation_evals == compiled_.equation_evals


TRAJECTORY_CASES = [(2, 2), (1, 5), (0, 8)]


def _search(kind, evaluator, seed):
    """One search of the trajectory tests on ``evaluator``'s MDAC."""
    space = two_stage_space(evaluator.problem, evaluator.tech)

    def cost(u, reject=None):
        return evaluator.evaluate(space.decode(u), reject=reject).cost()

    if kind == "anneal":
        return anneal(cost, space.dimension, budget=40, seed=seed)
    if kind == "de":
        return differential_evolution(
            cost, space.dimension, budget=32, seed=seed, population=8
        )
    # Pattern search from the old 0.5 start and a seeded one.
    starts = (
        np.full(space.dimension, 0.5),
        np.random.default_rng(seed).random(space.dimension),
    )
    return [pattern_search(cost, x0, budget=30) for x0 in starts]


class TestOptimizerTrajectories:
    """Each optimizer walks the same trajectory on either evaluator."""

    @pytest.fixture(params=TRAJECTORY_CASES, ids=lambda p: f"mdac{p[0]}-seed{p[1]}")
    def case(self, request):
        index, seed = request.param
        mdac = _mdac(index)
        evaluators = {
            "legacy": ReferenceEvaluator(mdac, CMOS025),
            "compiled": HybridEvaluator(mdac, CMOS025),
        }
        return index, seed, evaluators

    @staticmethod
    def _run(kind, case):
        index, seed, evaluators = case
        ref = _search(kind, evaluators["legacy"], seed)
        got = _search(kind, evaluators["compiled"], seed)
        assert (
            evaluators["compiled"].equation_evals
            == evaluators["legacy"].equation_evals
        )
        assert evaluators["legacy"].rejected_evals == 0
        _REJECTED_AT[(kind, index, seed)] = dict(evaluators["compiled"].rejected_at)
        return ref, got, evaluators["compiled"].rejected_evals

    def test_anneal(self, case):
        ref, got, rejected = self._run("anneal", case)
        assert got.history == ref.history
        assert np.array_equal(got.best_x, ref.best_x)
        assert got.best_cost == ref.best_cost
        assert rejected > 0

    def test_differential_evolution(self, case):
        ref, got, rejected = self._run("de", case)
        assert got.history == ref.history
        assert np.array_equal(got.best_x, ref.best_x)
        # DE compares without a reject callback.
        assert rejected == 0

    def test_pattern_search(self, case):
        ref, got, rejected = self._run("pattern", case)
        for (ref_x, *ref_rest), (got_x, *got_rest) in zip(ref, got):
            assert np.array_equal(got_x, ref_x)
            assert got_rest == ref_rest
        assert rejected > 0

    def test_every_stage_rejected(self):
        def compiled(kind, index, seed):
            def run():
                evaluator = HybridEvaluator(_mdac(index), CMOS025)
                _search(kind, evaluator, seed)
                return dict(evaluator.rejected_at)

            return run

        _assert_every_stage_rejected(
            {
                (kind, index, seed): compiled(kind, index, seed)
                for kind in ("anneal", "pattern")
                for index, seed in TRAJECTORY_CASES
            }
        )


SYNTHESIS_CASES = [
    ("anneal", 2, 1),
    ("anneal", 0, 3),
    ("anneal", 1, 4),
    ("de", 2, 1),
    ("de", 1, 2),
]


def _synthesize(optimizer, index, seed):
    return synthesize_mdac(
        _mdac(index),
        CMOS025,
        budget=60,
        seed=seed,
        optimizer=optimizer,
        verify_transient=False,
    )


class TestSynthesisEquivalence:
    @pytest.mark.parametrize("optimizer, index, seed", SYNTHESIS_CASES)
    def test_synthesize_identical_across_kernels(
        self, optimizer, index, seed, monkeypatch
    ):
        other = _synthesize(optimizer, index, seed)
        # The anneal and the pattern-search polish (after DE too) pruned.
        assert rejected_candidates() > 0
        assert sum(rejected_at().values()) == rejected_candidates()
        _REJECTED_AT[("synth", optimizer, index, seed)] = rejected_at()
        built = []

        def reference(*args, **kwargs):
            built.append(ReferenceEvaluator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.synth.synthesis, "HybridEvaluator", reference)
        pruned = rejected_candidates()
        base = _synthesize(optimizer, index, seed)
        assert len(built) == 1  # the search really ran on the oracle
        assert rejected_candidates() == pruned  # which never rejects
        assert sizing_digest(other) == sizing_digest(base)
        assert other.history == base.history
        assert other.equation_evals == base.equation_evals
        assert other.final.cost() == base.final.cost()
        assert other.final.violations == base.final.violations

    def test_every_stage_rejected(self):
        def compiled(case):
            def run():
                before = rejected_at()
                _synthesize(*case)
                return {s: n - before[s] for s, n in rejected_at().items()}

            return run

        _assert_every_stage_rejected(
            {("synth", *case): compiled(case) for case in SYNTHESIS_CASES}
        )


class _LoopGridFails(HybridEvaluator):
    """Every loop-grid solve raises, as a singular loop sweep would.

    The top of the grid is solved first, so the bandwidth is never asked.
    """

    def _transfer(self, system, freqs, s):
        if len(freqs) > 1:
            raise AnalysisError("forced loop-grid failure")
        return super()._transfer(system, freqs, s)


class _LoopBottomFails(HybridEvaluator):
    """Only the bottom of the loop grid raises, after all three asks."""

    def _transfer(self, system, freqs, s):
        # The top always ends at the grid's last point; the bottom never does.
        if len(freqs) > 1 and freqs[-1] != _LOOP_FREQS[-1]:
            raise AnalysisError("forced failure of the loop grid's bottom")
        return super()._transfer(system, freqs, s)


def _bounds_and_results(evaluator_cls, tech, mdac, points):
    """``(bounds asked, unpruned result)`` per point of one sizing sequence.

    A probe evaluator records the bounds its never-rejecting callback is
    handed; a twin fed the same sequence without ``reject`` scores them.
    Each candidate gets at most three bounds, Python floats that never
    decrease and are never above the twin's cost.
    """
    space = two_stage_space(mdac, tech)
    probe, twin = evaluator_cls(mdac, tech), evaluator_cls(mdac, tech)
    out = []
    for u in points:
        sizing = space.decode(np.asarray(u))
        bounds = []
        seen = probe.evaluate(sizing, reject=lambda b: bounds.append(b) or False)
        result = twin.evaluate(sizing)
        # A reject answering False changes nothing, the DC warm chain included.
        assert seen.cost() == result.cost()
        assert len(bounds) <= 3
        assert all(type(bound) is float for bound in bounds)
        assert bounds == sorted(bounds)
        assert all(bound <= result.cost() for bound in bounds)
        out.append((bounds, result))
    return out


def _reference_crossing(freqs, mag):
    """The legacy crossing scan, one pair at a time from the top down."""
    for k in range(len(mag) - 2, -1, -1):
        if mag[k] >= 1.0 and mag[k + 1] < 1.0:
            m1, m2 = mag[k], mag[k + 1]
            t = math.log(m1) / (math.log(m1) - math.log(m2))
            return k, t, freqs[k] ** (1 - t) * freqs[k + 1] ** t
    return None


#: A required bandwidth whose split, k0 = 150, sits mid-grid.
_REQUIRED_HZ = 2e8
_K0 = 150


def _magnitude(runs):
    """A 241-point loop magnitude from ``(length, value)`` runs."""
    mag = np.concatenate([np.full(length, value) for length, value in runs])
    assert len(mag) == len(_LOOP_FREQS)
    return mag


def _check_top_bound(mag):
    """The third ask's term against the whole grid's bandwidth violation."""
    crossing = _unity_crossing(_LOOP_FREQS, mag)
    assert crossing == _reference_crossing(_LOOP_FREQS, mag)
    full = 1.0 if crossing is None else (_REQUIRED_HZ - crossing[2]) / _REQUIRED_HZ
    term = _top_bandwidth_violation(_REQUIRED_HZ, _LOOP_FREQS[_K0:], mag[_K0:])
    assert type(term) is float
    assert term <= full
    if crossing is not None and crossing[0] >= _K0:
        assert term == full
    return crossing, term, full


class TestTopBandwidthBound:
    """The crossing helper and the bandwidth term read from the top alone."""

    def test_split_index(self):
        assert _split_index(_REQUIRED_HZ) == _K0
        assert _LOOP_FREQS[_K0 - 1] < _REQUIRED_HZ / 2 <= _LOOP_FREQS[_K0]
        # Clamped: the bottom never holds the gain point, the top is never empty.
        assert _split_index(1.0) == 1
        assert _split_index(1e15) == len(_LOOP_FREQS) - 1

    @pytest.mark.parametrize(
        "runs, last",
        [
            pytest.param([(190, 3.0), (51, 0.4)], 189, id="inside-the-top"),
            pytest.param([(_K0, 3.0), (91, 0.4)], _K0 - 1, id="boundary-pair"),
            pytest.param([(60, 3.0), (181, 0.4)], 59, id="bottom-only"),
            pytest.param(
                [(30, 3.0), (40, 0.5), (100, 2.0), (71, 0.7)], 169, id="several-last-in-top"
            ),
            pytest.param(
                [(30, 3.0), (40, 0.5), (50, 2.0), (121, 0.7)], 119, id="several-in-the-bottom"
            ),
            pytest.param([(241, 0.4)], None, id="never-above-unity"),
            pytest.param([(241, 3.0)], None, id="never-below-unity"),
            pytest.param([(120, 3.0), (121, 1.0)], None, id="ends-at-unity"),
        ],
    )
    def test_cases(self, runs, last):
        crossing, term, full = _check_top_bound(_magnitude(runs))
        assert (None if crossing is None else crossing[0]) == last
        if last is None or last < _K0:
            # The fallback: the top's first point bounds the crossing.
            fallback = (_REQUIRED_HZ - _LOOP_FREQS[_K0] * (1 + 1e-9)) / _REQUIRED_HZ
            assert term == fallback < full

    def test_slack_covers_a_crossing_rounded_past_the_boundary(self):
        # The interpolated crossing of the boundary pair can round one ulp
        # above the top's first point.
        mag = _magnitude([(_K0, 50.99995), (241 - _K0, 0.9999999999999989)])
        crossing, _, _ = _check_top_bound(mag)
        assert crossing[0] == _K0 - 1
        assert crossing[2] > _LOOP_FREQS[_K0]

    @pytest.mark.parametrize("where", [_K0 - 1, _K0, _K0 + 1, 200])
    def test_nan_entries(self, where):
        # A NaN is never part of a crossing, in the top or the whole grid.
        mag = _magnitude([(210, 3.0), (31, 0.4)])
        mag[where] = math.nan
        crossing, _, _ = _check_top_bound(mag)
        assert crossing[0] == 209

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.3, 0.999, 1.0, 1.001, 4.0, math.nan]),
            min_size=len(_LOOP_FREQS),
            max_size=len(_LOOP_FREQS),
        )
    )
    def test_never_above_the_full_grid(self, values):
        _check_top_bound(np.array(values))


class TestRejectBound:
    """The bounds handed to ``reject`` never exceed the candidate's cost."""

    @settings(max_examples=25, deadline=None)
    @given(
        corner=st.sampled_from(sorted(CORNERS)),
        index=st.integers(0, 2),
        evaluator_cls=st.sampled_from([HybridEvaluator, _LoopGridFails, _LoopBottomFails]),
        # Unit points of the nine-variable two-stage space.
        points=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
            min_size=1,
            max_size=4,
        ),
    )
    def test_bound_is_at_most_the_cost(self, corner, index, evaluator_cls, points):
        for bounds, result in _bounds_and_results(
            evaluator_cls, CORNERS[corner], _mdac(index), points
        ):
            if result.dc_ok and evaluator_cls is HybridEvaluator:
                assert len(bounds) == 3
            if evaluator_cls is _LoopGridFails:
                assert len(bounds) <= 2

    def test_cap_is_what_bounds_a_failed_loop_grid(self, monkeypatch):
        # A saturation margin of -1 kV puts the uncapped bounds far above
        # what a failed loop grid costs.
        monkeypatch.setattr(HybridEvaluator, "_saturation_margin", lambda self, op: -1e3)
        mdac = _mdac(2)
        space = two_stage_space(mdac, CMOS025)
        evaluator = _LoopGridFails(mdac, CMOS025)
        bounds = []
        result = evaluator.evaluate(
            space.decode(np.full(space.dimension, 0.5)),
            reject=lambda b: bounds.append(b) or False,
        )
        assert result.cost() == FAILED_COST
        # The DC and gain-point asks; the failed top asks nothing more.
        assert bounds == [FAILED_COST, FAILED_COST]

    @pytest.mark.parametrize("stage", REJECT_STAGES)
    def test_rejected_result(self, stage):
        # A callback answering True at its n-th ask gets what stages 1..n computed.
        asks = REJECT_STAGES.index(stage) + 1
        mdac = _mdac(2)
        space = two_stage_space(mdac, CMOS025)
        sizing = space.decode(np.full(space.dimension, 0.5))
        reference = HybridEvaluator(mdac, CMOS025)
        full = reference.evaluate(sizing)
        assert reference.ac_points == len(_LOOP_FREQS)
        evaluator = HybridEvaluator(mdac, CMOS025)
        bounds = []

        def reject(bound):
            bounds.append(bound)
            return len(bounds) == asks

        rejected = evaluator.evaluate(sizing, reject=reject)
        assert len(bounds) == asks
        assert evaluator.rejected_at == {s: int(s == stage) for s in REJECT_STAGES}
        assert evaluator.rejected_evals == 1
        assert rejected.cost() == math.inf
        assert not rejected.feasible
        assert (rejected.power, rejected.saturation_margin) == (
            full.power,
            full.saturation_margin,
        )
        assert rejected.loop_unity_hz is None and rejected.phase_margin is None
        known = {
            "dc": ["saturation"],
            "gain": ["dc_gain", "saturation"],
            "bandwidth": ["dc_gain", "bandwidth", "saturation"],
        }[stage]
        assert list(rejected.violations) == known + ["rejected"]
        for name in known:
            assert rejected.violations[name] == full.violations[name], name
        k0 = _split_index(mdac.closed_loop_bw_hz)
        # This sizing's crossing lies in the top, so its bandwidth term is exact.
        assert full.loop_unity_hz > _LOOP_FREQS[k0 + 1]
        if stage == "dc":
            assert math.isnan(rejected.dc_gain)
            assert evaluator.ac_points == 0
        else:
            assert rejected.dc_gain == full.dc_gain
            top = len(_LOOP_FREQS) - k0 if stage == "bandwidth" else 0
            assert evaluator.ac_points == 1 + top

    def test_transient_run_never_asks_the_bandwidth(self):
        # A passing settling check zeroes the bandwidth term, so no bound
        # may hold it.
        mdac = _mdac(2)
        space = two_stage_space(mdac, CMOS025)
        sizing = space.decode(np.full(space.dimension, 0.6))
        bounds = []
        seen = HybridEvaluator(mdac, CMOS025, transient_points=150).evaluate(
            sizing, run_transient=True, reject=lambda b: bounds.append(b) or False
        )
        result = HybridEvaluator(mdac, CMOS025, transient_points=150).evaluate(
            sizing, run_transient=True
        )
        assert len(bounds) == 2
        assert seen.cost() == result.cost()
        assert all(bound <= result.cost() for bound in bounds)


#: One evaluator for the margin properties: they read its feedback factor only.
_MARGINS = HybridEvaluator(_mdac(2), CMOS025)


def _margin_bits(values):
    return [None if v is None else np.float64(v).tobytes() for v in values]


class TestTruncatedUnwrap:
    """The phase margin unwraps the loop phase only up to its crossing.

    ``np.unwrap`` is causal, so the compiled evaluator's unwrap of
    ``a[:k + 2]`` must give the oracle's whole-grid phase margin bit for
    bit, for phase steps that wrap past +-180 degrees and NaN entries after
    the crossing.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        step=st.floats(0.0, 4.0 * math.pi),
        nans=st.integers(0, 6),
    )
    def test_phase_margin_is_the_whole_grids(self, seed, step, nans):
        rng = np.random.default_rng(seed)
        n = len(_LOOP_FREQS)
        beta = _MARGINS.network.beta
        gain_db = rng.uniform(20.0, 80.0) + np.cumsum(rng.normal(-0.5, 3.0, n))
        phase = np.cumsum(rng.uniform(-step, step, n))
        a = 10.0 ** (gain_db / 20.0) / beta * np.exp(1j * phase)
        crossing = _unity_crossing(_LOOP_FREQS, np.abs(a) * beta)
        if crossing is not None and crossing[0] + 2 < n:
            a[rng.integers(crossing[0] + 2, n, nans)] = complex(math.nan, math.nan)
        got = HybridEvaluator._loop_margin_values(_MARGINS, a)
        want = ReferenceEvaluator._loop_margin_values(_MARGINS, a)
        assert _margin_bits(got) == _margin_bits(want)

    def test_a_wrapped_margin_below_zero_with_nans_after_it(self):
        # The phase falls through -180 degrees (wrapping twice) before the
        # crossing at index 120; every point after index 121 is NaN.
        n = len(_LOOP_FREQS)
        beta = _MARGINS.network.beta
        gain = np.where(np.arange(n) <= 120, 10.0, 0.1) / beta
        a = gain * np.exp(-1j * np.linspace(0.0, 2.5 * math.pi, n))
        a[122:] = complex(math.nan, math.nan)
        got = HybridEvaluator._loop_margin_values(_MARGINS, a)
        want = ReferenceEvaluator._loop_margin_values(_MARGINS, a)
        assert _margin_bits(got) == _margin_bits(want)
        assert got[1] < 0.0


class TestPublicPath:
    """The evaluator's DC-stage reads are the public path's, byte for byte.

    Its power, saturation margin and degenerate check come from the
    solution vector and the device arrays, and its free-node system is
    scattered and sliced in one step; ``solve_dc`` on the candidate's
    netlist, read through its ``device_ops`` objects, then ``linearize``
    and ``FreeNodes.reduce`` must give the same bytes.
    """

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_power_saturation_and_system(self, corner, index):
        tech = CORNERS[corner]
        mdac = _mdac(index)
        space = two_stage_space(mdac, tech)
        evaluator = HybridEvaluator(mdac, tech)
        rng = np.random.default_rng(index)
        compared = 0
        for _ in range(8):
            sizing = space.decode(rng.random(space.dimension))
            # A cold start, as the public solve from the guess makes.
            evaluator._warm_x = None
            staged = evaluator._stage_equation(sizing)
            if staged.op is None:
                continue
            bench = evaluator._ac_bench(sizing)
            op = solve_dc(bench, initial_guess=evaluator._dc_guess())
            assert op.x.tobytes() == staged.op.x.tobytes()
            power = tech.vdd * abs(op.supply_current("vdd_src")) * DIFFERENTIAL_FACTOR
            saturation = ReferenceEvaluator._saturation_margin(evaluator, op)
            assert type(staged.power) is float and type(staged.saturation) is float
            assert np.float64(staged.power).tobytes() == np.float64(power).tobytes()
            assert (
                np.float64(staged.saturation).tobytes()
                == np.float64(saturation).tobytes()
            )
            assert evaluator._degenerate(staged.op) == ReferenceEvaluator._degenerate(
                evaluator, op
            )
            lin = linearize(bench, op, include_noise=False)
            public = FreeNodes(lin.layout).reduce(lin)
            system = evaluator._system(staged)
            for name in ("g_matrix", "c_matrix", "b_vector", "c_vector"):
                mine, theirs = getattr(system, name), getattr(public, name)
                assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
                assert mine.tobytes() == theirs.tobytes(), name
            for mine, theirs in zip(system.c_cells, public.c_cells):
                assert mine.tobytes() == theirs.tobytes()
            compared += 1
        assert compared
