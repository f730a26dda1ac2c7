"""Scheduler tests: dedup, wave ordering, and backend-independence."""

import pytest

from repro.engine.backend import ProcessPoolBackend, SerialBackend
from repro.engine.config import FlowConfig
from repro.engine.scheduler import execute_plan, plan_synthesis
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.flow.cache import BlockCache
from repro.flow.topology import optimize_topology
from repro.specs.adc import AdcSpec
from repro.specs.stage import plan_stages
from repro.tech import CMOS025

SPEC13 = AdcSpec(resolution_bits=13)


def _all_specs(candidates):
    return [
        mdac
        for cand in candidates
        for mdac in plan_stages(SPEC13, cand).mdacs
    ]


def _small_cache():
    return BlockCache(CMOS025, budget=60, retarget_budget=30, verify_transient=False)


def _is_cold(node):
    """Whether a plan node synthesizes without any warm start."""
    return (
        node.donor_index is None
        and node.donor_existing is None
        and node.donor_pool_index is None
    )


class TestPlan:
    def test_dedup_matches_paper_arithmetic(self):
        # 27 stage instances across the seven 13-bit candidates collapse to
        # 12 unique blocks (paper: ~11).
        specs = _all_specs(enumerate_candidates(13))
        plan = plan_synthesis(specs)
        assert plan.total_instances == 27
        assert plan.unique_blocks == 12
        assert len({node.key for node in plan.nodes}) == 12

    def test_wave_topology(self):
        specs = _all_specs(enumerate_candidates(13))
        plan = plan_synthesis(specs)
        # Exactly one cold synthesis, at wave 0.
        colds = [n for n in plan.nodes if _is_cold(n)]
        assert len(colds) == 1
        assert colds[0].wave == 0
        # Every donor resolves in a strictly earlier wave.
        for node in plan.nodes:
            if node.donor_index is not None:
                assert plan.nodes[node.donor_index].wave < node.wave
        # Waves partition the nodes and are dense from 0.
        flattened = sorted(i for wave in plan.waves for i in wave)
        assert flattened == list(range(plan.unique_blocks))
        assert plan.max_wave_width >= 2  # real parallelism exists

    def test_plan_is_deterministic(self):
        specs = _all_specs(enumerate_candidates(13))
        assert plan_synthesis(specs) == plan_synthesis(specs)

    def test_existing_results_become_wave0_donors(self):
        cands = [PipelineCandidate((4, 3, 2), 13, 7)]
        cache = _small_cache()
        specs = _all_specs(cands)
        execute_plan(plan_synthesis(specs), cache, SerialBackend())
        assert cache.cold_runs == 1

        # A second candidate planned against the warm cache: nothing cold,
        # and every new node donated by cache entries starts at wave 0.
        more = _all_specs([PipelineCandidate((3, 3, 3), 13, 7)])
        plan2 = plan_synthesis(more, cache.results)
        assert plan2.unique_blocks > 0
        assert all(not _is_cold(node) for node in plan2.nodes)
        assert all(
            node.wave == 0 for node in plan2.nodes if node.donor_existing is not None
        )

    def test_already_cached_specs_are_skipped(self):
        cands = [PipelineCandidate((4, 3, 2), 13, 7)]
        cache = _small_cache()
        specs = _all_specs(cands)
        execute_plan(plan_synthesis(specs), cache, SerialBackend())
        replans = plan_synthesis(specs, cache.results)
        assert replans.unique_blocks == 0


class TestDonorPool:
    def test_pool_donors_warm_start_without_satisfying_keys(self):
        # Synthesize one candidate's blocks, then plan a *different system
        # spec* with those results as the external donor pool.
        cache = _small_cache()
        specs13 = _all_specs([PipelineCandidate((4, 3, 2), 13, 7)])
        execute_plan(plan_synthesis(specs13), cache, SerialBackend())
        donors = tuple(cache.results.values())

        spec12 = AdcSpec(resolution_bits=12)
        specs12 = [
            m
            for m in plan_stages(spec12, PipelineCandidate((4, 2, 2), 12, 7)).mdacs
        ]
        plan = plan_synthesis(specs12, donors=donors)
        # Every block still gets planned (donors never satisfy reuse keys)…
        assert plan.unique_blocks == len({s.reuse_key for s in specs12})
        # …but nothing synthesizes cold: the pool donates at wave 0.
        assert all(not _is_cold(node) for node in plan.nodes)
        assert any(node.donor_pool_index is not None for node in plan.nodes)
        assert all(
            node.wave == 0
            for node in plan.nodes
            if node.donor_pool_index is not None
        )
        assert plan.donors == donors

    def test_pool_donated_blocks_execute_as_retargets(self):
        cache = _small_cache()
        specs13 = _all_specs([PipelineCandidate((4, 3, 2), 13, 7)])
        execute_plan(plan_synthesis(specs13), cache, SerialBackend())

        spec12 = AdcSpec(resolution_bits=12)
        fresh = BlockCache(
            CMOS025,
            budget=60,
            retarget_budget=30,
            verify_transient=False,
            donor_pool=tuple(cache.results.values()),
        )
        result = optimize_topology(
            spec12,
            mode="synthesis",
            candidates=[PipelineCandidate((4, 2, 2), 12, 7)],
            cache=fresh,
        )
        assert fresh.cold_runs == 0
        assert fresh.pool_warm_starts > 0
        assert fresh.retargeted_runs == result.unique_blocks

    def test_empty_pool_reproduces_legacy_plan(self):
        specs = _all_specs(enumerate_candidates(13))
        assert plan_synthesis(specs, donors=()) == plan_synthesis(specs)


class TestExecutionEquivalence:
    #: Two candidates sharing one reuse key keep the runtime unit-scale.
    CANDIDATES = [
        PipelineCandidate((4, 3, 2), 13, 7),
        PipelineCandidate((3, 3, 3), 13, 7),
    ]

    def test_scheduler_reproduces_legacy_serial_loop(self):
        # The legacy semantics: walk candidates in order, cache.get per stage.
        legacy_cache = _small_cache()
        legacy_powers = {}
        for cand in self.CANDIDATES:
            plan = plan_stages(SPEC13, cand)
            legacy_powers[cand.label] = [legacy_cache.get(m).power for m in plan.mdacs]

        sched_cache = _small_cache()
        specs = _all_specs(self.CANDIDATES)
        resolved = execute_plan(plan_synthesis(specs), sched_cache, SerialBackend())

        assert set(resolved) == set(legacy_cache.results)
        for key, legacy_result in legacy_cache.results.items():
            assert resolved[key].power == legacy_result.power
            assert resolved[key].retargeted == legacy_result.retargeted
        assert sched_cache.cold_runs == legacy_cache.cold_runs
        assert sched_cache.retargeted_runs == legacy_cache.retargeted_runs

    def test_parallel_ranking_matches_serial(self):
        serial_cfg = FlowConfig(budget=60, retarget_budget=30, verify_transient=False)
        process_cfg = FlowConfig(
            backend="process",
            max_workers=2,
            budget=60,
            retarget_budget=30,
            verify_transient=False,
        )
        serial = optimize_topology(
            SPEC13, mode="synthesis", candidates=self.CANDIDATES, config=serial_cfg
        )
        parallel = optimize_topology(
            SPEC13, mode="synthesis", candidates=self.CANDIDATES, config=process_cfg
        )
        assert serial.power_table() == parallel.power_table()
        assert serial.unique_blocks == parallel.unique_blocks
        for s_eval, p_eval in zip(serial.evaluations, parallel.evaluations):
            assert s_eval.stage_powers == p_eval.stage_powers

    def test_parallel_analytic_matches_serial(self):
        serial = optimize_topology(SPEC13)
        parallel = optimize_topology(
            SPEC13, config=FlowConfig(backend="process", max_workers=2)
        )
        assert serial.power_table() == parallel.power_table()


class TestCacheAccounting:
    def test_counters_partition_the_work(self):
        cache = _small_cache()
        cands = [
            PipelineCandidate((4, 3, 2), 13, 7),
            PipelineCandidate((3, 3, 3), 13, 7),
        ]
        result = optimize_topology(
            SPEC13, mode="synthesis", candidates=cands, cache=cache
        )
        # Every unique block was actually searched exactly once...
        assert cache.synthesis_runs == cache.unique_blocks == result.unique_blocks
        assert cache.cold_runs == 1
        assert cache.retargeted_runs == cache.unique_blocks - 1
        # ...and assembling the 6 stage instances hit the in-memory map.
        assert cache.cache_hits == 6

    def test_shared_cache_across_runs_reuses_blocks(self):
        cache = _small_cache()
        cands = [PipelineCandidate((4, 3, 2), 13, 7)]
        optimize_topology(SPEC13, mode="synthesis", candidates=cands, cache=cache)
        runs_after_first = cache.synthesis_runs
        optimize_topology(SPEC13, mode="synthesis", candidates=cands, cache=cache)
        assert cache.synthesis_runs == runs_after_first  # nothing re-searched
