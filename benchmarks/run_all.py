"""Run the standalone component benchmarks and emit ``bench_components.json``.

Standalone (no pytest): fixed seeds, deterministic workloads, wall-clock
measurements of the compiled evaluation kernels against the reference
walks kept as test oracles (``tests/synth/evaluator_reference.py``,
``tests/analysis/ac_reference.py``, ``tests/analysis/transient_reference.py``,
``tests/behavioral/batch_reference.py``, ``tests/engine/persist_reference.py``;
the script puts the repo root on ``sys.path`` to import them), plus the
optimization-service stage (submission latency, coalescing hit
rate, sustained jobs/s — see ``benchmarks/bench_service.py``).

    PYTHONPATH=src python benchmarks/run_all.py                # full
    PYTHONPATH=src python benchmarks/run_all.py --smoke        # CI smoke
    PYTHONPATH=src python benchmarks/run_all.py --check ...    # exit 1 on
                                                               # regression

Stages: ``synthesize_mdac`` / ``equation_metric_stage`` (compiled kernel
vs the reference walk), ``bind`` (the evaluator's per-candidate value
writes into its bound stamp program vs building the candidate's netlist
and rebinding it), ``transient_step`` (the compiled settling
transient vs the per-element walk), ``behavioral`` (vectorized
Monte-Carlo vs the scalar walk), ``digest`` (the one-pass content digest
vs the two-pass encoder, over the payloads a Fig. 2 plan digests, its memo
emptied before each pass), ``warm_rerun`` (a K = 10..11 analytic, synthesis
and behavioral grid rerun against the cache its first run filled: the
fill's searches against its distinct block problems, the rerun's median
wall, its ``plan_stages`` calls against its distinct (spec, candidate)
pairs and its record serializations against its records), ``service``,
``fabric`` (the distributed
execution fabric against a live HTTP broker and real ``repro-adc worker``
subprocesses — per-task lease overhead, fleet throughput at 1 vs 2 workers
on fixed-service-time probe tasks, sizing digests of a 2-worker synthesis
batch against a local serial run, and the time for a SIGKILLed worker's
lease to be reclaimed; see ``benchmarks/bench_fabric.py``) and ``obs``
(telemetry overhead on a three-block ``execute_plan`` synthesis run —
the telemetry helpers' calls per pass times their per-call cost, over
the ``off`` wall; the ``off`` vs ``metrics`` vs ``trace`` walls measured
round-robin and a registry counter micro-rate are reported too; see
``benchmarks/bench_obs.py``).

The ``synthesize_mdac`` stage also runs its block with
``verify_transient=True`` (the campaign's setting) on both sides and
reports candidates/s and transient steps/s (steps over the seconds spent
in the settling transients).

``--check`` is the CI regression guard: it fails the run when the compiled
kernel is slower than the reference walk on the same workload, when any
variant's synthesis result diverges (the bit-identity contract; with
``verify_transient=True`` against the evaluator and transient walks), when the
compiled search rejected no candidate at one of the three ``reject``
stages (after the DC solve, the gain point, the top of the loop grid), when
the staged AC read-out's bytes differ from the per-frequency loop over
the same free-node system or deviate from the whole MNA system's loop by
more than 1e-10 relative, when the evaluator's power, saturation margin or
free-node system differs by a byte from the public ``solve_dc`` ->
``linearize`` -> ``FreeNodes.reduce`` path, when a
value the ``bind`` stage writes differs from the netlist rebind's (it has
no speed floor: a shared host's run-to-run spread is wider than any
useful one), when the compiled transient step is slower than the walk or
its waveform bytes differ, when the
behavioral batch kernel is not bit-identical to the scalar walk, misses
its 5x floor at 256 draws, or its ``tracemalloc`` peak on the campaign's
13-bit 3-2-2-2-2 plan at 256 draws exceeds 1.25x its own output arrays,
when ``verify_candidate``'s ``tracemalloc`` peak on that plan at 1024
draws exceeds 2x its peak at 256 draws (a verdict streams the kernel's
draw blocks, so its memory must not grow with the draw count),
when any content digest differs from the two-pass encoder's or the
one-pass encoder is under 2x its speed, when the warm rerun's cold fill
searches a problem for which the campaign already holds a feasible block,
or a search of it runs no settling transient or more than two (one, and
one after the settling fallback's re-search: the equations carry the
settling predictor, so no repair ladder may come back unseen),
when the warm rerun searches a block, plans a (spec, candidate) pair twice
or serializes a record twice,
when the service stage breaks its coalescing
contract (N identical concurrent submissions must perform exactly one cold
synthesis), or when the ``fabric`` stage misses its 1.5x two-worker
throughput floor, diverges from the local serial run, or fails to reclaim
a SIGKILLed worker's lease within 3x the lease TTL, or when the ``obs``
stage models metrics-mode telemetry above its 3% overhead floor (or trace
mode above 15%, or exporting nothing).

A stage that *raises* is recorded in its JSON slot as ``{"error": ...}``
and the run exits non-zero after writing the (partial) report — CI fails
loudly instead of uploading a silently truncated artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

# The reference walks live in the test tree; import them from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import repro.behavioral.verify as verify
import repro.campaign.runner as runner
import repro.engine.broker as broker
import repro.engine.scheduler as scheduler
from repro.analysis.template import bind_template
from repro.analysis.transient import simulate_transient
from repro.blocks.mdac import SETTLING_STEP_TIME, build_settling_bench
from repro.blocks.opamp import TwoStageSizing
from repro.blocks.opamp_library import build_two_stage_miller
from repro.behavioral.batch import simulate_draws
from repro.behavioral.signals import full_scale_sine, pick_coherent_cycles
from repro.behavioral.verify import SAMPLES, draw_error_models
from repro.campaign.grid import CampaignGrid
from repro.engine import persist
from repro.engine.config import FlowConfig
from repro.engine.persist import block_fingerprint, sizing_digest
from repro.engine.scheduler import SynthesisJob, run_synthesis_job
from repro.engine.threads import pin_blas_threads
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.obs import metrics
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.synth.evaluator import _LOOP_FREQS, REJECT_STAGES
from repro.tech import CMOS025
from tests.analysis import transient_reference
from tests.analysis.bound_state import bound_state
from tests.behavioral import batch_reference
from tests.campaign.traffic import campaign_traffic
from tests.engine import persist_reference
from tests.synth.evaluator_reference import ReferenceEvaluator

# The AC read-out helpers sit next to this script.
from bench_evaluator_kernel import (
    READ_OUT_TOLERANCE,
    best_rate,
    candidate_glue_us,
    public_path_identical,
    staged_read_out,
)


def _block_spec():
    spec = AdcSpec(resolution_bits=13)
    plan = plan_stages(spec, PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]


def _rejected_at() -> dict[str, int]:
    counters = metrics.snapshot()["counters"]
    return {s: counters.get(f"synth.rejected_at_{s}", 0) for s in REJECT_STAGES}


def _counter(name: str) -> int:
    return metrics.snapshot()["counters"].get(name, 0)


def _time_synthesize(
    budget: int, reference: bool = False, verify_transient: bool = False
):
    """Time one synthesis; ``reference`` runs it on the reference walks.

    The reference side evaluates on ``ReferenceEvaluator`` and, with
    ``verify_transient``, verifies on the transient walk.  Returns the
    result, its wall time, its rejections by stage, its transient steps
    and the seconds spent in the settling transients.
    """
    mdac = _block_spec()
    module = sys.modules[HybridEvaluator.__module__]
    simulate = (
        transient_reference.simulate_transient if reference else simulate_transient
    )
    transient_s = [0.0]

    def timed_transient(*args, **kwargs):
        start = time.perf_counter()
        try:
            return simulate(*args, **kwargs)
        finally:
            transient_s[0] += time.perf_counter() - start

    def run():
        before = _rejected_at()
        steps_before = _counter("synth.transient_steps")
        transient_s[0] = 0.0
        start = time.perf_counter()
        result = synthesize_mdac(
            mdac, CMOS025, budget=budget, seed=1, verify_transient=verify_transient
        )
        wall = time.perf_counter() - start
        rejected = {s: n - before[s] for s, n in _rejected_at().items()}
        steps = _counter("synth.transient_steps") - steps_before
        return result, wall, rejected, steps, transient_s[0]

    with mock.patch.object(module, "simulate_transient", timed_transient):
        if reference:
            with mock.patch("repro.synth.synthesis.HybridEvaluator", ReferenceEvaluator):
                run()  # warm module/caches
                return run()
        run()
        return run()


def _same_synthesis(a, b) -> bool:
    """Equal sizings, search traces, effort and final evaluations."""
    return (
        sizing_digest(a) == sizing_digest(b)
        and a.history == b.history
        and a.equation_evals == b.equation_evals
        and a.transient_evals == b.transient_evals
        and a.final == b.final
    )


def stage_synthesize(budget: int) -> dict:
    """Full-candidate equation-evaluation throughput per kernel.

    Also records the compiled search's rejections by stage; the
    reference evaluator ignores ``reject``.  The ``verified`` entry runs
    the same block with ``verify_transient=True``, the campaign's setting:
    the compiled path against the evaluator and transient walks.
    """
    legacy, legacy_wall, _, _, _ = _time_synthesize(budget, reference=True)
    compiled_, compiled_wall, rejected_at, _, _ = _time_synthesize(budget)
    identical = _same_synthesis(legacy, compiled_)
    evals = compiled_.equation_evals
    walk, walk_wall, _, walk_steps, walk_transient_s = _time_synthesize(
        budget, reference=True, verify_transient=True
    )
    verified, verified_wall, _, steps, transient_s = _time_synthesize(
        budget, verify_transient=True
    )
    return {
        "workload": f"synthesize_mdac(2b@8b, budget={budget}, seed=1, anneal+polish)",
        "equation_evals": evals,
        "legacy_cands_per_s": round(evals / legacy_wall, 1),
        "compiled_cands_per_s": round(evals / compiled_wall, 1),
        "wall_legacy_s": round(legacy_wall, 3),
        "wall_compiled_s": round(compiled_wall, 3),
        "speedup_full_candidate": round(legacy_wall / compiled_wall, 2),
        "identical_results": identical,
        "rejected_at": rejected_at,
        "verified": {
            "workload": "the same block with verify_transient=True",
            "transient_evals": verified.transient_evals,
            "transient_steps": steps,
            "walk_cands_per_s": round(walk.equation_evals / walk_wall, 1),
            "compiled_cands_per_s": round(verified.equation_evals / verified_wall, 1),
            "walk_transient_steps_per_s": round(walk_steps / walk_transient_s, 1),
            "compiled_transient_steps_per_s": round(steps / transient_s, 1),
            "wall_walk_s": round(walk_wall, 3),
            "wall_compiled_s": round(verified_wall, 3),
            "identical_results": _same_synthesis(walk, verified)
            and walk_steps == steps,
        },
    }


def stage_equation_metrics(repeats: int, candidates: int = 20) -> dict:
    """The AC/transfer-function stage: per-frequency loop vs batched stacks.

    The seed's loop solves the whole MNA system, the evaluator's stacks
    its free node voltages; ``identical_results`` compares the stacks with
    a per-frequency loop over the same free-node system, and
    ``max_deviation_from_whole_mna`` is their largest relative deviation
    from the whole system's loop.  Over ``candidates`` seeded sizings,
    ``per_candidate_us`` gives the compiled path's and the oracle's DC
    stage, small-signal step and read-out glue
    (``bench_evaluator_kernel.candidate_glue_us``), and
    ``public_path_identical`` whether the evaluator's power, saturation
    margin and free-node system have the bytes of ``solve_dc`` ->
    ``linearize`` -> ``FreeNodes.reduce``.
    """
    mdac = _block_spec()
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(1)
    legacy_stage, batched_stage, identical, deviation = staged_read_out(
        evaluator, space.decode(rng.random(space.dimension))
    )
    legacy_rate = best_rate(legacy_stage, repeats)
    batched_rate = best_rate(batched_stage, repeats)
    sizings = [space.decode(rng.random(space.dimension)) for _ in range(candidates)]
    return {
        "workload": (
            f"{len(_LOOP_FREQS)}-point AC read-out of the opamp testbench "
            "(gain point, top and bottom of the loop grid); per candidate "
            f"over {candidates} seeded sizings (best of {repeats} passes)"
        ),
        "legacy_sweeps_per_s": round(legacy_rate, 1),
        "batched_sweeps_per_s": round(batched_rate, 1),
        "speedup": round(batched_rate / legacy_rate, 2),
        "identical_results": identical,
        "max_deviation_from_whole_mna": deviation,
        "per_candidate_us": {
            "compiled": candidate_glue_us(HybridEvaluator, mdac, sizings, repeats),
            "oracle": candidate_glue_us(ReferenceEvaluator, mdac, sizings, repeats),
        },
        "public_path_identical": public_path_identical(mdac, sizings),
    }


def stage_bind(candidates: int, repeats: int) -> dict:
    """Per-candidate binding: the evaluator's value writes vs a netlist rebind.

    The 13-bit 4-3-2 plan's first MDAC over ``candidates`` seeded sizings:
    ``HybridEvaluator._bind``, which writes each sizing's values into the
    stamp program it bound once, against building the candidate's
    testbench (``_ac_bench``), checking its topology key and
    ``BoundMna.rebind``, the path it replaced.  Each side's best of
    ``repeats`` passes gives its µs per candidate; ``identical_values``
    compares every bound value and device tuple after each candidate.
    """
    mdac = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    ).mdacs[0]
    space = two_stage_space(mdac, CMOS025)
    rng = np.random.default_rng(1)
    sizings = [space.decode(rng.random(space.dimension)) for _ in range(candidates)]
    evaluator = HybridEvaluator(mdac, CMOS025)
    bound = bind_template(evaluator._ac_bench(sizings[0]))

    def rebind(sizing):
        bench = evaluator._ac_bench(sizing)
        if bench.topology_key() != bound.template.key:
            raise AssertionError("the testbench topology changed")
        return bound.rebind(bench)

    identical = all(
        bound_state(evaluator._bind(sizing)) == bound_state(rebind(sizing))
        for sizing in sizings
    )

    def per_candidate_us(bind) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for sizing in sizings:
                bind(sizing)
            best = min(best, time.perf_counter() - start)
        return best / len(sizings) * 1e6

    written_us = per_candidate_us(evaluator._bind)
    netlist_us = per_candidate_us(rebind)
    return {
        "workload": (
            f"bind the 13-bit 4-3-2 plan's first MDAC testbench over "
            f"{candidates} seeded sizings (best of {repeats})"
        ),
        "candidates": candidates,
        "netlist_rebind_us": round(netlist_us, 2),
        "written_us": round(written_us, 2),
        "speedup": round(netlist_us / written_us, 2),
        "identical_values": identical,
    }


def stage_transient_step(repeats: int) -> dict:
    """The settling transient: compiled step program vs the element walk.

    The settling bench the synthesis loop verifies, for the first MDAC of
    the 13-bit 4-3-2 plan at one fixed sizing; each side's best of
    ``repeats`` runs gives its steps/s.
    """
    mdac = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    ).mdacs[0]
    evaluator = HybridEvaluator(mdac, CMOS025)
    space = two_stage_space(mdac, CMOS025)
    sizing = space.decode(np.random.default_rng(1).random(space.dimension))
    network = evaluator.network
    bench, _ = build_settling_bench(
        build_two_stage_miller(CMOS025, sizing),
        network,
        CMOS025,
        step_voltage=-(mdac.output_swing / 4.0) / (network.cs / network.cf),
        common_mode=evaluator.common_mode,
    )
    t_settle = mdac.linear_settling_time + mdac.slew_time
    kwargs = dict(
        t_stop=SETTLING_STEP_TIME + t_settle,
        dt=t_settle / evaluator.transient_points,
    )

    def run(simulate):
        result = simulate(bench, **kwargs)  # warm module/caches
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            simulate(bench, **kwargs)
            best = min(best, time.perf_counter() - start)
        return result, best

    walk, walk_wall = run(transient_reference.simulate_transient)
    compiled, compiled_wall = run(simulate_transient)
    identical = (
        compiled.time.tobytes() == walk.time.tobytes()
        and list(compiled.waveforms) == list(walk.waveforms)
        and all(
            compiled.waveforms[net].tobytes() == wave.tobytes()
            for net, wave in walk.waveforms.items()
        )
    )
    steps = len(walk.time) - 1
    return {
        "workload": (
            f"settling transient of the 13-bit 4-3-2 plan's first MDAC "
            f"({steps} steps, best of {repeats})"
        ),
        "steps": steps,
        "walk_steps_per_s": round(steps / walk_wall, 1),
        "compiled_steps_per_s": round(steps / compiled_wall, 1),
        "speedup": round(walk_wall / compiled_wall, 2),
        "identical_results": identical,
    }


BEHAVIORAL_FIELDS = ("stage_codes", "residues", "backend_codes", "codes")


def _memory_plan() -> tuple[AdcSpec, object]:
    """The campaign's 13-bit spec and its '3-2-2-2-2' winner."""
    spec = AdcSpec(resolution_bits=13)
    candidate = next(
        c for c in enumerate_candidates(13) if c.label == "3-2-2-2-2"
    )
    return spec, candidate


def _kernel_memory(draws: int) -> tuple[int, int]:
    """The batch kernel's ``tracemalloc`` peak and its outputs' bytes.

    The kernel alone on the campaign's 13-bit '3-2-2-2-2' winner at the
    campaign's record length.  The peak includes the four output arrays,
    so a whole-array temporary shows as a ratio well above one.
    """
    spec, candidate = _memory_plan()
    models, rngs = draw_error_models(plan_stages(spec, candidate), draws, 101)
    stimulus = full_scale_sine(
        SAMPLES, pick_coherent_cycles(SAMPLES), spec.full_scale
    )
    tracemalloc.start()
    try:
        result = simulate_draws(
            candidate, spec.full_scale, models, stimulus, rngs=rngs
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(getattr(result, f).nbytes for f in BEHAVIORAL_FIELDS)


def _verdict_peaks(draws: tuple[int, ...]) -> dict[str, int]:
    """``verify_candidate``'s ``tracemalloc`` peak at each draw count.

    The whole verdict (error models, generators, kernel blocks, SNDR
    read-out) on the plan of :func:`_kernel_memory` at the campaign's
    record length, after one warm-up verdict.  A verdict that streams the
    kernel's draw blocks holds one block at a time, so its peak grows with
    draws only by the error models and one generator per draw.
    """
    spec, candidate = _memory_plan()
    verify.verify_candidate(spec, candidate, draws=2, seed=101)
    peaks = {}
    for count in draws:
        tracemalloc.start()
        try:
            verify.verify_candidate(spec, candidate, draws=count, seed=101)
            peaks[str(count)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def stage_behavioral(draws: int, samples: int) -> dict:
    """Vectorized Monte-Carlo pipeline simulation vs the scalar walk.

    Same seeded mismatch draws and the same coherent stimulus through the
    batch kernel and the scalar walk.  ``draw_error_models`` is called once
    per side so each gets identically-seeded fresh generators — the
    thermal-noise streams, not just the static mismatches, must replay
    bit-for-bit.
    The 256-draw speedup floor in ``--check`` is the PR 7 acceptance bar.
    ``_kernel_memory`` adds the peak that ``--check`` bounds at 1.25x the
    kernel's own outputs, and ``_verdict_peaks`` the verdict's peaks at
    256 and 1024 draws, whose ratio ``--check`` bounds at 2x.
    """
    spec = AdcSpec(resolution_bits=10)
    candidate = next(c for c in enumerate_candidates(10) if c.label == "3-2")
    plan = plan_stages(spec, candidate)
    cycles = pick_coherent_cycles(samples)
    stimulus = full_scale_sine(samples, cycles, spec.full_scale)

    def run(simulate):
        models, rngs = draw_error_models(plan, draws, 101)
        simulate(  # warm numpy/module caches
            candidate, spec.full_scale, models[:1], stimulus, rngs=rngs[:1]
        )
        models, rngs = draw_error_models(plan, draws, 101)
        start = time.perf_counter()
        result = simulate(candidate, spec.full_scale, models, stimulus, rngs=rngs)
        return result, time.perf_counter() - start

    legacy, legacy_wall = run(batch_reference.simulate_draws)
    batch, batch_wall = run(simulate_draws)
    identical = all(
        np.array_equal(getattr(legacy, field), getattr(batch, field))
        for field in BEHAVIORAL_FIELDS
    )
    conversions = draws * samples
    peak, output_bytes = _kernel_memory(draws)
    verdict_peaks = _verdict_peaks((256, 1024))
    return {
        "workload": f"{draws} mismatch draws x {samples}-sample coherent "
                    f"capture, 10-bit '3-2' pipeline",
        "legacy_conversions_per_s": round(conversions / legacy_wall, 1),
        "batch_conversions_per_s": round(conversions / batch_wall, 1),
        "wall_legacy_s": round(legacy_wall, 3),
        "wall_batch_s": round(batch_wall, 3),
        "speedup": round(legacy_wall / batch_wall, 2),
        "identical_results": identical,
        "memory_workload": f"{draws} mismatch draws x {SAMPLES} samples, "
                           f"13-bit '3-2-2-2-2' pipeline, kernel alone",
        "tracemalloc_peak_bytes": peak,
        "output_bytes": output_bytes,
        "peak_over_outputs": round(peak / output_bytes, 3),
        "verdict_memory_workload": f"verify_candidate, 13-bit '3-2-2-2-2' "
                                   f"pipeline, {SAMPLES} samples",
        "verdict_peak_bytes": verdict_peaks,
        "verdict_peak_growth": round(
            verdict_peaks["1024"] / verdict_peaks["256"], 3
        ),
    }


def _digest_payloads() -> list:
    """Every payload the flow's key functions digest for a Fig. 2 plan.

    For K = 10..13 and every candidate: a ledger spec key per MDAC, a cold
    fingerprint for the first MDAC and a retarget fingerprint for each
    later one, its donor the MDAC before it (a stand-in result with its own
    two-stage sizing, hashed through ``sizing_digest``); a verdict key per
    resolution; and the task key of one retarget synthesis job.  The key
    functions run for real and every payload they hand ``digest`` is kept.
    """
    ledger = runner.LedgerBackedCache(tech=CMOS025)
    payloads: list = []
    real = persist.digest

    def keep(payload):
        payloads.append(payload)
        return real(payload)

    with mock.patch.object(persist, "digest", keep), \
            mock.patch.object(runner, "persist_digest", keep), \
            mock.patch.object(verify, "digest", keep), \
            mock.patch.object(broker, "digest", keep):
        for k in (10, 11, 12, 13):
            spec = AdcSpec(resolution_bits=k)
            candidates = enumerate_candidates(k)
            verify.verdict_key(spec, candidates[0], draws=256, seed=1)
            for candidate in candidates:
                donor = None
                for mdac in plan_stages(spec, candidate).mdacs:
                    ledger._spec_key(mdac)
                    block_fingerprint(
                        mdac, CMOS025, budget=400, seed=1, verify_transient=True,
                        donor=donor, retarget_budget=80, retarget_seed=7,
                    )
                    sizing = TwoStageSizing(i_tail=1e-4 * (len(payloads) + 1))
                    donor = SimpleNamespace(
                        spec=mdac, final=SimpleNamespace(sizing=sizing)
                    )
        broker.task_key(
            run_synthesis_job,
            SynthesisJob(
                spec=donor.spec, tech=CMOS025, budget=400, seed=1,
                verify_transient=True, donor=donor,
            ),
        )
    return payloads


def stage_digest(repeats: int) -> dict:
    """Content digests: the one-pass encoder vs the two-pass oracle.

    Both sides digest the same payloads (see :func:`_digest_payloads`);
    the one-pass encoder's memo is emptied before each of its passes, so
    the speedup does not lean on values remembered from an earlier pass.
    """
    payloads = _digest_payloads()

    def one_pass():
        persist._MEMO.clear()
        start = time.perf_counter()
        digests = [persist.digest(payload) for payload in payloads]
        return digests, time.perf_counter() - start

    def two_pass():
        start = time.perf_counter()
        digests = [persist_reference.digest(payload) for payload in payloads]
        return digests, time.perf_counter() - start

    ours, oracle = one_pass()[0], two_pass()[0]
    one_wall = min(one_pass()[1] for _ in range(repeats))
    two_wall = min(two_pass()[1] for _ in range(repeats))
    return {
        "workload": (
            f"{len(payloads)} payloads of a K=10..13 Fig. 2 plan "
            f"(best of {repeats} passes, memo emptied before each)"
        ),
        "payloads": len(payloads),
        "two_pass_ms": round(two_wall * 1e3, 3),
        "one_pass_ms": round(one_wall * 1e3, 3),
        "speedup": round(two_wall / one_wall, 2),
        "identical_digests": ours == oracle,
    }


#: The warm-rerun grid: K = 10..11 in all three modes, 7 (spec, candidate)
#: pairs and 6 records.
WARM_GRID = CampaignGrid(
    resolutions=(10, 11), modes=("analytic", "synthesis", "behavioral")
)


def _searched_problems(searches: list):
    """Wrap the scheduler's job function to log every search it runs.

    Each search appends ``(problem key, feasible, transients, first
    pass)``: the key digests the block's problem, technology and
    verification flag, as the campaign ledger's spec layer does;
    ``transients`` is the search's ``transient_evals``, and ``first pass``
    whether its first settling transient met the settling error (a search
    that ran one and ends within it).  Works on the serial backend, where
    jobs run in this process.
    """
    real = scheduler.run_synthesis_job

    def logged(job):
        result = real(job)
        key = persist.digest(
            {
                "problem": job.spec.problem,
                "tech": job.tech,
                "verify_transient": job.verify_transient,
            }
        )
        settling = result.final.settling_error
        first_pass = (
            result.transient_evals == 1
            and settling is not None
            and settling <= job.spec.problem.settling_error
        )
        searches.append((key, result.feasible, result.transient_evals, first_pass))
        return result

    return mock.patch.object(scheduler, "run_synthesis_job", logged)


def _repeated_problems(searches: list) -> int:
    """Searches of a problem an earlier search already solved feasibly."""
    solved: set[str] = set()
    repeats = 0
    for key, feasible, _, _ in searches:
        repeats += key in solved
        if feasible:
            solved.add(key)
    return repeats


def stage_warm_rerun(budget: int, reruns: int) -> dict:
    """A cold fill and warm reruns of a three-mode grid: work and traffic.

    Fills a temporary cache with :data:`WARM_GRID` at ``budget`` and logs
    the fill's searches: how many, how many distinct block problems, how
    many searched a problem the campaign already held a feasible block
    for, their settling transients (in all, and how many searches ran each
    count) and how many searches' first transient met the settling error.
    Then reruns the grid against the cache ``reruns`` times and reports
    the median wall.  One more rerun is counted
    (``tests/campaign/traffic.py``): ``plan_stages`` calls against the
    distinct (spec, candidate) pairs, and record serializations against
    records.
    """
    fill_searches: list[tuple[str, bool, int, bool]] = []
    with tempfile.TemporaryDirectory(prefix="repro-warm-") as tmp:
        root = Path(tmp)
        config = FlowConfig(
            budget=budget,
            retarget_budget=budget // 3,
            behavioral_draws=16,
            cache_dir=str(root / "cache"),
        )
        start = time.perf_counter()
        with _searched_problems(fill_searches):
            runner.run_campaign(WARM_GRID, config, store_dir=root / "fill")
        fill_wall = time.perf_counter() - start
        walls = []
        for _ in range(reruns):
            start = time.perf_counter()
            runner.run_campaign(WARM_GRID, config, store_dir=root / "warm")
            walls.append(time.perf_counter() - start)
        with campaign_traffic() as traffic:
            counted = runner.run_campaign(WARM_GRID, config, store_dir=root / "counted")
    searches = sum(r.cold_runs + r.retargeted_runs for r in counted.records)
    return {
        "workload": (
            f"K=10..11 analytic+synthesis+behavioral grid, budget {budget}, "
            f"16 draws, rerun against its filled cache (median of {reruns})"
        ),
        "fill_s": round(fill_wall, 3),
        "fill_searches": len(fill_searches),
        "fill_problems": len({key for key, *_ in fill_searches}),
        "fill_repeated_problems": _repeated_problems(fill_searches),
        "fill_transients": sum(n for _, _, n, _ in fill_searches),
        "fill_transients_per_search": {
            str(n): count
            for n, count in sorted(Counter(n for _, _, n, _ in fill_searches).items())
        },
        "fill_first_pass": sum(first for *_, first in fill_searches),
        "rerun_ms": round(statistics.median(walls) * 1e3, 3),
        "searches": searches,
        "plans": len(traffic.plans),
        "distinct_pairs": traffic.distinct_pairs,
        "serializations": traffic.serializations,
        "records": len(counted.records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets for CI (seconds, not minutes)")
    parser.add_argument("--out", default="bench_components.json",
                        help="output JSON path (default: bench_components.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if compiled is slower than the "
                             "reference walk or any result diverges")
    args = parser.parse_args(argv)

    # Pin the BLAS/OpenMP pools exactly like the pooled backends do, and
    # record the effective values so a BENCH artifact states the thread
    # configuration it was measured under.
    blas_threads = pin_blas_threads()

    budget = 120 if args.smoke else 400
    repeats = 10 if args.smoke else 30
    identical = 6 if args.smoke else 8
    distinct = 8 if args.smoke else 16
    # The 256-draw point is the acceptance workload — smoke only trims the
    # capture length, never the draw count the 5x floor is defined at.
    behavioral_draws = 256
    behavioral_samples = 512 if args.smoke else 2048

    # Each stage runs in its own guard: a raising benchmark must not
    # silently truncate the JSON.  The error is recorded in the stage's
    # slot (so CI artifacts show *which* stage died and why) and the run
    # exits non-zero after writing the partial report.
    # bench_service/bench_fabric sit next to this script; script-dir
    # imports resolve them.
    from bench_fabric import check_fabric_report, run_fabric_benchmark
    from bench_obs import check_obs_report, run_obs_benchmark
    from bench_service import check_service_report, run_service_benchmark

    # Fabric probes measure dispatch concurrency (off-CPU service time),
    # so smoke only trims the probe count and service time — the 1.5x
    # two-worker floor holds at either scale.
    fabric_kwargs = (
        dict(tasks=6, busy_s=0.2, identity_jobs=3, budget=60)
        if args.smoke
        else dict(tasks=10, busy_s=0.3, identity_jobs=4, budget=120)
    )

    stage_fns = {
        "synthesize_mdac": lambda: stage_synthesize(budget),
        "equation_metric_stage": lambda: stage_equation_metrics(repeats),
        "bind": lambda: stage_bind(200, repeats),
        "transient_step": lambda: stage_transient_step(3 if args.smoke else 7),
        "behavioral": lambda: stage_behavioral(
            behavioral_draws, behavioral_samples
        ),
        "digest": lambda: stage_digest(repeats),
        "warm_rerun": lambda: stage_warm_rerun(budget, repeats),
        "service": lambda: run_service_benchmark(identical, distinct),
        "fabric": lambda: run_fabric_benchmark(**fabric_kwargs),
        # Telemetry overhead holds its floor on the same synthesis run;
        # smoke trims only the sample count.
        "obs": lambda: run_obs_benchmark(repeats=5 if args.smoke else 9),
    }
    stages: dict[str, dict] = {}
    stage_errors: list[str] = []
    for name, stage_fn in stage_fns.items():
        try:
            stages[name] = stage_fn()
        except Exception:
            stages[name] = {"error": traceback.format_exc()}
            stage_errors.append(name)

    report = {
        "bench": "component benchmarks",
        "config": {
            "smoke": args.smoke,
            "budget": budget,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_threads": blas_threads,
        },
        "stages": stages,
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))

    if stage_errors:
        for name in stage_errors:
            print(f"BENCH FAILED: stage {name!r} raised (see {out_path})",
                  file=sys.stderr)
        return 1

    synth = report["stages"]["synthesize_mdac"]
    eqn = report["stages"]["equation_metric_stage"]
    bind = report["stages"]["bind"]
    trans = report["stages"]["transient_step"]
    behavioral = report["stages"]["behavioral"]
    digests = report["stages"]["digest"]
    warm = report["stages"]["warm_rerun"]
    service = report["stages"]["service"]
    fabric = report["stages"]["fabric"]
    obs = report["stages"]["obs"]
    print(
        f"\nfull-candidate speedup: {synth['speedup_full_candidate']}x, "
        f"verified synthesis: {synth['verified']['compiled_cands_per_s']} "
        f"candidates/s, {synth['verified']['compiled_transient_steps_per_s']} "
        f"transient steps/s, "
        f"equation-metric stage: {eqn['speedup']}x, "
        f"bind: {bind['written_us']} us/candidate written against "
        f"{bind['netlist_rebind_us']} us rebuilt, "
        f"transient step: {trans['speedup']}x, "
        f"behavioral batch: {behavioral['speedup']}x, "
        f"verdict peak 1024/256 draws: {behavioral['verdict_peak_growth']}x, "
        f"digest: {digests['speedup']}x, "
        f"warm fill: {warm['fill_searches']} searches of "
        f"{warm['fill_problems']} problems, {warm['fill_transients']} "
        f"transients, {warm['fill_first_pass']} first-transient passes, "
        f"warm rerun: {warm['rerun_ms']}ms, {warm['plans']} plans for "
        f"{warm['distinct_pairs']} pairs, {warm['serializations']} lines for "
        f"{warm['records']} records, "
        f"service: {service['coalescing']['submissions']} identical submissions "
        f"-> {service['coalescing']['cold_synthesis_runs']} cold synthesis, "
        f"{service['throughput']['jobs_per_s']} jobs/s, "
        f"fabric: {fabric['throughput']['speedup_two_vs_one']}x at 2 workers "
        f"({fabric['lease_overhead']['median_ms']}ms lease overhead, "
        f"reclaim in {fabric['reclaim']['seconds_to_reclaim']}s), "
        f"obs: {obs['modelled_metrics_pct']}% metrics / "
        f"{obs['modelled_trace_pct']}% trace overhead modelled, "
        f"{obs['overhead_metrics_pct']}% / {obs['overhead_trace_pct']}% "
        f"by wall ({obs['spans_written']} spans) -> {out_path}"
    )

    if args.check:
        failures = []
        if not synth["identical_results"]:
            failures.append("synthesize_mdac results diverged across kernels")
        if not synth["verified"]["identical_results"]:
            failures.append(
                "synthesize_mdac with verify_transient=True diverged from "
                "the evaluator and transient walks"
            )
        for stage, count in synth["rejected_at"].items():
            if not count:
                failures.append(f"synthesize_mdac rejected no candidate at {stage!r}")
        if not eqn["identical_results"]:
            failures.append("batched AC sweep diverged from the reference loop")
        if not eqn["public_path_identical"]:
            failures.append(
                "the evaluator's power, saturation margin or free-node system "
                "differs from solve_dc -> linearize -> FreeNodes.reduce"
            )
        if not eqn["max_deviation_from_whole_mna"] <= READ_OUT_TOLERANCE:
            failures.append(
                "free-node AC read-out deviates from the whole MNA loop by "
                f"{eqn['max_deviation_from_whole_mna']:.3g} relative "
                f"(limit {READ_OUT_TOLERANCE:g})"
            )
        if not bind["identical_values"]:
            failures.append(
                "bind: a written value or device tuple differs from the "
                "netlist rebind's"
            )
        if not trans["identical_results"]:
            failures.append("compiled transient diverged from the element walk")
        if trans["speedup"] < 1.0:
            failures.append(
                "regression: compiled transient step slower than the walk "
                f"({trans['speedup']}x)"
            )
        if synth["speedup_full_candidate"] < 1.0:
            failures.append(
                "regression: compiled kernel slower than the reference walk "
                f"on the smoke workload ({synth['speedup_full_candidate']}x)"
            )
        if not behavioral["identical_results"]:
            failures.append(
                "behavioral batch kernel diverged from the scalar walk"
            )
        if behavioral["speedup"] < 5.0:
            failures.append(
                "regression: behavioral batch kernel under its 5x floor "
                f"at 256 draws ({behavioral['speedup']}x)"
            )
        if behavioral["peak_over_outputs"] > 1.25:
            failures.append(
                "regression: behavioral batch kernel's tracemalloc peak is "
                f"{behavioral['peak_over_outputs']}x its outputs (limit 1.25x)"
            )
        if behavioral["verdict_peak_growth"] > 2.0:
            failures.append(
                "regression: verify_candidate's tracemalloc peak at 1024 "
                f"draws is {behavioral['verdict_peak_growth']}x its peak at "
                "256 draws (limit 2x)"
            )
        if not digests["identical_digests"]:
            failures.append(
                "one-pass content digests diverged from the two-pass encoder"
            )
        if digests["speedup"] < 2.0:
            failures.append(
                "regression: one-pass content digests under their 2x floor "
                f"({digests['speedup']}x)"
            )
        if warm["fill_repeated_problems"]:
            failures.append(
                f"warm_rerun's fill searched {warm['fill_repeated_problems']} "
                "problem(s) the campaign already held a feasible block for"
            )
        odd = {
            n: count
            for n, count in warm["fill_transients_per_search"].items()
            if n not in ("1", "2")
        }
        if odd:
            failures.append(
                "warm_rerun's fill ran searches with settling transient counts "
                f"outside 1..2 (count: searches) {odd}: one, and the fallback's"
            )
        if warm["searches"]:
            failures.append(f"warm_rerun searched {warm['searches']} block(s)")
        if warm["plans"] != warm["distinct_pairs"]:
            failures.append(
                f"warm_rerun planned {warm['distinct_pairs']} (spec, candidate) "
                f"pairs {warm['plans']} times"
            )
        if warm["serializations"] != warm["records"]:
            failures.append(
                f"warm_rerun serialized {warm['records']} records "
                f"{warm['serializations']} times"
            )
        failures.extend(check_service_report(service))
        failures.extend(check_fabric_report(fabric))
        failures.extend(check_obs_report(obs))
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
