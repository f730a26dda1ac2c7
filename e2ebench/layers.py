"""The layer map: which public functions belong to which layer.

Layers follow the repo's modules, outermost first:

    campaign -> flow -> scheduler / backend -> synth -> optimizer
             -> evaluator -> transient / dc / ac / template -> linalg

with ``behavioral`` beside the chain.  The service layer is timed by its
client (see ``workloads.py``), not wrapped.

:data:`SERIAL_TARGETS` wraps every layer.  :data:`PARENT_TARGETS` wraps only
what runs in the dispatching process of a process-pool campaign; worker
time comes from the store's ``metrics.json`` instead.
"""

from __future__ import annotations

from tracer import Target, Tracer, outermost_times, self_times

# -- result hooks (outermost call per layer only) ---------------------------


def _transient_steps(tracer: Tracer, result) -> None:
    tracer.counts["transient.steps"] += max(len(result.time) - 1, 0)


def _eval_one(tracer: Tracer, result) -> None:
    tracer.counts["evaluator.results"] += 1
    tracer.counts["evaluator.feasible"] += bool(result.feasible)


def _eval_many(tracer: Tracer, results) -> None:
    tracer.counts["evaluator.results"] += len(results)
    tracer.counts["evaluator.feasible"] += sum(bool(r.feasible) for r in results)


def _synth_effort(tracer: Tracer, result) -> None:
    tracer.counts["synth.equation_evals"] += result.equation_evals
    tracer.counts["synth.transient_evals"] += result.transient_evals


def _behavioral_draws(tracer: Tracer, verdict) -> None:
    tracer.counts["behavioral.draws"] += verdict.draws


#: Layers that run in the campaign's own process on every backend.
PARENT_TARGETS = [
    Target("repro.campaign.runner:run_campaign", "campaign"),
    Target("repro.campaign.checkpoint:CheckpointStore.write", "campaign.checkpoint"),
    Target("repro.campaign.runner:CampaignResult.save", "campaign.save"),
    Target("repro.flow.topology:optimize_topology", "flow"),
    Target("repro.engine.scheduler:plan_synthesis", "scheduler"),
    Target("repro.engine.scheduler:execute_plan", "scheduler"),
    Target("repro.engine.backend:SerialBackend.map", "backend"),
    Target("repro.engine.backend:_PooledBackend.map", "backend"),
    Target(
        "repro.behavioral.verify:verify_candidate",
        "behavioral",
        on_result=_behavioral_draws,
    ),
    Target("repro.behavioral.batch:simulate_draws", "behavioral"),
]

#: Everything below the backend: runs in-process only on the serial backend.
WORKER_TARGETS = [
    Target("repro.synth.retarget:retarget_mdac", "synth", on_result=_synth_effort),
    Target("repro.synth.synthesis:synthesize_mdac", "synth", on_result=_synth_effort),
    Target("repro.synth.anneal:anneal", "optimizer"),
    Target("repro.synth.de:differential_evolution", "optimizer"),
    Target("repro.synth.patternsearch:pattern_search", "optimizer"),
    Target("repro.synth.evaluator:HybridEvaluator.evaluate", "evaluator", on_result=_eval_one),
    Target(
        "repro.synth.evaluator:HybridEvaluator.evaluate_batch",
        "evaluator",
        on_result=_eval_many,
    ),
    Target(
        "repro.analysis.transient:simulate_transient",
        "transient",
        on_result=_transient_steps,
    ),
    Target("repro.analysis.dc:solve_dc", "dc", error_counter="dc.failures"),
    Target("repro.analysis.ac:ac_system_stack", "ac"),
    Target("repro.analysis.ac:ac_system_tensor", "ac"),
    Target("repro.analysis.ac:solve_ac_stack", "ac"),
    Target("repro.analysis.template:bind_template", "template"),
    Target("repro.analysis.template:BoundMna.rebind", "template"),
    Target("repro.analysis.template:BoundMna.newton_solve", "linalg"),
    Target("numpy.linalg:solve", "linalg"),
]

SERIAL_TARGETS = PARENT_TARGETS + WORKER_TARGETS

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "campaign", "flow", "scheduler", "optimizer", "evaluator",
    "transient", "dc", "ac", "behavioral",
)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Span-derived per-layer metrics, averaged per workload unit."""
    self_s, calls, _ = self_times(tracer.spans)
    synth = outermost_times(tracer.spans, ("synthesize_mdac", "retarget_mdac"))
    counts = tracer.counts
    per = 1.0 / max(units, 1)
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) * per for layer in SELF_TIME_LAYERS}
    for layer in ("transient", "dc", "ac", "evaluator", "optimizer", "behavioral"):
        out[f"{layer}.calls"] = calls.get(layer, 0) * per
    results = counts["evaluator.results"]
    out.update(
        {
            "transient.steps": counts["transient.steps"] * per,
            "dc.failures": counts["dc.failures"] * per,
            "linalg.solves": calls.get("linalg", 0) * per,
            "linalg.solve_s": self_s.get("linalg", 0.0) * per,
            "evaluator.feasible_ratio": counts["evaluator.feasible"] / results
            if results
            else 0.0,
            "synth.cold_s": synth["synthesize_mdac"] * per,
            "synth.retarget_s": synth["retarget_mdac"] * per,
            "synth.equation_evals": counts["synth.equation_evals"] * per,
            "synth.transient_evals": counts["synth.transient_evals"] * per,
            "template.bind_s": self_s.get("template", 0.0) * per,
            "backend.map_s": outermost_map_seconds(tracer.spans) * per,
            "campaign.checkpoint_s": self_s.get("campaign.checkpoint", 0.0) * per,
            "campaign.save_s": self_s.get("campaign.save", 0.0) * per,
            "behavioral.draws": counts["behavioral.draws"] * per,
        }
    )
    return out


def outermost_map_seconds(spans) -> float:
    """Inclusive wall time of backend ``map`` calls (never nested)."""
    return sum(
        end - start
        for name, layer, parent, thread, start, end in spans
        if layer == "backend"
    )


def store_counters(metrics_json: dict) -> dict[str, float]:
    """Exact-repeat work counters from one campaign store's ``metrics.json``."""
    metrics = metrics_json.get("metrics", {})
    counters = metrics.get("counters", {})
    hists = metrics.get("histograms", {})

    def hist(name: str, field: str) -> float:
        return float(hists.get(name, {}).get(field, 0.0))

    return {
        "scheduler.waves": counters.get("scheduler.waves", 0),
        "scheduler.job_executions": counters.get("scheduler.job_executions", 0),
        "scheduler.max_wave_width": hist("scheduler.wave_width", "max"),
        "cache.persistent_hits": counters.get("cache.persistent_hits", 0),
        "cache.shared_hits": counters.get("ledger.shared_hits", 0),
        "cache.cold_runs": counters.get("cache.cold_runs", 0),
        "cache.retargeted_runs": counters.get("cache.retargeted_runs", 0),
        "cache.escalations": counters.get("scheduler.pool_escalations", 0),
        "template.compiles": counters.get("template.compiled", 0),
        "campaign.scenarios": counters.get("campaign.scenarios", 0),
        "job_seconds": hist("scheduler.job_seconds", "total")
        + hist("scheduler.retarget_seconds", "total"),
    }


__all__ = [
    "PARENT_TARGETS",
    "SERIAL_TARGETS",
    "layer_metrics",
    "store_counters",
]
