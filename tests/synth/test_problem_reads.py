"""Synthesis reads a spec's problem and nothing else.

``synthesize_mdac`` and ``retarget_mdac`` run here on specs whose fields
outside the :class:`~repro.specs.stage.MdacProblem` raise on read, and must
return the plain run's block bit for bit, the settling fallback's re-search
included.
"""

import pytest

from repro.engine.persist import digest
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.specs.stage import PROBLEM_FIELDS
from repro.synth import synthesize_mdac
from repro.synth.retarget import retarget_mdac
from repro.tech import CMOS025


class OnlyTheProblem:
    """An MDAC spec whose fields outside its problem raise on read."""

    def __init__(self, spec):
        self.problem = spec.problem

    def __getattr__(self, name):
        if name in PROBLEM_FIELDS:
            return getattr(self.problem, name)
        raise AssertionError(f"synthesis read {name!r}, outside the spec's problem")


def _mdacs():
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs


def _block_digest(result) -> str:
    """Digest of a block's design, every float by its bits."""
    return digest(
        (
            result.final,
            result.history,
            result.equation_evals,
            result.transient_evals,
            result.retargeted,
        )
    )


def test_the_proxy_refuses_fields_outside_the_problem():
    proxy = OnlyTheProblem(_mdacs()[0])
    assert proxy.gm_required == _mdacs()[0].gm_required
    for name in ("noise_allocation", "caps", "stage_index", "slew_current"):
        with pytest.raises(AssertionError):
            getattr(proxy, name)


@pytest.mark.parametrize("optimizer", ["anneal", "de"])
@pytest.mark.parametrize("stage", [0, 2])
def test_synthesize_mdac_reads_only_the_problem(stage, optimizer):
    spec = _mdacs()[stage]
    kwargs = dict(budget=30, seed=1, optimizer=optimizer, verify_transient=True)
    plain = synthesize_mdac(spec, CMOS025, **kwargs)
    # Stage 2 under DE misses its first transient with the equations met,
    # so its search runs the fallback's re-search and second transient.
    assert plain.transient_evals == (2 if (stage, optimizer) == (2, "de") else 1)
    proxy = OnlyTheProblem(spec)
    result = synthesize_mdac(proxy, CMOS025, **kwargs)
    assert result.spec is proxy
    assert _block_digest(result) == _block_digest(plain)


def test_retarget_mdac_reads_only_the_problem():
    donor_spec, spec = _mdacs()[2], _mdacs()[1]
    kwargs = dict(budget=20, seed=7, verify_transient=True)
    donor = synthesize_mdac(donor_spec, CMOS025, budget=30, verify_transient=False)
    plain = retarget_mdac(donor, spec, CMOS025, **kwargs)

    proxy_donor = synthesize_mdac(
        OnlyTheProblem(donor_spec), CMOS025, budget=30, verify_transient=False
    )
    proxy = OnlyTheProblem(spec)
    result = retarget_mdac(proxy_donor, proxy, CMOS025, **kwargs)
    assert result.spec is proxy
    assert result.retargeted
    assert _block_digest(result) == _block_digest(plain)
