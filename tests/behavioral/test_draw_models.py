"""The one-call parameter sampler IS the per-parameter loop, float for float.

``draw_error_models`` fills one ``(draws, width)`` standard-normal block;
the loop it replaced, kept in ``tests/behavioral/draw_reference.py``, made
one generator call per gain, offset vector and DAC-level vector.  Both
must hand out the same models — compared through ``float.hex``, so a
``-0.0`` that turns into ``+0.0`` fails — and the same noise generators.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavioral.verify import DEFAULT_MISMATCH, MismatchSpec, draw_error_models
from repro.enumeration.candidates import enumerate_candidates
from repro.specs.adc import AdcSpec
from repro.specs.stage import plan_stages
from tests.behavioral import draw_reference

MISMATCHES = (
    DEFAULT_MISMATCH,
    MismatchSpec.ideal(),
    MismatchSpec(systematic=False),
    MismatchSpec(noise_sigma=0.0),
)


def _hex(models) -> list:
    """Every float of every model, as ``float.hex`` strings."""
    return [
        [
            (
                model.gain_error.hex(),
                model.settling_error.hex(),
                tuple(x.hex() for x in model.comparator_offsets),
                model.noise_rms.hex(),
                tuple(x.hex() for x in model.dac_level_errors),
            )
            for model in draw
        ]
        for draw in models
    ]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    bits=st.integers(8, 14),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 17),
    mismatch=st.sampled_from(MISMATCHES),
)
def test_one_call_sampler_equals_the_loop(data, bits, seed, draws, mismatch):
    candidate = data.draw(st.sampled_from(enumerate_candidates(bits)))
    plan = plan_stages(AdcSpec(resolution_bits=bits), candidate)
    models, rngs = draw_error_models(plan, draws, seed, mismatch)
    ref_models, ref_rngs = draw_reference.draw_error_models(
        plan, draws, seed, mismatch
    )
    assert models == ref_models
    assert _hex(models) == _hex(ref_models)
    assert pickle.dumps(models) == pickle.dumps(ref_models)
    assert [g.bit_generator.state for g in rngs] == [
        g.bit_generator.state for g in ref_rngs
    ]


def test_campaign_plans_at_full_draw_count():
    # The campaign's four winners at its 256 draws, one fixed seed each.
    for bits, label in ((10, "3-2"), (11, "4-2"), (12, "4-2-2"), (13, "3-2-2-2-2")):
        candidate = next(c for c in enumerate_candidates(bits) if c.label == label)
        plan = plan_stages(AdcSpec(resolution_bits=bits), candidate)
        models, _ = draw_error_models(plan, 256, bits)
        ref_models, _ = draw_reference.draw_error_models(plan, 256, bits)
        assert pickle.dumps(models) == pickle.dumps(ref_models), label
