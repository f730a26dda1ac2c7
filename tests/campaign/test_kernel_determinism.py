"""Campaign records must be byte-identical on the reference evaluator.

A campaign whose syntheses run on the per-element equation path kept in
``tests/synth/evaluator_reference.py`` must write exactly the bytes the
default compiled path writes — on the serial backend and on broker
workers — extending the PR 1/PR 2 determinism guarantees to the kernel
layer.  The default path prunes candidates its searches would turn down,
after the DC solve, the gain point or the top of the loop grid; the
reference evaluator never does, so equal bytes also show that pruning
moves nothing, and each comparison checks that the default path really
pruned, at every stage.
"""

import pytest

import repro.synth.synthesis
from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from repro.synth.evaluator import REJECT_STAGES
from tests.conftest import fleet_for, rejected_at, rejected_candidates
from tests.synth.evaluator_reference import ReferenceEvaluator


def _store_bytes(tmp_path, label, **config_kwargs):
    config = FlowConfig(
        budget=60,
        retarget_budget=30,
        verify_transient=False,
        **config_kwargs,
    )
    with fleet_for(config):
        campaign = run_campaign(
            CampaignGrid(resolutions=(10,), modes=("synthesis",)), config=config
        )
    paths = campaign.save(tmp_path / label)
    return paths["results"].read_bytes(), paths["report"].read_bytes()


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("kernel-determinism")
    built = []

    def reference(*args, **kwargs):
        built.append(ReferenceEvaluator(*args, **kwargs))
        return built[-1]

    before, stages_before = rejected_candidates(), rejected_at()
    runs = {"compiled-serial": _store_bytes(tmp_path, "compiled-serial")}
    runs["pruned"] = rejected_candidates() - before
    runs["pruned-at"] = {
        stage: count - stages_before[stage] for stage, count in rejected_at().items()
    }
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(repro.synth.synthesis, "HybridEvaluator", reference)
        before = rejected_candidates()
        runs["legacy-serial"] = _store_bytes(tmp_path, "legacy-serial")
        on_serial = len(built)
        runs["legacy-broker"] = _store_bytes(
            tmp_path,
            "legacy-broker",
            backend="broker",
            queue_dir=str(tmp_path / "queue"),
        )
        runs["legacy-pruned"] = rejected_candidates() - before
    # Both legs really synthesized on the oracle, the broker one in its workers.
    assert on_serial and len(built) == 2 * on_serial
    return runs


def test_compiled_matches_legacy_bytes(stores):
    assert stores["compiled-serial"] == stores["legacy-serial"]
    assert stores["pruned"] > 0 and stores["legacy-pruned"] == 0


def test_compiled_matches_legacy_broker_bytes(stores):
    assert stores["compiled-serial"] == stores["legacy-broker"]
    assert stores["pruned"] > 0 and stores["legacy-pruned"] == 0


def test_every_stage_pruned(stores):
    assert all(stores["pruned-at"][stage] > 0 for stage in REJECT_STAGES)
    assert sum(stores["pruned-at"].values()) == stores["pruned"]
