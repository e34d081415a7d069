"""Campaign verdicts carry forensic-store pointers.

With ``store_dir`` set, every arm of a campaign runs traced + logged
into its own durable store, and the verdict fingerprint embeds the
segment pointers — a failure replayed from its seed produces the same
evidence trail, and the evidence can be sliced offline with
``python -m repro store``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ReproError
from repro.faults.campaign import CampaignConfig, FaultCampaign
from repro.store import ForensicStore, StoreProvider, backward_slice


def small_config(**overrides) -> CampaignConfig:
    defaults = dict(num_nodes=6, stabilize_time=240.0)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def verdict(tmp_path_factory):
    """One store-backed campaign, read by the tests below."""
    config = small_config(store_dir=str(tmp_path_factory.mktemp("stores")))
    return FaultCampaign(2, config).run()


def test_verdict_embeds_store_pointers(verdict):
    assert verdict.store is not None
    assert verdict.store["events"] > 0
    assert verdict.store["segments"], "campaign produced no segments"
    assert os.path.exists(verdict.store["manifest"])
    for segment in verdict.store["segments"]:
        assert os.path.exists(segment)
    # The pointers are part of the reproducibility contract.
    assert "store" in verdict.fingerprint()
    assert json.loads(verdict.fingerprint())["store"] == verdict.store


def test_store_less_campaign_has_no_pointer_block():
    verdict = FaultCampaign(2, small_config()).run()
    assert verdict.store is None
    assert json.loads(verdict.fingerprint())["store"] is None


def test_campaign_store_is_sliceable_offline(verdict):
    directory = os.path.dirname(verdict.store["manifest"])
    store = ForensicStore.open(directory)
    assert store.events_appended == verdict.store["events"]
    # Slice the newest persisted tuple on some node: the walk must
    # terminate and produce canonical, repeatable bytes.
    node = store.nodes()[0]
    tids = [r["i"] for r in store.events(node=node, kind="tt")]
    assert tids, "no identity records persisted"
    provider = StoreProvider(store)
    result = backward_slice(provider, node, max(tids))
    assert result.to_json() == backward_slice(
        provider, node, max(tids)
    ).to_json()


def brief_config(directory, **overrides) -> CampaignConfig:
    """Three nodes and short phases: enough to write every output file,
    for tests that read only where the files went."""
    return CampaignConfig(
        num_nodes=3, fault_duration=20.0, recovery_time=30.0,
        artifact_dir=str(directory), store_dir=str(directory), **overrides,
    )


def test_arm_store_dirs_do_not_collide(tmp_path):
    config = brief_config(tmp_path)
    faulted = FaultCampaign(3, config).run()
    control = FaultCampaign(3, config).run(control=True)
    assert faulted.store["manifest"] != control.store["manifest"]
    assert os.path.exists(faulted.store["manifest"])
    assert os.path.exists(control.store["manifest"])
    assert faulted.artifact != control.artifact


def test_plain_and_churn_campaigns_share_one_output_directory(tmp_path):
    """The nightly job runs a plain and a churn sweep over the same
    seeds into one directory: neither may overwrite the other's
    telemetry artifacts or store."""
    plain = FaultCampaign(0, brief_config(tmp_path)).run()
    churn = FaultCampaign(0, brief_config(tmp_path, churn=True)).run()
    assert os.path.basename(plain.artifact) == "campaign_seed0.jsonl"
    assert os.path.basename(churn.artifact) == "campaign_seed0_churn.jsonl"
    for stem in ("campaign_seed0", "campaign_seed0_churn"):
        for suffix in (".jsonl", ".trace.json", ".prom"):
            assert (tmp_path / (stem + suffix)).exists(), stem + suffix
    assert plain.store["manifest"] == str(tmp_path / "seed0" / "manifest.json")
    assert churn.store["manifest"] == str(
        tmp_path / "seed0_churn" / "manifest.json"
    )
    # The plain run's evidence is still the plain run's.
    with open(plain.artifact) as handle:
        assert json.loads(handle.readline())["seed"] == 0
    assert (
        ForensicStore.open(str(tmp_path / "seed0")).events_appended
        == plain.store["events"]
    )
    assert churn.restarts and not plain.restarts


def test_population_too_small_for_the_fault_menu_is_a_typed_error():
    with pytest.raises(ReproError, match="num_nodes must be at least 2"):
        FaultCampaign(0, CampaignConfig(num_nodes=1))
