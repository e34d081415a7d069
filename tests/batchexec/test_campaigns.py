"""Campaign verdict fingerprints are execution-mode independent.

A :class:`~repro.faults.campaign.FaultCampaign` folds nearly every
subsystem into one canonical JSON verdict — randomized fault schedule,
reliable-transport counters, monitor alarm timeline with timestamps,
churn-mode restart outcomes, storm-mode overload ledgers.  If the
batched kernel perturbed *any* of it (an alarm 10 ms late, one extra
retransmission), the fingerprint flips.  These tests pin byte equality
between kernels per seed.
"""

from __future__ import annotations

import pytest

from tests.batchexec.harness import MODES, run_campaign_fingerprint


def _fingerprints(seed: int, **kwargs):
    return {
        label: run_campaign_fingerprint(seed, execution, **kwargs)
        for label, execution in MODES.items()
    }


@pytest.mark.parametrize("seed", (0, 1))
def test_fault_campaign_fingerprint_identical(seed):
    prints = _fingerprints(seed)
    assert prints["per-tuple"] == prints["batched"]


def test_churn_campaign_fingerprint_identical():
    prints = _fingerprints(3, churn=True)
    assert prints["per-tuple"] == prints["batched"]


@pytest.mark.slow
def test_storm_campaign_fingerprint_identical():
    # Storm campaigns force the overload controller on: the ledger
    # identity (offered == admitted + shed + deferred) and queue-depth
    # peaks must fingerprint identically under coalesced delivery.
    prints = _fingerprints(5, storm=True)
    assert prints["per-tuple"] == prints["batched"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_campaign_fingerprint_sweep(seed):
    prints = _fingerprints(seed)
    assert prints["per-tuple"] == prints["batched"]
