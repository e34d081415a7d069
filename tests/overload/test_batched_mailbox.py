"""Overload protection under the tick loop.

The fabric coalesces a tick's deliveries to a node into one event, so
the admission gate sees bursts back to back rather than one tuple per
event.  That must not change the overload contract
(docs/OVERLOAD.md):

- the accounting identity ``offered == admitted + shed + deferred``
  holds per priority class — a coalesced delivery is N offers, with
  every tuple individually admitted, shed, or deferred;
- the priority invariant holds: DATA is only ever shed while
  lower-priority (MONITOR/TRACE) admission is already closed;
- storms produce the same verdict fingerprint on the tick loop and on
  the test-side per-event reference loop (overload peaks and shed logs
  are part of the differential battery's equivalence surface, see
  tests/batchexec/).
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import CampaignConfig, FaultCampaign
from tests.runtime.reference_loop import reference


def storm_config(**overrides) -> CampaignConfig:
    defaults = dict(num_nodes=6, storm=True, transport="udp")
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def assert_accounting(verdict) -> None:
    assert verdict.overload is not None
    assert verdict.overload["invariant_ok"], (
        f"priority invariant violated: {verdict.overload}"
    )
    classes = verdict.overload["classes"]
    for cls, agg in classes.items():
        assert agg["offered"] == (
            agg["admitted"] + agg["shed"] + agg["deferred"]
        ), f"{cls}: batched offers broke the accounting identity: {agg}"
    assert sum(agg["shed"] for agg in classes.values()) > 0


@pytest.mark.parametrize("seed", (0, 1))
def test_batched_storm_accounting_identity(seed):
    """Batch offers are N offers: identity + invariant per class."""
    verdict = FaultCampaign(seed, storm_config()).run()
    assert verdict.stabilized and verdict.converged
    assert_accounting(verdict)


@pytest.mark.parametrize("seed", (0,))
def test_batched_storm_matches_per_tuple_verdict(seed):
    """One storm seed pinned across loops end to end (the full sweep
    lives in tests/batchexec/test_campaigns.py)."""
    with reference():
        per_tuple = FaultCampaign(seed, storm_config()).run()
    batched = FaultCampaign(seed, storm_config()).run()
    assert per_tuple.fingerprint() == batched.fingerprint()
    assert_accounting(batched)


def test_batched_reliable_storm_defers_data():
    """Backpressure (BUSY nacks / sender backlog) survives batching."""
    verdict = FaultCampaign(
        0, storm_config(transport="reliable")
    ).run()
    assert verdict.stabilized and verdict.converged
    assert verdict.overload["invariant_ok"]
    assert verdict.counters["busy_nacks"] > 0
    assert verdict.overload["classes"]["data"]["deferred"] > 0
