"""The differential battery's runner: one seed, two modes, one verdict.

``run_one`` boots a Chord ring (with the paper's recycled-dead-neighbor
bug armed), lets it stabilize, installs the bundled global monitors
(:mod:`repro.aggtree.monitors`) in *one* evaluation mode, kills a node
mid-epoch to generate failure-detector and oscillation traffic, and
returns the run's verdict — per-monitor fingerprints, alarm counts,
ledger attribution, collector-inbound volume.

``run_differential`` runs the same seed in ``centralized`` and ``tree``
modes and compares.  Because the simulation is deterministic under a
seed and aggregation traffic never perturbs application behavior (no
RNG draws on the send path, virtual event times independent of load),
the two runs see byte-identical Chord histories — so any fingerprint
divergence is a bug in the decomposition, not noise.  The differential
tests, the CLI (``python -m repro aggtree``), and the CI smoke step all
call these two functions.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Optional, Sequence

from repro.chord.harness import ChordNetwork
from repro.overload.controller import OverloadConfig
from repro.aggtree.monitors import BUNDLED_MONITORS
from repro.aggtree.runtime import MODE_CENTRALIZED, MODE_TREE

#: Default battery: every bundled monitor.
DEFAULT_MONITORS = tuple(sorted(BUNDLED_MONITORS))


def run_one(
    seed: int,
    mode: str,
    monitors: Sequence[str] = DEFAULT_MONITORS,
    nodes: int = 8,
    stabilize: float = 60.0,
    duration: float = 120.0,
    epoch_len: float = 20.0,
    fanout: int = 3,
    kill: bool = True,
    observability: bool = False,
    overload: Optional[OverloadConfig] = None,
    keep_network: bool = False,
) -> Dict[str, Any]:
    """One full run in one mode; returns the comparable verdict dict."""
    net = ChordNetwork(
        num_nodes=nodes,
        seed=seed,
        recycle_dead_bug=True,
        observability=observability,
        overload=overload,
    )
    net.start()
    net.system.run_for(stabilize)

    collector = net.addresses[0]
    handles = {}
    for key in monitors:
        monitor = BUNDLED_MONITORS[key](epoch_len=epoch_len, fanout=fanout)
        handles[key] = monitor.install(
            net.system, collector, net.addresses, mode=mode
        )

    # Kill mid-epoch, away from the boundary flush windows, so both
    # modes lose exactly the same node at exactly the same point.
    t0 = net.system.now
    next_boundary = math.ceil(t0 / epoch_len) * epoch_len
    if kill and nodes > 2:
        victim = net.addresses[-1]
        kill_at = next_boundary + 2.5 * epoch_len
        net.system.sim.schedule(
            kill_at - t0, lambda v=victim: net.kill(v)
        )
    net.system.run_until(t0 + duration)

    fingerprints = {key: h.fingerprint() for key, h in handles.items()}
    combined = hashlib.sha256(
        "|".join(f"{k}={fingerprints[k]}" for k in sorted(fingerprints)).encode()
    ).hexdigest()
    verdict: Dict[str, Any] = {
        "seed": seed,
        "mode": mode,
        "nodes": nodes,
        "monitors": {key: h.verdict() for key, h in handles.items()},
        "fingerprint": combined,
        "inbound_tuples": sum(
            h.verdict()["collector_inbound_tuples"] for h in handles.values()
        ),
        "inbound_bytes": sum(
            h.verdict()["collector_inbound_bytes"] for h in handles.values()
        ),
        "alarms": sum(h.alarm_count() for h in handles.values()),
    }
    if keep_network:
        verdict["_network"] = net
        verdict["_handles"] = handles
    return verdict


def run_differential(
    seed: int,
    monitors: Sequence[str] = DEFAULT_MONITORS,
    nodes: int = 8,
    **kwargs,
) -> Dict[str, Any]:
    """Same seed, both modes; ``equal`` is the battery's pass bit."""
    centralized = run_one(
        seed, MODE_CENTRALIZED, monitors=monitors, nodes=nodes, **kwargs
    )
    tree = run_one(seed, MODE_TREE, monitors=monitors, nodes=nodes, **kwargs)
    per_monitor = {
        key: {
            "equal": (
                centralized["monitors"][key]["fingerprint"]
                == tree["monitors"][key]["fingerprint"]
            ),
            "centralized": centralized["monitors"][key]["fingerprint"],
            "tree": tree["monitors"][key]["fingerprint"],
        }
        for key in centralized["monitors"]
    }
    return {
        "seed": seed,
        "nodes": nodes,
        "equal": centralized["fingerprint"] == tree["fingerprint"],
        "per_monitor": per_monitor,
        "alarms": {
            "centralized": centralized["alarms"],
            "tree": tree["alarms"],
        },
        "inbound": {
            "centralized": centralized["inbound_tuples"],
            "tree": tree["inbound_tuples"],
        },
        "reduction": (
            centralized["inbound_tuples"] / tree["inbound_tuples"]
            if tree["inbound_tuples"]
            else float(centralized["inbound_tuples"] or 1)
        ),
        "centralized": {
            k: v for k, v in centralized.items() if k != "monitors"
        },
        "tree": {k: v for k, v in tree.items() if k != "monitors"},
    }
