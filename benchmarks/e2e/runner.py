"""Run workloads in fresh subprocesses and fold repeats into one result.

The parent never imports the system under test: every repeat is
``python -m benchmarks.e2e child ...`` — one single-threaded process per
run — so ``setup_s`` includes the imports, ``peak_rss_mb`` is that
process's own ``ru_maxrss`` and ``run_wall_s`` its whole life.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from .spec import E2E, LAYERS, PER_LAYER, WORKLOADS

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: A traced run is valid when at most this share of the profiled time
#: could not be charged to a layer ...
MAX_OTHER_SHARE = 0.10
#: ... and the layers' self times sum to the profiled wall within this.
MAX_SELF_SUM_GAP = 0.05


class BenchmarkError(RuntimeError):
    """A workload could not run or could not check its outputs."""


# ----------------------------------------------------------------------
# Child side


def child_main(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: str
) -> int:
    """Run one workload in this process; print its record as JSON."""
    from .trace import layer_breakdown
    from .workloads import WORKLOAD_FUNCS, Run, phase_metrics

    store_dir = os.path.join(out_dir, f"{workload}.store")
    run = Run(workload, seed, seconds, traced, store_dir)
    WORKLOAD_FUNCS[workload](run)
    shutil.rmtree(store_dir, ignore_errors=True)
    rec = run.recorder
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "sizes": run.sizes,
        "ready_epoch": run.ready_epoch,
        "events": run.events,
        "events_per_s": run.events / sum(rec.total(s) for s in run.events_spans),
        **run.e2e,
        "ops_attempted": run.ops_attempted,
        "ops_failed": len(run.failures),
        "failures": run.failures[:10],
        "sim_fingerprint": hashlib.sha256(
            json.dumps(run.sim_stats, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "phases": phase_metrics(run),
        "counts": run.counts,
        "slices": len(rec.durations("slice")),
    }
    if traced:
        record.update(layer_breakdown(rec.profiler))
        record["profiled_wall_s"] = rec.profiled_wall
        with open(os.path.join(out_dir, f"{workload}.trace.json"), "w") as handle:
            json.dump({"run": rec.run_id, "spans": rec.spans}, handle, indent=1)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent side


def spawn(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: str
) -> Dict[str, Any]:
    """One repeat: a fresh subprocess; returns its record plus the two
    metrics only the parent can see (``setup_s``, ``run_wall_s``)."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise BenchmarkError(f"no system under test at {SRC_DIR}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--out", out_dir, "child",
    ] + (["--traced"] if traced else [])
    spawned_epoch = time.time()
    t0 = time.perf_counter()
    done = subprocess.run(
        command, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    run_wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready_epoch") - spawned_epoch
    record["run_wall_s"] = run_wall
    return record


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    repeats: int,
    traced: bool,
    out_dir: str,
) -> Dict[str, Any]:
    """``repeats`` untraced runs (end-to-end medians) and, with
    ``traced``, one more under the profiler (per-layer metrics only)."""
    records = [spawn(workload, seed, seconds, False, out_dir) for _ in range(repeats)]
    first = records[0]
    fingerprints = {r["sim_fingerprint"] for r in records}
    result: Dict[str, Any] = {
        "why": WORKLOADS[workload]["why"],
        "sizes": first["sizes"],
        "seed": seed,
        "ops_attempted": sum(r["ops_attempted"] for r in records),
        "ops_failed": sum(r["ops_failed"] for r in records),
        "failures": first["failures"],
        "sim_fingerprint": first["sim_fingerprint"],
        "slices": first["slices"],
    }
    per_layer: Dict[str, float] = dict(first["counts"])
    per_layer.update(
        {
            name: statistics.median(r["phases"][name] for r in records)
            for name in first["phases"]
        }
    )
    if traced:
        profiled = spawn(workload, seed, seconds, True, out_dir)
        fingerprints.add(profiled["sim_fingerprint"])
        wall = profiled["profiled_wall_s"]
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = profiled["self_s"][layer]
            per_layer[f"{layer}.share"] = profiled["self_s"][layer] / wall
        per_layer.update(profiled["calls"])
        per_layer["trace.overhead_ratio"] = (
            profiled["phases"]["sim.window_s"] / per_layer["sim.window_s"]
        )
        self_sum = sum(profiled["self_s"].values())
        counts_match = profiled["counts"] == first["counts"]
        result["trace"] = {
            "profiled_wall_s": wall,
            "self_sum_s": self_sum,
            "other_share": per_layer["other.share"],
            "counts_match": counts_match,
            "valid": (
                per_layer["other.share"] <= MAX_OTHER_SHARE
                and abs(self_sum - wall) <= MAX_SELF_SUM_GAP * wall
                and counts_match
            ),
        }

    derived = {
        "ops_failed_share": [result["ops_failed"] / result["ops_attempted"]],
        "sim_fingerprint_ok": [1 if len(fingerprints) == 1 else 0],
    }
    end_to_end = {}
    for metric in E2E:
        name = metric["name"]
        if workload not in metric["workloads"]:
            continue
        values = derived.get(name) or [r[name] for r in records]
        end_to_end[name] = _summary(values, metric["unit"])
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    result["end_to_end"] = end_to_end
    result["per_layer"] = {
        name: {"value": per_layer[name], "unit": units[name]}
        for name in units
        if name in per_layer
    }
    result["correct"] = bool(
        result["ops_failed"] == 0
        and result["ops_attempted"] > 0
        and len(fingerprints) == 1
    )
    return result


def passed(result: Dict[str, Any]) -> bool:
    """Every workload's checks passed and its traced run, if any, is valid."""
    return all(
        w["correct"] and w.get("trace", {"valid": True})["valid"]
        for w in result["workloads"].values()
    )


def scratch_dir(inside_cwd: bool) -> str:
    """A fresh directory for stores and traces.  The driver contract
    confines reads and writes to the checkout, so its runs put the
    directory under the working directory; otherwise the system
    temporary directory is used and nothing is written in the repo."""
    return tempfile.mkdtemp(
        prefix=".bench_e2e_", dir=os.getcwd() if inside_cwd else None
    )


def header() -> Dict[str, Any]:
    """Machine and interpreter facts a reader needs beside the numbers."""
    import gc
    import platform

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "optimize": sys.flags.optimize,
        "dev_mode": sys.flags.dev_mode,
    }


def run_all(
    workloads: List[str],
    seed: int,
    seconds: float,
    repeats: int,
    traced: bool,
    out: Optional[str],
    scratch_in_cwd: bool = False,
) -> Dict[str, Any]:
    """Run the named workloads; keep traces only when ``out`` is given."""
    out_dir = out if out is not None else scratch_dir(scratch_in_cwd)
    os.makedirs(out_dir, exist_ok=True)
    try:
        results = {
            name: run_workload(name, seed, seconds, repeats, traced, out_dir)
            for name in workloads
        }
    finally:
        if out is None:
            shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "schema": 1,
        "header": header(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "workloads": results,
    }
