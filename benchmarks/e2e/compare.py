"""Compare two results of the same benchmark (choosing-metrics §6).

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (A is the base) and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the bound cannot be tested
``improved``    B's median is better than A's by more than the bound and
                the two quartile ranges do not overlap
``unchanged``   none of the above

Two sets of the same code, minutes apart, differ by 5-10 % on a shared
box, so a gain smaller than the bound is not resolved by two sets: show
it with ten alternating pairs (choosing-metrics section 8) instead.

Metrics with bound 0 are exact: any difference is a regression or an
improvement, never noise.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from . import runner
from .spec import E2E, PER_LAYER, RUN_SECONDS, WORKLOADS


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    if a["median"] == b["median"]:
        return "unchanged"
    # Share of A's median by which B is better (negative: worse).
    gain = sign * (b["median"] - a["median"]) / abs(a["median"])
    if metric["bound"] == 0:
        return "improved" if gain > 0 else "regressed"
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) for side in (a, b)
    )
    if spread > metric["bound"]:
        return "unresolved"
    if gain < -metric["bound"]:
        return "regressed"
    apart = b["q1"] > a["q3"] if sign > 0 else b["q3"] < a["q1"]
    return "improved" if apart and gain > metric["bound"] else "unchanged"


def rows(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = []
    for workload in WORKLOADS:
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for metric in E2E:
            name = metric["name"]
            if name not in wa["end_to_end"] or name not in wb["end_to_end"]:
                continue
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            out.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": va,
                    "b": vb,
                    "ratio": vb["median"] / va["median"] if va["median"] else None,
                    "bound": metric["bound"],
                    "verdict": verdict(metric, va, vb),
                }
            )
    return out


def print_rows(table: List[Dict[str, Any]]) -> None:
    print(
        f"{'workload':<16} {'metric':<22} {'A median [q1,q3]':<34} "
        f"{'B median [q1,q3]':<34} {'B/A':>7} {'bound':>6}  verdict"
    )
    for row in table:
        def cell(v):
            return f"{v['median']:.4f} [{v['q1']:.4f},{v['q3']:.4f}] {row['unit']}"

        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(
            f"{row['workload']:<16} {row['metric']:<22} {cell(row['a']):<34} "
            f"{cell(row['b']):<34} {ratio:>7} {row['bound']:>6}  {row['verdict']}"
        )


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    table = rows(a, b)
    print(f"base A = {path_a} (commit {a['header']['commit']}), B = {path_b} "
          f"(commit {b['header']['commit']})")
    print_rows(table)
    return 1 if any(r["verdict"] == "regressed" for r in table) else 0


def disagreements(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Where two sets of runs of the same code differ by more than the
    benchmark's own bounds (exact metrics and counts: at all)."""
    out = []
    for row in rows(a, b):
        va, vb = row["a"]["median"], row["b"]["median"]
        if abs(vb - va) > row["bound"] * abs(va):
            out.append(
                f"{row['workload']}.{row['metric']}: {va:.6g} vs {vb:.6g} "
                f"(bound {row['bound']})"
            )
    counts = [m["name"] for m in PER_LAYER if m["unit"] == "count"]
    for workload in WORKLOADS:
        la = a["workloads"][workload]["per_layer"]
        lb = b["workloads"][workload]["per_layer"]
        for name in counts:
            if name in la and la[name]["value"] != lb[name]["value"]:
                out.append(
                    f"{workload}.{name}: count {la[name]['value']} vs {lb[name]['value']}"
                )
        if (
            a["workloads"][workload]["sim_fingerprint"]
            != b["workloads"][workload]["sim_fingerprint"]
        ):
            out.append(f"{workload}: sim_fingerprint differs")
    return out


def repeat_check(seed: int, repeats: int) -> int:
    """Two full sets back to back; non-zero if they disagree."""
    names = list(WORKLOADS)
    sets = [
        runner.run_all(names, seed, float(RUN_SECONDS), repeats, traced=True, out=None)
        for _ in range(2)
    ]
    print_rows(rows(*sets))
    problems = disagreements(*sets)
    for problem in problems:
        print(f"DISAGREE: {problem}")
    print("repeat-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0
