"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e [--workload W] [--seed S] [--repeats N] [--out DIR]``
    every workload (or one): N untraced repeats for the end-to-end
    metrics plus one traced run for the per-layer metrics; prints every
    metric by name with its unit; exits non-zero on any failed check.
``... --workload W --seed S --seconds T --trace 0|1``
    the driver contract of ``BENCHMARK.json``: one workload, one JSON
    object as the last line of output.
``... compare A.json B.json`` / ``... repeat-check``
    see :mod:`.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from . import compare, runner
from .spec import DRIVER_REPEATS, RUN_SECONDS, WORKLOADS, contract


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS),
        help="wall seconds the measured window is sized for on the reference box",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="driver contract: print one JSON line of end-to-end (0) or per-layer (1) metrics",
    )
    parser.add_argument("--out", default=None, help="keep result.json and traces here")
    sub = parser.add_subparsers(dest="command")
    child = sub.add_parser("child", help="(internal) run one workload in this process")
    child.add_argument("--traced", action="store_true")
    cmp_parser = sub.add_parser("compare", help="compare two result.json files")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    sub.add_parser("repeat-check", help="run two full sets; fail if they disagree")
    return parser


def print_result(result: Dict[str, Any]) -> None:
    head = result["header"]
    print(
        f"# benchmarks.e2e  commit={head['commit']}  python={head['python']} "
        f"({head['implementation']})  nproc={head['nproc']}"
    )
    print(
        f"# gc_enabled={head['gc_enabled']} gc_threshold={head['gc_threshold']} "
        f"optimize={head['optimize']} dev_mode={head['dev_mode']}  "
        f"seed={result['seed']} repeats={result['repeats']} seconds={result['seconds']}"
    )
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {w['why']}")
        print(f"   sizes: {json.dumps(w['sizes'], sort_keys=True)}")
        print(
            f"   ops_attempted={w['ops_attempted']} ops_failed={w['ops_failed']} "
            f"slices_n={w['slices']} sim_fingerprint={w['sim_fingerprint'][:16]}"
        )
        for failure in w["failures"]:
            print(f"   FAILED: {failure}")
        print("   end-to-end (median [q1, q3] n):")
        for metric, v in w["end_to_end"].items():
            print(
                f"     {metric:<24} {v['median']:>14.4f} {v['unit']:<9}"
                f" [{v['q1']:.4f}, {v['q3']:.4f}] n={v['n']}"
            )
        trace = w.get("trace")
        if trace is not None:
            verdict = "valid" if trace["valid"] else "INVALID"
            print(
                f"   per-layer (traced run {verdict}: other.share="
                f"{trace['other_share']:.3f}, self sum {trace['self_sum_s']:.3f}s of "
                f"{trace['profiled_wall_s']:.3f}s profiled, counts_match="
                f"{trace['counts_match']}):"
            )
        else:
            print("   per-layer (no traced run):")
        for metric, v in w["per_layer"].items():
            print(f"     {metric:<36} {v['value']:>16.6g} {v['unit']}")


def driver_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run under the ``BENCHMARK.json`` contract."""
    result = runner.run_all(
        [workload], seed, seconds,
        repeats=1 if trace else DRIVER_REPEATS, traced=bool(trace),
        out=None, scratch_in_cwd=True,
    )
    w = result["workloads"][workload]
    metrics = {}
    for metric in contract()["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name in w["end_to_end"]:
            value = w["end_to_end"][name]["median"]
        else:
            # A layer the workload never enters did no work: 0.
            value = w["per_layer"].get(name, {"value": 0.0})["value"]
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for failure in w["failures"]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": runner.passed(result),
                "attempted": w["ops_attempted"],
                "failed": w["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except runner.BenchmarkError as error:
        # No number is better than a wrong one: fail without a result.
        print(f"benchmarks.e2e: {error}", file=sys.stderr)
        return 1


def _main(argv: Optional[List[str]]) -> int:
    args = _parser().parse_args(argv)
    if args.command == "child":
        return runner.child_main(
            args.workload, args.seed, args.seconds, args.traced, args.out
        )
    if args.command == "compare":
        return compare.compare_files(args.a, args.b)
    if args.command == "repeat-check":
        return compare.repeat_check(args.seed, args.repeats)
    if args.trace is not None:
        if args.workload is None:
            print("--trace needs --workload", file=sys.stderr)
            return 2
        return driver_run(args.workload, args.seed, args.seconds, args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    result = runner.run_all(
        names, args.seed, args.seconds, args.repeats, traced=True, out=args.out
    )
    print_result(result)
    if args.out is not None:
        path = os.path.join(args.out, "result.json")
        with open(path, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
        print(f"\nwrote {path}")
    return 0 if runner.passed(result) else 1
