"""Self-check of the benchmark itself (``pytest benchmarks/e2e``).

Not part of the tier-1 suite (``testpaths = ["tests"]``).  Checks the
declared schema against the driver contract's limits, that no benchmark
module reaches into private attributes of the system under test, and
that a seconds-long miniature of every workload produces a result of
the declared shape.
"""

from __future__ import annotations

import ast
import json
import os
import re

import pytest

from benchmarks.e2e import runner
from benchmarks.e2e.spec import E2E, LAYERS, PER_LAYER, WORKLOADS, contract

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_declared_contract():
    with open(os.path.join(runner.REPO_ROOT, "BENCHMARK.json")) as handle:
        on_disk = json.load(handle)
    assert on_disk == contract()
    assert on_disk["paths"] == ["benchmarks/e2e"]
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }


def test_schema_limits_and_declarations():
    spec = contract()
    assert [w["name"] for w in spec["workloads"]] == [
        "ring_bare", "ring_observed", "forensic_chains", "rules_single"
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and len(E2E) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in E2E + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for metric in E2E + PER_LAYER:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in E2E:
        assert 0 <= metric["bound"] <= 0.25
        assert metric["workloads"] and set(metric["workloads"]) <= set(WORKLOADS)
    for metric in PER_LAYER:
        assert "moves" in metric and metric["on"], metric["name"]
        assert set(metric["on"]) | set(metric["not_on"]) <= set(WORKLOADS)
        assert set(metric["moves"]) <= {m["name"] for m in E2E}
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )
    assert list(LAYERS)[-1] == "other"


def test_no_private_attribute_of_the_system_is_touched():
    offenders = []
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(HERE, filename)) as handle:
            tree = ast.parse(handle.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                if private and not own:
                    offenders.append(f"{filename}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                offenders += [
                    f"{filename}:{node.lineno} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, offenders


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_miniature_run_has_the_declared_shape(workload, tmp_path):
    result = runner.run_workload(
        workload, seed=1, seconds=0.5, repeats=1, traced=True, out_dir=str(tmp_path)
    )
    assert result["ops_attempted"] > 0
    assert result["correct"], result["failures"]
    expected = {m["name"] for m in E2E if workload in m["workloads"]}
    assert set(result["end_to_end"]) == expected
    for name, value in result["end_to_end"].items():
        assert {"unit", "median", "q1", "q3", "n", "values"} <= set(value), name
    declared = {m["name"] for m in PER_LAYER}
    assert set(result["per_layer"]) <= declared
    for layer in LAYERS:
        assert f"{layer}.self_s" in result["per_layer"]
    assert result["trace"]["counts_match"]
    assert result["end_to_end"]["sim_fingerprint_ok"]["median"] == 1
    with open(tmp_path / f"{workload}.trace.json") as handle:
        spans = json.load(handle)["spans"]
    assert {"name", "start", "end", "parent", "run", "id"} <= set(spans[0])
    assert "window" in {s["name"] for s in spans}
