"""The end-to-end benchmark's layer map must keep naming the source.

``benchmarks/e2e`` charges each module under ``src/repro/`` to a layer
(``benchmarks.e2e.spec.LAYERS``, read through
``benchmarks.e2e.trace.layer_of``); a module no layer names is charged
to ``other``.  A traced run whose ``other.share`` exceeds
``benchmarks.e2e.runner.MAX_OTHER_SHARE`` is invalid, so a new module
that takes real work on a benchmarked path can invalidate every traced
run.  This test reads the map without editing it and fails when a
module joins ``other``: put the new code in a module a layer already
names, or change the map together with the benchmark.
"""

from __future__ import annotations

import os

import repro
from benchmarks.e2e.runner import MAX_OTHER_SHARE
from benchmarks.e2e.trace import layer_of

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: The modules charged to ``other`` when this guard was written (40).
OTHER_MODULES = frozenset(
    {
        "__init__.py", "__main__.py", "codec.py", "errors.py", "histogram.py",
        "aggtree/__init__.py", "aggtree/cli.py", "aggtree/differential.py",
        "aggtree/monitors.py", "aggtree/partials.py", "aggtree/planner.py",
        "aggtree/runtime.py", "aggtree/tree.py",
        "analysis/__init__.py", "analysis/causality.py",
        "analysis/forensics.py", "analysis/snapshots.py",
        "faults/__init__.py", "faults/campaign.py", "faults/corruption.py",
        "faults/injector.py", "faults/scenarios.py", "faults/schedule.py",
        "gossip/__init__.py", "gossip/harness.py", "gossip/program.py",
        "introspect/__init__.py", "introspect/reflect.py",
        "net/__init__.py",
        "recovery/__init__.py", "recovery/durable.py", "recovery/manager.py",
        "recovery/postmortem.py", "recovery/recorder.py",
        "report/__init__.py", "report/chains.py", "report/dashboard.py",
        "report/ring.py",
        "runtime/__init__.py", "runtime/codegen.py",
    }
)


def modules_charged_to_other():
    found = set()
    for root, _dirs, files in os.walk(REPRO_ROOT):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                if layer_of(path) == "other":
                    found.add(os.path.relpath(path, REPRO_ROOT).replace(os.sep, "/"))
    return found


def test_no_new_module_is_charged_to_other():
    assert len(OTHER_MODULES) == 40
    new = sorted(modules_charged_to_other() - OTHER_MODULES)
    assert not new, (
        f"src/repro/{', src/repro/'.join(new)}: no layer of "
        f"benchmarks/e2e/spec.py LAYERS names this module, so its time is "
        f"charged to 'other'; a traced run with other.share above "
        f"MAX_OTHER_SHARE ({MAX_OTHER_SHARE}) is invalid.  Put the code in "
        f"a module a layer names."
    )


def test_the_map_names_the_layers_the_introspection_rings_live_in():
    # The rings are in runtime/table.py and their writers in introspect/:
    # both must stay out of 'other'.
    for module in (
        "runtime/table.py", "introspect/tracer.py",
        "introspect/tuple_table.py", "introspect/logger.py",
    ):
        assert layer_of(os.path.join(REPRO_ROOT, module)) != "other", module
