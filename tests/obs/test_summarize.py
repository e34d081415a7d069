"""The offline analyzer and its ``python -m repro obs`` command."""

import pytest

from repro.core.system import System
from repro.errors import ArtifactError
from repro.obs.summarize import Artifact, summarize
from tests.conftest import run_cli

WORKLOAD = """
materialize(peer, 60, 50, keys(1,2)).
p1 peer@N(M) :- hello@N(M).
p2 echo@M(N) :- hello@N(M).
p3 tick@N(E) :- periodic@N(E, 0.5).
"""


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    system = System(seed=9, loss_rate=0.2, observability=True)
    a = system.add_node("a:1", tracing=True)
    system.add_node("b:2", tracing=True)
    system.install_source(WORKLOAD, name="w")
    for i in range(5):
        a.inject("hello", ("a:1", "b:2"))
    system.run_for(20.0)
    directory = tmp_path_factory.mktemp("artifacts")
    return system.export_telemetry(str(directory), prefix="run")


def test_artifact_roundtrip_from_jsonl(artifacts):
    art = Artifact.load(artifacts["jsonl"])
    assert art.meta["seed"] == 9
    assert art.events and not art.spans
    rules = dict(art.rule_stats())
    assert "p3" in rules and rules["p3"]["count"] > 10
    # Every firing of every node is in the rule timing.
    assert sum(row["count"] for row in rules.values()) == sum(
        art.metrics["node_rule_executions_total"].values()
    )
    assert art.drop_attribution().get("loss", 0) > 0
    assert "messages_sent" in art.transport_counters()
    assert art.event_counts("net.drop", "reason").get("loss", 0) > 0


def test_artifact_from_chrome_trace_falls_back_to_spans(artifacts):
    art = Artifact.load(artifacts["trace"])
    assert art.meta["seed"] == 9
    assert art.spans and {span["name"] for span in art.spans} == {"rule_exec"}
    # Ranked from the rule_exec spans (the traced nodes' ruleExec rows).
    stats = art.rule_stats()
    assert {rule for rule, _ in stats} == {"p1", "p2", "p3"}
    assert sum(row["count"] for _, row in stats) == len(art.spans)
    totals = [row["total"] for _, row in stats]
    assert totals == sorted(totals, reverse=True) and totals[0] > 0
    text = summarize(artifacts["trace"])
    assert f"records: {len(art.spans)} spans" in text
    assert "(no rule timing data)" not in text


def test_summarize_sections(artifacts):
    text = summarize(artifacts["jsonl"], top=3)
    assert "telemetry summary" in text
    assert "top 3 slow rules" in text
    assert "per-link latency percentiles" in text
    assert "drop / retransmit attribution" in text
    assert "loss" in text
    # Deterministic: same artifact, same text.
    assert text == summarize(artifacts["jsonl"], top=3)


def test_cli_exit_codes(artifacts, capsys):
    assert run_cli("obs", "summarize", artifacts["jsonl"]) == 0
    assert "slow rules" in capsys.readouterr().out
    assert run_cli("obs", "summarize", artifacts["trace"], "--top", "2") == 0
    capsys.readouterr()
    assert run_cli("obs", "summarize", "/nonexistent/artifact.jsonl") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: cannot read artifact '/nonexistent/artifact.jsonl'"
    )


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[]", "line 1 is not a JSON object"),
        ('{"type": "meta"}\n3\n', "line 2 is not a JSON object"),
        ('{"traceEvents": 3}', "traceEvents is not a list of objects"),
        ('{"traceEvents": [1]}', "traceEvents is not a list of objects"),
        ('{"type": "metric"}', "malformed record"),
        ("{not json", "Expecting property name"),
    ],
)
def test_wrong_shape_artifact_is_a_typed_error_naming_the_file(
    tmp_path, text, reason
):
    path = tmp_path / "artifact.jsonl"
    path.write_text(text)
    with pytest.raises(ArtifactError, match=reason) as caught:
        Artifact.load(str(path))
    assert caught.value.path == str(path)
    assert str(path) in str(caught.value)
