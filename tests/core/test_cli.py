"""``python -m repro``: one command line, one exit-code contract.

``0`` done; ``1`` a typed error — exactly one ``error: ...`` line on
stderr — or a failed verdict; ``2`` argparse rejected the command line
(usage on stderr).  Never a traceback.  The happy paths of the tool
commands are driven, through the same ``main``, by ``tests/store``
(``store info/query/slice``) and ``tests/obs/test_summarize.py``
(``obs summarize``); ``faults`` and ``aggtree`` run one small seed here.
"""

import json
import re

import pytest

from repro.__main__ import main
from repro.core.system import System
from repro.store.store import StoreConfig
from tests.conftest import run_cli

COMMANDS = [
    ("quickstart",),
    ("ring",),
    ("oscillation",),
    ("gossip",),
    ("snapshot",),
    ("store",),
    ("store", "info"),
    ("store", "query"),
    ("store", "slice"),
    ("faults",),
    ("obs",),
    ("obs", "summarize"),
    ("aggtree",),
]


def test_quickstart_command(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "path@c" in out
    assert "causal chain" in out


def test_gossip_command(capsys):
    assert main(["--seed", "2", "gossip", "--nodes", "6"]) == 0
    out = capsys.readouterr().out
    assert "fully meshed: True" in out
    assert "coverage: 6/6" in out


def test_oscillation_command(capsys):
    assert main(["--seed", "11", "oscillation", "--nodes", "6"]) == 0
    out = capsys.readouterr().out
    assert "oscillations:" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# Every command is reachable and documents itself


@pytest.mark.parametrize("command", [()] + COMMANDS, ids=" ".join)
def test_help_exits_zero(command, capsys):
    assert run_cli(*command, "--help") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: python -m repro")
    assert captured.err == ""


def test_help_lists_exactly_the_commands_of_the_table(capsys):
    def listed(*path):
        run_cli(*path, "--help")
        usage = capsys.readouterr().out
        return set(re.search(r"\{([\w,]+)\}", usage).group(1).split(","))

    assert listed() == {command[0] for command in COMMANDS}
    for group in ("store", "obs"):
        assert listed(group) == {
            c[1] for c in COMMANDS if c[0] == group and len(c) == 2
        }
    run_cli("--help")
    assert "exit codes" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bad input: the documented code, one message, no traceback


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small real store plus the malformed files of the contract."""
    root = tmp_path_factory.mktemp("cli")
    system = System(
        seed=1, store=StoreConfig(directory=str(root / "store"))
    )
    a = system.add_node("a:1", tracing=True)
    b = system.add_node("b:1", tracing=True)
    a.install_source("r1 hop@Dst(X) :- start@N(Dst, X).")
    b.install_source("r2 final@N(X) :- hop@N(X).")
    a.inject("start", ("a:1", "b:1", 7))
    system.run_for(1.0)
    system.close_store()
    (root / "list.json").write_text("[]")
    (root / "trace.json").write_text('{"traceEvents": 3}')
    (root / "lines.jsonl").write_text('{"type": "meta"}\n"text"\n')
    (root / "v1").mkdir()
    (root / "v1" / "manifest.json").write_text(
        '{"next_segment":2,"segments":[{"file":"seg-000001.jsonl",'
        '"index":"seg-000001.idx.json"}],"version":1}'
    )
    return {
        "V1STORE": str(root / "v1"),
        "STORE": str(root / "store"),
        "MISSING": str(root / "no-such-store"),
        "LIST": str(root / "list.json"),
        "TRACE": str(root / "trace.json"),
        "LINES": str(root / "lines.jsonl"),
    }


BAD_INPUT = [
    # (argv, exit code, what the one message says)
    (["aggtree", "--seeds", "x"], 2, "argument --seeds"),
    (["aggtree", "--monitors", "nope"], 2, "unknown monitor 'nope'"),
    (["aggtree", "--nodes", "0"], 1, "num_nodes must be at least 1"),
    (["faults", "--seeds", "x"], 2, "argument --seeds"),
    (["faults", "--seeds", "0", "--nodes", "1"], 1, "num_nodes must be at least 2"),
    (["ring", "--nodes", "0"], 1, "num_nodes must be at least 1"),
    (["snapshot", "--nodes", "0"], 1, "num_nodes must be at least 1"),
    (["oscillation", "--nodes", "0"], 1, "num_nodes must be at least 1"),
    (["gossip", "--nodes", "0"], 1, "num_nodes must be at least 1"),
    (["obs", "summarize", "LIST"], 1, "line 1 is not a JSON object"),
    (["obs", "summarize", "TRACE"], 1, "traceEvents is not a list"),
    (["obs", "summarize", "LINES"], 1, "line 2 is not a JSON object"),
    (["obs", "summarize", "MISSING"], 1, "cannot read artifact"),
    (["obs", "summarize", "LIST", "--top", "many"], 2, "argument --top"),
    (["store", "info", "MISSING"], 1, "no forensic store manifest"),
    (["store", "info", "V1STORE"], 1, "store format version 1 is not supported"),
    (["store", "query", "MISSING"], 1, "no forensic store manifest"),
    (["store", "slice", "MISSING", "--node", "a:1", "--tid", "1"], 1,
     "no forensic store manifest"),
    (["store", "slice", "STORE"], 2, "--alarm --tid is required"),
    (["store", "slice", "STORE", "--alarm", "{bad"], 2, "argument --alarm: not JSON"),
    (["store", "slice", "STORE", "--tid", "1"], 2, "--tid requires --node"),
    (["store", "slice", "STORE", "--alarm", '{"rel":"ghost","v":[]}'], 1,
     "alarm tuple not found"),
    (["store", "query", "STORE", "--limit", "-1"], 1, "limit must be >= 0: -1"),
    (["store", "query", "STORE", "--kind", "zz"], 2, "argument --kind"),
]


@pytest.mark.parametrize(
    "argv, code, message", BAD_INPUT, ids=[" ".join(row[0]) for row in BAD_INPUT]
)
def test_bad_input_is_one_message_and_the_documented_code(
    argv, code, message, inputs, capsys
):
    assert run_cli(*(inputs.get(arg, arg) for arg in argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert message in captured.err
    lines = captured.err.splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines[0].startswith("usage: python -m repro"), lines
        assert [": error: " in line for line in lines].count(True) == 1
        assert ": error: " in lines[-1]


# ----------------------------------------------------------------------
# Happy paths of the commands no other test drives


def test_store_commands_on_a_kept_store(inputs, capsys):
    assert run_cli("store", "info", inputs["STORE"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["nodes"] == ["a:1", "b:1"]
    assert [sorted(entry["blocks"]) for entry in info["layout"]] == [
        ["p", "re", "tt"]
    ]
    assert sum(info["layout"][0]["blocks"].values()) - info["layout"][0][
        "blocks"]["p"] == info["records"]
    assert run_cli("store", "query", inputs["STORE"], "--relation", "final",
                   "--kind", "tt") == 0
    (record,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert run_cli("store", "slice", inputs["STORE"], "--alarm",
                   json.dumps(record["rep"])) == 0
    by_alarm = capsys.readouterr().out
    assert run_cli("store", "slice", inputs["STORE"], "--node", record["n"],
                   "--tid", record["i"]) == 0
    assert capsys.readouterr().out == by_alarm
    assert {link["r"] for link in json.loads(by_alarm)["links"]} == {"r1", "r2"}


def test_faults_command_runs_a_seed_and_appends_its_verdict(tmp_path, capsys):
    verdicts = tmp_path / "verdicts.jsonl"
    assert run_cli("faults", "--seeds", "0", "--nodes", "4", "--control",
                   "--verdicts", verdicts, "--fingerprints") == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] seed=0 ")
    (line,) = verdicts.read_text().splitlines()
    assert line in out and json.loads(line)["seed"] == 0
    # An output file that cannot be written is an error line, not a
    # traceback, after the run.
    assert run_cli("faults", "--seeds", "0", "--nodes", "4", "--control",
                   "--verdicts", tmp_path / "missing" / "v.jsonl") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_aggtree_command_runs_a_seed_and_writes_verdicts(tmp_path, capsys):
    verdicts = tmp_path / "diff.json"
    assert run_cli("aggtree", "--seeds", "0", "--nodes", "4", "--duration",
                   "60", "--monitors", "partition,oscillation",
                   "--verdicts", verdicts) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed 0: OK ") and f"wrote {verdicts}" in out
    written = json.loads(verdicts.read_text())
    assert written["all_equal"] is True
    assert written["monitors"] == ["partition", "oscillation"]
    assert [v["seed"] for v in written["verdicts"]] == [0]
