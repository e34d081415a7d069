"""Generated strand functions against the element-by-element reference.

``RuleStrand.fire`` runs one Python function generated from the strand's
plan (``repro.runtime.codegen``).  The plan's elements keep their
evaluating methods as the reference semantics; :func:`reference_fire`
chains them the way the engine did before it generated code.  Every
property here plans one program twice — two stores, two planners — fires
one side through the generated function and the other through the
reference, and requires the two to be indistinguishable: actions, hook
calls with their micro-clock timestamps, element and index counters,
work-model totals and the random stream.
"""

import ast as python_ast
import os
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.chord.harness import ChordNetwork
from repro.errors import EvaluationError, PlannerError, ReproError
from repro.overlog import ast
from repro.overlog.builtins import EvalContext
from repro.overlog.expr import EMITTED_NAMES, emit_expr, evaluate
from repro.overlog.program import Program
from repro.overlog.types import NodeID
from repro.runtime import codegen
from repro.runtime.aggregates import apply_aggregate
from repro.runtime.elements import AssignElement, JoinElement, SelectElement
from repro.runtime.planner import Planner
from repro.runtime.store import TableStore
from repro.runtime.strand import DeleteAction, TraceHooks
from repro.runtime.tuples import Tuple
from repro.runtime.work import WorkModel

# ---------------------------------------------------------------------------
# The reference evaluator


def reference_fire(strand, trigger, ctx, hooks=None, charge=None):
    """Fire ``strand`` by calling its elements one at a time over a
    bindings dict: the evaluation the generated function must equal."""
    bindings = strand.match.match(trigger)
    if charge:
        charge("match", 1)
    if bindings is None:
        return []
    strand.firings += 1
    if hooks:
        hooks.input_observed(strand, trigger, ctx.now())

    results = []
    actions = []

    def project_one(current):
        try:
            if strand.rule.delete:
                location, pattern = strand.project.delete_pattern(current, ctx)
                return DeleteAction(strand.project.head.name, location, pattern)
            return strand.project.project(current, ctx)
        except EvaluationError:
            strand.eval_errors += 1
            return None

    def solve(index, current):
        if index == len(strand.ops):
            results.append(current)
            if strand.aggregate is None:
                action = project_one(current)
                if action is not None:
                    actions.append(action)
                    if hooks and isinstance(action, Tuple):
                        hooks.output_observed(strand, action, ctx.now())
            return
        op = strand.ops[index]
        if isinstance(op, JoinElement):
            probes_before = op.probes
            for tup, extended in op.matches(current):
                if hooks:
                    hooks.precondition_observed(strand, op.stage, tup, ctx.now())
                solve(index + 1, extended)
            if charge:
                charge("join", 1)
                examined = op.probes - probes_before
                charge(
                    "join_indexed" if op.uses_index else "join_probe",
                    max(1, examined),
                )
        elif isinstance(op, SelectElement):
            if charge:
                charge("select", 1)
            try:
                ok = op.accepts(current, ctx)
            except EvaluationError:
                strand.eval_errors += 1
                ok = False
            if ok:
                solve(index + 1, current)
        else:
            assert isinstance(op, AssignElement)
            if charge:
                charge("assign", 1)
            try:
                extended = op.apply(current, ctx)
            except EvaluationError:
                strand.eval_errors += 1
                extended = None
            if extended is not None:
                solve(index + 1, extended)

    solve(0, bindings)

    if strand.aggregate is not None:
        for tup in reference_aggregate(strand, bindings, results, ctx):
            actions.append(tup)
            if hooks:
                hooks.output_observed(strand, tup, ctx.now())

    if hooks:
        for stage in range(1, strand.num_stages + 1):
            hooks.stage_completed(strand, stage)
    strand.outputs += len(actions)
    if charge:
        charge("project", max(1, len(actions)))
    return actions


def reference_aggregate(strand, trigger_bindings, results, ctx):
    """Group the derivations by the non-aggregate head arguments and
    fold; with no group, a key computable from the trigger alone still
    yields a row (``count`` of zero)."""
    spec = strand.aggregate
    head = strand.project.head
    key_args = [arg for i, arg in enumerate(head.args) if i != spec.index]
    groups = {}
    for bindings in results:
        try:
            key = tuple(evaluate(arg, bindings, ctx) for arg in key_args)
        except EvaluationError:
            strand.eval_errors += 1
            continue
        member = 1 if spec.var is None else bindings[spec.var]
        groups.setdefault(key, []).append(member)
    if not groups:
        try:
            key = tuple(evaluate(arg, trigger_bindings, ctx) for arg in key_args)
        except EvaluationError:
            return []
        groups[key] = []
    out = []
    for key, values in groups.items():
        try:
            folded = apply_aggregate(spec.func, values)
        except EvaluationError:
            strand.eval_errors += 1
            continue
        if folded is not None:
            values = list(key)
            values.insert(spec.index, folded)
            out.append(Tuple(head.name, tuple(values)))
    return out


# ---------------------------------------------------------------------------
# One side of the comparison


class Recorder(TraceHooks):
    """Records every hook call; charges ``trace`` like the tracer does,
    so hook timestamps depend on the order of all earlier charges."""

    def __init__(self, work):
        self.work = work
        self.calls = []

    def input_observed(self, strand, tup, when):
        self.work.charge("trace")
        self.calls.append(("in", strand.strand_id, tup, when))

    def precondition_observed(self, strand, stage, tup, when):
        self.work.charge("trace")
        self.calls.append(("prec", strand.strand_id, stage, tup, when))

    def output_observed(self, strand, tup, when):
        self.work.charge("trace")
        self.calls.append(("out", strand.strand_id, tup, when))

    def stage_completed(self, strand, stage):
        self.calls.append(("done", strand.strand_id, stage))


class Side:
    """A store, a plan and a clock; fires with ``fire(strand, ...)``."""

    def __init__(self, source, rows, use_indexes, traced, fire):
        self.work = WorkModel()
        self.rng = random.Random(7)
        self.ctx = EvalContext(
            lambda: 100.0 + self.work.micro_offset, self.rng, id_bits=8
        )
        self.store = TableStore(lambda: 0.0)
        planner = Planner(self.store, use_indexes=use_indexes)
        self.strands = planner.plan(Program.compile(source)).strands
        for name, values in rows:
            self.store.get(name).insert(Tuple(name, values))
        self.hooks = Recorder(self.work) if traced else None
        self._fire = fire
        self.actions = []

    def fire_all(self, triggers):
        for trigger in triggers:
            for strand in self.strands:
                self.actions.append(
                    self._fire(
                        strand, trigger, self.ctx, self.hooks, self.work.charge
                    )
                )

    def observed(self):
        """Everything a firing may change, as comparable values."""
        elements = [
            (element.describe(), element.invocations, getattr(element, "probes", None))
            for strand in self.strands
            for element in strand.elements()
        ]
        indexes = [
            (table.name, index.positions, index.probes, index.rows_served)
            for table in self.store.tables()
            for index in table.indexes()
        ]
        strands = [
            (s.strand_id, s.firings, s.outputs, s.eval_errors) for s in self.strands
        ]
        return {
            "actions": self.actions,
            "hooks": self.hooks.calls if self.hooks else None,
            "elements": elements,
            "indexes": indexes,
            "strands": strands,
            "busy_seconds": self.work.busy_seconds,
            "micro_offset": self.work.micro_offset,
            "counts": self.work.counters.counts,
            "rng": self.rng.getstate(),
        }


def assert_same_firing(source, rows, triggers, use_indexes, traced):
    generated = Side(
        source, rows, use_indexes, traced,
        lambda strand, *args: strand.fire(*args),
    )
    reference = Side(source, rows, use_indexes, traced, reference_fire)
    generated.fire_all(triggers)
    reference.fire_all(triggers)
    got, want = generated.observed(), reference.observed()
    for aspect in want:
        assert got[aspect] == want[aspect], aspect
    # Bit-equal, not merely ==.
    assert got["busy_seconds"].hex() == want["busy_seconds"].hex()


# ---------------------------------------------------------------------------
# Random rules

# Few values and fewer constants, so patterns match often enough to
# reach the joins, the hooks and the head.
VALUES = st.sampled_from(
    [0, 1, 1, 2, "a", "sym", 1.5, NodeID(1, 8), NodeID(200, 8)]
)
CONSTANTS = ["1", '"a"', "sym"]
TABLES = {"t1": 3, "t2": 2}
FRESH = ["A", "B", "C", "D", "E", "F", "G", "H"]


@st.composite
def patterns(draw, arity, bound, fresh):
    """Arguments after the location for one body predicate; extends
    ``bound`` with the variables the pattern binds."""
    args = []
    for _ in range(arity):
        kind = draw(
            st.sampled_from(
                ["fresh", "fresh", "fresh", "repeat", "repeat", "const", "ignore"]
            )
        )
        if kind == "repeat" and bound:
            args.append(draw(st.sampled_from(sorted(bound))))
        elif kind == "const":
            args.append(draw(st.sampled_from(CONSTANTS)))
        elif kind == "ignore":
            args.append(draw(st.sampled_from(["_", "_X"])))
        elif fresh:
            var = fresh.pop(0)
            args.append(var)
            bound.add(var)
        else:
            args.append("_")
    return args


@st.composite
def expressions(draw, bound):
    """A condition-free expression over ``bound``; some raise."""
    var = st.sampled_from(sorted(bound))
    x, y = draw(var), draw(var)
    return draw(
        st.sampled_from(
            [
                f"{x} + 1", f"{x} - {y}", f"{x} / {y}", f"{x} % 2", f"{x} * 2",
                f"{x} / 0", "f_now()", "f_rand() % 4", f"f_size({x})",
                f"[{x}, {y}]", f"{x}", "7",
            ]
        )
    )


@st.composite
def conditions(draw, bound):
    var = st.sampled_from(sorted(bound))
    x, y, z = draw(var), draw(var), draw(var)
    return draw(
        st.sampled_from(
            [
                f"{x} < {y}", f"{x} == {y}", f"{x} != 1", f"{x} >= 1",
                f"{x} in ({y}, {z}]", f"{x} in [0, 200)", f"{x} / {y} > 0",
                f"({x} == 1) || ({y} < 2)", f"!({x} == {y}) && ({z} != \"a\")",
                f"f_now() > {x}",
            ]
        )
    )


@st.composite
def rules(draw, label):
    """One rule over ``ev``, ``t1`` and ``t2``: repeated variables within
    and across patterns, constants, ``_`` variables, NodeID range
    checks, assignments to fresh and to bound variables, failing
    expressions, delete heads with wildcards and aggregate heads."""
    fresh = list(FRESH)
    bound = {"N"}
    trigger = draw(st.sampled_from(["ev", "ev", "t1", "t2"]))
    arity = TABLES.get(trigger, 2)
    body = [f"{trigger}@N({', '.join(draw(patterns(arity, bound, fresh)))})"]
    for _ in range(draw(st.integers(0, 2))):
        table = draw(st.sampled_from(sorted(TABLES)))
        args = draw(patterns(TABLES[table], bound, fresh))
        body.append(f"{table}@N({', '.join(args)})")
    named = {v for v in bound if v != "N"}
    for _ in range(draw(st.integers(0, 2))):
        if named and draw(st.booleans()):
            body.append(draw(conditions(named)))
        elif named:
            if draw(st.booleans()) and fresh:
                target = fresh.pop(0)
            else:
                target = draw(st.sampled_from(sorted(named)))
            body.append(f"{target} := {draw(expressions(named))}")
            named.add(target)
    draw(st.randoms(use_true_random=False)).shuffle(body)

    head_vars = sorted(named) or ["N"]
    shape = draw(st.sampled_from(["emit", "emit", "delete", "count", "min"]))
    if shape == "emit":
        args = [draw(expressions(set(head_vars))) for _ in range(draw(st.integers(0, 2)))]
        head = f"out@N({', '.join(args)})"
    elif shape == "delete":
        args = [
            draw(st.sampled_from(head_vars + ["W", "_", "1"]))
            for _ in range(2)
        ]
        head = f"delete t1@N({', '.join(args)})"
    elif shape == "count":
        keys = draw(st.lists(st.sampled_from(head_vars), max_size=2))
        head = f"cnt@N({', '.join(keys + ['count<*>'])})"
    else:
        keys = draw(st.lists(st.sampled_from(head_vars), max_size=1))
        folded = draw(st.sampled_from(head_vars))
        head = f"mn@N({', '.join([f'min<{folded}>'] + keys)})"
    return f"{label} {head} :- {', '.join(body)}."


@st.composite
def workloads(draw):
    source = "\n".join(
        [
            "materialize(t1, infinity, 50, keys(1,2,3)).",
            "materialize(t2, infinity, 50, keys(1,2)).",
        ]
        + [draw(rules(f"r{i}")) for i in range(draw(st.integers(1, 3)))]
    )
    try:
        Planner(TableStore(lambda: 0.0)).plan(Program.compile(source))
    except ReproError:
        assume(False)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        table = draw(st.sampled_from(sorted(TABLES)))
        # Mostly the declared arity, sometimes one column off.
        width = TABLES[table] + draw(st.sampled_from([0, 0, 0, 1, -1]))
        rows.append(
            (table, ("n",) + tuple(draw(VALUES) for _ in range(max(1, width))))
        )
    triggers = []
    for _ in range(draw(st.integers(1, 5))):
        name = draw(st.sampled_from(["ev", "ev", "t1", "t2"]))
        width = TABLES.get(name, 2) + draw(st.sampled_from([0, 0, 0, 1]))
        triggers.append(
            Tuple(name, ("n",) + tuple(draw(VALUES) for _ in range(width)))
        )
    return source, rows, triggers


@settings(max_examples=150, deadline=None)
@given(workloads(), st.booleans(), st.booleans())
def test_generated_fire_equals_reference(workload, use_indexes, traced):
    source, rows, triggers = workload
    assert_same_firing(source, rows, triggers, use_indexes, traced)


TABLE_DECLS = """
materialize(t1, infinity, 50, keys(1,2)).
materialize(t2, infinity, 50, keys(1,2)).
"""
ROWS = [
    ("t1", ("n", 1, 1)), ("t1", ("n", 1, 2)), ("t1", ("n", 2, 2)),
    ("t1", ("n", "a", 1)), ("t1", ("n", NodeID(5, 8), 1)),
    ("t1", ("n", 3)), ("t1", ("n", 4, 1, 1)),
    ("t2", ("n", 1)), ("t2", ("n", 2)), ("t2", ("n", "sym")),
    ("t2", ("n", NodeID(200, 8))),
]
TRIGGERS = [
    Tuple("ev", ("n", 1, 1)), Tuple("ev", ("n", 1, 2)), Tuple("ev", ("n", 2, "a")),
    Tuple("ev", ("n", NodeID(1, 8), NodeID(250, 8))), Tuple("ev", ("n", 1)),
    Tuple("other", ("n", 1, 1)), Tuple("t2", ("n", 1)), Tuple("ev", ("m", 0, 0)),
]
# One rule per feature the generator must decide statically.
FEATURES = {
    "repeat_in_trigger": "r out@N(A) :- ev@N(A, A).",
    "repeat_across_patterns": "r out@N(A, B) :- ev@N(A, B), t1@N(A, B), t2@N(B).",
    "repeat_in_join": "r out@N(C) :- ev@N(_, _), t1@N(C, C).",
    "constants": 'r out@N(B) :- ev@N(1, B), t1@N("a", B), t2@N(sym).',
    "ignored": "r out@N(A) :- ev@N(A, _), t1@N(_X, _X), t2@N(_).",
    "no_bound_column": "r out@M(C) :- ev@M(_, _), t2@N(C).",
    "node_id_range": "r out@N(A, C) :- ev@N(A, B), t2@N(C), C in (A, B].",
    "plain_range": "r out@N(A) :- ev@N(A, B), t1@N(A, C), C in [A, B].",
    "assign_fresh": "r out@N(Z) :- ev@N(A, B), Z := A + B, t1@N(Z, _).",
    "assign_bound": "r out@N(A) :- ev@N(A, B), t1@N(A, C), B := C + 0.",
    "assign_underscore": "r out@N(Y) :- ev@N(A, _), _Z := A * 2, Y := _Z + 1.",
    "failing_assign": "r out@N(Z) :- ev@N(A, B), t1@N(A, C), Z := C / (B - 1).",
    "failing_condition": "r out@N(C) :- ev@N(A, B), t1@N(A, C), B < C.",
    "failing_head": "r out@N(A / (B - 1)) :- ev@N(A, B), t2@N(A).",
    "clock_and_random": (
        "r out@N(T, R) :- ev@N(A, _), t1@N(A, _), T := f_now(), "
        "t2@N(_), R := f_rand()."
    ),
    "delete_wildcards": "r delete t1@N(A, W) :- ev@N(A, _), t2@N(A).",
    "delete_failing_head": "r delete t1@N(A / (B - 1), _) :- ev@N(A, B).",
    "count": "r cnt@N(A, count<*>) :- ev@N(A, _), t1@N(A, _).",
    "count_of_nothing": "r cnt@N(B, count<*>) :- ev@N(_, B), t1@N(B, 7).",
    "count_key_from_body": "r cnt@N(C, count<*>) :- ev@N(A, _), t1@N(A, C).",
    "min": "r mn@N(min<C>, A) :- ev@N(A, _), t1@N(_, C).",
    "min_incomparable": "r mn@N(min<C>) :- ev@N(_, _), t1@N(C, _).",
    "aggregate_key_reads_clock": "r cnt@N(f_now(), count<*>) :- ev@N(A, _), t2@N(A).",
    "aggregate_on_table_change": "r cnt@N(count<*>) :- t2@N(A).",
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("use_indexes", [True, False], ids=["indexed", "scan"])
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_feature_fires_like_reference(feature, use_indexes, traced):
    source = TABLE_DECLS + FEATURES[feature]
    assert_same_firing(source, ROWS, TRIGGERS, use_indexes, traced)
    side = Side(source, ROWS, True, False, lambda strand, *args: strand.fire(*args))
    side.fire_all(TRIGGERS)
    # The data reaches the feature: something fired, and either came
    # out or was counted as failing.
    assert sum(s.firings for s in side.strands) > 0
    failing = "failing" in feature or feature == "min_incomparable"
    assert sum(s.eval_errors for s in side.strands) > 0 or not failing
    assert any(side.actions) or feature in (
        "delete_failing_head", "min_incomparable"
    )


def test_count_of_nothing_is_a_zero_row():
    side = Side(
        TABLE_DECLS + FEATURES["count_of_nothing"], ROWS, True, False,
        lambda strand, *args: strand.fire(*args),
    )
    side.fire_all([Tuple("ev", ("n", 0, 1))])
    assert side.actions == [[Tuple("cnt", ("n", 1, 0))]]


# ---------------------------------------------------------------------------
# The expression emitter against evaluate()

LEAVES = st.one_of(
    st.builds(ast.Const, st.integers(-3, 3)),
    st.builds(ast.Const, st.sampled_from(["a", "true", "false", 0.5, True])),
    st.builds(ast.Const, st.sampled_from([NodeID(3, 8), NodeID(250, 8), (1, 2)])),
    st.builds(ast.Var, st.sampled_from(["A", "B", "C", "Unbound"])),
    st.builds(ast.SymbolicConst, st.just("sym")),
)


def _nodes(children):
    return st.one_of(
        st.builds(ast.UnaryOp, st.sampled_from(["-", "!", "~"]), children),
        st.builds(
            ast.BinOp,
            st.sampled_from(
                ["&&", "||", "==", "!=", "<", "<=", ">", ">=",
                 "+", "-", "*", "/", "%", "^"]
            ),
            children,
            children,
        ),
        st.builds(
            ast.FuncCall,
            st.sampled_from(["f_now", "f_rand", "f_size", "f_concat", "f_nosuch"]),
            st.lists(children, max_size=2).map(tuple),
        ),
        st.builds(ast.ListExpr, st.lists(children, max_size=3).map(tuple)),
        st.builds(
            ast.RangeCheck, children, children, children, st.booleans(), st.booleans()
        ),
        st.builds(ast.Aggregate, st.just("count"), st.none()),
    )


EXPRESSIONS = st.recursive(LEAVES, _nodes, max_leaves=8)


def outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value))


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS, st.tuples(VALUES, VALUES, VALUES))
def test_emitted_expression_equals_evaluate(expr, values):
    bindings = dict(zip("ABC", values))
    constants = []

    def const(value):
        constants.append(value)
        return f"k[{len(constants) - 1}]"

    text = emit_expr(expr, {"A": "v_A", "B": "v_B", "C": "v_C"}.get, const)
    emitted = eval(
        f"lambda ctx, k, v_A, v_B, v_C: {text}", dict(EMITTED_NAMES)
    )
    contexts = [
        EvalContext(lambda: 12.5, random.Random(3), id_bits=8) for _ in range(2)
    ]
    assert outcome(
        lambda: emitted(contexts[0], constants, *values)
    ) == outcome(lambda: evaluate(expr, bindings, contexts[1]))
    assert contexts[0].rng.getstate() == contexts[1].rng.getstate()


# ---------------------------------------------------------------------------
# One compile per distinct source


def test_nodes_share_compiled_strands(monkeypatch):
    compiled = {}
    monkeypatch.setattr(codegen, "_COMPILED", compiled)
    net = ChordNetwork(num_nodes=12, seed=2)
    net.start()
    nodes = [net.system.node(address) for address in net.addresses]
    sources = {strand.source for strand in nodes[0].strands}
    assert len(nodes[0].strands) > len(sources) > 10
    for source in sources:  # nothing newer than the oldest CI interpreter
        python_ast.parse(source, feature_version=(3, 10))
    # Does not grow with the node count.
    assert set(compiled) == sources
    for node in nodes[1:]:
        assert [s.source for s in node.strands] == [
            s.source for s in nodes[0].strands
        ]

    first, second = nodes[0], nodes[1]
    for a, b in zip(first.strands, second.strands):
        assert a._fire is not b._fire
        assert a._fire.__code__ is b._fire.__code__
        assert a.source is b.source
    # A strand reaches tables only through its closure, and those are
    # its own node's.
    theirs = {id(table) for table in second.store.tables()}
    for strand in first.strands:
        for cell in strand._fire.__closure__:
            assert id(cell.cell_contents) not in theirs
    probes = [
        (index.probes, len(table))
        for table in second.store.tables()
        for index in table.indexes()
    ]
    for strand in first.strands:
        if strand.periodic is None:
            continue
        strand.fire(
            Tuple("periodic", (first.address, 1, strand.periodic[1])),
            first.ctx,
            charge=first.work.charge,
        )
    assert probes == [
        (index.probes, len(table))
        for table in second.store.tables()
        for index in table.indexes()
    ]


def test_traceback_shows_generated_line():
    import traceback

    store = TableStore(lambda: 0.0)
    (strand,) = Planner(store).plan(
        Program.compile("r out@N(X) :- e@N(X).", name="tb")
    ).strands

    class Boom(TraceHooks):
        def output_observed(self, strand, tup, when):
            raise RuntimeError("boom")

    ctx = EvalContext(lambda: 0.0, random.Random(0))
    try:
        strand.fire(Tuple("e", ("n", 1)), ctx, hooks=Boom())
    except RuntimeError:
        text = traceback.format_exc()
    # Named after whichever rule first compiled this text.
    assert 'File "<strand ' in text
    assert "hooks.output_observed(strand, tup, ctx.now())" in text
    compile(strand.source, "<check>", "exec")


def test_rule_beyond_the_compilers_nesting_is_a_planner_error():
    joins = ", ".join(f"t@N(X{i})" for i in range(25))
    for source in (
        "r out@N(" + " + ".join(["X"] * 250) + ") :- e@N(X).",
        f"materialize(t, 10, 10, keys(1,2)).\nr out@N(X0) :- e@N(X0), {joins}.",
    ):
        with pytest.raises(PlannerError, match="too deeply nested"):
            Planner(TableStore(lambda: 0.0)).plan(Program.compile(source))


def test_documented_example_is_what_the_generator_emits():
    (strand,) = Planner(TableStore(lambda: 0.0)).plan(
        Program.compile(
            "materialize(dim, infinity, 256, keys(1,2)).\n"
            "j1 sel@N(K, G) :- chained@N(K, E), dim@N(K, G)."
        )
    ).strands
    docs = os.path.join(os.path.dirname(__file__), "..", "..", "docs")
    with open(os.path.join(docs, "LANGUAGE.md")) as handle:
        assert strand.source.strip() in handle.read()
