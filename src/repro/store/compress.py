"""BEEP-style noise folding for the forensic event store.

Periodic-rule firing storms dominate a long trace: a monitor checked
every few seconds logs the same ``periodic`` delivery thousands of
times, drowning the handful of records a post-mortem actually needs.
Following BEEP (and the provenance-graph literature in PAPERS.md), the
store folds such storms at segment-write time: the ``tl`` / ``xl`` rows
of one segment that share ``(node, relation[, op])``, when the relation
is in ``noise_relations`` and there are at least ``min_run`` of them,
become one counted ``log.b`` row carrying only the count and the exact
first/last timestamps and sequence numbers.

This tier is deliberately lossy — BEEP's noise elimination — and is
restricted to relations (``periodic`` by default) that never appear in
a causality walk.  ``ruleExec`` edges need no such treatment: every
``re`` row is stored as columns, which is what a lossless burst was.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Sequence, Tuple

from repro.store import format as fmt

DEFAULT_MIN_RUN = 4
DEFAULT_NOISE_RELATIONS = ("periodic",)


def fold_noise(
    kind: str,
    columns: Dict[str, list],
    noise_relations: Sequence[str] = DEFAULT_NOISE_RELATIONS,
    min_run: int = DEFAULT_MIN_RUN,
) -> Tuple[Dict[str, list], List[tuple]]:
    """Split one segment's ``tl`` or ``xl`` columns into the columns of
    the rows that stay and the ``log.b`` rows (in ``COLUMNS`` order)
    that count the rest.  A burst sits where its last member did: it
    takes that row's ``q`` and ``t``."""
    if min_run < 2:
        raise ValueError(f"min_run must be >= 2: {min_run}")
    noise = frozenset(noise_relations)
    if noise.isdisjoint(columns["rel"]):
        return columns, []
    groups: Dict[Any, List[int]] = {}
    keys = zip(columns["n"], columns["rel"], columns.get("op") or repeat(None))
    for row, key in enumerate(keys):
        if key[1] in noise:
            groups.setdefault(key, []).append(row)
    q, seq, when = columns["q"], columns["seq"], columns["t"]
    bursts: List[tuple] = []
    folded: set = set()
    for (node, rel, op), rows in groups.items():
        if len(rows) >= min_run:
            first, last = rows[0], rows[-1]
            folded.update(rows)
            bursts.append(
                (
                    q[last], node, kind, rel, op, len(rows),
                    when[first], seq[first], seq[last], when[last],
                )
            )
    if not folded:
        return columns, []
    kept = [row for row in range(len(q)) if row not in folded]
    return (
        {name: [column[row] for row in kept] for name, column in columns.items()},
        bursts,
    )
