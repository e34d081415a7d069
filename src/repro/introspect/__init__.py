"""Introspection: reflection, event logging, and execution tracing (§2.1).

Everything a node knows about itself is reflected into queryable tables:

- :mod:`repro.introspect.reflect` — the ``sysTable`` / ``sysRule`` /
  ``sysElement`` / ``sysNode`` reflection tables (the dataflow graph of
  Figure 1, as data);
- :mod:`repro.introspect.logger` — the event log: tuple arrivals and
  table changes buffered into bounded P2 tables;
- :mod:`repro.introspect.tuple_table` — the ``tupleTable``: node-unique
  tuple IDs, memoization, cross-network identity (source address +
  source tuple ID), and reference counting from ``ruleExec``;
- :mod:`repro.introspect.tracer` — the execution tracer: per-strand
  tracer records with pipelined stage association (§2.1.2) feeding the
  normalized ``ruleExec`` table.

``Tracer(node)`` is the one-call entry point, corresponding to the
paper's "execution logging" switch whose cost §4 measures.
"""

from repro.introspect.tuple_table import TupleRegistry
from repro.introspect.tracer import Tracer
from repro.introspect.reflect import Reflector
from repro.introspect.logger import EventLogger

__all__ = [
    "TupleRegistry",
    "Tracer",
    "Reflector",
    "EventLogger",
]
