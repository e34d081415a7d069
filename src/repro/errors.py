"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: language errors (lexing/parsing/validation), runtime errors
(tables, planning, dataflow execution), and simulation errors.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class OverLogError(ReproError):
    """Base class for OverLog language errors."""


class LexError(OverLogError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(OverLogError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            super().__init__(f"{message} (line {line}, column {column})")
        else:
            super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(OverLogError):
    """Raised when a syntactically valid program fails semantic checks."""


class EvaluationError(OverLogError):
    """Raised when an OverLog expression cannot be evaluated."""


class RuntimeStateError(ReproError):
    """Base class for relational-runtime errors."""


class SchemaError(RuntimeStateError):
    """Raised on arity/primary-key mismatches against a table schema."""


class UnknownTableError(RuntimeStateError):
    """Raised when referring to a table that has not been materialized."""


class PlannerError(RuntimeStateError):
    """Raised when a rule cannot be compiled into a dataflow strand."""


class SimulationError(ReproError):
    """Raised on misuse of the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """Raised on invalid network operations (unknown address, etc.)."""


class AggregationError(ReproError):
    """Raised on invalid in-network aggregation operations."""


class EpochMismatchError(AggregationError):
    """Raised when partial aggregates from different epochs would merge.

    Epoch isolation is a hard invariant of the aggregation tree
    (:mod:`repro.aggtree`): merging across virtual-clock epochs would
    silently blend two different snapshots of the population, so the
    partial-state algebra refuses instead of guessing.
    """


class StoreCorruptionError(ReproError):
    """Raised when a forensic-store file cannot be trusted.

    A truncated or undecodable segment block, an unreadable manifest,
    or a block that is not what the manifest says it is — always naming
    the file, and the block and its byte offset when the fault is in
    one block, so a damaged store is reported rather than sliced.
    """

    def __init__(
        self,
        path: str,
        reason: str,
        block: Optional[str] = None,
        offset: Optional[int] = None,
    ):
        where = path
        if block is not None:
            where += f", block {block} at byte {offset}"
        super().__init__(f"corrupt forensic store ({where}): {reason}")
        self.path = path
        self.block = block
        self.offset = offset


class DurableImageError(ReproError):
    """Raised when a saved node image (``node_*.json``) cannot be read
    back: truncated text, or JSON that is not an image.  Names the file
    when it came from one."""

    def __init__(self, reason: str, path: Optional[str] = None):
        super().__init__(f"bad durable image ({path or 'text'}): {reason}")
        self.reason = reason
        self.path = path


class ArtifactError(ReproError):
    """Raised when a telemetry artifact (``.jsonl`` or Chrome trace)
    cannot be analysed: unreadable, not JSON, or JSON of the wrong
    shape.  Always names the file."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"cannot read artifact {path!r}: {reason}")
        self.path = path
        self.reason = reason
