"""Per-node durable state: checkpoints plus a write-ahead log.

The simulator's fail-stop crash kills the :class:`~repro.runtime.node.P2Node`
object — and with it every materialized table, introspection log, and
``tupleTable`` entry.  The durable store is the state that *survives*:
a :class:`DurableMedium` ("the disk array") outlives every node object
and holds one :class:`NodeImage` per protected address, consisting of

- a **checkpoint** — a full snapshot of every materialized table (rows
  carry their *absolute* expiry deadlines, so soft state keeps aging
  correctly across a restart), taken periodically on the virtual clock;
- a **write-ahead log** — ordered tuple-delta records (``insert`` /
  ``refresh`` / ``remove`` / ``create``) appended between checkpoints,
  including the introspection relations (``ruleExec``, ``tupleTable``,
  ``tupleLog``, ``tableLog``) — the paper's forensic records, durable
  independent of the process that produced them;
- the list of installed :class:`~repro.overlog.program.Program` objects,
  replayed before state so a recovered node resumes rule processing.

Values — tuple fields and the ``infinity`` of a table declaration
alike — are spelled by :mod:`repro.codec`, the spelling the wire and
the forensic store use, and images are written by its canonical
writer.  :meth:`DurableMedium.save` / :meth:`DurableMedium.load` move
images to and from real JSON files, so a campaign can archive the
durable logs of a failed seed as forensic artifacts.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro import codec
from repro.errors import DurableImageError, ReproError
from repro.net.address import Address

#: WAL record operations.
OP_CREATE = "create"    # a table was materialized (decl follows)
OP_INSERT = "insert"    # NEW or REPLACED insert (expires_at follows)
OP_REFRESH = "refresh"  # identical re-insert renewed the TTL deadline
OP_REMOVE = "remove"    # delete / expire / evict / replace removal

#: The keys each operation's record carries (the constructors below).
RECORD_KEYS = {
    OP_CREATE: ("seq", "t", "table", "lifetime", "max_size", "keys"),
    OP_INSERT: ("seq", "t", "table", "values", "expires"),
    OP_REFRESH: ("seq", "t", "table", "values", "expires"),
    OP_REMOVE: ("seq", "t", "table", "values", "reason"),
}
#: The keys each checkpoint table carries (see ``set_checkpoint``).
TABLE_KEYS = ("lifetime", "max_size", "keys", "rows")


class NodeImage:
    """Everything durable about one node: checkpoint + WAL + programs."""

    def __init__(self, address: Address) -> None:
        self.address = address
        #: Checkpoint document (see :meth:`set_checkpoint`); None until
        #: the first checkpoint is taken.
        self.checkpoint: Optional[dict] = None
        #: WAL records since the checkpoint, in append order.
        self.wal: List[dict] = []
        #: Programs installed on the node, in install order.
        self.programs: List[object] = []
        # Accounting (read by the recovery metrics callbacks).
        self.checkpoints_taken = 0
        self.checkpoint_time = 0.0
        self.checkpoint_bytes = 0
        self.wal_bytes = 0
        self.wal_records_total = 0
        #: Virtual time of the last crash observed by the recorder's
        #: owner (None while the node has never crashed).
        self.crashed_at: Optional[float] = None

    # ------------------------------------------------------------------

    def set_checkpoint(self, document: dict) -> None:
        """Install a new checkpoint and truncate the WAL.

        ``document`` is ``{"time", "meta", "tables"}`` where tables maps
        name -> ``{"lifetime", "max_size", "keys", "rows"}`` and each row
        is ``[encoded_values, inserted_at, expires_at]``.
        """
        self.checkpoint = document
        self.checkpoints_taken += 1
        self.checkpoint_time = document["time"]
        self.checkpoint_bytes = len(codec.dumps(document))
        self.wal = []
        self.wal_bytes = 0

    def append(self, record: dict, size_hint: int = 24) -> None:
        """Append one WAL record (``size_hint`` is the estimated bytes,
        kept as a running total instead of re-serializing per record)."""
        self.wal.append(record)
        self.wal_records_total += 1
        self.wal_bytes += size_hint

    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON of the durable state (programs are rendered as
        OverLog text for human forensics; they do not reload)."""
        return codec.dumps(
            {
                "address": self.address,
                "checkpoint": self.checkpoint,
                "wal": self.wal,
                "programs": [str(p) for p in self.programs],
                "crashed_at": self.crashed_at,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "NodeImage":
        try:
            payload = codec.loads(text)
        except ValueError as error:
            raise DurableImageError(f"not JSON: {error}") from None
        if not isinstance(payload, dict) or "address" not in payload:
            raise DurableImageError("not an object with an 'address'")
        image = cls(payload["address"])
        image.checkpoint = payload.get("checkpoint")
        image.wal = payload.get("wal", [])
        image.crashed_at = payload.get("crashed_at")
        if not isinstance(image.wal, list):
            raise DurableImageError("'wal' is not a list")
        if image.checkpoint is not None and (
            not isinstance(image.checkpoint, dict)
            or "time" not in image.checkpoint
        ):
            raise DurableImageError("'checkpoint' is not an object with a 'time'")
        _check_records(image)
        if image.checkpoint is not None:
            image.checkpoints_taken = 1
            image.checkpoint_time = image.checkpoint["time"]
            image.checkpoint_bytes = len(codec.dumps(image.checkpoint))
        image.wal_records_total = len(image.wal)
        return image


def _check_records(image: NodeImage) -> None:
    """Reject a checkpoint table or WAL record that replay could not
    apply, naming it."""
    if image.checkpoint is not None:
        tables = image.checkpoint.get("tables")
        if not isinstance(tables, dict):
            raise DurableImageError("'checkpoint' has no 'tables' object")
        for name, doc in tables.items():
            where = f"checkpoint table {name!r}"
            if not isinstance(doc, dict) or any(k not in doc for k in TABLE_KEYS):
                raise DurableImageError(
                    f"{where}: not an object with {', '.join(TABLE_KEYS)}"
                )
            if not isinstance(doc["rows"], list):
                raise DurableImageError(f"{where}: 'rows' is not a list")
            for i, row in enumerate(doc["rows"]):
                if not isinstance(row, list) or len(row) != 3:
                    raise DurableImageError(
                        f"{where} row {i}: not [values, inserted_at, expires_at]"
                    )
    for i, record in enumerate(image.wal):
        if not isinstance(record, dict):
            raise DurableImageError(f"wal[{i}]: not an object")
        op = record.get("op")
        keys = RECORD_KEYS.get(op) if isinstance(op, str) else None
        if keys is None:
            raise DurableImageError(f"wal[{i}]: unknown op {op!r}")
        missing = [k for k in keys if k not in record]
        if missing:
            raise DurableImageError(
                f"wal[{i}]: {op!r} record lacks {', '.join(map(repr, missing))}"
            )


class DurableMedium:
    """The per-address durable store that outlives node objects."""

    def __init__(self) -> None:
        self._images: Dict[Address, NodeImage] = {}

    def ensure(self, address: Address) -> NodeImage:
        image = self._images.get(address)
        if image is None:
            image = NodeImage(address)
            self._images[address] = image
        return image

    def image(self, address: Address) -> NodeImage:
        image = self._images.get(address)
        if image is None:
            raise ReproError(
                f"no durable image for {address!r} — was the node "
                "protected by a RecoveryManager before it crashed?"
            )
        return image

    def has(self, address: Address) -> bool:
        return address in self._images

    def addresses(self) -> List[Address]:
        return sorted(self._images)

    # ------------------------------------------------------------------
    # File backing (forensic artifacts)

    @staticmethod
    def _filename(address: Address) -> str:
        return "node_" + str(address).replace(":", "_") + ".json"

    def save(self, directory: str) -> List[str]:
        """Write one JSON file per image into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for address in self.addresses():
            path = os.path.join(directory, self._filename(address))
            with open(path, "w") as handle:
                handle.write(self._images[address].to_json())
            paths.append(path)
        return paths

    @classmethod
    def load(cls, directory: str) -> "DurableMedium":
        """Reload images saved with :meth:`save` (state only: programs
        do not reload, so a loaded medium supports post-mortem queries
        but not live restarts with rule processing)."""
        medium = cls()
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("node_") and name.endswith(".json")):
                continue
            path = os.path.join(directory, name)
            with open(path) as handle:
                text = handle.read()
            try:
                image = NodeImage.from_json(text)
            except DurableImageError as error:
                raise DurableImageError(error.reason, path) from None
            medium._images[image.address] = image
        return medium


# ----------------------------------------------------------------------
# Record constructors (shared by the recorder and tests)


def insert_record(
    seq: int, when: float, table: str, values: tuple, expires_at: float
) -> dict:
    return {
        "seq": seq,
        "t": when,
        "op": OP_INSERT,
        "table": table,
        "values": codec.encode_values(values),
        "expires": expires_at,
    }


def refresh_record(
    seq: int, when: float, table: str, values: tuple, expires_at: float
) -> dict:
    return {
        "seq": seq,
        "t": when,
        "op": OP_REFRESH,
        "table": table,
        "values": codec.encode_values(values),
        "expires": expires_at,
    }


def remove_record(
    seq: int, when: float, table: str, values: tuple, reason: str
) -> dict:
    return {
        "seq": seq,
        "t": when,
        "op": OP_REMOVE,
        "table": table,
        "values": codec.encode_values(values),
        "reason": reason,
    }


def create_record(
    seq: int, when: float, table: str, lifetime, max_size, keys
) -> dict:
    return {
        "seq": seq,
        "t": when,
        "op": OP_CREATE,
        "table": table,
        "lifetime": codec.encode(lifetime),
        "max_size": codec.encode(max_size),
        "keys": list(keys),
    }
