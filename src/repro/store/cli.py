"""The offline forensic-store commands: ``python -m repro store <cmd> DIR``.

``info``    store totals: segments, stored rows, logical events, bytes,
            compression ratio, ring rotations, and each segment's
            blocks with their row counts.
``query``   filtered event scan (``--t0/--t1/--node/--relation/--kind``),
            one canonical-JSON record per line.
``slice``   backward slice of an alarm tuple (``--alarm`` takes the
            canonical payload JSON, ``--tid`` a known tuple id); prints
            the slice as canonical JSON, byte-stable under a seed.

All output is canonical JSON (sorted keys, compact separators) on
virtual-clock timestamps, so two runs of the same seeded workload
produce byte-identical output — what the nightly campaign-smoke job
checks.  :func:`register` declares the arguments; ``repro.__main__``
parses, dispatches and maps outcomes to exit codes.
"""

from __future__ import annotations

import argparse
import json

from repro.errors import ReproError
from repro.store import format as fmt
from repro.store.slicing import StoreProvider, backward_slice
from repro.store.store import ForensicStore


def _cmd_info(args) -> int:
    store = ForensicStore.open(args.directory)
    info = {
        "directory": store.config.directory,
        "segments": store.segments_written,
        "records": store.records_written,
        "events": store.events_appended,
        "bytes": store.bytes_written,
        "bursts": store.bursts_written,
        "compression_ratio": round(store.compression_ratio, 4),
        "nodes": store.nodes(),
        "layout": [
            {
                "file": segment.summary["file"],
                "bytes": segment.summary["bytes"],
                "blocks": {
                    block["k"]: block["rows"]
                    for block in segment.summary["blocks"]
                },
            }
            for segment in store._segments
        ],
        "ring_rotations": [
            {"node": node, "ring": ring, "count": count}
            for (node, ring), count in sorted(store.ring_rotations.items())
        ],
    }
    print(fmt.encode(info))
    return 0


def _cmd_query(args) -> int:
    store = ForensicStore.open(args.directory)
    for record in store.iter_events(
        t0=args.t0,
        t1=args.t1,
        node=args.node,
        relation=args.relation,
        kind=args.kind,
        limit=args.limit,
    ):
        print(fmt.encode(record))
    return 0


def _cmd_slice(args) -> int:
    node, tid = args.node, args.tid
    if tid is not None and node is None:
        args.usage_error("--tid requires --node")  # argparse: exit 2
    store = ForensicStore.open(args.directory)
    if tid is None:
        for candidate in [node] if node else store.nodes():
            found = store.tid_of(candidate, args.alarm)
            if found is not None:
                node, tid = candidate, found
                break
        else:
            raise ReproError("slice: alarm tuple not found in store")
    result = backward_slice(
        StoreProvider(store), node, tid, max_nodes=args.max_nodes
    )
    print(result.to_json())
    return 0


def _alarm_payload(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not JSON ({exc})") from exc


def register(commands) -> None:
    """Add ``store {info,query,slice}`` to the ``python -m repro`` parser."""
    parser = commands.add_parser(
        "store", help="query a durable forensic event store"
    )
    sub = parser.add_subparsers(dest="store_command", required=True)

    p_info = sub.add_parser("info", help="store totals and summaries")
    p_info.add_argument("directory")
    p_info.set_defaults(run=_cmd_info)

    p_query = sub.add_parser("query", help="filtered event scan")
    p_query.add_argument("directory")
    p_query.add_argument("--t0", type=float, default=None)
    p_query.add_argument("--t1", type=float, default=None)
    p_query.add_argument("--node", default=None)
    p_query.add_argument("--relation", default=None)
    p_query.add_argument(
        "--kind",
        default=None,
        choices=[
            fmt.RULE_EXEC,
            fmt.TUPLE_IDENT,
            fmt.TUPLE_LOG,
            fmt.TABLE_LOG,
            fmt.LOG_BURST,
        ],
    )
    p_query.add_argument("--limit", type=int, default=None)
    p_query.set_defaults(run=_cmd_query)

    p_slice = sub.add_parser(
        "slice", help="backward slice of an alarm tuple"
    )
    p_slice.add_argument("directory")
    target = p_slice.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--alarm",
        type=_alarm_payload,
        default=None,
        help='canonical payload JSON, e.g. \'{"rel":"alarm","v":["n1",3]}\'',
    )
    target.add_argument("--tid", type=int, default=None)
    p_slice.add_argument("--node", default=None)
    p_slice.add_argument("--max-nodes", type=int, default=100000)
    p_slice.set_defaults(run=_cmd_slice, usage_error=p_slice.error)
