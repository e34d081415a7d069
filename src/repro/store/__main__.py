"""Offline forensic-store CLI: ``python -m repro.store <cmd> DIR``.

Commands
--------

``info``    store totals: segments, records, logical events, bytes,
            compression ratio, ring rotations.
``query``   filtered event scan (``--t0/--t1/--node/--relation/--kind``),
            one canonical-JSON record per line.
``slice``   backward slice of an alarm tuple (``--alarm`` takes the
            canonical payload JSON, ``--tid`` a known tuple id); prints
            the slice as canonical JSON, byte-stable under a seed.

All output is canonical JSON (sorted keys, compact separators) on
virtual-clock timestamps, so two runs of the same seeded workload
produce byte-identical output — what the CI forensics-smoke job checks.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.store import format as fmt
from repro.store.slicing import StoreProvider, backward_slice
from repro.store.store import ForensicStore


def _cmd_info(store: ForensicStore, args) -> int:
    info = {
        "directory": store.config.directory,
        "segments": store.segments_written,
        "records": store.records_written,
        "events": store.events_appended,
        "bytes": store.bytes_written,
        "bursts": store.bursts_written,
        "compression_ratio": round(store.compression_ratio, 4),
        "nodes": store.nodes(),
        "ring_rotations": [
            {"node": node, "ring": ring, "count": count}
            for (node, ring), count in sorted(store.ring_rotations.items())
        ],
    }
    print(fmt.encode(info))
    return 0


def _cmd_query(store: ForensicStore, args) -> int:
    for record in store.iter_events(
        t0=args.t0,
        t1=args.t1,
        node=args.node,
        relation=args.relation,
        kind=args.kind,
        expand_bursts=not args.raw,
        limit=args.limit,
    ):
        print(fmt.encode(record))
    return 0


def _cmd_slice(store: ForensicStore, args) -> int:
    node = args.node
    tid = args.tid
    if tid is None:
        if args.alarm is None:
            print("slice: need --alarm PAYLOAD or --tid ID", file=sys.stderr)
            return 2
        try:
            payload = json.loads(args.alarm)
        except json.JSONDecodeError as exc:
            print(f"slice: bad --alarm JSON: {exc}", file=sys.stderr)
            return 2
        candidates = [node] if node else store.nodes()
        for candidate in candidates:
            found = store.tid_of(candidate, payload)
            if found is not None:
                node, tid = candidate, found
                break
        if tid is None:
            print("slice: alarm tuple not found in store", file=sys.stderr)
            return 1
    elif node is None:
        print("slice: --tid requires --node", file=sys.stderr)
        return 2
    result = backward_slice(
        StoreProvider(store), node, tid, max_nodes=args.max_nodes
    )
    print(result.to_json())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Query a durable forensic event store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="store totals and summaries")
    p_info.add_argument("directory")
    p_info.set_defaults(func=_cmd_info)

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
            fmt.RULE_BURST,
            fmt.LOG_BURST,
        ],
    )
    p_query.add_argument("--limit", type=int, default=None)
    p_query.add_argument(
        "--raw",
        action="store_true",
        help="emit stored records without expanding rule bursts",
    )
    p_query.set_defaults(func=_cmd_query)

    p_slice = sub.add_parser(
        "slice", help="backward slice of an alarm tuple"
    )
    p_slice.add_argument("directory")
    p_slice.add_argument(
        "--alarm",
        default=None,
        help='canonical payload JSON, e.g. \'{"rel":"alarm","v":["n1",3]}\'',
    )
    p_slice.add_argument("--node", default=None)
    p_slice.add_argument("--tid", type=int, default=None)
    p_slice.add_argument("--max-nodes", type=int, default=100000)
    p_slice.set_defaults(func=_cmd_slice)

    args = parser.parse_args(argv)
    try:
        store = ForensicStore.open(args.directory)
        return args.func(store, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
