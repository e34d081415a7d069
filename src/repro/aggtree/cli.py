"""The differential-aggregation battery: ``python -m repro aggtree``.

Used by the nightly campaign-smoke step and by hand::

    python -m repro aggtree --seeds 0,1,2,3,4 --nodes 8 \\
        --verdicts diff_verdicts.json

Exit status is 1 when any seed's centralized and tree runs disagree, so
CI fails loudly rather than uploading a green-looking artifact.
:func:`register` declares the arguments; ``repro.__main__`` parses,
dispatches and maps outcomes to exit codes.
"""

from __future__ import annotations

import argparse

from repro import codec
from repro.aggtree.differential import DEFAULT_MONITORS, run_differential


def _seeds(text: str):
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _monitors(text: str):
    keys = tuple(key for key in text.split(",") if key)
    unknown = sorted(set(keys) - set(DEFAULT_MONITORS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown monitor {unknown[0]!r} (choose from "
            f"{', '.join(DEFAULT_MONITORS)})"
        )
    return keys


def register(commands) -> None:
    """Add ``aggtree`` to the ``python -m repro`` parser."""
    parser = commands.add_parser(
        "aggtree", help="differential in-network aggregation battery"
    )
    parser.add_argument(
        "--seeds",
        type=_seeds,
        default=[0, 1, 2, 3, 4],
        help="comma-separated seeds to sweep (default 0-4)",
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--epoch-len", type=float, default=20.0)
    parser.add_argument("--fanout", type=int, default=3)
    parser.add_argument(
        "--monitors",
        type=_monitors,
        default=DEFAULT_MONITORS,
        help="battery subset (comma-separated keys)",
    )
    parser.add_argument(
        "--verdicts", default=None, help="write per-seed verdict JSON here"
    )
    parser.set_defaults(run=run)


def run(args) -> int:
    diverged = False
    verdicts = []
    for seed in args.seeds:
        verdict = run_differential(
            seed,
            monitors=args.monitors,
            nodes=args.nodes,
            duration=args.duration,
            epoch_len=args.epoch_len,
            fanout=args.fanout,
        )
        verdicts.append(verdict)
        status = "OK " if verdict["equal"] else "DIVERGED"
        print(
            f"seed {seed}: {status} alarms="
            f"{verdict['alarms']['tree']} inbound "
            f"centralized={verdict['inbound']['centralized']} "
            f"tree={verdict['inbound']['tree']} "
            f"reduction={verdict['reduction']:.1f}x"
        )
        diverged = diverged or not verdict["equal"]
    if args.verdicts:
        with open(args.verdicts, "w") as fh:
            fh.write(
                codec.dumps(
                    {
                        "battery": "aggtree_differential",
                        "monitors": list(args.monitors),
                        "all_equal": not diverged,
                        "verdicts": verdicts,
                    }
                )
                + "\n"
            )
        print(f"wrote {args.verdicts}")
    return 1 if diverged else 0
