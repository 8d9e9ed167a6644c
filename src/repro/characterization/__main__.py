"""Run one table/figure reproduction from the command line.

Usage::

    python -m repro.characterization fig15 --scale default --seed 0
    python -m repro.characterization --list

Resilience flags: ``--faults PLAN.json`` injects bench failures,
``--checkpoint-dir DIR`` writes atomic per-sweep checkpoints, and
``--resume`` continues an interrupted run from them (bit-identical to an
uninterrupted run on surviving targets, serial or ``--jobs N``).
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from ..analysis.boxplot import render_boxes
from ..analysis.compare import compare_experiment
from .experiments import REGISTRY, TITLES, run_experiment
from .resilience import add_resilience_arguments, resilience_from_args
from .runner import SCALES


def _backend_spec(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    """Combine the backend flags into a substrate specification string."""
    if args.backend == "surrogate":
        if not args.surrogate_table:
            parser.error("--backend surrogate requires --surrogate-table")
        return f"surrogate:{args.surrogate_table}"
    if args.surrogate_table:
        parser.error("--surrogate-table only applies to --backend surrogate")
    return "analog"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.characterization", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", nargs="?", help="experiment id, e.g. fig15")
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1 = serial; results "
        "are bit-identical at any job count)",
    )
    parser.add_argument(
        "--backend",
        choices=("analog", "surrogate"),
        default="analog",
        help="substrate engine serving the measurements: 'analog' (the "
        "default, bit-identical to historical runs) or 'surrogate' (a "
        "fitted table, needs --surrogate-table)",
    )
    parser.add_argument(
        "--surrogate-table",
        default=None,
        metavar="PATH",
        help="fitted table for --backend surrogate "
        "(python -m repro.substrate fit)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    add_resilience_arguments(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    backend_spec = _backend_spec(parser, args)

    if args.list or not args.experiment:
        for experiment_id in sorted(REGISTRY):
            print(f"{experiment_id:>8}  {TITLES[experiment_id]}")
        return 0

    # staticcheck: ignore[DET203] progress timer for the console, not a result
    start = time.time()
    result = run_experiment(
        args.experiment,
        scale=SCALES[args.scale].with_backend(backend_spec),
        seed=args.seed,
        jobs=args.jobs,
        resilience=resilience_from_args(args),
    )
    print(result.format_table())
    health_text = result.format_health()
    if health_text:
        print()
        print(health_text)
    if result.groups:
        print()
        print(render_boxes(result.groups))
    for key in sorted(result.extras):
        if key.startswith("heatmap"):
            print()
            print(result.format_heatmap(key=key))
    if "table" in result.extras:
        print()
        print(result.extras["table"])
    rows = compare_experiment(result)
    if rows:
        print("\npaper-vs-measured:")
        for row in rows:
            measured = (
                "n/a"
                if row.measured_value is None
                else f"{row.measured_value * 100:7.2f}%"
            )
            print(
                f"  {row.metric:<45} paper {row.paper_value * 100:7.2f}%  "
                f"measured {measured}"
            )
    elapsed = time.time() - start  # staticcheck: ignore[DET203]
    print(f"\n[{args.experiment} at scale {args.scale}: {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
