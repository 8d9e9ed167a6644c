"""Fit and inspect surrogate tables from the command line.

Usage::

    python -m repro.substrate fit --scale smoke --seed 0 --out table.json
    python -m repro.substrate show table.json

``fit`` runs the analog reference over the (sub-sampled) Table-1 fleet
at the requested scale and writes the fitted success-probability table;
``show`` prints a table's cells.  Fits are exactly reproducible from
(scale, seed, grid).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .fit import DEFAULT_GRID, SMOKE_GRID, FitGrid, fit_surrogate
from .surrogate import SurrogateTable
from ..characterization.runner import SCALES

_GRIDS = {"smoke": SMOKE_GRID, "default": DEFAULT_GRID}


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.substrate", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a surrogate table from analog")
    fit.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument(
        "--grid",
        choices=sorted(_GRIDS),
        default="default",
        help="base configuration grid (overridable per axis below)",
    )
    fit.add_argument(
        "--trials", type=int, default=None,
        help="override the scale's trials per (cell, temperature)",
    )
    fit.add_argument(
        "--temperatures", type=_csv_floats, default=None,
        help="comma-separated temperature grid in degC",
    )
    fit.add_argument(
        "--not-fan-ins", type=_csv_ints, default=None,
        help="comma-separated NOT destination-row counts",
    )
    fit.add_argument(
        "--logic-fan-ins", type=_csv_ints, default=None,
        help="comma-separated logic-op input counts",
    )
    fit.add_argument("--quiet", action="store_true")
    fit.add_argument("--out", required=True, help="output table path (JSON)")

    show = commands.add_parser("show", help="print a fitted table")
    show.add_argument("table", help="table path (JSON)")

    args = parser.parse_args(argv)

    if args.command == "show":
        table = SurrogateTable.load(args.table)
        meta = ", ".join(f"{k}={v}" for k, v in sorted(table.meta.items()))
        print(f"# {meta}")
        for key, cell in table:
            spec, operation, fan_in, distance, pattern = key
            temps = " ".join(
                f"{t:g}C={p:.4f}" for t, p in sorted(cell.probabilities.items())
            )
            print(
                f"{spec:>28} {operation:>4} n={fan_in:<2} {distance:<12} "
                f"{pattern:<12} found={cell.found_rate:.2f} "
                f"rows={cell.n_rows}  {temps}"
            )
        return 0

    if args.trials is not None and args.trials < 1:
        fit.error(f"--trials must be >= 1, got {args.trials}")
    base = _GRIDS[args.grid]
    grid = FitGrid(
        temperatures=(
            tuple(args.temperatures) if args.temperatures else base.temperatures
        ),
        not_fan_ins=(
            tuple(args.not_fan_ins)
            if args.not_fan_ins is not None
            else base.not_fan_ins
        ),
        logic_fan_ins=(
            tuple(args.logic_fan_ins)
            if args.logic_fan_ins is not None
            else base.logic_fan_ins
        ),
        logic_ops=base.logic_ops,
        patterns=base.patterns,
    )

    scale = SCALES[args.scale]
    if args.trials is not None:
        scale = scale.with_trials(args.trials)

    def progress(label: str) -> None:
        if not args.quiet:
            print(f"  fitting {label}", file=sys.stderr)

    # staticcheck: ignore[DET203] progress timer for the console, not a result
    start = time.time()
    table = fit_surrogate(scale, args.seed, grid=grid, progress=progress)
    table.save(args.out)
    elapsed = time.time() - start  # staticcheck: ignore[DET203]
    print(
        f"fitted {len(table)} cells at scale {scale.name} "
        f"(seed {args.seed}) -> {args.out} [{elapsed:.1f}s]"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
