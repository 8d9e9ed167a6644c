"""Tune, inspect, and validate reliability policy tables.

Usage::

    python -m repro.reliability tune --table surrogate.json \\
        --out policy.json --error-bound 1e-3
    python -m repro.reliability show policy.json
    python -m repro.reliability validate policy.json \\
        --scale smoke --seed 1

``tune`` searches scheme space against a fitted surrogate table
(``python -m repro.substrate fit`` produces one) and writes the policy
table; ``show`` prints a policy's cells, including the cells recorded
unsatisfiable; ``validate`` refits the surrogate from the analog
reference at an independent seed and replays every tuned cell against
it, exiting non-zero if any cell misses its bound.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..characterization.runner import SCALES
from ..substrate.base import ANY_DISTANCE
from ..substrate.fit import SMOKE_GRID, FitGrid, fit_surrogate
from ..substrate.surrogate import SurrogateBackend, SurrogateTable
from .policy import PolicyTable
from .tuner import (
    DEFAULT_BOUND_MARGIN,
    DEFAULT_ERROR_BOUND,
    DEFAULT_P_SLACK,
    TuneGrid,
    tune,
    validate_policy,
)


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_strs(text: str) -> List[str]:
    return [part for part in text.split(",") if part]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reliability", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tune_cmd = commands.add_parser(
        "tune", help="tune a policy table against a surrogate"
    )
    tune_cmd.add_argument(
        "--table", required=True,
        help="fitted surrogate table (python -m repro.substrate fit)",
    )
    tune_cmd.add_argument("--out", required=True, help="policy output (JSON)")
    tune_cmd.add_argument(
        "--error-bound", type=float, default=DEFAULT_ERROR_BOUND
    )
    tune_cmd.add_argument(
        "--p-slack", type=float, default=DEFAULT_P_SLACK,
        help="probability safety margin covering the surrogate fit error",
    )
    tune_cmd.add_argument(
        "--bound-margin", type=float, default=DEFAULT_BOUND_MARGIN,
        help="error-space headroom factor (select to bound*margin)",
    )
    tune_cmd.add_argument(
        "--logic-ops", type=_csv_strs, default=None,
        help="comma-separated logic ops (default and,or,nand,nor)",
    )
    tune_cmd.add_argument("--logic-fan-ins", type=_csv_ints, default=None)
    tune_cmd.add_argument("--not-fan-ins", type=_csv_ints, default=None)
    tune_cmd.add_argument(
        "--distances", type=_csv_strs, default=None,
        help=f"comma-separated distance classes (default {ANY_DISTANCE})",
    )
    tune_cmd.add_argument("--temperatures", type=_csv_floats, default=None)
    tune_cmd.add_argument("--max-votes", type=int, default=None)
    tune_cmd.add_argument("--max-attempts", type=int, default=None)
    tune_cmd.add_argument("--quiet", action="store_true")

    show = commands.add_parser("show", help="print a policy table")
    show.add_argument("policy", help="policy table path (JSON)")

    validate = commands.add_parser(
        "validate", help="replay a policy against the analog reference"
    )
    validate.add_argument("policy", help="policy table path (JSON)")
    validate.add_argument(
        "--scale", choices=sorted(SCALES), default="smoke"
    )
    validate.add_argument(
        "--seed", type=int, default=1,
        help="fit seed for the reference (use one the tuner did not)",
    )
    validate.add_argument(
        "--grid", choices=("smoke", "default"), default="smoke",
        help="fit grid for the reference surrogate",
    )
    validate.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "show":
        table = PolicyTable.load(args.policy)
        meta = ", ".join(f"{k}={v}" for k, v in sorted(table.meta.items()))
        print(f"# {meta}")
        for line in table.summary_lines():
            print(line)
        print(
            f"# {len(table)} tuned cell(s), "
            f"{table.unsatisfiable_count} unsatisfiable"
        )
        return 0

    def progress(message: str) -> None:
        if not args.quiet:
            print(f"  {message}", file=sys.stderr)

    if args.command == "tune":
        base = TuneGrid()
        grid = TuneGrid(
            logic_ops=(
                tuple(args.logic_ops) if args.logic_ops else base.logic_ops
            ),
            logic_fan_ins=(
                tuple(args.logic_fan_ins)
                if args.logic_fan_ins is not None
                else base.logic_fan_ins
            ),
            not_fan_ins=(
                tuple(args.not_fan_ins)
                if args.not_fan_ins is not None
                else base.not_fan_ins
            ),
            distances=(
                tuple(args.distances) if args.distances else base.distances
            ),
            temperatures=(
                tuple(args.temperatures)
                if args.temperatures
                else base.temperatures
            ),
            max_votes=(
                args.max_votes if args.max_votes is not None else base.max_votes
            ),
            max_attempts=(
                args.max_attempts
                if args.max_attempts is not None
                else base.max_attempts
            ),
        )
        backend = SurrogateBackend(SurrogateTable.load(args.table))
        policy = tune(
            backend,
            grid=grid,
            error_bound=args.error_bound,
            p_slack=args.p_slack,
            bound_margin=args.bound_margin,
            progress=progress,
        )
        policy.save(args.out)
        print(
            f"tuned {len(policy)} cell(s) "
            f"({policy.unsatisfiable_count} unsatisfiable) "
            f"at bound {args.error_bound:.1e} -> {args.out}"
        )
        return 0

    # validate
    policy = PolicyTable.load(args.policy)
    scale = SCALES[args.scale]
    fit_grid = SMOKE_GRID if args.grid == "smoke" else FitGrid()
    reference = SurrogateBackend(
        fit_surrogate(scale, args.seed, grid=fit_grid, progress=progress)
    )
    report = validate_policy(policy, reference, progress=progress)
    print(
        f"validated {report.checked} cell(s) "
        f"({report.skipped} skipped, {len(report.violations)} violation(s))"
    )
    for operation, fan_in, distance, temperature, error in report.violations:
        print(
            f"  VIOLATION: {operation} n={fan_in} {distance} "
            f"@{temperature:g}C analog err {error:.2e}"
        )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
