"""Substrate benchmark: analog reference vs the fitted surrogate.

Runs the same fleet-style characterization workload — NOT sweeps at 1
and 2 destination rows plus AND/OR sweeps at 2 and 4 inputs, full-preset
trial counts on the smoke fleet — once through the analog reference
backend and once through a surrogate table fitted immediately before
timing, then writes timings and the speedup to ``BENCH_substrate.json``.

Usage::

    PYTHONPATH=src python tools/bench_substrate.py
    PYTHONPATH=src python tools/bench_substrate.py --out other.json --seed 2

The headline number is the sweep-workload speedup: the surrogate exists
to make fleet-scale sweeps cheaper than the analog model while serving
the same fitted statistics.  Only the timings and the speedup vary from
run to run; CI compares every other key with the committed file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

from repro.atomicio import atomic_write_text
from repro.characterization.experiments.base import (
    LogicVariant,
    NotVariant,
    logic_sweep,
    not_sweep,
)
from repro.characterization.runner import FULL, SMOKE
from repro.substrate import SMOKE_GRID, fit_surrogate

#: Smoke fleet at 2.5x the full preset's trial count: big enough that
#: per-trial work dwarfs the fleet-construction cost both backends
#: share, small enough to finish in seconds.
BENCH_SCALE = dataclasses.replace(
    SMOKE, name="bench-substrate", trials=FULL.trials * 5 // 2
)

NOT_VARIANTS = (NotVariant(1), NotVariant(2))
LOGIC_VARIANTS = (
    LogicVariant("and", 2),
    LogicVariant("and", 4),
    LogicVariant("or", 2),
    LogicVariant("or", 4),
)


def _run_workload(scale, seed: int):
    return (
        not_sweep(scale, seed, NOT_VARIANTS),
        logic_sweep(scale, seed, LOGIC_VARIANTS),
    )


def _timed(fn, *args):
    # staticcheck: ignore[DET203] wall-clock is the measured quantity here
    start = time.perf_counter()
    value = fn(*args)
    elapsed = time.perf_counter() - start  # staticcheck: ignore[DET203]
    return elapsed, value


def run_benchmark(seed: int = 1) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="bench-substrate-") as table_dir:
        table_path = str(Path(table_dir) / "surrogate_table.json")
        fit_s, table = _timed(fit_surrogate, SMOKE, seed, SMOKE_GRID)
        table.save(table_path)

        analog_s, (analog_not, analog_logic) = _timed(
            _run_workload, BENCH_SCALE, seed
        )
        surrogate_scale = BENCH_SCALE.with_backend(f"surrogate:{table_path}")
        surrogate_s, (surrogate_not, surrogate_logic) = _timed(
            _run_workload, surrogate_scale, seed
        )

    same_groups = sorted(surrogate_not) == sorted(analog_not) and sorted(
        surrogate_logic
    ) == sorted(analog_logic)
    if not same_groups:
        raise AssertionError(
            "surrogate sweep produced different group labels than analog"
        )

    return {
        "benchmark": "substrate",
        "scale": BENCH_SCALE.name,
        "trials": BENCH_SCALE.trials,
        "seed": seed,
        "jobs": 1,
        "workload": {
            "not_variants": [v.n_destination for v in NOT_VARIANTS],
            "logic_variants": [
                [v.base_op, v.n_inputs] for v in LOGIC_VARIANTS
            ],
        },
        "fit_s": round(fit_s, 4),
        "fitted_cells": len(table),
        "analog_s": round(analog_s, 4),
        "surrogate_s": round(surrogate_s, 4),
        "speedup": round(analog_s / surrogate_s, 1),
        "same_group_labels": same_groups,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="BENCH_substrate.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = run_benchmark(seed=args.seed)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    print(
        f"fit       {report['fit_s']:8.3f}s  ({report['fitted_cells']} cells)"
    )
    print(f"analog    {report['analog_s']:8.3f}s")
    print(f"surrogate {report['surrogate_s']:8.3f}s")
    print(f"\nheadline: {report['speedup']:.1f}x surrogate speedup on the "
          f"sweep workload ({report['trials']} trials)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
