"""Reliability benchmark: mitigation-scheme overhead on the runtime.

Times the bounded-error job path of :class:`repro.system.PudRuntime`
under a ladder of mitigation schemes — each installed via a one-cell
policy table — against the uncoded scheme, on an ideal (noise-free)
module so the measured cost is pure mitigation overhead: extra
activations for votes, extra reads for row copies and consistency
checks, and the decided-bits re-stage.  Also times the auto-tuner
itself (surrogate fit + ``tune`` on the smoke grid), the step a
deployment pays once per chip.

Usage::

    PYTHONPATH=src python tools/bench_reliability.py
    PYTHONPATH=src python tools/bench_reliability.py --out other.json --seed 2

The headline numbers are the measured wall-clock multiplier of each
scheme relative to uncoded, next to the model's predicted expected-cost
multiplier — the two should track, which is the whole point of tuning
from the closed-form models.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

import numpy as np

from repro import ChipGeometry, SeedTree, ideal_calibration, sk_hynix_chip
from repro.atomicio import atomic_write_text
from repro.bender import DramBenderHost
from repro.characterization.runner import SMOKE
from repro.dram.module import Module
from repro.reliability import (
    SMOKE_TUNE_GRID,
    MitigationScheme,
    PolicyEntry,
    PolicyTable,
    tune,
)
from repro.substrate import SMOKE_GRID, SurrogateBackend, fit_surrogate
from repro.system import PudRuntime

#: Same structurally-complete small geometry the test suite uses.
GEOMETRY = ChipGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=192, columns=64
)

#: Schemes timed against uncoded, cheapest first.
SCHEME_LADDER = (
    MitigationScheme(),
    MitigationScheme(row_copies=3),
    MitigationScheme(max_attempts=2),
    MitigationScheme(votes=3),
    MitigationScheme(votes=3, max_attempts=2),
    MitigationScheme(votes=5, row_copies=3, max_attempts=2),
    MitigationScheme(votes=9, max_attempts=3),
)

#: Bounded jobs per scheme (4-operand AND: a bitmap-index scan shape).
JOBS_PER_SCHEME = 25
FAN_IN = 4


def _timed(fn, *args):
    # staticcheck: ignore[DET203] wall-clock is the measured quantity here
    start = time.perf_counter()
    value = fn(*args)
    elapsed = time.perf_counter() - start  # staticcheck: ignore[DET203]
    return elapsed, value


def _runtime_for(scheme: MitigationScheme) -> PudRuntime:
    module = Module(
        sk_hynix_chip().with_geometry(GEOMETRY),
        chip_count=1,
        seed_tree=SeedTree(7),
        calibration=ideal_calibration(),
    )
    table = PolicyTable()
    table.set(
        ("and", FAN_IN, "any", 50.0),
        PolicyEntry(
            scheme=scheme,
            probability=0.95,
            predicted_error=float(scheme.predicted_error(0.95)),
            expected_cost=float(scheme.expected_cost(0.95)),
            error_bound=1.0,  # benchmark: always admissible
        ),
    )
    return PudRuntime(DramBenderHost(module), policy=table)


def _run_jobs(runtime: PudRuntime, operands: List[np.ndarray]) -> None:
    for _job in range(JOBS_PER_SCHEME):
        runtime.submit_job("and", operands, error_bound=1.0)


def run_benchmark(seed: int = 1) -> Dict[str, object]:
    rng = np.random.default_rng(seed)

    schemes: List[Dict[str, object]] = []
    uncoded_s: Optional[float] = None
    for scheme in SCHEME_LADDER:
        runtime = _runtime_for(scheme)
        operands = [
            rng.integers(0, 2, runtime.lane_count, dtype=np.uint8)
            for _ in range(FAN_IN)
        ]
        elapsed, _unused = _timed(_run_jobs, runtime, operands)
        if scheme.is_uncoded:
            uncoded_s = elapsed
        assert uncoded_s is not None  # uncoded is first in the ladder
        schemes.append(
            {
                "scheme": scheme.label,
                "elapsed_s": round(elapsed, 4),
                "measured_overhead": round(elapsed / uncoded_s, 2),
                "predicted_cost": round(float(scheme.expected_cost(0.95)), 2),
                "logic_ops": runtime.stats.logic_ops,
                "votes_cast": runtime.stats.votes_cast,
                "op_retries": runtime.stats.op_retries,
            }
        )

    fit_s, table = _timed(fit_surrogate, SMOKE, seed, SMOKE_GRID)
    tune_s, policy = _timed(
        lambda: tune(SurrogateBackend(table), grid=SMOKE_TUNE_GRID)
    )

    return {
        "benchmark": "reliability",
        "seed": seed,
        "fan_in": FAN_IN,
        "jobs_per_scheme": JOBS_PER_SCHEME,
        "schemes": schemes,
        "tuner": {
            "fit_s": round(fit_s, 4),
            "fitted_cells": len(table),
            "tune_s": round(tune_s, 4),
            "tuned_cells": len(policy),
            "unsatisfiable_cells": policy.unsatisfiable_count,
        },
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="BENCH_reliability.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = run_benchmark(seed=args.seed)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    print("scheme               measured   predicted   elapsed")
    for row in report["schemes"]:
        print(
            f"{row['scheme']:<20} {row['measured_overhead']:7.2f}x  "
            f"{row['predicted_cost']:8.2f}x  {row['elapsed_s']:7.3f}s"
        )
    tuner = report["tuner"]
    print(
        f"\ntuner: fit {tuner['fit_s']:.3f}s ({tuner['fitted_cells']} "
        f"cells), tune {tuner['tune_s']:.3f}s ({tuner['tuned_cells']} "
        f"tuned, {tuner['unsatisfiable_cells']} unsatisfiable)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
