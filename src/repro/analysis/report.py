"""EXPERIMENTS.md generator: run every experiment, compare to the paper.

Usage::

    python -m repro.analysis.report --scale default --seed 0 --out EXPERIMENTS.md

The report records, per table/figure: the measured group statistics, a
text box plot, and the paper-vs-measured anchor table.  Absolute values
are not expected to match silicon exactly (the substrate is a calibrated
simulator — see DESIGN.md); the point of the report is that every trend,
ordering, and factor the paper highlights is reproduced.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, TextIO

from ..atomicio import atomic_write_text
from ..characterization.experiments import REGISTRY, run_experiment
from ..characterization.resilience import (
    Resilience,
    add_resilience_arguments,
    resilience_from_args,
)
from ..characterization.results import ExperimentResult
from ..characterization.runner import DEFAULT, SCALES, Scale
from .boxplot import render_boxes
from .compare import ComparisonRow, compare_experiment

__all__ = ["generate_report", "main"]

#: Report order: the inventory table, then figures in paper order.
EXPERIMENT_ORDER = (
    "table1",
    "capability",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
)


def _format_value(value: Optional[float], percentish: bool) -> str:
    if value is None:
        return "n/a"
    if percentish:
        return f"{value * 100:.2f}%"
    return f"{value:g}"


def _comparison_table(rows: List[ComparisonRow]) -> str:
    lines = [
        "| metric | paper | measured | delta | source |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        percentish = abs(row.paper_value) <= 1.0
        delta = (
            f"{row.delta * 100:+.2f}pp"
            if (row.delta is not None and percentish)
            else (_format_value(row.delta, False) if row.delta is not None else "n/a")
        )
        lines.append(
            f"| {row.metric} | {_format_value(row.paper_value, percentish)} "
            f"| {_format_value(row.measured_value, percentish)} "
            f"| {delta} | {row.source} |"
        )
    return "\n".join(lines)


def _experiment_section(result: ExperimentResult, elapsed_s: float) -> str:
    parts = [f"## {result.experiment_id}: {result.title}", ""]
    rows = compare_experiment(result)
    if rows:
        parts.append(_comparison_table(rows))
        parts.append("")
    if "table" in result.extras:
        parts.append("```")
        parts.append(str(result.extras["table"]))
        parts.append("```")
        parts.append("")
    if result.groups:
        parts.append("```")
        parts.append(render_boxes(result.groups))
        parts.append("```")
        parts.append("")
    for key in sorted(result.extras):
        if key.startswith("heatmap"):
            parts.append("```")
            parts.append(result.format_heatmap(key=key))
            parts.append("```")
            parts.append("")
    for note in result.notes:
        parts.append(f"- {note}")
    parts.append(f"- runtime: {elapsed_s:.1f}s")
    if result.health is not None:
        parts.append("- sweep health:")
        parts.extend(f"  - {line}" for line in result.health.summary_lines())
    parts.append("")
    return "\n".join(parts)


def generate_report(
    scale: Scale = DEFAULT,
    seed: int = 0,
    experiment_ids: Optional[List[str]] = None,
    log: Optional[TextIO] = None,
    jobs: int = 1,
    resilience: Optional[Resilience] = None,
) -> str:
    """Run the experiment suite and return the EXPERIMENTS.md content."""
    ids = list(experiment_ids) if experiment_ids else list(EXPERIMENT_ORDER)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    sections = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of every table and figure in the evaluation of",
        '"Functionally-Complete Boolean Logic in Real DRAM Chips" (HPCA 2024)',
        "on the simulated-chip substrate described in DESIGN.md.",
        "",
        f"- sweep scale: `{scale.name}` "
        f"({scale.modules_per_spec} module(s)/spec, "
        f"{scale.chips_per_module} chip(s)/module, "
        f"{scale.banks_per_module} bank(s), {scale.trials} trials; "
        f"geometry {scale.geometry.subarrays_per_bank}x"
        f"{scale.geometry.rows_per_subarray}x{scale.geometry.columns})",
        f"- seed: {seed}",
        "",
        "Absolute success rates come from a *calibrated* behavioral model,",
        "so exact-match is expected only for the anchors used in",
        "calibration; the reproduction claim is that every ordering,",
        "trend, and factor the paper reports holds (see per-figure",
        "comparison tables).",
        "",
        "## Parallel sweeps",
        "",
        "This report can be regenerated with `--jobs N` to fan each sweep",
        "out over a process pool (`python -m repro.analysis.report --jobs 4`).",
        "Worker processes rebuild modules from the shared seed tree and",
        "results merge in canonical target order, so every number below is",
        "bit-identical at any job count; only wall-clock changes.  See the",
        '"Parallel sweeps" section of README.md and',
        "`tests/characterization/test_parallel.py` for the guarantee.",
        "",
        "## Batched execution",
        "",
        "Within each worker, trials execute on one batched engine: a",
        "block of up to 1024 trials evaluates as one vectorized pass over",
        "a leading NumPy trials axis instead of one program execution per",
        "trial.  The success counts below do not depend on how trials are",
        "partitioned into blocks, including under fault injection,",
        "because per-trial noise substreams and fault-site hashes are",
        "keyed by trial index, not drawn in execution order.  The counts",
        "therefore compose with `--jobs` and `--resume`.  Golden counts",
        "recorded from a serial per-trial loop",
        "(`tests/core/data/golden_trial_counts.json`) pin the engine, for",
        "blocks of 1, 7 and 1024 trials.  See \"Batched execution\" in",
        "README.md and `tests/core/test_batched_equivalence.py`.",
        "",
        "## Substrate backends",
        "",
        "Measurements flow through a pluggable substrate backend",
        "(`repro.substrate`), selected with `--backend`.  `analog` (the",
        "default, used below) is the calibrated charge-sharing model,",
        "bit-identical to historical runs.  `surrogate` serves",
        "deterministic draws from probability tables fitted off the",
        "analog reference (`python -m repro.substrate fit`), ~43x",
        "faster on fleet-style sweeps and within 0.02 absolute of fresh",
        "analog fleet means on every fitted (operation, fan-in,",
        "temperature) cell.  A finished sweep is re-served from its",
        "checkpoints with `--checkpoint-dir` plus `--resume` (below).",
        "See \"Substrate backends\" in README.md,",
        "`tests/substrate/` for the cross-backend equivalence suite, and",
        "`tools/bench_substrate.py` for the speedup measurement.",
        "",
        "## Resilient sweeps",
        "",
        "Long runs survive a flaky bench and a dying machine.  With",
        "`--checkpoint-dir DIR` every sweep checkpoints completed targets",
        "atomically; transient infrastructure failures (host command",
        "timeouts, thermal setpoint dropouts, dead pool workers — real or",
        "injected via `--faults PLAN.json`) retry with exponential backoff,",
        "and targets that exhaust the retry budget are quarantined and",
        "reported per figure instead of aborting the suite.  A worked",
        "kill-and-resume example:",
        "",
        "```bash",
        "python -m repro.analysis.report --scale full --jobs 8 \\",
        "    --checkpoint-dir ckpt --out EXPERIMENTS.md",
        "# ...power loss / OOM kill / Ctrl-C hours in...",
        "python -m repro.analysis.report --scale full --jobs 8 \\",
        "    --checkpoint-dir ckpt --resume --out EXPERIMENTS.md",
        "```",
        "",
        "The resumed report is bit-identical to an uninterrupted one:",
        "finished targets load from `ckpt/*.json`, only the remainder",
        "runs.  See \"Fault injection and resilient sweeps\" in README.md",
        "and `tests/characterization/test_resilience.py`.",
        "",
        "## Static checks",
        "",
        "Every command sequence below passed the static program verifier",
        "before running: the executor pre-flights each `TestProgram`",
        "against a static mirror of the bank state machine",
        "(`ProgramExecutor(verify=...)`, default `\"warn\"`), catching",
        "broken FCDRAM sequences — wrong bank state, operands in",
        "non-sense-amp-sharing subarrays, missing Frac references,",
        "silently quantized sub-cycle waits — before they can burn a",
        "sweep.  Reproduce the checks standalone:",
        "",
        "```bash",
        "python -m repro.staticcheck              # sequences + determinism lint",
        "python -m repro.staticcheck --list-rules # FC1xx / DET2xx catalogue",
        "python -m repro.staticcheck --demo all   # documented bad cases",
        "```",
        "",
        "See \"Static checks\" in README.md for the rule catalogue and",
        "suppression syntax; `tests/staticcheck/` pins one golden",
        "diagnostic per rule.",
        "",
    ]
    if resilience is not None:
        sections.extend(
            [
                "This run used the resilience layer; per-figure sweep",
                "health (attempts, retries, quarantined targets, resume",
                "provenance) is reported below each experiment.",
                "",
            ]
        )
    for experiment_id in ids:
        if log:
            log.write(f"[report] running {experiment_id}...\n")
            log.flush()
        # staticcheck: ignore[DET203] runtime note in the report, not a result
        start = time.time()
        result = run_experiment(
            experiment_id, scale=scale, seed=seed, jobs=jobs, resilience=resilience
        )
        elapsed = time.time() - start  # staticcheck: ignore[DET203]
        sections.append(_experiment_section(result, elapsed))
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per sweep (default 1 = serial; the report "
        "content is bit-identical at any job count)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiment ids (default: all)",
    )
    add_resilience_arguments(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    content = generate_report(
        scale=SCALES[args.scale],
        seed=args.seed,
        experiment_ids=args.only,
        log=sys.stderr,
        jobs=args.jobs,
        resilience=resilience_from_args(args),
    )
    atomic_write_text(args.out, content)
    sys.stderr.write(f"[report] wrote {args.out}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
