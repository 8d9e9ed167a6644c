"""Shared sweep drivers for the table/figure reproductions.

Every figure in the paper's evaluation is some grouping of per-cell
success rates over (operation variant x fleet target x temperature).
The two drivers here — :func:`not_sweep` and :func:`logic_sweep` — run
those loops once, and each experiment module supplies only its variant
list and group-labeling function.

Both drivers share one runner, which picks the executor from ``jobs``:
:class:`~repro.characterization.parallel.SerialExecutor` for one job,
:class:`~repro.characterization.parallel.ProcessPoolSweepExecutor` for
more.  Per-target work is packaged as a picklable object
(:class:`_NotSweepWork` / :class:`_LogicSweepWork`) that a process-pool
worker can apply to a target it reconstructed locally, and the records
come back tagged with the target's canonical index so aggregation order
— and therefore every result bit — matches the serial path.  Experiment
modules must therefore pass *module-level* ``label_fn`` functions, not
lambdas or closures: the label function rides along inside the pickled
work object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ...dram.config import Manufacturer, ModuleSpec
from ...dram.decoder import ActivationKind
from ...rng import derive_seed
from ..metrics import WeightedSamples
from ..parallel import ProcessPoolSweepExecutor, SerialExecutor, TargetWork
from ..resilience import Resilience
from ..runner import (
    Scale,
    SweepTarget,
    TargetDescriptor,
    good_cell_mask,
    iter_descriptors,
    spec_by_name,
)

__all__ = [
    "NotVariant",
    "LogicVariant",
    "GroupSamples",
    "not_sweep",
    "logic_sweep",
    "BASELINE_TEMPERATURE_C",
]

GroupSamples = Dict[str, WeightedSamples]

#: All experiments run at 50 degC unless they sweep temperature (§5.2).
BASELINE_TEMPERATURE_C = 50.0


@dataclass(frozen=True)
class NotVariant:
    """One NOT configuration: destination-row count and pattern family."""

    n_destination: int
    kind: Optional[ActivationKind] = None
    #: Optional (first_region, last_region) constraint (Fig. 9).
    regions: Optional[tuple] = None

    def default_label(self) -> str:
        return f"{self.n_destination} dst"


@dataclass(frozen=True)
class LogicVariant:
    """One logic-op configuration: base op, fan-in, operand pattern."""

    base_op: str
    n_inputs: int
    mode: str = "random"
    ones_count: Optional[int] = None
    regions: Optional[tuple] = None

    def default_label(self, op_name: str) -> str:
        return f"{op_name.upper()} n={self.n_inputs}"


NotLabelFn = Callable[[SweepTarget, NotVariant, float], Optional[str]]
LogicLabelFn = Callable[[SweepTarget, LogicVariant, float, str], Optional[str]]

#: One result record: (group label, per-cell rates, population weight).
SweepRecord = Tuple[str, np.ndarray, int]


def _measurement_rng(seed: int, *context: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *context))


@dataclass(frozen=True)
class _NotSweepWork:
    """Per-target NOT measurement loop, picklable for pool workers."""

    seed: int
    trials: int
    variants: Tuple[NotVariant, ...]
    label_fn: Optional[NotLabelFn]
    temperatures: Tuple[float, ...]
    good_cells_only: bool
    #: Substrate backend spec (rides along as a string so pool workers
    #: resolve their own process-local instance).  Part of the sweep's
    #: identity: different backends measure different things.
    backend: str = "analog"

    def __call__(self, target: SweepTarget) -> List[SweepRecord]:
        from ...substrate.base import resolve_backend

        backend = resolve_backend(self.backend)
        records: List[SweepRecord] = []
        seed = self.seed
        for variant in self.variants:
            measurement = backend.find_not_measurement(
                target,
                variant.n_destination,
                kind=variant.kind,
                regions=variant.regions,
            )
            if measurement is None:
                continue

            mask = None
            if self.good_cells_only:
                target.infra.set_temperature(BASELINE_TEMPERATURE_C)
                baseline = measurement.run(
                    self.trials,
                    _measurement_rng(seed, target.label(), repr(variant), "mask"),
                )
                mask = good_cell_mask(baseline)
                if not mask.any():
                    continue

            for temperature in self.temperatures:
                label = (
                    self.label_fn(target, variant, temperature)
                    if self.label_fn
                    else variant.default_label()
                )
                if label is None:
                    continue
                target.infra.set_temperature(temperature)
                result = measurement.run(
                    self.trials,
                    _measurement_rng(
                        seed, target.label(), repr(variant), f"T={temperature}"
                    ),
                )
                rates = result.rates[mask] if mask is not None else result.rates
                records.append((label, rates, target.weight))
        target.infra.set_temperature(BASELINE_TEMPERATURE_C)
        return records


@dataclass(frozen=True)
class _LogicSweepWork:
    """Per-target logic-op measurement loop, picklable for pool workers."""

    seed: int
    trials: int
    variants: Tuple[LogicVariant, ...]
    label_fn: Optional[LogicLabelFn]
    temperatures: Tuple[float, ...]
    good_cells_only: bool
    #: See :class:`_NotSweepWork.backend`.
    backend: str = "analog"

    def __call__(self, target: SweepTarget) -> List[SweepRecord]:
        from ...substrate.base import resolve_backend

        backend = resolve_backend(self.backend)
        records: List[SweepRecord] = []
        seed = self.seed
        for variant in self.variants:
            measurement = backend.find_logic_measurement(
                target, variant.base_op, variant.n_inputs, regions=variant.regions
            )
            if measurement is None:
                continue

            masks = None
            if self.good_cells_only:
                target.infra.set_temperature(BASELINE_TEMPERATURE_C)
                baseline = measurement.run(
                    self.trials,
                    _measurement_rng(seed, target.label(), repr(variant), "mask"),
                    mode=variant.mode,
                    ones_count=variant.ones_count,
                )
                masks = (
                    good_cell_mask(baseline.primary),
                    good_cell_mask(baseline.complement),
                )

            for temperature in self.temperatures:
                target.infra.set_temperature(temperature)
                pair = measurement.run(
                    self.trials,
                    _measurement_rng(
                        seed, target.label(), repr(variant), f"T={temperature}"
                    ),
                    mode=variant.mode,
                    ones_count=variant.ones_count,
                )
                for index, result in enumerate((pair.primary, pair.complement)):
                    op_name = str(result.metadata["operation"])
                    label = (
                        self.label_fn(target, variant, temperature, op_name)
                        if self.label_fn
                        else variant.default_label(op_name)
                    )
                    if label is None:
                        continue
                    rates = result.rates
                    if masks is not None:
                        mask = masks[index]
                        if not mask.any():
                            continue
                        rates = rates[mask]
                    records.append((label, rates, target.weight))
        target.infra.set_temperature(BASELINE_TEMPERATURE_C)
        return records


def _select_descriptors(
    scale: Scale,
    manufacturers: Optional[Iterable[Manufacturer]],
    spec_filter: Optional[Callable[[ModuleSpec], bool]],
) -> List[TargetDescriptor]:
    """Enumerate the sweep and apply the spec filter up front.

    ``spec_filter`` runs in the parent process against the descriptor's
    spec, so experiments may pass closures for it (unlike ``label_fn``,
    it never crosses the process boundary).
    """
    descriptors = iter_descriptors(scale, manufacturers=manufacturers)
    if spec_filter is None:
        return descriptors
    specs = spec_by_name(scale)
    return [d for d in descriptors if spec_filter(specs[d.spec_name])]


def _run_sweep(
    work: TargetWork,
    scale: Scale,
    seed: int,
    descriptors: List[TargetDescriptor],
    jobs: int,
    resilience: Optional[Resilience],
) -> GroupSamples:
    """Run ``work`` over ``descriptors`` and aggregate the records in
    canonical sweep order: serially for one job, over a process pool
    for more."""
    executor = ProcessPoolSweepExecutor(jobs) if jobs > 1 else SerialExecutor()
    outcome = executor.run_resilient(
        work, scale, seed, descriptors, resilience=resilience
    )
    groups: GroupSamples = {}
    for _index, payloads in outcome.records:
        for label, rates, weight in payloads:
            groups.setdefault(label, WeightedSamples()).add(rates, weight)
    return groups


def not_sweep(
    scale: Scale,
    seed: int,
    variants: Sequence[NotVariant],
    label_fn: Optional[NotLabelFn] = None,
    manufacturers: Optional[Iterable[Manufacturer]] = None,
    temperatures: Optional[Sequence[float]] = None,
    spec_filter: Optional[Callable[[ModuleSpec], bool]] = None,
    good_cells_only: bool = False,
    jobs: int = 1,
    resilience: Optional[Resilience] = None,
) -> GroupSamples:
    """Run NOT measurements across the fleet, grouped by label.

    When ``temperatures`` is given, each variant is measured once per
    temperature; with ``good_cells_only`` the paper's footnote-8 filter
    applies — only cells above 90% success at the 50 degC baseline are
    tracked across temperatures.  A ``label_fn`` returning ``None``
    drops that (target, variant) from the sweep.  ``jobs`` > 1 fans the
    sweep out over a process pool (results are bit-identical to the
    serial path).  ``resilience`` enables fault injection,
    retry/quarantine, and checkpointing; sweep health accumulates on the
    shared object.
    """
    temps = tuple(temperatures) if temperatures else (BASELINE_TEMPERATURE_C,)
    work = _NotSweepWork(
        seed=seed,
        trials=scale.trials,
        variants=tuple(variants),
        label_fn=label_fn,
        temperatures=temps,
        good_cells_only=good_cells_only,
        backend=scale.backend,
    )
    descriptors = _select_descriptors(scale, manufacturers, spec_filter)
    return _run_sweep(work, scale, seed, descriptors, jobs, resilience)


def logic_sweep(
    scale: Scale,
    seed: int,
    variants: Sequence[LogicVariant],
    label_fn: Optional[LogicLabelFn] = None,
    temperatures: Optional[Sequence[float]] = None,
    spec_filter: Optional[Callable[[ModuleSpec], bool]] = None,
    good_cells_only: bool = False,
    trials_override: Optional[int] = None,
    jobs: int = 1,
    resilience: Optional[Resilience] = None,
) -> GroupSamples:
    """Run logic-op measurements across the fleet, grouped by label.

    Each measurement yields *both* terminals (AND together with NAND, or
    OR with NOR); the label function is called once per terminal with
    the concrete operation name.  Only SK Hynix targets can run these
    (§6.3); others are skipped automatically.  ``jobs`` and
    ``resilience`` behave as in :func:`not_sweep`.
    """
    temps = tuple(temperatures) if temperatures else (BASELINE_TEMPERATURE_C,)
    work = _LogicSweepWork(
        seed=seed,
        trials=trials_override or scale.trials,
        variants=tuple(variants),
        label_fn=label_fn,
        temperatures=temps,
        good_cells_only=good_cells_only,
        backend=scale.backend,
    )
    descriptors = _select_descriptors(
        scale, [Manufacturer.SK_HYNIX], spec_filter
    )
    return _run_sweep(work, scale, seed, descriptors, jobs, resilience)
