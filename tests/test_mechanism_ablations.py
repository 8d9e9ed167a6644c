"""Mechanism ablations: turn off one modeled mechanism, check its Observation.

DESIGN.md claims the success rates emerge from the mechanisms the paper
hypothesizes, not from calibration slack.  Each test disables one
mechanism on a small SK Hynix die and checks that the Observation it is
credited with changes:

* **latch-fight load cost** (``drive_load_alpha = 0``): the NOT success
  cliff across destination-row counts (Fig. 7 / Obs. 4) disappears.
* **coupling** (``coupling_noise_sigma = op_coupling_flip_z = 0``): the
  all-1s/0s vs random data-pattern gap (Fig. 18 / Obs. 16) must not
  grow by more than 0.5 pp.  On one 16-input AND pair at 240 trials it
  goes from +0.83 pp to +0.69 pp.
* **common-mode overdrive loss** (``common_mode_noise_gain`` and both
  offset gains ``= 0``): OR no longer beats AND (Obs. 12).
* **row decoder**: the calibrated decoder lands closer to Fig. 5's
  coverage than :class:`~repro.dram.decoder.HierarchicalRowDecoder`,
  the public circuit hypothesis.

Every assertion message carries the measured values.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import ChipGeometry, SeedTree, sk_hynix_chip
from repro.bender import DramBenderHost
from repro.core import (
    LogicSuccessMeasurement,
    NotSuccessMeasurement,
    find_pattern_pair,
)
from repro.dram import ActivationKind, Module
from repro.dram.calibration import calibration_for
from repro.dram.decoder import FIG5_COVERAGE
from repro.reveng import ActivationScanner, coverage_from_counts

GEOMETRY = ChipGeometry(
    banks=1, subarrays_per_bank=2, rows_per_subarray=96, columns=48
)
TRIALS = 120
SCAN_SAMPLES = 600


def _module(**calibration_overrides) -> Module:
    config = sk_hynix_chip().with_geometry(GEOMETRY)
    calibration = replace(calibration_for(config), **calibration_overrides)
    return Module(
        config, chip_count=1, seed_tree=SeedTree(31), calibration=calibration
    )


def _pair(module: Module, n: int, seed: int):
    return find_pattern_pair(
        module.decoder, module.config.geometry, 0, 0, 1, n,
        ActivationKind.N_TO_N, seed=seed,
    )


def _not_means(module: Module, counts=(1, 8, 16)) -> dict:
    host = DramBenderHost(module)
    means = {}
    for n in counts:
        src, dst = _pair(module, n, seed=n)
        measurement = NotSuccessMeasurement(host, 0, src, dst)
        means[n] = measurement.run(TRIALS, np.random.default_rng(n)).mean_rate
    return means


def _pattern_gap(module: Module, n: int = 16) -> float:
    """all-1s/0s minus random mean success for an n-input AND."""
    host = DramBenderHost(module)
    ref, com = _pair(module, n, seed=9)
    measurement = LogicSuccessMeasurement(host, 0, ref, com, base_op="and")
    fixed = measurement.run(2 * TRIALS, np.random.default_rng(1), mode="all01")
    random_ = measurement.run(2 * TRIALS, np.random.default_rng(1), mode="random")
    return fixed.primary.mean_rate - random_.primary.mean_rate


def _or_minus_and(module: Module, n: int = 2) -> float:
    host = DramBenderHost(module)
    ref, com = _pair(module, n, seed=13)
    rates = {
        op: LogicSuccessMeasurement(host, 0, ref, com, base_op=op)
        .run(TRIALS, np.random.default_rng(2))
        .primary.mean_rate
        for op in ("and", "or")
    }
    return rates["or"] - rates["and"]


def _coverage(decoder_model: str) -> dict:
    config = sk_hynix_chip().with_geometry(GEOMETRY)
    module = Module(
        config, chip_count=1, seed_tree=SeedTree(17), decoder_model=decoder_model
    )
    scanner = ActivationScanner(DramBenderHost(module), 0, 0, 1, seed=3)
    return coverage_from_counts(scanner.scan(SCAN_SAMPLES))


def _rounded(means: dict) -> dict:
    return {n: round(rate, 3) for n, rate in means.items()}


def test_drive_load_carries_the_not_cliff():
    """No per-row drive cost -> no Fig. 7 cliff (Obs. 4)."""
    full = _not_means(_module())
    ablated = _not_means(_module(drive_load_alpha=0.0))
    measured = f"NOT means {_rounded(full)}, at alpha=0 {_rounded(ablated)}"
    assert full[1] - full[16] > 0.3, f"full model must show the cliff: {measured}"
    assert ablated[1] - ablated[16] < 0.1, f"ablated model must be flat: {measured}"


def test_coupling_and_the_data_pattern_gap():
    """Removing coupling must not widen the Fig. 18 gap (Obs. 16)."""
    with_coupling = _pattern_gap(_module())
    without = _pattern_gap(_module(coupling_noise_sigma=0.0, op_coupling_flip_z=0.0))
    assert with_coupling > without - 0.005, (
        f"all-1s/0s minus random gap {with_coupling * 100:+.2f} pp with "
        f"coupling, {without * 100:+.2f} pp without"
    )


def test_overdrive_loss_carries_or_beating_and():
    """No common-mode overdrive loss -> OR no longer beats AND (Obs. 12)."""
    asymmetric = _or_minus_and(_module())
    flat = _or_minus_and(
        _module(
            common_mode_noise_gain=0.0,
            common_mode_offset_gain=0.0,
            low_common_mode_offset_gain=0.0,
        )
    )
    assert asymmetric > flat + 0.01, (
        f"OR minus AND {asymmetric * 100:+.2f} pp with overdrive loss, "
        f"{flat * 100:+.2f} pp without"
    )


def test_calibrated_decoder_carries_fig5_coverage():
    """The calibrated decoder, not the circuit hypothesis, fits Fig. 5."""
    paper = {
        f"{n}:{n if kind is ActivationKind.N_TO_N else 2 * n}": p
        for (n, kind), p in FIG5_COVERAGE.items()
    }

    def distance(coverage: dict) -> float:
        return sum(
            abs(coverage.get(label, 0.0) - value) for label, value in paper.items()
        )

    calibrated = distance(_coverage("calibrated"))
    hierarchical = distance(_coverage("hierarchical"))
    assert calibrated < hierarchical, (
        f"L1 distance to Fig. 5: calibrated {calibrated:.3f}, "
        f"hierarchical {hierarchical:.3f}"
    )
