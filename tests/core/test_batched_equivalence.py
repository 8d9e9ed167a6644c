"""Trial engine vs golden counts recorded from a serial per-trial loop.

``data/golden_trial_counts.json`` holds what a serial per-trial loop
(one program per trial on :class:`~repro.dram.bank.Bank`) measured for
every case in :data:`CASES` — per-cell success counts of NOT, AND/NAND
and OR/NOR, under fault injection, at an odd row width, with lanes
split across two chips and at 70 °C — and the group statistics of the
figures in :data:`FIGURES`.  The trial engine must reproduce every
count exactly, for every block partition: nine one-trial blocks,
``[7, 2]`` and one block.

Running this file as a script re-records the fixture; with the engine
unchanged it rewrites the file byte for byte::

    PYTHONPATH=src python tests/core/test_batched_equivalence.py
"""

import dataclasses
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro import ChipGeometry, SeedTree, sk_hynix_chip
from repro.bender import DramBenderHost
from repro.characterization import Resilience, RetryPolicy, run_experiment
from repro.characterization.runner import (
    DEFAULT,
    FULL,
    SMOKE,
    find_logic_measurement,
    find_not_measurement,
    iter_descriptors,
    iter_targets,
    materialize_targets,
)
from repro.core import success
from repro.core.addressing import find_pattern_pair
from repro.core.success import (
    MAX_TRIAL_BLOCK,
    LogicSuccessMeasurement,
    NotSuccessMeasurement,
    _trial_blocks,
)
from repro.dram.batch import BatchedBank
from repro.dram.calibration import calibration_for
from repro.dram.module import Module
from repro.faults import FaultPlan

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trial_counts.json"

TRIALS = 9

#: Block caps every count case runs under: nine one-trial blocks, a
#: block of seven and a ragged block of two, and one whole block.
BLOCK_CAPS = (1, 7, 1024)

#: Cell-level faults active during the fault-injected runs.
CELL_FAULT_PLAN = FaultPlan(seed=2, stuck_row_rate=0.05, flaky_read_rate=0.1)


def _not_counts(seed, n_destination, faults=None):
    descriptors = iter_descriptors(SMOKE)
    for target in materialize_targets(descriptors, SMOKE, seed, faults=faults):
        measurement = find_not_measurement(target, n_destination)
        if measurement is None:
            continue
        result = measurement.run(TRIALS, np.random.default_rng(seed))
        return result.success_counts
    return None


def _logic_counts(seed, base_op, n_inputs, faults=None):
    descriptors = iter_descriptors(SMOKE)
    for target in materialize_targets(descriptors, SMOKE, seed, faults=faults):
        measurement = find_logic_measurement(target, base_op, n_inputs)
        if measurement is None:
            continue
        pair = measurement.run(TRIALS, np.random.default_rng(seed))
        # Primary and complement cover AND+NAND (or OR+NOR) at once.
        return pair.primary.success_counts, pair.complement.success_counts
    return None


def _constant_pattern_counts(mode, ones_count):
    for target in iter_targets(SMOKE, seed=1):
        measurement = find_logic_measurement(target, "and", 4)
        if measurement is None:
            continue
        pair = measurement.run(
            TRIALS, np.random.default_rng(1), mode=mode, ones_count=ones_count
        )
        return pair.primary.success_counts, pair.complement.success_counts
    return None


#: One chip of 34 columns.  SMOKE and DEFAULT module rows (32 and 128
#: bits) are multiples of four, so only a row like this one makes the
#: bulk operand draw pad its rows.
ODD_WIDTH_CONFIG = sk_hynix_chip().with_geometry(
    ChipGeometry(banks=1, subarrays_per_bank=2, rows_per_subarray=64, columns=34)
)

#: One stuck column in every row: a cell's count then depends on the
#: operand bits themselves, so a misaligned draw changes the counts.
STUCK_CELL_PLAN = FaultPlan(seed=2, stuck_row_rate=1.0)


def _odd_width_host():
    module = Module(ODD_WIDTH_CONFIG, chip_count=1, seed_tree=SeedTree(5))
    return DramBenderHost(module, fault_injector=STUCK_CELL_PLAN.injector("odd-width"))


#: SMOKE's geometry on two chips, like the DEFAULT fleet's modules.  The
#: glitch engages in 70% of trials, so a block's lanes split: each chip's
#: bank splits on its own trials' draws and runs the lanes that index
#: with trial arrays instead of the whole-block slice.
SPLIT_CONFIG = sk_hynix_chip().with_geometry(SMOKE.geometry)
SPLIT_CALIBRATION = dataclasses.replace(
    calibration_for(SPLIT_CONFIG),
    op_engage_probability={2: 0.7, 4: 0.7, 8: 0.7, 16: 0.7},
    not_engage_probability=0.7,
)


def _split_host():
    module = Module(
        SPLIT_CONFIG, chip_count=2, seed_tree=SeedTree(9),
        calibration=SPLIT_CALIBRATION,
    )
    return DramBenderHost(module)


#: One chip at 70 °C, the only NOT counts here away from the 50 °C
#: baseline (fig10 is not among :data:`FIGURES`).  At this temperature
#: the case's counts differ from the baseline's.
HOT_CONFIG = sk_hynix_chip().with_geometry(
    ChipGeometry(banks=2, subarrays_per_bank=4, rows_per_subarray=192, columns=64)
)


def _hot_host(temperature_c=70.0):
    module = Module(HOT_CONFIG, chip_count=1, seed_tree=SeedTree(7))
    module.temperature_c = temperature_c
    return DramBenderHost(module)


def _host_pair(make_host, n):
    host = make_host()
    geometry = host.module.config.geometry
    return host, find_pattern_pair(host.module.decoder, geometry, 0, 0, 1, n, seed=n)


def _host_not_counts(make_host, n_destination):
    host, pair = _host_pair(make_host, n_destination)
    result = NotSuccessMeasurement(host, 0, *pair).run(
        TRIALS, np.random.default_rng(6)
    )
    return result.success_counts


def _host_logic_counts(make_host, base_op, n_inputs):
    host, pair = _host_pair(make_host, n_inputs)
    measurement = LogicSuccessMeasurement(host, 0, *pair, base_op=base_op)
    pair = measurement.run(TRIALS, np.random.default_rng(8), mode="random")
    return pair.primary.success_counts, pair.complement.success_counts


def _count_cases():
    cases = {}
    for seed in (0, 3):
        for n in (2, 4, 8, 16):
            cases[f"not/seed={seed}/n={n}"] = partial(_not_counts, seed, n)
            for op in ("and", "or"):
                cases[f"{op}/seed={seed}/n={n}"] = partial(_logic_counts, seed, op, n)
        cases[f"not/seed={seed}/n=2/cell-faults"] = partial(
            _not_counts, seed, 2, faults=CELL_FAULT_PLAN
        )
    for op in ("and", "or"):
        cases[f"{op}/seed=0/n=4/cell-faults"] = partial(
            _logic_counts, 0, op, 4, faults=CELL_FAULT_PLAN
        )
    cases["and/n=4/all01"] = partial(_constant_pattern_counts, "all01", None)
    cases["and/n=4/ones_count=2"] = partial(_constant_pattern_counts, "ones_count", 2)
    for prefix, make_host, not_fan_ins, logic_fan_ins in (
        ("odd-width", _odd_width_host, (4, 8), (2, 8)),
        ("two-chip", _split_host, (4, 16), (2, 16)),
    ):
        for n in not_fan_ins:
            cases[f"{prefix}/not/n={n}"] = partial(_host_not_counts, make_host, n)
        for n in logic_fan_ins:
            for op in ("and", "or"):
                cases[f"{prefix}/{op}/n={n}"] = partial(
                    _host_logic_counts, make_host, op, n
                )
    cases["70C/not/n=2"] = partial(_host_not_counts, _hot_host, 2)
    return cases


#: Per-cell count cases: fixture key -> callable measuring the counts
#: (``None`` when no target supports the case).
CASES = _count_cases()

#: Figure-level cases: fixture key -> (experiment id, scale, fault plan).
#: fig9 and fig19 are the repository benchmark's figures, on two-chip
#: modules like the DEFAULT fleet it sweeps.
FIGURES = {
    "fig15": ("fig15", SMOKE, None),
    "fig7/host-timeouts": ("fig7", SMOKE, FaultPlan(seed=1, host_timeout_rate=2e-3)),
    "fig9/two-chip": ("fig9", dataclasses.replace(SMOKE, chips_per_module=2), None),
    "fig19/two-chip": ("fig19", dataclasses.replace(SMOKE, chips_per_module=2), None),
}


def _encode_counts(counts):
    if counts is None:
        return None
    if isinstance(counts, np.ndarray):
        return counts.tolist()
    primary, complement = counts
    return {"primary": primary.tolist(), "complement": complement.tolist()}


def _run_figure(key):
    experiment, scale, plan = FIGURES[key]
    resilience = (
        Resilience(faults=plan, retry=RetryPolicy(backoff_s=0.0)) if plan else None
    )
    return run_experiment(experiment, scale=scale, seed=0, resilience=resilience)


def _figure_payload(result):
    """Group statistics with floats as exact hex strings, plus notes."""
    groups = {
        label: {
            name: value.hex() if isinstance(value, float) else value
            for name, value in dataclasses.asdict(stats).items()
        }
        for label, stats in result.groups.items()
    }
    return {"groups": groups, "notes": list(result.notes)}


def golden_payload():
    """Every golden case, measured."""
    return {
        "trials": TRIALS,
        "counts": {key: _encode_counts(case()) for key, case in CASES.items()},
        "figures": {key: _figure_payload(_run_figure(key)) for key in FIGURES},
    }


def format_golden(value, indent=0):
    """JSON text with one key per line down to the innermost objects;
    lists and objects of plain values stay on one line."""
    if not isinstance(value, dict) or not any(
        isinstance(item, dict) for item in value.values()
    ):
        return json.dumps(value, sort_keys=True)
    pad = " " * (indent + 1)
    items = ",\n".join(
        f"{pad}{json.dumps(key)}: {format_golden(item, indent + 1)}"
        for key, item in sorted(value.items())
    )
    return "{\n" + items + "\n" + " " * indent + "}"


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.fixture
def matches_golden(monkeypatch):
    """``check(key)``: case ``key`` reproduces its golden counts under
    every block cap in :data:`BLOCK_CAPS`; skips a case the fixture
    records as unsupported (``null``) once that still holds."""

    def check(key):
        golden = GOLDEN["counts"][key]
        for cap in BLOCK_CAPS:
            monkeypatch.setattr(success, "MAX_TRIAL_BLOCK", cap)
            assert _encode_counts(CASES[key]()) == golden, (
                f"{key} diverged from the serial engine at block cap {cap}"
            )
        if golden is None:
            pytest.skip(f"{key}: no target supports this case")

    return check


class TestGoldenFixture:
    def test_fixture_covers_exactly_the_cases(self):
        assert GOLDEN["trials"] == TRIALS
        assert sorted(GOLDEN["counts"]) == sorted(CASES)
        assert sorted(GOLDEN["figures"]) == sorted(FIGURES)

    def test_fixture_is_in_canonical_form(self):
        # With every case matching, this makes re-recording rewrite
        # the file byte for byte.
        assert GOLDEN_PATH.read_text() == format_golden(GOLDEN) + "\n"


class TestNotEquivalence:
    @pytest.mark.parametrize("n_destination", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_counts_identical(self, n_destination, seed, matches_golden):
        matches_golden(f"not/seed={seed}/n={n_destination}")

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_counts_identical_under_faults(self, seed, matches_golden):
        assert GOLDEN["counts"][f"not/seed={seed}/n=2/cell-faults"] is not None
        matches_golden(f"not/seed={seed}/n=2/cell-faults")


class TestLogicEquivalence:
    @pytest.mark.parametrize("base_op", ["and", "or"])
    @pytest.mark.parametrize("n_inputs", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_pair_identical(self, base_op, n_inputs, seed, matches_golden):
        matches_golden(f"{base_op}/seed={seed}/n={n_inputs}")

    @pytest.mark.parametrize("base_op", ["and", "or"])
    def test_batched_pair_identical_under_faults(self, base_op, matches_golden):
        assert GOLDEN["counts"][f"{base_op}/seed=0/n=4/cell-faults"] is not None
        matches_golden(f"{base_op}/seed=0/n=4/cell-faults")

    @pytest.mark.parametrize("mode,ones_count", [("all01", None), ("ones_count", 2)])
    def test_constant_pattern_modes_identical(self, mode, ones_count, matches_golden):
        key = "and/n=4/all01" if mode == "all01" else f"and/n=4/ones_count={ones_count}"
        assert GOLDEN["counts"][key] is not None
        matches_golden(key)


class TestPaddedOperandDraws:
    def test_row_width_is_not_a_multiple_of_four(self):
        assert _odd_width_host().module.row_bits % 4

    def test_bulk_rows_equal_successive_rows(self):
        host = _odd_width_host()
        serial, bulk = np.random.default_rng(4), np.random.default_rng(4)
        rows = np.stack([host.random_bits(serial) for _ in range(3 * 5)])
        assert np.array_equal(host.random_bits(bulk, shape=(3, 5)), rows.reshape(3, 5, -1))
        # Both generators end in the same state.
        assert serial.integers(1 << 40) == bulk.integers(1 << 40)

    @pytest.mark.parametrize("n_destination", [4, 8])
    def test_not_counts_identical(self, n_destination, matches_golden):
        matches_golden(f"odd-width/not/n={n_destination}")

    @pytest.mark.parametrize("base_op", ["and", "or"])
    @pytest.mark.parametrize("n_inputs", [2, 8])
    def test_random_logic_counts_identical(self, base_op, n_inputs, matches_golden):
        matches_golden(f"odd-width/{base_op}/n={n_inputs}")


class TestSplitLanesAcrossChips:
    @pytest.fixture
    def splits(self, monkeypatch):
        """Counts the lane splits of every batched bank."""
        calls = []
        split = BatchedBank._split_lane

        def counting(bank, lane, keep):
            calls.append(lane.trials.size)
            return split(bank, lane, keep)

        monkeypatch.setattr(BatchedBank, "_split_lane", counting)
        return calls

    def test_module_has_two_chips(self):
        assert len(_split_host().module.chips) == 2

    @pytest.mark.parametrize("n_destination", [4, 16])
    def test_not_counts_identical(self, n_destination, splits, matches_golden):
        matches_golden(f"two-chip/not/n={n_destination}")
        assert splits

    @pytest.mark.parametrize("base_op", ["and", "or"])
    @pytest.mark.parametrize("n_inputs", [2, 16])
    def test_random_logic_counts_identical(
        self, base_op, n_inputs, splits, matches_golden
    ):
        matches_golden(f"two-chip/{base_op}/n={n_inputs}")
        assert splits


class TestTemperature:
    def test_not_counts_at_70c_identical(self, matches_golden):
        matches_golden("70C/not/n=2")

    def test_70c_counts_differ_from_the_baseline(self):
        baseline = _host_not_counts(partial(_hot_host, 50.0), 2)
        assert baseline.tolist() != GOLDEN["counts"]["70C/not/n=2"]


class TestSweepEquivalence:
    def _stats(self, result):
        return {label: stats.__dict__ for label, stats in result.groups.items()}

    def test_experiment_batched_vs_serial_engine(self):
        result = _run_figure("fig15")
        assert _figure_payload(result) == GOLDEN["figures"]["fig15"]

    def test_experiment_batched_vs_serial_under_faults(self):
        result = _run_figure("fig7/host-timeouts")
        assert _figure_payload(result) == GOLDEN["figures"]["fig7/host-timeouts"]

    @pytest.mark.parametrize("key", ["fig9/two-chip", "fig19/two-chip"])
    def test_benchmark_figures_on_two_chip_modules(self, key):
        assert _figure_payload(_run_figure(key)) == GOLDEN["figures"][key]

    def test_batched_engine_identical_across_job_counts(self):
        serial_exec = run_experiment("fig7", scale=SMOKE, seed=0)
        pooled = run_experiment("fig7", scale=SMOKE, seed=0, jobs=2)
        assert self._stats(serial_exec) == self._stats(pooled)


class TestTrialBlocks:
    def test_auto_batches_whole_run(self):
        assert _trial_blocks(600) == [600]
        assert _trial_blocks(MAX_TRIAL_BLOCK + 1) == [MAX_TRIAL_BLOCK, 1]

    def test_explicit_block_size_is_ragged(self, monkeypatch):
        monkeypatch.setattr(success, "MAX_TRIAL_BLOCK", 7)
        assert _trial_blocks(9) == [7, 2]
        assert _trial_blocks(7) == [7]
        assert _trial_blocks(1) == [1]

    def test_negative_rejected(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                _trial_blocks(trials)

    def test_scale_rejects_negative(self):
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                SMOKE.with_trials(trials)
        assert SMOKE.with_trials(1).trials == 1


class TestScalePresets:
    def test_preset_trial_counts_match_documentation(self):
        # The repro.core.success module docstring cites these counts;
        # keep text and presets in lock-step.
        assert SMOKE.trials == 40
        assert DEFAULT.trials == 150
        assert FULL.trials == 600


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(format_golden(golden_payload()) + "\n")
    print(f"wrote {GOLDEN_PATH}")
