"""Tests for the success-rate measurement machinery.

Measurement construction goes through the ``backend`` fixture (the
analog :class:`~repro.substrate.SubstrateBackend`), so every run-level
assertion here also pins the substrate interface.  Tests that reach
into analog-only internals (``.operation``, operand drawing) construct
measurements directly instead.
"""

import numpy as np
import pytest

from repro.core.addressing import find_pattern_pair
from repro.core.success import (
    LogicSuccessMeasurement,
    NotSuccessMeasurement,
    SuccessResult,
)
from repro.dram.decoder import ActivationKind


def not_pair(host, n=1, seed=0):
    return find_pattern_pair(
        host.module.decoder,
        host.module.config.geometry,
        0, 0, 1, n, ActivationKind.N_TO_N, seed=seed,
    )


def logic_pair(host, n=4, seed=0):
    return find_pattern_pair(
        host.module.decoder,
        host.module.config.geometry,
        0, 2, 3, n, ActivationKind.N_TO_N, seed=seed,
    )


def not_measurement(host, backend, n=1, seed=0):
    src, dst = not_pair(host, n=n, seed=seed)
    return backend.not_measurement_at(host, 0, src, dst)


def logic_measurement(host, backend, base_op="and", n=4, seed=0):
    ref, com = logic_pair(host, n=n, seed=seed)
    return backend.logic_measurement_at(host, 0, ref, com, base_op=base_op)


class TestSuccessResult:
    def test_rates_and_mean(self):
        result = SuccessResult(np.array([[5, 10], [0, 10]]), trials=10)
        assert result.rates.tolist() == [[0.5, 1.0], [0.0, 1.0]]
        assert result.mean_rate == pytest.approx(0.625)
        assert result.flat_rates().shape == (4,)

    def test_zero_trials_rejected(self):
        result = SuccessResult(np.zeros((1, 1)), trials=0)
        with pytest.raises(ValueError):
            _ = result.rates


class TestNotSuccess:
    def test_ideal_chip_is_perfect(self, ideal_host, backend):
        measurement = not_measurement(ideal_host, backend)
        result = measurement.run(20, np.random.default_rng(0))
        assert result.mean_rate == 1.0
        assert result.metadata["operation"] == "not"
        assert result.metadata["n_destination_rows"] == 1

    def test_counts_shape(self, ideal_host, backend):
        measurement = not_measurement(ideal_host, backend, n=4, seed=4)
        result = measurement.run(5, np.random.default_rng(0))
        assert measurement.n_destination_rows == 4
        assert result.success_counts.shape[0] == 4
        assert result.trials == 5

    def test_shared_column_count(self, ideal_host):
        src, dst = not_pair(ideal_host, n=4, seed=4)
        measurement = NotSuccessMeasurement(ideal_host, 0, src, dst)
        result = measurement.run(5, np.random.default_rng(0))
        shared = measurement.operation.shared_columns.size
        assert result.success_counts.shape == (4, shared)

    def test_real_chip_single_destination_high(self, real_host, backend):
        measurement = not_measurement(real_host, backend)
        result = measurement.run(120, np.random.default_rng(1))
        assert 0.80 < result.mean_rate <= 1.0

    def test_real_chip_degrades_with_destinations(self, real_host, backend):
        few = not_measurement(real_host, backend, n=1).run(
            100, np.random.default_rng(2)
        )
        many = not_measurement(real_host, backend, n=16, seed=16).run(
            100, np.random.default_rng(2)
        )
        assert many.mean_rate < few.mean_rate

    def test_deterministic_given_rng(self, real_host, real_module, backend):
        a = not_measurement(real_host, backend).run(30, np.random.default_rng(7))
        # Fresh module, same seeds -> identical counts.
        from repro import SeedTree
        from repro.bender import DramBenderHost
        from repro.dram.module import Module

        module = Module(
            real_module.config, chip_count=1, seed_tree=SeedTree(7)
        )
        host = DramBenderHost(module)
        b = not_measurement(host, backend).run(30, np.random.default_rng(7))
        assert np.array_equal(a.success_counts, b.success_counts)

    def test_rejects_zero_trials(self, ideal_host, backend):
        with pytest.raises(ValueError):
            not_measurement(ideal_host, backend).run(0, np.random.default_rng(0))


class TestLogicSuccess:
    def test_ideal_chip_is_perfect_both_terminals(self, ideal_host, backend):
        measurement = logic_measurement(ideal_host, backend)
        pair = measurement.run(15, np.random.default_rng(0))
        assert pair.primary.mean_rate == 1.0
        assert pair.complement.mean_rate == 1.0
        assert pair.primary.metadata["operation"] == "and"
        assert pair.complement.metadata["operation"] == "nand"

    def test_or_pair_names(self, ideal_host, backend):
        measurement = logic_measurement(ideal_host, backend, base_op="or", seed=1)
        pair = measurement.run(5, np.random.default_rng(0))
        assert pair.primary.metadata["operation"] == "or"
        assert pair.complement.metadata["operation"] == "nor"

    def test_invalid_base_op(self, ideal_host, backend):
        with pytest.raises(ValueError):
            logic_measurement(ideal_host, backend, base_op="nand")

    def test_all01_mode_uses_constant_rows(self, ideal_host):
        ref, com = logic_pair(ideal_host, seed=2)
        measurement = LogicSuccessMeasurement(ideal_host, 0, ref, com)
        operands = measurement._draw_operands(
            np.random.default_rng(0), "all01", None
        )
        for operand in operands:
            assert np.all(operand == operand[0])

    def test_ones_count_mode_exact(self, ideal_host):
        ref, com = logic_pair(ideal_host, seed=3)
        measurement = LogicSuccessMeasurement(ideal_host, 0, ref, com)
        operands = measurement._draw_operands(
            np.random.default_rng(0), "ones_count", 3
        )
        constant_bits = [int(o[0]) for o in operands]
        assert sum(constant_bits) == 3

    def test_ones_count_requires_valid_k(self, ideal_host, backend):
        measurement = logic_measurement(ideal_host, backend, seed=4)
        with pytest.raises(ValueError):
            measurement.run(
                1, np.random.default_rng(0), mode="ones_count", ones_count=99
            )

    def test_unknown_mode(self, ideal_host, backend):
        measurement = logic_measurement(ideal_host, backend, seed=5)
        with pytest.raises(ValueError):
            measurement.run(1, np.random.default_rng(0), mode="sparse")

    def test_real_chip_and_nand_close(self, real_host, backend):
        # Observation 13 at measurement level.
        measurement = logic_measurement(real_host, backend, n=8, seed=6)
        pair = measurement.run(150, np.random.default_rng(1))
        assert pair.primary.mean_rate == pytest.approx(
            pair.complement.mean_rate, abs=0.05
        )

    def test_real_chip_and_worst_pattern_is_harder(self, real_host, backend):
        measurement = logic_measurement(real_host, backend, n=4, seed=7)
        rng = np.random.default_rng(2)
        easy = measurement.run(120, rng, mode="ones_count", ones_count=0)
        rng = np.random.default_rng(2)
        hard = measurement.run(120, rng, mode="ones_count", ones_count=3)
        assert hard.primary.mean_rate < easy.primary.mean_rate
