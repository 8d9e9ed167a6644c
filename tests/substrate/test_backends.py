"""Tests for the SubstrateBackend protocol, spec parsing, and the
analog reference backend's delegation."""

import doctest

import numpy as np
import pytest

from repro.characterization.runner import SMOKE, find_not_measurement, iter_targets
from repro.core.success import LogicSuccessMeasurement, NotSuccessMeasurement
from repro.errors import SubstrateError, SurrogateTableError
from repro.substrate import (
    AnalogBackend,
    SubstrateBackend,
    SurrogateBackend,
    SurrogateTable,
    distance_label,
    register_backend,
    reset_backend_cache,
    resolve_backend,
    unregister_backend,
)


def first_simultaneous_target(seed=0):
    """The first smoke-fleet target that can run simultaneous logic."""
    for target in iter_targets(SMOKE, seed):
        if target.supports_simultaneous:
            return target
    raise AssertionError("smoke fleet has no simultaneous-capable target")


class TestSpecParsing:
    def test_analog_resolves(self):
        assert isinstance(resolve_backend("analog"), AnalogBackend)

    def test_resolution_is_cached_per_spec(self):
        assert resolve_backend("analog") is resolve_backend("analog")

    def test_reset_cache_gives_fresh_instances(self):
        first = resolve_backend("analog")
        reset_backend_cache()
        assert resolve_backend("analog") is not first

    def test_instances_pass_through(self):
        backend = AnalogBackend()
        assert resolve_backend(backend) is backend

    def test_surrogate_missing_file(self, tmp_path):
        with pytest.raises(SurrogateTableError):
            resolve_backend(f"surrogate:{tmp_path}/missing.json")

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "bogus",
            "bogus:path",
            "surrogate",
            "surrogate:",
            "trace-verify",
            "trace-record:t.json",
            "trace-replay:t.json",
        ],
    )
    def test_unknown_specs_rejected(self, spec):
        with pytest.raises(SubstrateError, match="unknown backend spec"):
            resolve_backend(spec)

    def test_unknown_spec_error_names_the_two_engines(self):
        with pytest.raises(SubstrateError) as error:
            resolve_backend("bogus")
        assert "expected 'analog' or 'surrogate:PATH'" in str(error.value)

    def test_surrogate_spec_serves_its_table(self, fitted_table, surrogate_path):
        spec = f"surrogate:{surrogate_path}"
        backend = resolve_backend(spec)
        assert isinstance(backend, SurrogateBackend)
        assert resolve_backend(spec) is backend
        assert backend.probability("and", 2) == fitted_table.probability(
            "*", "and", 2, 50.0
        )

    def test_reset_cache_reloads_a_rewritten_table(self, fitted_table, tmp_path):
        path = tmp_path / "table.json"
        fitted_table.save(str(path))
        spec = f"surrogate:{path}"
        assert resolve_backend(spec).probability("and", 2) is not None
        SurrogateTable().save(str(path))
        assert resolve_backend(spec).probability("and", 2) is not None
        reset_backend_cache()
        assert resolve_backend(spec).probability("and", 2) is None

    def test_non_string_spec_rejected(self):
        with pytest.raises(SubstrateError):
            resolve_backend(42)

    def test_registry_wins_over_parsing(self):
        backend = AnalogBackend()
        spec = register_backend("test-double", backend)
        try:
            assert resolve_backend(spec) is backend
        finally:
            unregister_backend(spec)
        with pytest.raises(SubstrateError):
            resolve_backend("test-double")

    def test_unregister_is_idempotent(self):
        unregister_backend("never-registered")


class TestDistanceLabels:
    def test_module_doctests(self):
        import repro.substrate.base as base

        results = doctest.testmod(base)
        assert results.failed == 0
        assert results.attempted >= 2

    def test_region_pairs(self):
        assert distance_label(None) == "any"
        assert distance_label((0, 0)) == "close-close"
        assert distance_label((2, 0)) == "far-close"
        assert distance_label((1, 2)) == "middle-far"


class TestProtocolDefaults:
    def test_probability_defaults_to_none(self):
        assert AnalogBackend().probability("and", 2) is None

    def test_abstract_backend_cannot_instantiate(self):
        with pytest.raises(TypeError):
            SubstrateBackend()


class TestAnalogDelegation:
    def test_not_measurement_at_is_the_reference_class(self, ideal_host):
        backend = AnalogBackend()
        from repro.core.addressing import find_pattern_pair
        from repro.dram.decoder import ActivationKind

        src, dst = find_pattern_pair(
            ideal_host.module.decoder,
            ideal_host.module.config.geometry,
            0, 0, 1, 1, ActivationKind.N_TO_N, seed=0,
        )
        measurement = backend.not_measurement_at(ideal_host, 0, src, dst)
        assert isinstance(measurement, NotSuccessMeasurement)

    def test_logic_measurement_at_is_the_reference_class(self, ideal_host):
        backend = AnalogBackend()
        from repro.core.addressing import find_pattern_pair
        from repro.dram.decoder import ActivationKind

        ref, com = find_pattern_pair(
            ideal_host.module.decoder,
            ideal_host.module.config.geometry,
            0, 2, 3, 4, ActivationKind.N_TO_N, seed=0,
        )
        measurement = backend.logic_measurement_at(ideal_host, 0, ref, com)
        assert isinstance(measurement, LogicSuccessMeasurement)

    def test_find_matches_direct_runner_call_bit_identically(self):
        # Same fleet coordinates, same pair seeds: the backend facade
        # must reproduce the pre-substrate code path exactly.
        target_a = first_simultaneous_target()
        via_backend = AnalogBackend().find_not_measurement(target_a, 2)
        counts_a = via_backend.run(20, np.random.default_rng(9)).success_counts

        target_b = first_simultaneous_target()
        direct = find_not_measurement(target_b, 2)
        counts_b = direct.run(20, np.random.default_rng(9)).success_counts
        assert np.array_equal(counts_a, counts_b)

    def test_region_constraint_translates_to_predicate(self):
        target = first_simultaneous_target()
        measurement = AnalogBackend().find_not_measurement(
            target, 1, regions=(1, 2)
        )
        if measurement is None:
            pytest.skip("no middle-far pair on this target")
        bank = target.module.chips[0].bank(target.bank)
        assert bank.pattern_regions(measurement.pattern) == (1, 2)
