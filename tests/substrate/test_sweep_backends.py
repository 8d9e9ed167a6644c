"""Backend selection at the sweep level.

Pins the seams the figure drivers rely on: ``Scale.with_backend``
validation, checkpoint-fingerprint separation between backends, the
surrogate's serial/pooled interchangeability (the same bit-identity
law the analog engine obeys), registered backends standing in for
parsed specs, and a finished sweep of either engine re-served from its
checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.experiments.base import (
    LogicVariant,
    NotVariant,
    logic_sweep,
    not_sweep,
)
from repro.characterization.resilience import Resilience, sweep_fingerprint
from repro.characterization.runner import SMOKE, iter_descriptors
from repro.dram.config import Manufacturer
from repro.errors import ConfigurationError
from repro.substrate import register_backend, unregister_backend

NOT_VARIANTS = (NotVariant(1), NotVariant(2))
LOGIC_VARIANTS = (LogicVariant("and", 2), LogicVariant("or", 2))


def assert_groups_identical(serial, parallel):
    """Bit-for-bit equality of two GroupSamples mappings."""
    assert sorted(serial) == sorted(parallel)
    for label in serial:
        a = serial[label].values()
        b = parallel[label].values()
        assert a.shape == b.shape, label
        assert np.array_equal(a, b), label


class TestScaleBackend:
    def test_default_backend_is_analog(self):
        assert SMOKE.backend == "analog"

    def test_with_backend_returns_a_new_scale(self):
        scale = SMOKE.with_backend("surrogate:table.json")
        assert scale.backend == "surrogate:table.json"
        assert scale.trials == SMOKE.trials
        assert SMOKE.backend == "analog"

    def test_empty_backend_rejected(self):
        with pytest.raises(ValueError):
            SMOKE.with_backend("")

    def test_backend_splits_the_checkpoint_fingerprint(self, surrogate_path):
        # Different backends measure different things; a checkpoint
        # recorded under one must not resume under the other.
        descriptors = iter_descriptors(SMOKE)
        fingerprints = {
            sweep_fingerprint("work", scale, 0, descriptors, None)
            for scale in (
                SMOKE,
                SMOKE.with_backend(f"surrogate:{surrogate_path}"),
                SMOKE.with_backend(f"surrogate:{surrogate_path}.copy"),
            )
        }
        assert len(fingerprints) == 3


class TestSurrogateSweeps:
    def test_not_sweep_serial_pooled_batched_identical(self, surrogate_path):
        scale = SMOKE.with_backend(f"surrogate:{surrogate_path}")
        serial = not_sweep(scale, 0, NOT_VARIANTS)
        pooled = not_sweep(scale, 0, NOT_VARIANTS, jobs=2)
        assert_groups_identical(serial, pooled)

    def test_logic_sweep_serial_vs_pooled_identical(self, surrogate_path):
        scale = SMOKE.with_backend(f"surrogate:{surrogate_path}")
        serial = logic_sweep(scale, 0, LOGIC_VARIANTS)
        pooled = logic_sweep(scale, 0, LOGIC_VARIANTS, jobs=2)
        assert_groups_identical(serial, pooled)

    def test_surrogate_sweep_covers_the_analog_group_labels(
        self, surrogate_path
    ):
        analog = not_sweep(SMOKE, 0, NOT_VARIANTS)
        surrogate = not_sweep(
            SMOKE.with_backend(f"surrogate:{surrogate_path}"), 0, NOT_VARIANTS
        )
        assert sorted(surrogate) == sorted(analog)

    def test_surrogate_actually_replaces_the_analog_draws(
        self, surrogate_path
    ):
        # Same seed, different engines: the per-cell rate vectors must
        # come from different random streams, not silently fall back to
        # the analog path.
        analog = not_sweep(SMOKE, 0, NOT_VARIANTS)
        surrogate = not_sweep(
            SMOKE.with_backend(f"surrogate:{surrogate_path}"), 0, NOT_VARIANTS
        )
        assert any(
            not np.array_equal(analog[label].values(), surrogate[label].values())
            for label in analog
        )

    def test_registered_instance_backend_runs_a_sweep(
        self, fitted_table, surrogate_path
    ):
        # A backend registered as an in-process instance (jobs=1 only —
        # instances don't cross pool boundaries) must behave exactly
        # like the same table resolved from its spec string.
        from repro.substrate import SurrogateBackend

        backend = SurrogateBackend(fitted_table)
        spec = register_backend("sweep-test-surrogate", backend)
        try:
            registered = not_sweep(
                SMOKE.with_backend(spec), 0, NOT_VARIANTS, jobs=1
            )
        finally:
            unregister_backend(spec)
        from_path = not_sweep(
            SMOKE.with_backend(f"surrogate:{surrogate_path}"), 0, NOT_VARIANTS
        )
        assert_groups_identical(registered, from_path)


def _checkpointed(directory, resume=False):
    resilience = Resilience(checkpoint_dir=str(directory), resume=resume)
    resilience.begin_experiment("reserve")
    return resilience


SWEEPS = {
    "not": lambda scale, seed, resilience: not_sweep(
        scale, seed, NOT_VARIANTS, resilience=resilience
    ),
    "logic": lambda scale, seed, resilience: logic_sweep(
        scale, seed, LOGIC_VARIANTS, resilience=resilience
    ),
}


class TestCheckpointResume:
    """A finished sweep is re-served from its checkpoint: ``--resume``
    measures nothing and hands back the first run's samples."""

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @pytest.mark.parametrize("engine", ["analog", "surrogate"])
    def test_resume_reserves_the_finished_sweep(
        self, tmp_path, surrogate_path, engine, sweep
    ):
        spec = "analog" if engine == "analog" else f"surrogate:{surrogate_path}"
        scale = SMOKE.with_backend(spec)
        run = SWEEPS[sweep]
        first = _checkpointed(tmp_path)
        recorded = run(scale, 0, first)
        resumed = _checkpointed(tmp_path, resume=True)
        reserved = run(scale, 0, resumed)
        assert_groups_identical(recorded, reserved)
        assert_groups_identical(run(scale, 0, None), reserved)
        assert resumed.health.attempts == 0
        assert resumed.health.resumed_targets == first.health.completed_targets
        assert resumed.health.resumed_targets > 0

    def test_pooled_resume_reserves_a_serial_checkpoint(
        self, tmp_path, surrogate_path
    ):
        scale = SMOKE.with_backend(f"surrogate:{surrogate_path}")
        recorded = not_sweep(
            scale, 0, NOT_VARIANTS, resilience=_checkpointed(tmp_path)
        )
        resumed = _checkpointed(tmp_path, resume=True)
        reserved = not_sweep(scale, 0, NOT_VARIANTS, jobs=2, resilience=resumed)
        assert_groups_identical(recorded, reserved)
        assert resumed.health.attempts == 0

    @pytest.mark.parametrize(
        "change",
        ["backend", "trials", "seed", "variants", "temperatures", "fleet"],
    )
    def test_checkpoint_of_another_sweep_is_refused(
        self, tmp_path, surrogate_path, change
    ):
        # Every input that moves the samples keys the checkpoint; a
        # resume under any other must refuse, not serve stale numbers.
        not_sweep(SMOKE, 0, NOT_VARIANTS, resilience=_checkpointed(tmp_path))
        scale, seed, variants, options = SMOKE, 0, NOT_VARIANTS, {}
        if change == "backend":
            scale = SMOKE.with_backend(f"surrogate:{surrogate_path}")
        elif change == "trials":
            scale = SMOKE.with_trials(SMOKE.trials + 1)
        elif change == "seed":
            seed = 1
        elif change == "variants":
            variants = NOT_VARIANTS + (NotVariant(4),)
        elif change == "temperatures":
            options = {"temperatures": (50.0, 70.0)}
        else:
            options = {"manufacturers": [Manufacturer.SK_HYNIX]}
        with pytest.raises(ConfigurationError, match="different sweep"):
            not_sweep(
                scale,
                seed,
                variants,
                resilience=_checkpointed(tmp_path, resume=True),
                **options,
            )


class TestCli:
    def test_surrogate_run_is_reserved_on_resume(
        self, capsys, tmp_path, surrogate_path
    ):
        from repro.characterization.__main__ import main

        smoke = ["fig7", "--scale", "smoke"]
        assert main(smoke) == 0
        analog_table = capsys.readouterr().out.split("\n\n")[0]
        argv = [
            *smoke,
            "--backend",
            "surrogate",
            "--surrogate-table",
            surrogate_path,
            "--checkpoint-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out.split("\n\n")[0]
        assert main([*argv, "--resume"]) == 0
        second = capsys.readouterr().out
        assert table != analog_table
        assert second.split("\n\n")[0] == table
        assert "9/9 completed, 9 resumed from checkpoint" in second
        assert "attempts: 0 (0 retries)" in second
