"""Tests for resilient sweep execution: retry, quarantine, checkpoint/resume.

The contract under test (ISSUE: robustness): a fault-retried or resumed
run must be **bit-identical** to an uninterrupted fault-free run on all
surviving targets — transient faults retry by rebuilding whole module
groups from the seed tree, persistent failures quarantine whole groups,
and checkpoints round-trip records exactly.
"""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.characterization import SMOKE, Resilience, RetryPolicy, run_experiment
from repro.characterization.experiments.base import NotVariant, not_sweep
from repro.characterization.parallel import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    run_group_with_retry,
)
from repro.characterization.resilience import (
    CheckpointStore,
    SweepSession,
    _rates_json,
    sweep_fingerprint,
    work_fingerprint,
)
from repro.characterization.results import QuarantinedTarget, SweepHealth
from repro.characterization.runner import Scale, iter_descriptors
from repro.dram.config import ChipGeometry
from repro.errors import ConfigurationError, TargetQuarantinedError
from repro.faults import FaultPlan

#: A scale whose module groups hold TWO targets each (two subarray
#: pairs per bank), for collateral-quarantine coverage; SMOKE groups are
#: single-target.
PAIRED = Scale(
    name="paired",
    modules_per_spec=1,
    chips_per_module=1,
    banks_per_module=1,
    pairs_per_bank=2,
    trials=10,
    geometry=ChipGeometry(
        banks=1, subarrays_per_bank=4, rows_per_subarray=96, columns=32
    ),
)

#: A transient-fault plan with no permanent failures: retried runs must
#: end bit-identical to fault-free ones (rate tuned so a SMOKE sweep
#: sees a handful of faults, not a blizzard — each target rolls the
#: timeout once per trial per program).
TRANSIENT_PLAN = FaultPlan(seed=1, host_timeout_rate=2e-3)

#: One permanently-dead module on top of the transient noise.
BROKEN_PLAN = FaultPlan(
    seed=1,
    host_timeout_rate=2e-4,
    broken_targets=("hynix-4gb-m-x8-2666[0]",),
)

#: Fast retry for tests: no real sleeping.
FAST_RETRY = RetryPolicy(backoff_s=0.0)


def _stats(result):
    """Comparable (exact) form of an ExperimentResult's groups."""
    return {label: stats.__dict__ for label, stats in result.groups.items()}


@dataclasses.dataclass(frozen=True)
class _CountRowsWork:
    """Trivial picklable work: one record per target."""

    def fingerprint_token(self):
        return "count-rows"

    def __call__(self, target):
        return [(target.spec.name, np.array([float(target.bank)]), target.weight)]


class _InterruptAfter:
    """Work that raises KeyboardInterrupt after ``after`` targets.

    Serial-executor only (carries in-process state).  Shares the plain
    work's checkpoint fingerprint via ``fingerprint_token`` so a later
    resume with :class:`_CountRowsWork` accepts the partial checkpoint.
    """

    def __init__(self, after: int):
        self.after = after
        self.calls = 0

    def fingerprint_token(self):
        return "count-rows"

    def __call__(self, target):
        if self.calls >= self.after:
            raise KeyboardInterrupt()
        self.calls += 1
        return _CountRowsWork()(target)


class TestRetry:
    def test_fault_retried_run_bit_identical_to_fault_free(self):
        baseline = run_experiment("fig7", scale=SMOKE, seed=0)
        res = Resilience(faults=TRANSIENT_PLAN, retry=FAST_RETRY)
        faulted = run_experiment("fig7", scale=SMOKE, seed=0, resilience=res)
        assert faulted.health.retries > 0  # the plan actually fired
        assert faulted.health.quarantined_count == 0
        assert _stats(baseline) == _stats(faulted)

    def test_flaky_target_recovers_within_budget(self):
        plan = FaultPlan(
            flaky_targets=("hynix-4gb-m-x8-2666[0]",), flaky_target_attempts=2
        )
        baseline = run_experiment("fig7", scale=SMOKE, seed=0)
        res = Resilience(faults=plan, retry=FAST_RETRY)
        result = run_experiment("fig7", scale=SMOKE, seed=0, resilience=res)
        assert result.health.quarantined_count == 0
        assert result.health.retries >= 2  # two failed attempts, then ok
        assert _stats(baseline) == _stats(result)

    def test_serial_and_pool_identical_under_faults(self):
        serial = run_experiment(
            "fig7", scale=SMOKE, seed=0,
            resilience=Resilience(faults=BROKEN_PLAN, retry=FAST_RETRY),
        )
        pooled = run_experiment(
            "fig7", scale=SMOKE, seed=0, jobs=2,
            resilience=Resilience(faults=BROKEN_PLAN, retry=FAST_RETRY),
        )
        assert _stats(serial) == _stats(pooled)
        assert (
            [q.label for q in serial.health.quarantined]
            == [q.label for q in pooled.health.quarantined]
        )

    def test_attempt_counting(self):
        res = Resilience(faults=TRANSIENT_PLAN, retry=FAST_RETRY)
        result = run_experiment("fig7", scale=SMOKE, seed=0, resilience=res)
        health = result.health
        # 9 single-target groups at SMOKE; each retry adds one attempt.
        assert health.total_targets == 9
        assert health.completed_targets == 9
        assert health.attempts == 9 + health.retries


class TestQuarantine:
    def test_broken_target_quarantined_exactly(self):
        baseline = run_experiment("fig7", scale=SMOKE, seed=0)
        res = Resilience(faults=BROKEN_PLAN, retry=FAST_RETRY)
        result = run_experiment("fig7", scale=SMOKE, seed=0, resilience=res)
        health = result.health
        assert health.quarantined_count == 1
        bad = health.quarantined[0]
        assert bad.label.startswith("hynix-4gb-m-x8-2666[0]")
        assert not bad.collateral
        assert bad.attempts == FAST_RETRY.max_attempts
        assert "permanently broken" in bad.reason
        assert health.completed_targets == health.total_targets - 1
        # Survivors are bit-identical to the fault-free run wherever the
        # quarantined module does not contribute (32 dst: Samsung and the
        # dead module never contribute at SMOKE... the dead module DOES
        # contribute, so only structural equality is asserted here; exact
        # equality of survivors is pinned at the record level below).
        assert set(result.groups) == set(baseline.groups)

    def test_quarantine_disabled_escalates(self):
        res = Resilience(
            faults=BROKEN_PLAN,
            retry=RetryPolicy(backoff_s=0.0, quarantine=False),
        )
        with pytest.raises(TargetQuarantinedError, match="hynix-4gb-m-x8-2666"):
            run_experiment("fig7", scale=SMOKE, seed=0, resilience=res)

    def test_module_mates_quarantined_as_collateral(self):
        # PAIRED groups hold two targets; breaking pair(0, 1) must take
        # pair(2, 3) of the same module out as collateral.
        plan = FaultPlan(broken_targets=("hynix-4gb-m-x8-2666[0] bank0 pair(0, 1)",))
        descriptors = [
            d for d in iter_descriptors(PAIRED)
            if d.spec_name == "hynix-4gb-m-x8-2666"
        ]
        assert len(descriptors) == 2
        outcome = run_group_with_retry(
            _CountRowsWork(), PAIRED, 0, descriptors, plan, FAST_RETRY
        )
        assert not outcome.records
        assert [q.collateral for q in outcome.quarantined] == [False, True]
        assert "module-mate" in outcome.quarantined[1].reason

    def test_record_level_survivors_identical(self):
        descriptors = iter_descriptors(SMOKE)
        clean = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors
        ).records
        res = Resilience(faults=BROKEN_PLAN, retry=FAST_RETRY)
        outcome = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors, resilience=res
        )
        quarantined = {q.index for q in outcome.health.quarantined}
        assert quarantined == {0}
        survivors = [r for r in clean if r[0] not in quarantined]
        assert _records_equal(outcome.records, survivors)


def _records_equal(a, b):
    if len(a) != len(b):
        return False
    for (ia, pa), (ib, pb) in zip(a, b):
        if ia != ib or len(pa) != len(pb):
            return False
        for (la, ra, wa), (lb, rb, wb) in zip(pa, pb):
            if la != lb or wa != wb or not np.array_equal(ra, rb):
                return False
    return True


class TestCheckpointResume:
    def test_checkpoint_round_trips_records_exactly(self, tmp_path):
        descriptors = iter_descriptors(SMOKE)
        path = str(tmp_path / "ckpt.json")
        fingerprint = sweep_fingerprint(
            _CountRowsWork(), SMOKE, 0, descriptors, None
        )
        store = CheckpointStore(path, fingerprint)
        records = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors
        ).records
        # Perturb a rate to a value that exercises float round-tripping.
        records[0][1][0] = (
            records[0][1][0][0],
            np.array([0.1 + 0.2, 1.0 / 3.0]),
            records[0][1][0][2],
        )
        from repro.characterization.results import SweepHealth

        store.save(records, [], SweepHealth())
        loaded, quarantined, age_s = store.load()
        assert _records_equal(loaded, sorted(records, key=lambda r: r[0]))
        assert quarantined == []
        assert age_s >= 0.0

    def test_interrupt_flushes_and_resume_is_bit_identical(self, tmp_path):
        descriptors = iter_descriptors(SMOKE)
        clean = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors
        ).records

        # No periodic checkpoint falls due before the interrupt, so only
        # the flush-on-interrupt can write one.
        interrupted = Resilience(
            checkpoint_dir=str(tmp_path), retry=FAST_RETRY, checkpoint_every=100
        )
        interrupted.begin_experiment("demo")
        with pytest.raises(KeyboardInterrupt):
            SerialExecutor().run_resilient(
                _InterruptAfter(4), SMOKE, 0, descriptors, resilience=interrupted
            )
        # The flush-on-interrupt left a checkpoint with the 4 finished
        # targets.
        ckpt = json.loads((tmp_path / "demo-sweep00.json").read_text())
        assert len(ckpt["records"]) == 4

        resumed = Resilience(
            checkpoint_dir=str(tmp_path), resume=True, retry=FAST_RETRY
        )
        resumed.begin_experiment("demo")
        outcome = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors, resilience=resumed
        )
        assert outcome.health.resumed_targets == 4
        assert outcome.health.checkpoint_age_s is not None
        assert _records_equal(outcome.records, clean)

    def test_resume_under_jobs_2_is_bit_identical(self, tmp_path):
        descriptors = iter_descriptors(SMOKE)
        clean = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors
        ).records

        interrupted = Resilience(checkpoint_dir=str(tmp_path), retry=FAST_RETRY)
        interrupted.begin_experiment("demo")
        with pytest.raises(KeyboardInterrupt):
            SerialExecutor().run_resilient(
                _InterruptAfter(5), SMOKE, 0, descriptors, resilience=interrupted
            )

        resumed = Resilience(
            checkpoint_dir=str(tmp_path), resume=True, retry=FAST_RETRY
        )
        resumed.begin_experiment("demo")
        outcome = ProcessPoolSweepExecutor(2).run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors, resilience=resumed
        )
        assert outcome.health.resumed_targets == 5
        assert _records_equal(outcome.records, clean)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        descriptors = iter_descriptors(SMOKE)
        first = Resilience(checkpoint_dir=str(tmp_path))
        first.begin_experiment("demo")
        SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors, resilience=first
        )
        # Same tag, different sweep seed: the checkpoint must be refused.
        second = Resilience(checkpoint_dir=str(tmp_path), resume=True)
        second.begin_experiment("demo")
        with pytest.raises(ConfigurationError, match="different sweep"):
            SerialExecutor().run_resilient(
                _CountRowsWork(), SMOKE, 1, descriptors, resilience=second
            )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "not valid JSON"),
            ('{"version": 999, "records": []}', "has version 999"),
        ],
        ids=["invalid-json", "other-version"],
    )
    def test_unreadable_checkpoint_refuses_resume(self, tmp_path, text, message):
        (tmp_path / "demo-sweep00.json").write_text(text)
        res = Resilience(checkpoint_dir=str(tmp_path), resume=True)
        res.begin_experiment("demo")
        with pytest.raises(ConfigurationError, match=message):
            SerialExecutor().run_resilient(
                _CountRowsWork(), SMOKE, 0, iter_descriptors(SMOKE), resilience=res
            )

    def test_missing_checkpoint_is_fresh_run(self, tmp_path):
        descriptors = iter_descriptors(SMOKE)
        res = Resilience(checkpoint_dir=str(tmp_path), resume=True)
        res.begin_experiment("demo")
        outcome = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors, resilience=res
        )
        assert outcome.health.resumed_targets == 0
        assert outcome.health.completed_targets == len(descriptors)

    def test_checkpoints_are_sweep_ordinal_named(self, tmp_path):
        res = Resilience(checkpoint_dir=str(tmp_path))
        res.begin_experiment("fig10")
        assert res.next_checkpoint_path().endswith("fig10-sweep00.json")
        assert res.next_checkpoint_path().endswith("fig10-sweep01.json")
        res.begin_experiment("fig10")  # a fresh run restarts numbering
        assert res.next_checkpoint_path().endswith("fig10-sweep00.json")

    def test_experiment_checkpoint_resume_end_to_end(self, tmp_path):
        baseline = run_experiment("fig7", scale=SMOKE, seed=0)
        first = Resilience(checkpoint_dir=str(tmp_path), retry=FAST_RETRY)
        run_experiment("fig7", scale=SMOKE, seed=0, resilience=first)
        resumed = Resilience(
            checkpoint_dir=str(tmp_path), resume=True, retry=FAST_RETRY
        )
        result = run_experiment("fig7", scale=SMOKE, seed=0, resilience=resumed)
        assert result.health.resumed_targets == 9
        assert result.health.attempts == 0  # nothing re-measured
        assert _stats(baseline) == _stats(result)


def _reference_checkpoint(fingerprint, records, quarantined, health):
    """The checkpoint text as one ``json.dumps`` of the whole payload,
    each rate a Python float: ``CheckpointStore.save`` must write exactly
    these bytes."""
    return json.dumps(
        {
            "version": 1,
            "fingerprint": fingerprint,
            "records": [
                [
                    int(index),
                    [
                        [
                            str(label),
                            [
                                float(v)
                                for v in np.asarray(
                                    rates, dtype=np.float64
                                ).reshape(-1)
                            ],
                            int(weight),
                        ]
                        for label, rates, weight in payloads
                    ],
                ]
                for index, payloads in sorted(records, key=lambda r: r[0])
            ],
            "quarantined": [target.to_dict() for target in quarantined],
            "health": health.to_dict(),
        }
    )


def _bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


#: Rates the float rendering must get right: both zeros, NaN, both
#: infinities, subnormals, and values whose repr needs 17 digits.
SPECIAL_RATES = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310, 0.1 + 0.2, 1 / 3]
)

#: Raw float64 words: ordinary floats, every 64-bit pattern (NaN
#: payloads, subnormals), and a few pinned edge patterns.
FLOAT64_WORDS = st.one_of(
    st.floats().map(_bits),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from(
        [
            _bits(0.0),
            _bits(-0.0),
            0x7FF8000000000001,  # quiet NaN with a payload
            0xFFF8000000000000,  # negative NaN
            0x7FF0000000000001,  # signalling NaN
            1,  # smallest subnormal
        ]
    ),
)


class TestCheckpointBytes:
    """A checkpoint is byte for byte the parent format however the
    store's per-record cache was filled."""

    FINGERPRINT = "f" * 64

    def _store(self, tmp_path):
        return CheckpointStore(str(tmp_path / "ckpt.json"), self.FINGERPRINT)

    def _save_and_check(self, store, records, quarantined=(), health=None):
        health = health if health is not None else SweepHealth()
        store.save(records, list(quarantined), health)
        with open(store.path) as handle:
            assert handle.read() == _reference_checkpoint(
                self.FINGERPRINT, records, quarantined, health
            )

    def test_growing_records_saved_out_of_index_order(self, tmp_path):
        store = self._store(tmp_path)
        records = []
        self._save_and_check(store, records)
        for index in (4, 0, 7, 2, 5):
            records.append(
                (
                    index,
                    [
                        (f"target{index}", np.arange(index + 3) / 7.0, index),
                        ("twin", np.full(5, 0.5), 1),
                    ],
                )
            )
            self._save_and_check(store, records)

    def test_loaded_records_saved_again_as_on_resume(self, tmp_path):
        records = [
            (index, [("t", np.linspace(0.0, 1.0, 11) ** index, 1)])
            for index in (3, 1)
        ]
        self._save_and_check(self._store(tmp_path), records)
        resumed = self._store(tmp_path)
        loaded, _quarantined, _age_s = resumed.load()
        self._save_and_check(resumed, loaded)
        loaded.append((2, [("fresh", np.array([0.25, 0.75]), 2)]))
        self._save_and_check(resumed, loaded)
        self._save_and_check(resumed, loaded)

    def test_quarantine_and_checkpoint_age(self, tmp_path):
        records = [(0, [("ok", np.array([1.0, 0.9]), 1)])]
        quarantined = [
            QuarantinedTarget(
                index=1, label="bad[0]", reason="timed out", attempts=3
            ),
            QuarantinedTarget(
                index=2, label="mate", reason="collateral", attempts=0,
                collateral=True,
            ),
        ]
        health = SweepHealth(
            total_targets=3, completed_targets=1, attempts=4, retries=2,
            resumed_targets=1, checkpoints_written=2, checkpoint_age_s=12.625,
            quarantined=list(quarantined),
        )
        self._save_and_check(self._store(tmp_path), records, quarantined, health)

    @pytest.mark.parametrize(
        "rates",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4) / 11.0,
            np.array([0.1, 0.7, 1 / 3], dtype=np.float32),
            np.array([], dtype=np.float64),
            SPECIAL_RATES,
        ],
        ids=["2d", "float32", "empty", "special"],
    )
    def test_rate_shapes_dtypes_and_special_values(self, tmp_path, rates):
        store = self._store(tmp_path)
        records = [(0, [("cells", rates, 1)])]
        self._save_and_check(store, records)
        records.append((1, [("again", rates, 2), ("half", np.full(3, 0.5), 1)]))
        self._save_and_check(store, records)

    def test_new_payload_object_for_a_written_index_is_reencoded(
        self, tmp_path
    ):
        store = self._store(tmp_path)
        records = [
            (0, [("a", np.array([0.5]), 1)]),
            (1, [("b", np.array([0.25]), 1)]),
        ]
        self._save_and_check(store, records)
        records[1] = (1, [("b", np.array([0.75, 0.125]), 3)])
        self._save_and_check(store, records)


@given(
    arrays(
        np.uint64,
        array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
        elements=FLOAT64_WORDS,
    )
)
def test_rates_renderer_matches_json_dumps(words):
    rates = words.view(np.float64)
    assert _rates_json(rates) == json.dumps([float(v) for v in rates.reshape(-1)])


class TestWorkerDeath:
    def test_killed_worker_restarts_and_stays_bit_identical(self):
        descriptors = iter_descriptors(SMOKE)
        clean = SerialExecutor().run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors
        ).records
        plan = FaultPlan(kill_chunk_indices=(0,))
        res = Resilience(faults=plan, retry=FAST_RETRY)
        outcome = ProcessPoolSweepExecutor(2).run_resilient(
            _CountRowsWork(), SMOKE, 0, descriptors, resilience=res
        )
        assert outcome.health.worker_restarts == 1
        assert _records_equal(outcome.records, clean)

    def test_persistent_worker_death_exhausts_restart_budget(self):
        from repro.errors import TransientInfrastructureError

        descriptors = iter_descriptors(SMOKE)
        plan = FaultPlan(worker_death_rate=1.0)
        res = Resilience(faults=plan, retry=RetryPolicy(max_attempts=1))
        with pytest.raises(TransientInfrastructureError, match="pool died"):
            ProcessPoolSweepExecutor(2).run_resilient(
                _CountRowsWork(), SMOKE, 0, descriptors, resilience=res
            )


class TestFingerprinting:
    def test_work_fingerprint_is_process_stable(self):
        variants = (NotVariant(1), NotVariant(2))
        token = work_fingerprint(variants)
        assert "0x" not in token  # no memory addresses
        assert token == work_fingerprint((NotVariant(1), NotVariant(2)))

    def test_fingerprint_ignores_job_count_but_not_faults(self):
        descriptors = iter_descriptors(SMOKE)
        base = sweep_fingerprint(_CountRowsWork(), SMOKE, 0, descriptors, None)
        assert base == sweep_fingerprint(
            _CountRowsWork(), SMOKE, 0, descriptors, None
        )
        assert base != sweep_fingerprint(
            _CountRowsWork(), SMOKE, 1, descriptors, None
        )
        assert base != sweep_fingerprint(
            _CountRowsWork(), SMOKE, 0, descriptors, TRANSIENT_PLAN
        )


class TestSweepLevelApi:
    def test_not_sweep_accepts_resilience(self):
        res = Resilience(faults=TRANSIENT_PLAN, retry=FAST_RETRY)
        groups = not_sweep(SMOKE, 0, [NotVariant(1)], resilience=res)
        baseline = not_sweep(SMOKE, 0, [NotVariant(1)])
        assert sorted(groups) == sorted(baseline)
        for label in groups:
            assert np.array_equal(
                groups[label].values(), baseline[label].values()
            )
        assert res.health.total_targets == 9

    def test_health_accumulates_across_sweeps(self):
        res = Resilience(retry=FAST_RETRY)
        res.begin_experiment("x")
        not_sweep(SMOKE, 0, [NotVariant(1)], resilience=res)
        not_sweep(SMOKE, 0, [NotVariant(2)], resilience=res)
        assert res.health.total_targets == 18
        assert res.health.completed_targets == 18
