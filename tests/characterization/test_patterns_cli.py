"""Tests for the data-pattern library and the characterization CLI."""

import numpy as np
import pytest

from repro.characterization.patterns import (
    all_ones,
    all_zeros,
    checkerboard,
    rand1_rand2,
    random_pattern,
)


class TestPatterns:
    def test_fixed_patterns(self):
        assert np.all(all_ones(16) == 1)
        assert np.all(all_zeros(16) == 0)
        assert all_ones(16).dtype == np.uint8

    def test_checkerboard_phases(self):
        a = checkerboard(8)
        b = checkerboard(8, phase=1)
        assert np.array_equal(a, 1 - b)
        assert a.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_checkerboard_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            checkerboard(8, phase=2)

    def test_random_pattern_reproducible(self):
        a = random_pattern(np.random.default_rng(3), 64)
        b = random_pattern(np.random.default_rng(3), 64)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_rand1_rand2_independent(self):
        rand1, rand2 = rand1_rand2(np.random.default_rng(4), 256)
        assert not np.array_equal(rand1, rand2)
        # Roughly half the bits agree, as for independent streams.
        assert np.mean(rand1 == rand2) == pytest.approx(0.5, abs=0.1)


class TestCli:
    def test_list(self, capsys):
        from repro.characterization.__main__ import main

        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig15" in output and "table1" in output

    def test_run_table1(self, capsys):
        from repro.characterization.__main__ import main

        assert main(["table1", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "SK Hynix" in output
        assert "paper-vs-measured" in output

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--backend", "trace-record"], "invalid choice: 'trace-record'"),
            (["--trace", "t.json"], "unrecognized arguments: --trace"),
        ],
        ids=["backend-trace-record", "trace-flag"],
    )
    def test_only_analog_and_surrogate_backends(self, capsys, argv, message):
        from repro.characterization.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["table1", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--resume"], "--resume requires --checkpoint-dir"),
            (["--backend", "surrogate"], "requires --surrogate-table"),
            (["--surrogate-table", "t.json"], "only applies to --backend surrogate"),
            (["--jobs", "0"], "--jobs must be >= 1"),
        ],
        ids=[
            "resume-without-dir",
            "surrogate-without-table",
            "table-without-surrogate",
            "zero-jobs",
        ],
    )
    def test_flag_misuse_rejected(self, capsys, argv, message):
        from repro.characterization.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["table1", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_resume_reserves_a_finished_run(self, capsys, tmp_path, jobs):
        # The second run measures nothing; only the health block and the
        # elapsed-time footer may differ.
        from repro.characterization.__main__ import main

        argv = ["fig15", "--scale", "smoke", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--resume", "--jobs", jobs]) == 0
        second = capsys.readouterr().out

        def without_health(text):
            blocks = text.split("\n\n")
            kept = [b for b in blocks if "sweep health" not in b]
            return "\n".join(kept).splitlines()[:-1]

        assert without_health(second) == without_health(first)
        assert "6/6 completed, 6 resumed from checkpoint" in second
        assert "attempts: 0 (0 retries)" in second

    def test_report_cli_writes_file(self, tmp_path):
        from repro.analysis.report import main

        out = tmp_path / "report.md"
        assert main(["--scale", "smoke", "--out", str(out), "--only", "table1"]) == 0
        content = out.read_text()
        assert "table1" in content
