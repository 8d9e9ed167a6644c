"""A program the device refuses part-way leaves the session where the
device stopped.

The executor walks each program (and commits the walk) before the
device runs it.  When the device refuses a command, it has run the
commands before it, let the refused command catch its bank up, and
nothing after; the executor then commits the walk of exactly that.  The
check: before every single-shot replay, the executor's session holds
open the banks the device holds open, each in the device's phase with
the device's rows.
"""

import pytest
from test_single_shot_golden import CASES, battery

from repro import SeedTree
from repro.bender import DramBenderHost
from repro.bender.executor import ProgramExecutor
from repro.dram.module import Module
from repro.errors import CommandSequenceError


@pytest.fixture()
def open_bank_checks(monkeypatch):
    """Compare each open bank's phase and rows in the session with the
    device's before every single-shot replay; returns ``(replays,
    mismatches)``."""
    replays, mismatches = [], []
    replay = ProgramExecutor._replay

    def checked(self, program, device, trials):
        if trials is None:
            session = {
                bank: (model.phase, dict(model.rows))
                for bank, model in self.semantic_session().state.open.items()
            }
            chip = self.module.chips[0]
            banks = {
                b.index: (b._block.state.phase, b.open_rows)
                for b in chip.instantiated_banks()
                if b.is_open
            }
            replays.append(program.name)
            if session != banks:
                mismatches.append((program.name, session, banks))
        return replay(self, program, device, trials)

    monkeypatch.setattr(ProgramExecutor, "_replay", checked)
    return replays, mismatches


@pytest.mark.parametrize("case", CASES)
def test_session_and_device_hold_the_same_banks_open(case, open_bank_checks):
    replays, mismatches = open_bank_checks
    battery(case)
    assert len(replays) >= 20
    assert mismatches == []


@pytest.mark.parametrize("verify_semantics", ["off", "warn"])
def test_a_refused_read_leaves_its_bank_open_in_the_session(
    micron_config, verify_semantics
):
    # Micron drops the early PRE and ignores the second ACT (§7), so the
    # RD of the second row is refused with only the first row open.
    host = DramBenderHost(
        Module(micron_config, chip_count=1, seed_tree=SeedTree(13)),
        verify_semantics=verify_semantics,
    )
    timing = host.timing
    glitch = (
        host.new_program("glitch-rd")
        .act(0, 10, wait_cycles=2)
        .pre(0, wait_cycles=2)
        .act(0, 200, wait_cycles=1)
        .rd(0, 200, wait_ns=timing.t_ras)
        .pre(0, wait_ns=timing.t_rp)
    )
    with pytest.raises(CommandSequenceError):
        host.run(glitch)
    executor = host.executor
    assert host.module.chips[0].bank(0).is_open
    state = executor.semantic_session().state
    assert set(state.open) == {0}
    assert state.now_ns == executor.now_ns

    close = (
        host.new_program("close")
        .nop(wait_ns=timing.t_ras)
        .pre(0, wait_ns=timing.t_rp)
    )
    result = host.run(close)
    assert [d.rule for d in result.diagnostics if d.rule.startswith("FC")] == []
    assert not host.module.chips[0].bank(0).is_open
    assert executor.semantic_session().state.open == {}
