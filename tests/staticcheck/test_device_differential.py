"""Differential oracle: the static verifier against the device.

:class:`~repro.staticcheck.verifier.ProgramVerifier` predicts, without
cells, what the device does with a command sequence.  Both run the same
generated programs on ideal-calibration dies, where every glitch
engages, so the device's one random draw always takes the path the
verifier models.  On two banks, under each vendor's command policy
(§7, Limitation 1), the two must agree on

* refusal: FC101/FC102/FC103 exactly when the device raises
  :class:`~repro.errors.CommandSequenceError`;
* how many commands the vendor drops (the verifier's ``ignored``
  idioms, the device's ``ignored_commands``);
* the rows each bank holds open after every prefix of the program.

The executor reads its timing violations from the same walk; on SK
Hynix they are checked against the per-program rules it applied before.

X-ray and DRAMScope learn a chip's internals from what its command
sequences do; this checks the verifier the same way.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    ChipGeometry,
    SeedTree,
    ideal_calibration,
    micron_chip,
    samsung_chip,
    sk_hynix_chip,
)
from repro.bender.commands import Opcode
from repro.bender.executor import ProgramExecutor
from repro.bender.program import TestProgram
from repro.core.addressing import find_pattern_pair
from repro.core.sequences import not_program
from repro.dram.decoder import ActivationKind
from repro.dram.module import Module
from repro.errors import CommandSequenceError
from repro.staticcheck.verifier import ProgramVerifier

#: Two banks of four 32-row subarrays: same-subarray, neighboring and
#: isolated row pairs are all common, and every decoder block fits.
GEOMETRY = ChipGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=32, columns=16
)

VENDORS = (sk_hynix_chip, samsung_chip, micron_chip)

#: The verifier rules that stand for a CommandSequenceError.
REFUSALS = {"FC101", "FC102", "FC103"}

banks = st.integers(min_value=0, max_value=GEOMETRY.banks - 1)
rows = st.integers(min_value=0, max_value=GEOMETRY.rows_per_bank - 1)
# Short waits are drawn as often as long ones, so that an ACT -> PRE gap
# falls under the sense latency (logic regime), between it and tRAS (NOT
# regime) or past tRAS alike.
waits = st.one_of(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=60),
)

# One command: (opcode, bank, row, wait cycles).
commands = st.tuples(
    st.sampled_from(["act", "pre", "wr", "rd", "ref", "nop"]), banks, rows, waits
)


@st.composite
def glitch_chains(draw):
    """ACT -> PRE -> ACT ... on one bank: two to four ACTs, each PRE
    followed by the next ACT sooner than tRP, so every ACT after the
    first meets a pending PRE."""
    bank = draw(banks)
    chain = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        chain.append(("act", bank, draw(rows), draw(waits)))
        chain.append(("pre", bank, 0, draw(st.integers(min_value=1, max_value=12))))
    return chain[:-1]


programs = st.lists(
    st.one_of(commands.map(lambda command: [command]), glitch_chains()),
    min_size=1,
    max_size=4,
).map(lambda parts: [command for part in parts for command in part])


def _module(factory) -> Module:
    return Module(
        factory().with_geometry(GEOMETRY),
        chip_count=1,
        seed_tree=SeedTree(3),
        calibration=ideal_calibration(),
    )


def _program(timing, commands, follow_act=True) -> TestProgram:
    """The commands as a program.  As a memory controller would, WR and
    RD address the row of their bank's latest ACT; with ``follow_act``
    false they address the drawn row."""
    program = TestProgram(timing, name="differential")
    latest = {}
    for opcode, bank, row, wait in commands:
        if opcode == "act":
            if follow_act:
                latest[bank] = row
            program.act(bank, row, wait_cycles=wait)
        elif opcode == "pre":
            program.pre(bank, wait_cycles=wait)
        elif opcode == "wr":
            bits = np.zeros(GEOMETRY.columns, dtype=np.uint8)
            program.wr(bank, latest.get(bank, row), bits, wait_cycles=wait)
        elif opcode == "rd":
            program.rd(bank, latest.get(bank, row), wait_cycles=wait)
        elif opcode == "ref":
            program.ref(bank, wait_cycles=wait)
        else:
            program.nop(wait_cycles=wait)
    return program


def _device(factory, program):
    """``(refused, ignored commands, open rows per bank)`` on a fresh die."""
    module = _module(factory)
    try:
        ProgramExecutor(module, verify="off").run(program)
    except CommandSequenceError:
        return True, None, None
    banks = [module.chips[0].bank(index) for index in range(GEOMETRY.banks)]
    return (
        False,
        sum(bank.ignored_commands for bank in banks),
        {bank.index: bank.open_rows for bank in banks if bank.is_open},
    )


def _verifier(factory, program):
    """What the verifier predicts for :func:`_device`."""
    verifier = ProgramVerifier.for_module(_module(factory))
    state = verifier.new_session()
    report = verifier.verify_program(program, state=state)
    if REFUSALS & {diagnostic.rule for diagnostic in report.diagnostics}:
        return True, None, None
    return (
        False,
        sum(c.idiom == "ignored" for c in report.classifications),
        {bank: dict(model.rows) for bank, model in state.open.items()},
    )


@pytest.mark.parametrize("factory", VENDORS, ids=lambda f: f.__name__)
@given(commands=programs)
@settings(max_examples=150)
# Counterexamples from before the verifier took its decisions from
# repro.dram.control: a LAST_ONLY pair opens only its last row (SK
# Hynix); a chained glitch pairs the lowest open row of the first
# subarray with the new row (SK Hynix); Micron drops a WR to a
# precharged bank instead of refusing it.
@example(commands=[("act", 0, 39, 1), ("pre", 0, 0, 1), ("act", 0, 0, 1)])
@example(
    commands=[
        ("act", 0, 16, 1),
        ("pre", 0, 0, 1),
        ("act", 0, 0, 1),
        ("pre", 0, 0, 1),
        ("act", 0, 2, 1),
    ]
)
@example(commands=[("wr", 0, 0, 1)])
def test_verifier_predicts_the_device(factory, commands):
    timing = _module(factory).chips[0].timing
    for end in range(1, len(commands) + 1):
        program = _program(timing, commands[:end])
        device = _device(factory, program)
        assert _verifier(factory, program) == device, (
            f"after {end} of {commands}"
        )
        if device[0]:
            break  # every longer prefix is refused as well


def _open_activations(module, executor):
    """``(session, device)``: each open bank's phase and open rows in
    the executor's session and on the device."""
    session = {
        bank: (model.phase, dict(model.rows))
        for bank, model in executor.semantic_session().state.open.items()
    }
    chip = module.chips[0]
    device = {
        bank.index: (bank._block.state.phase, bank.open_rows)
        for bank in chip.instantiated_banks()
        if bank.is_open
    }
    return session, device


@pytest.mark.parametrize("factory", VENDORS, ids=lambda f: f.__name__)
@given(commands=programs)
@settings(max_examples=150)
# A WR the device refuses resolves nothing: the walk used to resolve a
# sharing activation first, on SK Hynix after a 2:2 glitch and on
# Samsung with the PRE still pending.
@example(
    commands=[("act", 0, 0, 1), ("pre", 0, 0, 1), ("act", 0, 33, 1), ("wr", 0, 100, 1)]
)
@example(
    commands=[("act", 0, 1, 1), ("act", 1, 0, 1), ("pre", 0, 0, 1), ("wr", 0, 0, 1)]
)
def test_the_session_stops_where_the_device_stops(factory, commands):
    """WR and RD address the drawn row, so many programs are refused
    part-way.  Refused or not, the executor's session then holds each
    open bank in the device's phase with the device's rows."""
    module = _module(factory)
    executor = ProgramExecutor(module, verify="off")
    program = _program(module.chips[0].timing, commands, follow_act=False)
    try:
        executor.run(program)
    except CommandSequenceError:
        pass
    session, device = _open_activations(module, executor)
    assert session == device, commands


#: ACT row 0, PRE, ACT row 1 one cycle apart: the second ACT meets the
#: pending PRE, so bank 0 shares rows 0 and 1 (Micron opens row 0 only).
SHARING_PREFIX = [("act", 0, 0, 1), ("pre", 0, 0, 1), ("act", 0, 1, 1)]


@pytest.mark.parametrize(
    "factory, opcode, refused, phase, rows",
    [
        pytest.param(sk_hynix_chip, "wr", True, "sharing", (0, 1), id="sk_hynix-wr"),
        pytest.param(sk_hynix_chip, "rd", True, "latched", (0, 1), id="sk_hynix-rd"),
        pytest.param(samsung_chip, "wr", True, "sharing", (0, 1), id="samsung-wr"),
        pytest.param(samsung_chip, "rd", True, "latched", (0, 1), id="samsung-rd"),
        pytest.param(micron_chip, "wr", False, "latched", (0,), id="micron-wr"),
        pytest.param(micron_chip, "rd", True, "latched", (0,), id="micron-rd"),
    ],
)
def test_a_column_access_to_a_row_not_open(factory, opcode, refused, phase, rows):
    """Row 20 is not open.  A refused RD has resolved the activation
    first; a refused WR has resolved nothing and leaves the bank
    sharing.  Micron drops the WR instead.  The session agrees."""
    module = _module(factory)
    executor = ProgramExecutor(module, verify="off")
    commands = SHARING_PREFIX + [(opcode, 0, 20, 1)]
    program = _program(module.chips[0].timing, commands, follow_act=False)
    try:
        executor.run(program)
    except CommandSequenceError:
        assert refused
    else:
        assert not refused
    session, device = _open_activations(module, executor)
    assert device == {0: (phase, {0: rows})}
    assert session == device


def _cycles(program):
    """A program's commands as (opcode, bank, row, wait cycles)."""
    return [
        (cmd.opcode.value.lower(), cmd.bank, cmd.row, cmd.wait_cycles)
        for cmd in program
    ]


def test_last_only_pair_opens_the_last_row_only():
    """A pair the decoder does not engage, at NOT timing: the device
    opens the last row alone, so a declared NOT is FC113."""
    module = _module(sk_hynix_chip)
    timing = module.chips[0].timing
    src, dst = find_pattern_pair(
        module.decoder, GEOMETRY, 0, 0, 1, 0, kind=ActivationKind.LAST_ONLY
    )
    program = not_program(timing, 0, src, dst)
    report = ProgramVerifier.for_module(module).verify_program(program)
    assert "FC113" in {d.rule for d in report.diagnostics}
    assert "not" not in {c.idiom for c in report.classifications}
    # ACT -> PRE -> ACT, without the final PRE.
    glitch = _program(timing, _cycles(program)[:3])
    last_only = {0: {1: (GEOMETRY.local_row(dst),)}}
    assert _device(sk_hynix_chip, glitch) == (False, 0, last_only)
    assert _verifier(sk_hynix_chip, glitch) == (False, 0, last_only)


def test_micron_drops_a_write_to_a_precharged_bank():
    module = _module(micron_chip)
    timing = module.chips[0].timing
    program = TestProgram(timing).wr(0, 5, np.zeros(GEOMETRY.columns, np.uint8))
    report = ProgramVerifier.for_module(module).verify_program(program)
    assert report.diagnostics == ()
    assert [c.idiom for c in report.classifications] == ["ignored"]
    ProgramExecutor(module, verify="off").run(program)
    assert module.chips[0].bank(0).ignored_commands == 1


def test_micron_refuses_a_read_of_a_row_it_did_not_open():
    """The PRE comes too soon after the first ACT, so Micron drops it and
    the second ACT; the controller then reads the row it asked for."""
    commands = [
        ("act", 0, 3, 2),
        ("pre", 0, 0, 2),
        ("act", 0, 40, 60),
        ("rd", 0, 40, 4),
    ]
    module = _module(micron_chip)
    program = _program(module.chips[0].timing, commands)
    report = ProgramVerifier.for_module(module).verify_program(program)
    assert [d.rule for d in report.errors] == ["FC103"]
    with pytest.raises(CommandSequenceError):
        ProgramExecutor(module, verify="off").run(program)


def test_micron_counts_each_dropped_pre_and_write():
    """A PRE too soon after its ACT, then a WR to a row no ACT opened."""
    module = _module(micron_chip)
    program = TestProgram(module.chips[0].timing)
    program.act(0, 3, wait_cycles=2).pre(0, wait_cycles=60)
    program.wr(0, 40, np.zeros(GEOMETRY.columns, np.uint8), wait_cycles=4)
    report = ProgramVerifier.for_module(module).verify_program(program)
    ignored = [c.command_index for c in report.classifications if c.idiom == "ignored"]
    assert ignored == [1, 2]
    ProgramExecutor(module, verify="off").run(program)
    assert module.chips[0].bank(0).ignored_commands == 2


def _per_program_rules(program):
    """The timing violations of the executor's former clock: every
    program starts with each bank precharged, and each ACT and PRE
    restarts its bank's windows, whatever the vendor does with it."""
    timing = program.timing
    last_act, last_pre, is_open = {}, {}, set()
    violations = []
    now = 0.0
    for cmd in program:
        bank, opcode = cmd.bank, cmd.opcode
        if opcode is Opcode.ACT:
            if bank in is_open and last_pre.get(bank) is None:
                violations.append(f"ACT@{now:.2f}ns to open bank {bank}")
            pre = last_pre.get(bank)
            if pre is not None and now - pre < timing.t_rp - 1e-9:
                violations.append(
                    f"tRP violated on bank {bank}: "
                    f"{now - pre:.2f}ns < {timing.t_rp}ns"
                )
            last_act[bank], last_pre[bank] = now, None
            is_open.add(bank)
        elif opcode is Opcode.PRE:
            act = last_act.get(bank)
            if act is not None and now - act < timing.t_ras - 1e-9:
                violations.append(
                    f"tRAS violated on bank {bank}: "
                    f"{now - act:.2f}ns < {timing.t_ras}ns"
                )
            last_pre[bank] = now
            is_open.discard(bank)
        elif opcode in (Opcode.WR, Opcode.RD):
            act = last_act.get(bank)
            if act is None:
                violations.append(f"{opcode.value}@{now:.2f}ns with no prior ACT")
            elif now - act < timing.t_rcd - 1e-9:
                violations.append(
                    f"tRCD violated on bank {bank}: "
                    f"{now - act:.2f}ns < {timing.t_rcd}ns"
                )
        now += cmd.wait_cycles * timing.t_ck
    return violations


def _before_a_pre_to_a_precharged_bank(commands):
    """The commands before the first PRE to a bank that no ACT has opened
    since the program began or since the bank's last REF.  A bank that an
    ACT opened stays open, or its PRE pending, until a command completes
    the PRE: an ACT opens it again, and on SK Hynix a RD or WR of a
    precharged bank is refused."""
    opened = set()
    for end, (opcode, bank, _, _) in enumerate(commands):
        if opcode == "act":
            opened.add(bank)
        elif opcode == "ref":
            opened.discard(bank)
        elif opcode == "pre" and bank not in opened:
            return commands[:end]
    return commands


@given(commands=programs)
@settings(max_examples=150)
def test_violations_are_the_per_program_rules_on_sk_hynix(commands):
    """Where the vendor drops nothing and no PRE meets a precharged bank,
    the walk's violations are the former clock's, for every prefix the
    device runs."""
    timing = _module(sk_hynix_chip).chips[0].timing
    commands = _before_a_pre_to_a_precharged_bank(commands)
    for end in range(1, len(commands) + 1):
        program = _program(timing, commands[:end])
        executor = ProgramExecutor(_module(sk_hynix_chip), verify="off")
        try:
            result = executor.run(program)
        except CommandSequenceError:
            break
        assert result.violations == _per_program_rules(program), (
            f"after {end} of {commands}"
        )
