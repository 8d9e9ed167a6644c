"""Static verifier for DRAM Bender test programs.

Walks a :class:`~repro.bender.program.TestProgram` through the bank
control plane of :mod:`repro.dram.control`, which makes the device's
decisions without its cells: per-bank open/pending-precharge state, the
sharing/latched sense phase, the decoder-predicted multi-row activation
sets and the vendor's run/drop/refuse verdicts.  It classifies every
``ACT → PRE → ACT`` gap as nominal or as one of the paper's intentional
violations (NOT regime, logic-op regime, RowClone, Frac).  Anything
that is neither nominal nor a recognized idiom becomes a
:class:`~repro.staticcheck.diagnostics.Diagnostic`.  Every broken tRP,
tRAS and tRCD window is recorded too (:attr:`ProgramReport.violations`);
the executor reads its timing check from there.

The verifier is *session-aware*: a :class:`SessionState` carries bank
state and the set of Frac-initialized (VDD/2) rows across programs, so
``frac_program`` followed by ``logic_program`` verifies clean while a
logic operation with no Frac'd reference in the session warns (FC106).

A verifier keeps the clean walks of shared programs
(:class:`~repro.bender.program.SharedProgram`) and reuses one when the
same program starts from an equivalent state; see
:meth:`ProgramVerifier.verify_program`.

The analysis models the *engaged* glitch path (the decoder's pattern);
per-trial non-engagement is a runtime random draw the static layer
deliberately ignores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bender.commands import Command, Opcode
from ..bender.program import SharedProgram, TestProgram
from ..dram.config import ActivationSupport, ChipGeometry
from ..dram.control import Activation, BankControl, Regime, Verdict
from ..dram.decoder import ActivationKind, ActivationPattern
from ..dram.timing import TimingParameters
from .diagnostics import RULES, Diagnostic, Severity

__all__ = [
    "GapClassification",
    "ProgramReport",
    "SessionState",
    "ProgramVerifier",
    "VerifierObserver",
    "verify_program",
]

_EPS = 1e-9

#: Clean walks a verifier keeps for reuse, oldest out first.
VERDICT_CACHE_SIZE = 2048

#: Bus times that a walk adds and subtracts exactly: multiples of
#: 1/_GRID ns below _GRID_LIMIT ns.  Over such times two walks of a
#: program from different entry times differ by the shift alone.
_GRID = 256.0
_GRID_LIMIT = 2.0**44


def _on_grid(time_ns: float) -> bool:
    return time_ns < _GRID_LIMIT and (time_ns * _GRID).is_integer()


#: Signature of the per-program ``emit`` closure the handlers receive:
#: ``emit(rule_id, command_index, message, severity=None)``.
_Emit = Callable[..., None]


@dataclass(frozen=True)
class GapClassification:
    """Classification of one activation episode.

    ``first_gap_ns`` is the ACT→PRE spacing of the episode (``None`` if
    no PRE was issued), ``second_gap_ns`` the PRE→ACT spacing of the
    glitch (``None`` for episodes closed by a completed precharge).
    """

    bank: int
    idiom: str
    command_index: int
    first_gap_ns: Optional[float]
    second_gap_ns: Optional[float]
    violates_t_ras: bool
    violates_t_rp: bool

    def describe(self) -> str:
        gaps = []
        if self.first_gap_ns is not None:
            mark = "!" if self.violates_t_ras else ""
            gaps.append(f"act->pre {self.first_gap_ns:.2f}ns{mark}")
        if self.second_gap_ns is not None:
            mark = "!" if self.violates_t_rp else ""
            gaps.append(f"pre->act {self.second_gap_ns:.2f}ns{mark}")
        detail = f" ({', '.join(gaps)})" if gaps else ""
        return f"bank {self.bank} cmd {self.command_index}: {self.idiom}{detail}"


@dataclass(frozen=True)
class ProgramReport:
    """Outcome of verifying one program."""

    program: str
    diagnostics: Tuple[Diagnostic, ...]
    classifications: Tuple[GapClassification, ...]
    #: Timing violations in command order, timed by the walk's clock: a
    #: broken tRP, tRAS or tRCD window (``"tRP violated on bank 0:
    #: 1.50ns < 14.25ns"``), an ACT to an open bank, or a RD or WR of a
    #: precharged one (``"RD@78.50ns with no prior ACT"``).
    violations: Tuple[str, ...]

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == Severity.WARNING)

    def format(self) -> str:
        lines = [f"# verify {self.program or '<anonymous>'}"]
        lines += [c.describe() for c in self.classifications]
        lines += [d.format() for d in self.diagnostics]
        return "\n".join(lines)


@dataclass(frozen=True)
class _Verdict:
    """A kept clean walk: its report, the Frac rows it leaves on the
    program's banks, and the time from entry to the end-of-program
    settle."""

    report: ProgramReport
    frac_rows: FrozenSet[Tuple[int, int]]
    duration_ns: float


#: A kept walk's key: the program and the Frac rows on its banks at entry.
_VerdictKey = Tuple[SharedProgram, FrozenSet[Tuple[int, int]]]


@dataclass
class _OpenModel(Activation):
    """An open activation, with the command indices diagnostics cite."""

    act_index: int = 0
    #: The PRE last accepted; read only while ``pending_pre_ns`` is set.
    pending_pre_index: int = 0


def _ignored(bank: int, index: int) -> GapClassification:
    """A PRE or WR the vendor drops (§7)."""
    return GapClassification(bank, "ignored", index, None, None, False, False)


class VerifierObserver:
    """Hook points for layers that ride on the verifier's state machine.

    The semantic evaluator (:mod:`repro.staticcheck.semantics`) mirrors
    cell *values* on top of the verifier's cell *topology* by subscribing
    to these events, which are the points where cell values change.
    Which rows are open is not an event: an observer reads it from the
    walked :class:`SessionState` (``state.open[bank].rows``), so a bank
    that closes, or whose activation a fresh one replaces, needs no hook.
    Row dictionaries map subarray index to local row indices, exactly
    like :class:`_OpenModel.rows`.  The default implementation of every
    hook is a no-op, so observers override only what they need.
    """

    def on_fresh_activation(self, bank: int, row: int, index: int) -> None:
        """A single-row activation opened ``bank`` (phase: sharing)."""

    def on_resolve(
        self,
        bank: int,
        rows: Dict[int, Tuple[int, ...]],
        glitched: bool,
        first_subarray: int,
        index: int,
    ) -> None:
        """Sense amplifiers resolved the sharing phase over ``rows``."""

    def on_latched_drive(
        self, bank: int, new_rows: Dict[int, Tuple[int, ...]],
        first_subarray: int, index: int,
    ) -> None:
        """Latched amplifiers drive newly joined rows (NOT/RowClone)."""

    def on_frac(
        self, bank: int, rows: Dict[int, Tuple[int, ...]], index: Optional[int]
    ) -> None:
        """A completed precharge pulled the still-sharing ``rows`` to VDD/2."""

    def on_write(self, bank: int, row: int, data: object, index: int) -> None:
        """A WR overdrives the open rows of ``row``'s subarray pair."""

    def on_read(self, bank: int, row: int, index: int, label: str) -> None:
        """A RD returns ``row``'s resolved value."""

    def on_refresh(self, bank: int, index: int) -> None:
        """A REF re-amplified every cell of ``bank`` to a full rail."""


class SessionState:
    """Verifier state carried across programs of one executor session."""

    def __init__(self) -> None:
        self.now_ns: float = 0.0
        #: The open activation of each open bank.
        self.open: Dict[int, _OpenModel] = {}
        #: Rows currently holding a Frac (VDD/2) value: (bank, bank_row).
        self.frac_rows: Set[Tuple[int, int]] = set()
        #: Banks whose open activation this state shares with a clone.
        self._shared: Set[int] = set()

    def clone(self) -> "SessionState":
        """A copy, so a refused program leaves the state untouched.

        The copy is on write: both states share the open activations
        until one of them changes a bank's (:meth:`own`), so a clone
        costs what the banks a program touches cost.
        """
        other = SessionState()
        other.now_ns = self.now_ns
        other.open = dict(self.open)
        other.frac_rows = set(self.frac_rows)
        self._shared = set(self.open)
        other._shared = set(self.open)
        return other

    def own(self, bank: int) -> Optional[_OpenModel]:
        """``bank``'s open activation, copied first if it is shared, so
        that this state may change it."""
        model = self.open.get(bank)
        if model is not None and bank in self._shared:
            self._shared.discard(bank)
            model = self.open[bank] = replace(model)
        return model


class _AddressedRows:
    """The decoder a verifier without one assumes: a glitch opens the
    two addressed rows only, one after the other on a sequential-only
    chip."""

    def __init__(self, geometry: ChipGeometry, support: ActivationSupport) -> None:
        self.geometry = geometry
        self.kind = (
            ActivationKind.SEQUENTIAL
            if support is ActivationSupport.SEQUENTIAL_ONLY
            else ActivationKind.N_TO_N
        )

    def neighboring_pattern(
        self, bank: int, row_first: int, row_last: int
    ) -> ActivationPattern:
        sub_first, local_first = self.geometry.split_row(row_first)
        sub_last, local_last = self.geometry.split_row(row_last)
        return ActivationPattern(
            self.kind, sub_first, sub_last, (local_first,), (local_last,)
        )

    same_subarray_pattern = neighboring_pattern


class ProgramVerifier:
    """Static analyzer over :class:`TestProgram` command sequences.

    ``decoder`` (optional) predicts multi-row activation sets exactly
    like the device model; without one the verifier falls back to the
    addressed rows only.  ``suppress`` drops the listed rule ids —
    useful for deliberately-broken fault-injection programs.
    """

    def __init__(
        self,
        geometry: Optional[ChipGeometry] = None,
        decoder: Optional[object] = None,
        activation_support: ActivationSupport = ActivationSupport.SIMULTANEOUS,
        suppress: Iterable[str] = (),
    ) -> None:
        self.geometry = geometry if geometry is not None else ChipGeometry()
        self.support = activation_support
        if decoder is None:
            decoder = _AddressedRows(self.geometry, activation_support)
        #: The device's control decisions (repro.dram.control).
        self.control = BankControl(
            self.geometry, activation_support, decoder  # type: ignore[arg-type]
        )
        self.suppress: FrozenSet[str] = frozenset(suppress)
        unknown = sorted(self.suppress - set(RULES))
        if unknown:
            raise ValueError(f"unknown rule ids in suppress: {unknown}")
        #: Optional :class:`VerifierObserver` receiving state-machine
        #: events while a program is verified (the semantic evaluator).
        self.observer: Optional[VerifierObserver] = None
        self._verdicts: Dict[_VerdictKey, _Verdict] = {}

    @classmethod
    def for_module(
        cls, module: object, suppress: Iterable[str] = ()
    ) -> "ProgramVerifier":
        """A verifier matching a :class:`repro.dram.module.Module`."""
        config = module.config  # type: ignore[attr-defined]
        return cls(
            geometry=config.geometry,
            decoder=getattr(module, "decoder", None),
            activation_support=config.activation_support,
            suppress=suppress,
        )

    def new_session(self) -> SessionState:
        return SessionState()

    # ------------------------------------------------------------------

    def verify_program(
        self, program: TestProgram, state: Optional[SessionState] = None
    ) -> ProgramReport:
        """Verify one program; mutates ``state`` (fresh one if omitted).

        A walk depends on the program and on the entry state of the
        banks it addresses.  So when a shared program
        (:class:`~repro.bender.program.SharedProgram`) starts with all
        its banks precharged, and no observer watches, the verifier
        keeps a clean walk and reuses it whenever the program next
        starts with the same Frac rows on those banks: it returns the
        kept report, sets those banks' Frac rows and advances
        ``state.now_ns`` as the walk did.  A precharged bank carries no
        timing state, so the reuse is exact.  Clean means no diagnostic,
        no violation that names the walk's absolute clock, every bank
        precharged at the end, and bus times the walk adds up exactly
        (:data:`VERDICT_CACHE_SIZE` walks are kept).
        """
        if state is None:
            state = self.new_session()
        key = self._verdict_key(program, state)
        if key is not None:
            verdict = self._verdicts.get(key)
            if verdict is not None:
                state.frac_rows.difference_update(key[1])
                state.frac_rows.update(verdict.frac_rows)
                state.now_ns += verdict.duration_ns
                return verdict.report
        start_ns = state.now_ns
        report = self._walk(program, state)
        if key is not None:
            self._keep(key, report, state, start_ns)
        return report

    def walk_refused(
        self, program: TestProgram, refused_at: int, state: SessionState
    ) -> ProgramReport:
        """Walk what the device ran of ``program`` before it refused
        command ``refused_at``, over ``state``; returns the findings of
        the walked commands.

        The device lets the refused command catch its bank up, refuses
        it and runs nothing after it, so the walk ends there too: no
        end-of-program settle, and ``state.now_ns`` ends at the refused
        command's issue time.  No walk of ``program`` stays kept.
        """
        if not 0 <= refused_at < len(program):
            raise ValueError(
                f"refused_at={refused_at} is not a command of a "
                f"{len(program)}-command program"
            )
        report = self._walk(program, state, refused_at)
        for key in [key for key in self._verdicts if key[0] is program]:
            del self._verdicts[key]
        return report

    def _verdict_key(
        self, program: TestProgram, state: SessionState
    ) -> Optional[_VerdictKey]:
        """The key of ``program``'s kept walk from ``state``, or ``None``
        when no walk from there may be kept or reused."""
        if (
            not isinstance(program, SharedProgram)
            or self.observer is not None
            or not _on_grid(state.now_ns)
        ):
            return None
        banks = program.banks
        for bank in banks:
            if bank in state.open:
                return None
        return program, frozenset(row for row in state.frac_rows if row[0] in banks)

    def _keep(
        self,
        key: _VerdictKey,
        report: ProgramReport,
        state: SessionState,
        start_ns: float,
    ) -> None:
        """Keep ``report``, a walk from ``key``'s state, if it is clean."""
        program = key[0]
        banks = program.banks
        timing = program.timing
        if (
            report.diagnostics
            # "ACT@...", "RD@..." and "WR@..." name the absolute clock.
            or any("@" in violation for violation in report.violations)
            or any(bank in state.open for bank in banks)
            or not (_on_grid(timing.t_ck) and _on_grid(timing.t_rc))
        ):
            return
        verdicts = self._verdicts
        if len(verdicts) >= VERDICT_CACHE_SIZE:
            del verdicts[next(iter(verdicts))]
        verdicts[key] = _Verdict(
            report,
            frozenset(row for row in state.frac_rows if row[0] in banks),
            state.now_ns - start_ns,
        )

    def _walk(
        self,
        program: TestProgram,
        state: SessionState,
        refused_at: Optional[int] = None,
    ) -> ProgramReport:
        """Walk ``program`` over ``state``: every command, then the
        end-of-program settle, or (:meth:`walk_refused`) the commands up
        to and including ``refused_at`` alone."""
        timing = program.timing
        diags: List[Diagnostic] = []
        idioms: List[GapClassification] = []
        violations: List[str] = []
        touched: Set[int] = set()
        t = state.now_ns
        name = program.name
        ignored = getattr(program, "ignored_rules", frozenset())

        def emit(
            rule_id: str,
            index: Optional[int],
            message: str,
            severity: Optional[Severity] = None,
        ) -> None:
            if rule_id in self.suppress:
                return
            if rule_id in ignored or "*" in ignored:
                return
            rule = RULES[rule_id]
            diags.append(
                Diagnostic(
                    rule=rule_id,
                    severity=severity if severity is not None else rule.severity,
                    message=message,
                    hint=rule.hint,
                    program=name,
                    command_index=index,
                )
            )

        t_ck = timing.t_ck
        min_wait_ns = t_ck - _EPS
        for index, cmd in enumerate(program):
            opcode = cmd.opcode
            requested = cmd.requested_wait_ns
            if requested is not None and requested < min_wait_ns:
                self._emit_quantized(cmd, index, requested, timing, emit)
            if self._check_addresses(cmd, index, emit) and opcode is not Opcode.NOP:
                bank = cmd.bank
                touched.add(bank)
                # As on the device, every command lets the sense amplifiers
                # catch up, and all but PRE complete a PRE whose tRP passed.
                if bank in state.open:
                    self._catch_up(
                        state, bank, t, timing, idioms,
                        complete=opcode is not Opcode.PRE,
                    )
                if opcode is Opcode.ACT:
                    self._on_act(state, cmd, index, t, timing, emit, idioms, violations)
                elif opcode is Opcode.PRE:
                    self._on_pre(state, cmd, index, t, timing, emit, idioms, violations)
                elif opcode is Opcode.REF:
                    self._on_ref(state, cmd, index, emit)
                else:
                    self._on_column_access(
                        state, cmd, index, t, timing, emit, idioms, violations
                    )
            if index == refused_at:
                # The device ran nothing after the command it refused.
                state.now_ns = t
                return ProgramReport(
                    name, tuple(diags), tuple(idioms), tuple(violations)
                )
            t += cmd.wait_cycles * t_ck

        # End-of-program settle: mirror the executor, which gives every
        # touched bank t_rc to complete a trailing PRE.
        settle_at = t + timing.t_rc
        for bank in sorted(touched):
            if bank in state.open:
                self._catch_up(state, bank, settle_at, timing, idioms)
            open_ = state.open.get(bank)
            if open_ is not None and self.support is not ActivationSupport.NONE:
                emit(
                    "FC112",
                    open_.act_index,
                    f"bank {bank} is left open at end of program "
                    "(no pending PRE to complete)",
                )
        state.now_ns = settle_at

        self._check_intent(program, idioms, max(len(program) - 1, 0), emit)
        return ProgramReport(
            program=name,
            diagnostics=tuple(diags),
            classifications=tuple(idioms),
            violations=tuple(violations),
        )

    # -- per-command checks ---------------------------------------------

    def _emit_quantized(
        self,
        cmd: Command,
        index: int,
        requested: float,
        timing: TimingParameters,
        emit: _Emit,
    ) -> None:
        """FC107: ``cmd`` asked for a wait below one bus cycle."""
        actual = cmd.wait_cycles * timing.t_ck
        emit(
            "FC107",
            index,
            f"wait_ns={requested:g} is below one bus cycle "
            f"(t_ck={timing.t_ck:g}ns) and was silently quantized up to "
            f"{cmd.wait_cycles} cycle(s) = {actual:g}ns",
        )

    def _check_addresses(self, cmd: Command, index: int, emit: _Emit) -> bool:
        """Range-check bank/row; returns False if the command is skipped."""
        geometry = self.geometry
        ok = True
        if not 0 <= cmd.bank < geometry.banks:
            emit(
                "FC109",
                index,
                f"bank {cmd.bank} out of range for a chip with "
                f"{geometry.banks} banks",
            )
            ok = False
        if cmd.row is not None and not 0 <= cmd.row < geometry.rows_per_bank:
            emit(
                "FC109",
                index,
                f"row {cmd.row} out of range for a bank with "
                f"{geometry.rows_per_bank} rows",
            )
            ok = False
        if cmd.opcode in (Opcode.PRE, Opcode.REF, Opcode.NOP) and cmd.row is not None:
            # Unreachable through Command.__post_init__; kept as defense
            # against hand-built command records.
            emit(
                "FC110",
                index,
                f"{cmd.opcode.value} carries row {cmd.row} but ignores row "
                "addressing",
            )
        return ok

    # -- the control plane's transitions, without cells -----------------

    def _catch_up(
        self,
        state: SessionState,
        bank: int,
        time_ns: float,
        timing: TimingParameters,
        idioms: List[GapClassification],
        complete: bool = True,
    ) -> None:
        """Resolve the sense amplifiers if they have by ``time_ns`` and,
        if ``complete``, finish a PRE whose tRP has passed.  Every
        command to a bank catches it up first, so this is where the
        state takes its own copy of a shared activation."""
        open_ = state.open.get(bank)
        if open_ is None:
            return
        if bank in state._shared:
            open_ = state.own(bank)
            assert open_ is not None
        if self.control.resolves(open_, time_ns):
            self._resolve(state, bank, open_)
        if complete and self.control.precharge_due(open_, time_ns, timing.t_rp):
            self._complete_precharge(state, bank, timing, idioms)

    def _resolve(self, state: SessionState, bank: int, open_: _OpenModel) -> None:
        """Sense amplifiers resolve: cells snap to rails, Frac consumed."""
        open_.phase = "latched"
        if self.observer is not None:
            self.observer.on_resolve(
                bank,
                dict(open_.rows),
                not open_.nominal,
                open_.first_subarray,
                open_.act_index,
            )
        if state.frac_rows:
            state.frac_rows.difference_update(self._open_bank_rows(bank, open_))

    def _complete_precharge(
        self,
        state: SessionState,
        bank: int,
        timing: TimingParameters,
        idioms: List[GapClassification],
    ) -> None:
        open_ = state.open.pop(bank)
        assert open_.pending_pre_ns is not None
        frac = open_.phase == "sharing"
        if frac:
            # Interrupted activation + completed precharge: the equalizer
            # pulls the still-connected cells to VDD/2 — the Frac idiom.
            if self.observer is not None:
                self.observer.on_frac(bank, dict(open_.rows), open_.pending_pre_index)
            state.frac_rows.update(self._open_bank_rows(bank, open_))
        elif state.frac_rows:
            state.frac_rows.difference_update(self._open_bank_rows(bank, open_))
        if open_.nominal:
            first_gap = open_.pending_pre_ns - open_.last_act_ns
            idioms.append(
                GapClassification(
                    bank=bank,
                    idiom="frac" if frac else "nominal",
                    command_index=open_.pending_pre_index,
                    first_gap_ns=first_gap,
                    second_gap_ns=None,
                    violates_t_ras=frac or first_gap < timing.t_ras - _EPS,
                    violates_t_rp=False,
                )
            )

    def _open_bank_rows(self, bank: int, open_: _OpenModel) -> List[Tuple[int, int]]:
        """``(bank, bank_row)`` of every open row."""
        rows_per_subarray = self.geometry.rows_per_subarray
        return [
            (bank, subarray * rows_per_subarray + local)
            for subarray, locals_ in open_.rows.items()
            for local in locals_
        ]

    def _begin_activation(
        self, state: SessionState, bank: int, row: int, index: int, time_ns: float
    ) -> None:
        state.open[bank] = _OpenModel.fresh(
            self.geometry, row, time_ns, act_index=index
        )
        if self.observer is not None:
            self.observer.on_fresh_activation(bank, row, index)

    # -- opcode handlers -------------------------------------------------

    def _on_act(
        self,
        state: SessionState,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
        idioms: List[GapClassification],
        violations: List[str],
    ) -> None:
        bank, row = cmd.bank, cmd.row
        assert row is not None
        open_ = state.open.get(bank)
        if open_ is not None:
            # The catch-up completed a PRE whose tRP had passed, so a PRE
            # still pending is early.
            pending = open_.pending_pre_ns
            if pending is None:
                violations.append(f"ACT@{t:.2f}ns to open bank {bank}")
            else:
                violations.append(
                    f"tRP violated on bank {bank}: "
                    f"{t - pending:.2f}ns < {timing.t_rp}ns"
                )
        regime, pattern = self.control.activate(open_, bank, row)
        if regime is Regime.REFUSED:
            emit(
                "FC101",
                index,
                f"ACT to row {row} while bank {bank} is open with no "
                "pending PRE (raises CommandSequenceError at runtime)",
            )
            return
        if open_ is not None and regime is not Regime.LAST_ONLY:
            first_gap = None if pending is None else pending - open_.last_act_ns
            second_gap = None if pending is None else t - pending
            if regime is Regime.IGNORED:
                violates = (False, False)
            elif regime is Regime.ISOLATED:
                violates = (open_.phase == "sharing", True)
            else:
                assert first_gap is not None
                violates = (first_gap < timing.t_ras - _EPS, True)
            idioms.append(
                GapClassification(
                    bank, regime.value, index, first_gap, second_gap, *violates
                )
            )
        if regime is Regime.IGNORED:
            assert open_ is not None
            open_.pending_pre_ns = None
            return
        if regime is Regime.ISOLATED:
            assert open_ is not None
            emit(
                "FC104",
                index,
                f"double activation pairs rows {self.control.first_row(open_)} "
                f"(subarray {open_.first_subarray}) and {row} (subarray "
                f"{self.geometry.subarray_of_row(row)}): the subarrays share "
                "no sense-amplifier stripe, so the second activation proceeds "
                "independently and the operation cannot work",
            )
        if regime.opens_last_row_only:
            self._begin_activation(state, bank, row, index, t)
            return
        assert open_ is not None and pattern is not None
        self._join(state, open_, regime, pattern, cmd, index, t, emit)

    def _join(
        self,
        state: SessionState,
        open_: _OpenModel,
        regime: Regime,
        pattern: ActivationPattern,
        cmd: Command,
        index: int,
        t: float,
        emit: _Emit,
    ) -> None:
        """A glitch joins the decoder pattern's rows to the open
        activation."""
        bank = cmd.bank
        first_row = self.control.first_row(open_)
        sub_first = open_.first_subarray
        if regime is not Regime.LOGIC and open_.phase == "sharing":
            # A sequential-only chip finishes the first activation before
            # it honors the second (Samsung, §6.3).
            self._resolve(state, bank, open_)
        # join replaces the rows dict, so this keeps the rows before it.
        before = open_.rows
        self.control.join(open_, pattern, t)
        if regime is not Regime.LOGIC:
            if self.observer is not None:
                new_rows = {
                    sub: tuple(sorted(set(locals_) - set(before.get(sub, ()))))
                    for sub, locals_ in open_.rows.items()
                }
                self.observer.on_latched_drive(
                    bank,
                    {sub: locs for sub, locs in new_rows.items() if locs},
                    sub_first,
                    index,
                )
            return
        if pattern.subarray_first == pattern.subarray_last:
            emit(
                "FC105",
                index,
                f"charge-sharing activation of rows {first_row} and "
                f"{cmd.row} keeps reference and compute operands in one "
                f"subarray ({sub_first}); AND/OR across subarrays is "
                "impossible here",
            )
        # The reference operand side is the first-activated subarray
        # (same-subarray ops: the whole merged set lives there anyway).
        base = sub_first * self.geometry.rows_per_subarray
        reference_rows = [base + local for local in open_.rows[sub_first]]
        if not any((bank, row) in state.frac_rows for row in reference_rows):
            emit(
                "FC106",
                index,
                "charge-sharing operation but no row of the reference "
                f"operand set {reference_rows} was Frac-initialized "
                "(VDD/2) in this session",
            )

    def _on_pre(
        self,
        state: SessionState,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
        idioms: List[GapClassification],
        violations: List[str],
    ) -> None:
        bank = cmd.bank
        open_ = state.open.get(bank)
        if open_ is None:
            emit(
                "FC108",
                index,
                f"PRE to bank {bank} which is already precharged (no effect)",
            )
            return
        gap = t - open_.last_act_ns
        if gap < timing.t_ras - _EPS:
            violations.append(
                f"tRAS violated on bank {bank}: {gap:.2f}ns < {timing.t_ras}ns"
            )
        if self.control.precharge(open_, t, timing.t_ras) is Verdict.DROP:
            idioms.append(_ignored(bank, index))
            return
        if open_.pending_pre_ns is not None:
            emit(
                "FC108",
                index,
                f"PRE to bank {bank} while a PRE is already pending "
                "(the earlier one is superseded)",
            )
        open_.pending_pre_ns = t
        open_.pending_pre_index = index

    def _on_column_access(
        self,
        state: SessionState,
        cmd: Command,
        index: int,
        t: float,
        timing: TimingParameters,
        emit: _Emit,
        idioms: List[GapClassification],
        violations: List[str],
    ) -> None:
        bank, row = cmd.bank, cmd.row
        assert row is not None
        verb = cmd.opcode.value
        open_ = state.open.get(bank)
        early = False
        if open_ is None:
            violations.append(f"{verb}@{t:.2f}ns with no prior ACT")
        else:
            gap = t - open_.last_act_ns
            early = gap < timing.t_rcd - _EPS
            if early:
                violations.append(
                    f"tRCD violated on bank {bank}: {gap:.2f}ns < {timing.t_rcd}ns"
                )
        write = cmd.opcode is Opcode.WR
        verdict = self.control.column_access(open_, row, write=write)
        if verdict is Verdict.DROP:
            idioms.append(_ignored(bank, index))
            return
        if open_ is None:
            emit(
                "FC102",
                index,
                f"{verb} to row {row} of bank {bank}, which is "
                "precharged (raises CommandSequenceError at runtime)",
            )
            return
        # As on the device, a RD resolves a sharing activation before its
        # row is checked, and a WR only once it is accepted.
        if open_.phase == "sharing" and not (write and verdict is Verdict.REFUSE):
            self._resolve(state, bank, open_)
        if verdict is Verdict.REFUSE:
            active = sorted(r for _, r in self._open_bank_rows(bank, open_))
            emit(
                "FC103",
                index,
                f"{verb} to row {row}, which is not among the activated "
                f"rows {active}",
            )
            return
        if early:
            emit(
                "FC111",
                index,
                f"{verb} issued {gap:.2f}ns after the activation, sooner "
                f"than tRCD={timing.t_rcd:g}ns",
            )
        if write:
            # A write overdrives the activated rows: any Frac value on
            # this subarray is gone.
            if state.frac_rows:
                subarray = row // self.geometry.rows_per_subarray
                base = subarray * self.geometry.rows_per_subarray
                state.frac_rows.difference_update(
                    (bank, base + local) for local in open_.rows.get(subarray, ())
                )
            if self.observer is not None:
                self.observer.on_write(bank, row, cmd.data, index)
        elif self.observer is not None:
            self.observer.on_read(bank, row, index, cmd.label)

    def _on_ref(
        self, state: SessionState, cmd: Command, index: int, emit: _Emit
    ) -> None:
        if self.control.refresh(state.open.get(cmd.bank)) is Verdict.REFUSE:
            emit(
                "FC102",
                index,
                f"REF issued to bank {cmd.bank} while it is still open "
                "(no PRE, or one issued less than tRP earlier; raises "
                "CommandSequenceError at runtime)",
            )
            return
        # Refresh re-amplifies every cell to a full rail: Frac'd VDD/2
        # values are destroyed (see BatchedBank.refresh).
        state.frac_rows = {
            (bank, row) for bank, row in state.frac_rows if bank != cmd.bank
        }
        if self.observer is not None:
            self.observer.on_refresh(cmd.bank, index)

    # -- program-level intent --------------------------------------------

    def _check_intent(
        self,
        program: TestProgram,
        idioms: Sequence[GapClassification],
        last_index: int,
        emit: _Emit,
    ) -> None:
        intent = getattr(program, "intent", None)
        if intent is None or self.support is ActivationSupport.NONE:
            return
        observed = {c.idiom for c in idioms}
        if intent == "nominal":
            satisfied = observed <= {"nominal"}
        else:
            satisfied = intent in observed
        if satisfied:
            return
        severity: Optional[Severity] = None
        extra = ""
        if (
            intent == "logic"
            and self.support is ActivationSupport.SEQUENTIAL_ONLY
            and "not" in observed
        ):
            # Chip limitation (§7), not a program bug: sequential-only
            # chips resolve the first activation before the second joins.
            severity = Severity.WARNING
            extra = (
                "; the chip is sequential-only, so charge sharing never "
                "engages and the sequence degrades to the NOT regime (§7)"
            )
        glitch_index = next(
            (c.command_index for c in idioms if c.idiom not in ("nominal",)),
            last_index,
        )
        shown = sorted(observed) if observed else ["nominal"]
        emit(
            "FC113",
            glitch_index,
            f"program declares intent {intent!r} but its timing/topology "
            f"produce {shown}{extra}",
            severity=severity,
        )


def verify_program(
    program: TestProgram,
    module: Optional[object] = None,
    state: Optional[SessionState] = None,
    suppress: Iterable[str] = (),
) -> ProgramReport:
    """Convenience wrapper: verify one program against a module's topology."""
    if module is not None:
        verifier = ProgramVerifier.for_module(module, suppress=suppress)
    else:
        verifier = ProgramVerifier(suppress=suppress)
    return verifier.verify_program(program, state=state)
