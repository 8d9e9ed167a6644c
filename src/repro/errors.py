"""Exception hierarchy for the FCDRAM reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from protocol-level
problems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

if TYPE_CHECKING:  # only for annotations: keep errors import-cycle-free
    from .staticcheck.diagnostics import Diagnostic


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent.

    Raised when, for example, a chip organization declares more banks than
    its density allows, or a subarray height is not a power of two.
    """


class AddressError(ReproError):
    """A row, column, bank, or subarray address is out of range."""


class CommandSequenceError(ReproError):
    """A DRAM command was issued in a state where it is illegal.

    The real memory controller enforces these rules; DRAM Bender lets the
    experimenter violate *timings* but a command to a closed bank (for
    instance a ``RD`` with no open row) is still a programming error.
    """


class TimingViolationError(CommandSequenceError):
    """A timing violation occurred where the experiment did not allow one.

    The executor raises this only when a program is run in *strict* mode;
    characterization programs deliberately violate timings and run in
    permissive mode instead.
    """


class ProgramError(ReproError):
    """A DRAM Bender test program is malformed."""


class ProgramVerificationError(ProgramError):
    """The static pre-flight verifier refused a test program.

    Raised by :class:`~repro.bender.executor.ProgramExecutor` in
    ``verify="error"`` mode before any command reaches the device; the
    module state is untouched.  ``diagnostics`` carries the structured
    findings (:class:`~repro.staticcheck.diagnostics.Diagnostic`).
    """

    def __init__(
        self, message: str, diagnostics: Iterable["Diagnostic"] = ()
    ) -> None:
        super().__init__(message)
        self.diagnostics: Tuple["Diagnostic", ...] = tuple(diagnostics)


class IsolationError(ReproError):
    """The concurrency/isolation gate refused a job or schedule.

    Raised by :meth:`~repro.system.runtime.PudRuntime.submit_job` in
    ``verify_isolation="error"`` mode before any operand is stored —
    runtime state (slots, quarantine, placements) is untouched.
    ``diagnostics`` carries the structured CC-rule findings
    (:class:`~repro.staticcheck.diagnostics.Diagnostic`).
    """

    def __init__(
        self, message: str, diagnostics: Iterable["Diagnostic"] = ()
    ) -> None:
        super().__init__(message)
        self.diagnostics: Tuple["Diagnostic", ...] = tuple(diagnostics)


class ThermalError(ReproError):
    """The temperature controller cannot reach or hold a target."""


class TransientInfrastructureError(ReproError):
    """A transient infrastructure failure interrupted an experiment.

    Models what the real bench occasionally does to a long campaign: a
    host/FPGA command timeout, a stalled link, a thermal-controller
    setpoint dropout.  By definition the failure is *retryable* — the
    resilient sweep machinery rebuilds the affected module group from
    its seed tree and re-runs it, so a retried run stays bit-identical
    to an uninterrupted one.
    """


class TargetQuarantinedError(ReproError):
    """A sweep target exhausted its retry budget.

    Raised only when the active :class:`~repro.characterization.resilience.RetryPolicy`
    forbids graceful degradation (``quarantine=False``); with the default
    policy the target is quarantined instead and the sweep completes with
    partial results plus a structured degradation report.
    """


class ReliabilityError(ReproError):
    """The reliability engineering layer could not serve a request.

    Base class for :mod:`repro.reliability` failures: malformed schemes,
    missing policy tables, and untunable configurations.
    """


class ReliabilityUnsatisfiableError(ReliabilityError):
    """No mitigation scheme can meet the requested error bound.

    Raised instead of silently degrading — e.g. for 16-input AND, whose
    worst-case sense margin is statically infeasible (Observation 14),
    no amount of voting or retrying converges, because the failure is
    deterministic for the boundary data pattern rather than noise.

    ``best_error`` is the lowest residual error any candidate scheme
    achieved (``None`` when the operation is statically infeasible and
    no candidate was evaluated at all).
    """

    def __init__(
        self,
        message: str,
        operation: str = "",
        fan_in: int = 0,
        error_bound: float = 0.0,
        best_error: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.operation = operation
        self.fan_in = fan_in
        self.error_bound = error_bound
        self.best_error = best_error


class ReverseEngineeringError(ReproError):
    """A reverse-engineering pass could not reach a conclusion.

    Raised when, e.g., RowHammer probing produces contradictory adjacency
    evidence and the physical row order cannot be recovered.
    """


class UnsupportedOperationError(ReproError):
    """The targeted chip cannot perform the requested in-DRAM operation.

    Mirrors the paper's §7 Limitation 1: Samsung chips only support the
    NOT operation (sequential two-row activation) and Micron chips ignore
    timing-violating command sequences entirely.
    """


class SubstrateError(ReproError):
    """A substrate backend could not serve a measurement request.

    Base class for the :mod:`repro.substrate` failures: malformed backend
    specifications and unusable surrogate tables.
    """


class SurrogateTableError(SubstrateError):
    """A fitted surrogate table is missing, malformed, or lacks the
    requested (operation, fan-in, distance, temperature, pattern) cell.
    """
