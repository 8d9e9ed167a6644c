"""The bank state machine, run over a block of trials.

:mod:`repro.dram.control` decides what each command does to a bank's
open activation: when the sense amplifiers resolve and a pending PRE
completes, the regime a second ACT lands in, and whether the vendor
runs, drops or refuses the command (§7 Limitation 1).  This module
moves the charge.  In the **NOT regime** (§5.1) the already-latched
sense amplifiers drive their (inverted, on the far terminal) values
into every newly connected cell, with per-cell success governed by the
drive-strength model.  In the **logic-op regime** (§6.1) all connected
cells charge-share; the sense amplifiers then compare the two
terminals and write AND/OR (and simultaneously NAND/NOR on the
opposite terminal) results back.

This is the only implementation of that machine.  :class:`BatchedBank`
carries a leading trials axis through it and the analog kernels of
:mod:`repro.dram.analog`, so a measurement replays one program over a
whole block of trials at once (§5, Figs. 5-21 measure success *rates*).
A :class:`~repro.dram.bank.Bank` runs its single-shot commands through
:class:`OneTrialBlock`, the same machine on a block of one trial.

A trial's outcome depends on its trial index, never on the block it
runs in, by two mechanisms:

* **Per-trial noise substreams.**  Trial ``i`` draws its analog noise
  from the counter-based substream ``trial-noise/trial-{i}`` of the
  bank's seed tree (see :meth:`Bank.reserve_trial_block`), in the same
  order whatever the block size.

* **Lanes.**  The command stream is identical across trials; the only
  control-flow divergence is the per-trial glitch-engagement draw.  A
  :class:`_Lane` groups trials whose open-activation state is identical
  and runs the machine on the whole group at once; lanes split when the
  engagement draws disagree and merge again once their activations
  close.

``tests/core/data/golden_trial_counts.json`` pins the counts to a
recording of one-program-per-trial execution, for blocks of one, seven
and all trials; ``tests/dram/data/golden_single_shot.json`` pins the
cell state that single-shot programs leave.

A measurement block keeps cell state as sparse *overlays*: only rows the
batch actually touches get a ``(n_trials, columns)`` array (float32, like
:class:`~repro.dram.subarray.Subarray` storage); everything else stays
in the underlying bank.  Measurement loops re-initialize every activated
row before each program, which is what makes the replicate-on-first-
touch overlay equivalent to carrying row state over from one trial to
the next.  :meth:`BatchedBank.finalize` writes the last trial's overlay
back, leaving the bank as the last trial left it.

Operations that would couple trials through shared state that the
measurement does not re-initialize (``elapse`` retention decay,
RowHammer) are refused with :class:`UnsupportedOperationError`; they
act on the bank's own cells, between single-shot programs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from ..errors import AddressError, CommandSequenceError, UnsupportedOperationError
from ..units import GND, VDD, VDD_HALF
from .analog import charge_share, coupling_disturbance, sense_differential
from .control import Activation, Regime, Verdict
from .decoder import ActivationPattern
from .normal import SATURATED_Z, below_ndtr

if TYPE_CHECKING:
    from .bank import Bank
    from .calibration import DieCalibration
    from .config import ChipGeometry
    from .control import BankControl
    from .module import Module
    from .timing import TimingParameters
    from .variation import StripeVariation

__all__ = ["BatchedBank", "BatchedModule", "OneTrialBlock"]

_FloatArray = NDArray[np.float64]
_BoolArray = NDArray[np.bool_]
_TrialArray = NDArray[np.intp]
_Rows = Dict[int, Tuple[int, ...]]

#: The columns each sense-amplifier stripe serves, by stripe parity: in
#: the open-bitline layout stripe ``s`` senses the columns with
#: ``column % 2 == s % 2`` (:meth:`~repro.dram.bank.Bank.served_slice`
#: returns these).  Basic slices, so indexing with them takes views.
_SERVED = (slice(0, None, 2), slice(1, None, 2))


def _row_index(local_rows: Tuple[int, ...]) -> Union[slice, List[int]]:
    """Sorted rows of one subarray as an index into its cells: a basic
    slice when they are evenly spaced, as one row, two rows and the
    decoder's aligned blocks are.  A slice takes a view, and NumPy takes
    it several times faster than a list of rows."""
    first, last = local_rows[0], local_rows[-1]
    count = len(local_rows)
    if count == 1:
        return slice(first, first + 1)
    step = (last - first) // (count - 1)
    if step and local_rows == tuple(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return list(local_rows)


def _touched_stripes(rows: _Rows) -> List[int]:
    """The stripes on either side of every subarray with open rows."""
    stripes: Set[int] = set()
    for subarray_index, local_rows in rows.items():
        if local_rows:
            stripes.add(subarray_index)
            stripes.add(subarray_index + 1)
    return sorted(stripes)


@dataclass
class _OpenState(Activation):
    """An open activation and the charge its sense amplifiers hold."""

    #: Resolved voltage on each latched stripe's *upper* terminal (the
    #: bitline of subarray ``stripe_index``), on served columns, with a
    #: leading lane axis.
    latched_upper: Dict[int, _FloatArray] = field(default_factory=dict)
    #: Region pair (first-set region, last-set region) of the most recent
    #: glitch, used by the design-induced-variation terms.
    glitch_regions: Optional[Tuple[int, int]] = None


@dataclass
class _Lane:
    """A group of trials sharing one open-activation state.

    ``trials`` holds sorted positions into the batch (0..n_trials-1);
    ``state`` is the group's activation state (``None`` == precharged).
    The state's ``latched_upper`` arrays carry a leading lane axis of
    length ``trials.size``.
    """

    trials: _TrialArray
    state: Optional[_OpenState]


class BatchedBank:
    """Runs one bank's command stream over a block of trials.

    Construct with the per-trial generators from
    :meth:`Bank.reserve_trial_block`; issue the commands one trial
    would issue to a :class:`Bank` (data arguments may carry a leading
    trials axis);
    call :meth:`finalize` to fold the last trial's cell state back into
    the bank.
    """

    def __init__(self, bank: Bank, generators: Sequence[np.random.Generator]):
        if bank.is_open:
            raise CommandSequenceError(
                "batched execution requires a precharged bank"
            )
        if len(generators) == 0:
            raise ValueError("need at least one per-trial generator")
        self.bank = bank
        self._keep_constants(bank)
        self._gens: List[np.random.Generator] = list(generators)
        self.n_trials = len(self._gens)
        #: Sparse per-row overlays: (subarray, local_row) -> (T, columns).
        self._rows: Dict[Tuple[int, int], NDArray[np.float32]] = {}
        self._lanes: List[_Lane] = [
            _Lane(trials=np.arange(self.n_trials, dtype=np.intp), state=None)
        ]
        #: Commands dropped by the manufacturer policy, summed over
        #: trials; folded into the bank's counter at finalize().
        self.ignored_commands: int = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _keep_constants(self, bank: Bank) -> None:
        """Copy the bank's fixed parameters, which the state machine
        reads on every command, onto the block."""
        self.control: BankControl = bank.control
        self.bank_index: int = bank.index
        self.geometry: ChipGeometry = bank.config.geometry
        self.columns: int = bank.columns
        self.calibration: DieCalibration = bank.calibration
        self.timing: TimingParameters = bank.timing
        self.stripes: List[StripeVariation] = bank.stripes

    def _row_state(self, subarray: int, local: int) -> NDArray[np.float32]:
        """The (T, columns) overlay for one row, created on first touch."""
        key = (subarray, local)
        arr = self._rows.get(key)
        if arr is None:
            base = self.bank.subarrays[subarray].voltages[local]
            arr = np.repeat(base[np.newaxis, :], self.n_trials, axis=0)
            self._rows[key] = arr
        return arr

    def _trial_matrix(self, values: Any, what: str) -> NDArray[Any]:
        """Broadcast per-command data to a (T, columns) view."""
        a = np.asarray(values)
        if a.ndim == 1:
            if a.shape != (self.columns,):
                raise ValueError(
                    f"{what} must have {self.columns} entries, got {a.shape}"
                )
            return np.broadcast_to(a, (self.n_trials, self.columns))
        if a.ndim == 2:
            if a.shape != (self.n_trials, self.columns):
                raise ValueError(
                    f"{what} must have shape ({self.n_trials}, "
                    f"{self.columns}), got {a.shape}"
                )
            return a
        raise ValueError(f"{what} must be 1-D or (n_trials, columns)")

    def _ignore(self, lane: _Lane) -> None:
        """Count a command the manufacturer policy drops (§7), once per
        trial of ``lane``."""
        self.ignored_commands += int(lane.trials.size)

    def _require_all_closed(self, operation: str) -> None:
        for lane in self._lanes:
            if lane.state is not None:
                raise CommandSequenceError(
                    f"{operation} requires a precharged bank"
                )

    def _merge_closed_lanes(self) -> None:
        if len(self._lanes) == 1:
            return
        closed = [lane for lane in self._lanes if lane.state is None]
        open_lanes = [lane for lane in self._lanes if lane.state is not None]
        if len(closed) > 1:
            trials = np.sort(np.concatenate([lane.trials for lane in closed]))
            closed = [_Lane(trials=trials, state=None)]
        self._lanes = sorted(
            closed + open_lanes, key=lambda lane: int(lane.trials[0])
        )

    def _blank_row(self, subarray: int, local: int) -> NDArray[np.float32]:
        """The overlay of a row the caller overwrites whole: allocated
        without copying the bank row first."""
        key = (subarray, local)
        arr = self._rows.get(key)
        if arr is None:
            arr = np.empty(
                (self.n_trials, self.columns),
                dtype=self.bank.subarrays[subarray].voltages.dtype,
            )
            self._rows[key] = arr
        return arr

    def _lane_index(self, lane: _Lane) -> Union[slice, _TrialArray]:
        """A lane's positions on the trials axis.  A lane that holds the
        whole block indexes with a slice, so its reads and writes are
        views instead of fancy-index copies."""
        if lane.trials.size == self.n_trials:
            return slice(None)
        return lane.trials

    def _lane_generators(self, lane: _Lane) -> Sequence[np.random.Generator]:
        if lane.trials.size == self.n_trials:
            return self._gens
        return [self._gens[t] for t in lane.trials.tolist()]

    def _normal_draws(self, lane: _Lane, size: int) -> _FloatArray:
        """One standard-normal vector per trial, from the trial's stream,
        drawn straight into its row of the result."""
        out = np.empty((lane.trials.size, size))
        for generator, row in zip(self._lane_generators(lane), out):
            generator.standard_normal(out=row)
        return out

    def _uniform_draws(self, lane: _Lane, size: int) -> _FloatArray:
        """:meth:`_normal_draws` for uniform [0, 1) draws."""
        out = np.empty((lane.trials.size, size))
        for generator, row in zip(self._lane_generators(lane), out):
            generator.random(out=row)
        return out

    # ------------------------------------------------------------------
    # command interface
    # ------------------------------------------------------------------

    def activate(self, row: int, time_ns: float) -> None:
        """Process an ACT command at absolute time ``time_ns``."""
        # The command's one address check: the control plane and the
        # decoder take the row as checked.
        self.geometry.check_row(row)
        self._merge_closed_lanes()
        new_lanes: List[_Lane] = []
        for lane in self._lanes:
            state = self._catch_up(lane, time_ns)
            regime, pattern = self.control.activate(state, self.bank_index, row)
            if regime is Regime.REFUSED:
                raise CommandSequenceError(
                    f"ACT to row {row} while bank {self.bank_index} is open "
                    "with no pending PRE"
                )
            if regime is Regime.IGNORED:
                assert state is not None
                self._ignore(lane)
                state.pending_pre_ns = None
            elif regime.opens_last_row_only:
                # Before any engagement draw: no trial consumes one.
                lane.state = self._begin_state(row, time_ns)
            else:
                assert pattern is not None
                new_lanes.extend(
                    self._glitch_lane(lane, row, regime, pattern, time_ns)
                )
                continue
            new_lanes.append(lane)
        self._lanes = new_lanes

    def precharge(self, time_ns: float) -> None:
        """Process a PRE command at absolute time ``time_ns``."""
        for lane in self._lanes:
            state = self._catch_up(lane, time_ns, complete=False)
            verdict = self.control.precharge(state, time_ns, self.timing.t_ras)
            if verdict is Verdict.DROP:
                self._ignore(lane)
            elif state is not None:
                state.pending_pre_ns = time_ns

    def settle(self, time_ns: float) -> None:
        """Let time pass with no command (end of program / long NOP)."""
        for lane in self._lanes:
            self._catch_up(lane, time_ns)
        self._merge_closed_lanes()

    def write(self, row: int, bits: Any, time_ns: float) -> None:
        """Process a WR command: overdrive the open row with ``bits``.

        Per the paper's methodology (§4.2), the write overdrives the
        sense amplifiers of the addressed row's subarray: every activated
        row in that subarray receives the pattern, while activated rows
        in the neighboring subarray receive the *inverse* on the shared
        (served) columns and keep their state elsewhere.
        """
        # A bool cast gives the rail voltages: repro.units has VDD == 1.0
        # and GND == 0.0.
        pattern = self._trial_matrix(
            np.asarray(bits).astype(bool).astype(np.float64), "WR pattern"
        )
        self.geometry.check_row(row)
        subarray = row // self.geometry.rows_per_subarray
        for lane in self._lanes:
            state = self._catch_up(lane, time_ns)
            verdict = self.control.column_access(state, row, write=True)
            if verdict is Verdict.DROP:
                self._ignore(lane)
                continue
            if verdict is Verdict.REFUSE:
                raise CommandSequenceError(
                    f"WR to row {row}, which is not among the activated rows"
                )
            assert state is not None
            if state.phase == "sharing":
                self._resolve_and_restore_lane(lane)
            lane_pattern = pattern[self._lane_index(lane)]
            for stripe in (subarray, subarray + 1):
                served = _SERVED[stripe % 2]
                latched = state.latched_upper.setdefault(
                    stripe, np.full((lane.trials.size, self.columns), VDD_HALF)
                )
                # This subarray is the upper side of stripe ``subarray``
                # and the lower side of stripe ``subarray + 1``.
                value = lane_pattern[:, served]
                latched[:, served] = value if stripe == subarray else VDD - value
                self._writeback_lane(stripe, state.rows, served, latched, lane)
        self._merge_closed_lanes()

    def read(self, row: int, time_ns: float) -> NDArray[np.uint8]:
        """Process a RD command: the logic values of the open ``row``,
        one row per trial."""
        self.geometry.check_row(row)
        subarray, local = divmod(row, self.geometry.rows_per_subarray)
        out = np.empty((self.n_trials, self.columns), dtype=np.uint8)
        for lane in self._lanes:
            state = self._catch_up(lane, time_ns)
            if state is not None and state.phase == "sharing":
                self._resolve_and_restore_lane(lane)
            if self.control.column_access(state, row, write=False) is Verdict.REFUSE:
                raise CommandSequenceError(
                    "RD from a precharged bank"
                    if state is None
                    else f"RD from row {row}, which is not among the activated rows"
                )
            index = self._lane_index(lane)
            out[index] = self._row_state(subarray, local)[index] > 0.5 * VDD
        return out

    def refresh(self, time_ns: float) -> None:
        """Process a REF command: snap every cell to its nearest rail.

        The bank must be precharged; as with ACT, a pending PRE whose tRP
        has passed completes first.  Note that refresh *destroys*
        fractional values: a Frac'd VDD/2 cell is re-amplified to a full
        rail like any other.  Reference rows must therefore be
        re-initialized after any refresh — one reason the paper's command
        sequences re-run Frac per trial.
        """
        for lane in self._lanes:
            if self.control.refresh(self._catch_up(lane, time_ns)) is Verdict.REFUSE:
                raise CommandSequenceError("REF issued to an open bank")
        for subarray in self.bank.subarrays:
            volts = subarray.voltages
            np.copyto(volts, np.where(volts > VDD_HALF, VDD, GND))
        for arr in self._rows.values():
            np.copyto(arr, np.where(arr > VDD_HALF, VDD, GND))

    def elapse(self, milliseconds: float) -> None:
        raise UnsupportedOperationError(
            "elapse is not available in a batched trial block: retention "
            "decay on rows the block never re-initializes would couple the "
            "trials; run retention experiments on the Bank: single-shot "
            "DramBenderHost programs with Module.elapse between them"
        )

    def apply_hammer(self, row: int, activations: int) -> None:
        raise UnsupportedOperationError(
            "apply_hammer is not available in a batched trial block"
        )

    # -- host-side backdoors -------------------------------------------

    def store_bits(self, row: int, bits: Any) -> None:
        self._require_all_closed("store_bits")
        subarray, local = self.geometry.split_row(row)
        pattern = self._trial_matrix(np.asarray(bits).astype(bool), "bits")
        # A bool cast gives the rail voltages: repro.units has VDD == 1.0
        # and GND == 0.0.
        self._blank_row(subarray, local)[...] = pattern

    def store_voltages(self, row: int, volts: Any) -> None:
        self._require_all_closed("store_voltages")
        subarray, local = self.geometry.split_row(row)
        values = self._trial_matrix(
            np.asarray(volts, dtype=np.float64), "voltages"
        )
        self._blank_row(subarray, local)[...] = np.clip(values, GND, VDD)

    def load_bits(self, row: int) -> NDArray[np.uint8]:
        self._require_all_closed("load_bits")
        subarray, local = self.geometry.split_row(row)
        arr = self._rows.get((subarray, local))
        if arr is None:
            base = self.bank.subarrays[subarray].read_bits(local)
            return np.repeat(base[np.newaxis, :], self.n_trials, axis=0)
        return (arr > 0.5 * VDD).astype(np.uint8)

    def finalize(self) -> None:
        """Fold the batch back into the bank.

        Writes the *last* trial's overlay rows into the bank's cell
        arrays — exactly the state a serial loop would have left — and
        transfers the ignored-command count.  All activations must be
        closed, as at the end of any measurement program.
        """
        self._require_all_closed("finalize")
        for (subarray_index, local), arr in self._rows.items():
            self.bank.subarrays[subarray_index].voltages[local] = arr[-1]
        self._rows.clear()
        self.bank.ignored_commands += self.ignored_commands
        self.ignored_commands = 0

    # ------------------------------------------------------------------
    # lane state machine
    # ------------------------------------------------------------------

    def _begin_state(self, row: int, time_ns: float) -> _OpenState:
        return _OpenState.fresh(self.geometry, row, time_ns)

    def _catch_up(
        self, lane: _Lane, time_ns: float, complete: bool = True
    ) -> Optional[_OpenState]:
        """Resolve ``lane``'s sense amplifiers if they have by ``time_ns``
        (an interrupted activation never does: see
        _complete_precharge_lane) and, if ``complete``, finish a pending
        PRE whose tRP has passed; returns the lane's state."""
        state = lane.state
        if state is None:
            return None
        if self.control.resolves(state, time_ns):
            self._resolve_and_restore_lane(lane)
        if complete and self.control.precharge_due(state, time_ns, self.timing.t_rp):
            self._complete_precharge_lane(lane)
        return lane.state

    def _complete_precharge_lane(self, lane: _Lane) -> None:
        state = lane.state
        assert state is not None
        if state.phase == "sharing":
            # The precharge interrupted the activation before the sense
            # amplifiers resolved: the equalizer pulls the bitlines — and
            # the still-connected cells — to VDD/2.  This is exactly the
            # mechanism FracDRAM exploits to store fractional values.
            sigma = self.calibration.frac_noise_sigma
            cells = [
                (subarray_index, local)
                for subarray_index, local_rows in state.rows.items()
                for local in local_rows
            ]
            # One draw per trial covers every row in the serial row order.
            noise = self._normal_draws(lane, len(cells) * self.columns)
            volts = np.clip(VDD_HALF + sigma * noise, GND, VDD).reshape(
                lane.trials.size, len(cells), self.columns
            )
            index = self._lane_index(lane)
            for position, (subarray_index, local) in enumerate(cells):
                self._row_state(subarray_index, local)[index] = volts[:, position]
        lane.state = None

    def _split_lane(self, lane: _Lane, keep: _BoolArray) -> Tuple[_Lane, _Lane]:
        """Split on a per-trial mask; both halves get independent state."""
        state = lane.state
        assert state is not None

        def clone(mask: _BoolArray) -> _OpenState:
            return replace(
                state,
                rows=dict(state.rows),
                latched_upper={
                    stripe: latched[mask]
                    for stripe, latched in state.latched_upper.items()
                },
            )

        kept = _Lane(trials=lane.trials[keep], state=clone(keep))
        other = _Lane(trials=lane.trials[~keep], state=clone(~keep))
        return kept, other

    def _glitch_lane(
        self,
        lane: _Lane,
        row: int,
        regime: Regime,
        pattern: ActivationPattern,
        time_ns: float,
    ) -> List[_Lane]:
        """A second ACT of ``row`` joins rows to the open activation in
        ``regime``: the multi-row activation glitch (§4.1).  In a trial
        where the glitch does not engage, only the last ACT takes
        effect."""
        state = lane.state
        assert state is not None

        if state.phase == "latched":
            probability = self.calibration.not_engage_probability
        else:
            probability = self.calibration.engage_probability_for(
                max(1, pattern.n_first)
            )
        draws = [gen.random() < probability for gen in self._lane_generators(lane)]

        result: List[_Lane] = []
        if all(draws):
            engaged = lane
        elif not any(draws):
            lane.state = self._begin_state(row, time_ns)
            return [lane]
        else:
            engaged, aborted = self._split_lane(lane, np.array(draws, dtype=bool))
            aborted.state = self._begin_state(row, time_ns)
            result.append(aborted)

        estate = engaged.state
        assert estate is not None
        if regime is Regime.LOGIC:
            # The new rows join the charge-sharing phase.
            self._join_rows(estate, pattern, time_ns)
        else:
            if estate.phase == "sharing":
                # A sequential-only chip finishes the first activation
                # first: the charge never mixes (Samsung, §6.3).
                self._resolve_and_restore_lane(engaged)
            self._join_latched_lane(engaged, pattern, time_ns)
        result.append(engaged)
        return result

    def _join_rows(
        self, state: _OpenState, pattern: ActivationPattern, time_ns: float
    ) -> None:
        """Merge the glitch pattern's rows into the open activation."""
        self.control.join(state, pattern, time_ns)
        state.glitch_regions = self.bank._region_pair(pattern)

    def _join_latched_lane(
        self, lane: _Lane, pattern: ActivationPattern, time_ns: float
    ) -> None:
        """NOT regime: latched amplifiers drive the newly joined rows."""
        state = lane.state
        assert state is not None
        calibration = self.calibration
        self._join_rows(state, pattern, time_ns)
        rows = state.rows
        assert state.glitch_regions is not None
        src_region, dst_region = state.glitch_regions
        # Design-induced variation scales with the drive load: far rows
        # cost little extra when one cell hangs off the latch, but the
        # long-wordline resistance compounds across a many-row set —
        # which is why the paper's distance heatmap (aggregated over all
        # destination counts) shows such deep valleys (Obs. 6) while the
        # single-destination NOT stays near 98% everywhere (Obs. 4).
        total_rows_pending = sum(map(len, rows.values()))
        load_scale = 0.35 + 0.65 * min(1.0, (total_rows_pending - 2) / 30.0)
        distance_z = (
            calibration.not_distance_z[src_region][dst_region] * load_scale
        )
        temperature_z = -calibration.temperature_drive_per_degc * (
            self.bank.temperature_c - 50.0
        )

        for stripe in _touched_stripes(rows):
            served = _SERVED[stripe % 2]
            latched = state.latched_upper.get(stripe)
            if latched is None:
                # The far stripe of the joining subarray was precharged:
                # the joining cells are sensed normally against the open
                # reference and re-restored (the "retain initial values"
                # half of Observation 1).  The amplifier resolves *with*
                # the cells here, so there is no latch fight.
                resolved, _disturbance = self._sense_stripe_lane(
                    stripe, rows, served, state, lane
                )
                state.latched_upper[stripe] = resolved
                self._writeback_lane(stripe, rows, served, resolved, lane)
                continue
            # Rows on this stripe only: the shared stripe fights the
            # combined charge of both subarrays' rows, a far stripe only
            # its own side's.
            load = len(rows.get(stripe - 1, ())) + len(rows.get(stripe, ()))
            self._latched_fight_lane(
                stripe,
                rows,
                served,
                latched,
                load,
                distance_z + temperature_z,
                lane,
            )
        state.phase = "latched"

    def _resolve_and_restore_lane(self, lane: _Lane) -> None:
        """Sense amplifiers resolve; results are written back to cells."""
        state = lane.state
        assert state is not None
        calibration = self.calibration
        rows = state.rows
        total_rows = sum(map(len, rows.values()))

        for stripe in _touched_stripes(rows):
            served = _SERVED[stripe % 2]
            resolved, disturbance = self._sense_stripe_lane(
                stripe, rows, served, state, lane
            )
            state.latched_upper[stripe] = resolved
            if state.nominal:
                self._writeback_lane(stripe, rows, served, resolved, lane)
            else:
                # Restore after a multi-row resolution is itself a latch
                # fight: the amplifier must overdrive every connected
                # cell, and adjacent columns swinging the opposite way
                # couple into the fight.  The flip probability is what
                # caps many-input op success around 95% at 16 inputs
                # (Observation 10) — and it is symmetric across the two
                # terminals, which is why AND tracks NAND and OR tracks
                # NOR so closely (Observation 13).
                extra_z = (
                    -calibration.op_coupling_flip_z * disturbance
                    - calibration.temperature_drive_per_degc
                    * (self.bank.temperature_c - 50.0)
                )
                self._latched_fight_lane(
                    stripe,
                    rows,
                    served,
                    resolved,
                    total_rows,
                    extra_z,
                    lane,
                    alpha=calibration.op_flip_alpha,
                )
        state.phase = "latched"

    def _gather_side_lane(
        self,
        subarray_index: int,
        rows: _Rows,
        served: slice,
        lane: _Lane,
    ) -> NDArray[np.floating[Any]]:
        """The ``(lane, rows, served)`` cell voltages on one side of a
        stripe.  They are gathered rows-first and handed over transposed,
        so :func:`charge_share` reduces a contiguous cell axis in strict
        row order, exactly as a one-trial 2-D reduction does."""
        local_rows = rows.get(subarray_index, ())
        cells = np.empty((len(local_rows), lane.trials.size, self.columns // 2))
        index = self._lane_index(lane)
        for row_cells, local in zip(cells, local_rows):
            row_cells[...] = self._row_state(subarray_index, local)[index, served]
        return cells.transpose(1, 0, 2)

    def _sense_stripe_lane(
        self,
        stripe: int,
        rows: _Rows,
        served: slice,
        state: _OpenState,
        lane: _Lane,
    ) -> Tuple[_FloatArray, _FloatArray]:
        """Charge-share and compare on one stripe.

        Returns the resolved upper-terminal voltage (full-width rows,
        served columns set) and the per-served-column coupling
        disturbance of the raw differential.
        """
        calibration = self.calibration
        upper_cells = self._gather_side_lane(stripe, rows, served, lane)
        lower_cells = self._gather_side_lane(stripe - 1, rows, served, lane)

        v_upper = charge_share(
            upper_cells, calibration.cell_cap_ff, calibration.bitline_cap_ff
        )
        v_lower = charge_share(
            lower_cells, calibration.cell_cap_ff, calibration.bitline_cap_ff
        )
        differential = v_upper - v_lower
        disturbance: _FloatArray = coupling_disturbance(differential)

        if state.nominal:
            upper_wins = differential > 0.0
        else:
            margin_shift = self.bank._glitch_margin_shift(stripe, state)
            gain_scale = self.bank._glitch_cm_gain_scale(stripe, state)
            temperature_scale = 1.0 + calibration.temperature_noise_per_degc * (
                self.bank.temperature_c - 50.0
            )
            upper_wins = sense_differential(
                v_upper,
                v_lower,
                self.stripes[stripe].offsets[served],
                calibration.sense_noise_sigma * temperature_scale,
                self._lane_generators(lane),
                common_mode_gain=calibration.common_mode_noise_gain * gain_scale,
                common_mode_threshold=calibration.common_mode_threshold,
                sigma_cap_factor=calibration.common_mode_sigma_cap * gain_scale,
                common_mode_offset_gain=calibration.common_mode_offset_gain,
                low_common_mode_offset_gain=calibration.low_common_mode_offset_gain,
                coupling_sigma=calibration.coupling_noise_sigma,
                margin_shift=margin_shift,
            )

        resolved = np.empty((lane.trials.size, self.columns))
        resolved.fill(VDD_HALF)
        # A bool cast gives the rail voltages: repro.units has VDD == 1.0
        # and GND == 0.0.
        resolved[:, served] = upper_wins
        return resolved, disturbance

    def _latched_fight_lane(
        self,
        stripe: int,
        rows: _Rows,
        served: slice,
        latched_upper: _FloatArray,
        load_rows: int,
        extra_z: Union[float, _FloatArray],
        lane: _Lane,
        alpha: Optional[float] = None,
    ) -> None:
        """Newly connected cells fight an already-latched amplifier.

        Per column, the amplifier either *holds* — every connected cell
        is driven to the latched polarity (the NOT result on the far
        terminal) — or the injected cell charge *flips the latch*, and
        every connected cell is driven to the inverted, wrong value.
        The flip (not a benign retention) is what pushes the measured
        NOT success rate far below 50% at high destination-row counts
        (7.95% at 32 destination rows, Observation 4): the destination
        ends up with the source's value instead of its negation.
        """
        if alpha is None:
            alpha = self.calibration.drive_load_alpha
        variation = self.stripes[stripe]
        strengths = variation.strengths[served]
        load_z = alpha * max(0, load_rows - 1)
        draws = self._uniform_draws(lane, strengths.size)
        # A column holds when its draw falls below Φ(z).  With one extra_z
        # for every column, rounding is monotonic, so no column's z is
        # below the weakest amplifier's; from SATURATED_Z up Φ is exactly
        # 1.0 and every draw (in [0, 1)) holds.  A per-trial extra_z goes
        # to the bound tables, which decide a saturated column as exactly.
        if (
            not isinstance(extra_z, float)
            or variation.weakest[stripe % 2] - load_z + extra_z < SATURATED_Z
        ):
            holds = below_ndtr(draws, strengths - load_z + extra_z)
            # A column that does not hold flips its latch (a view, updated
            # in place), and the write-back drives the flipped value.
            on_served = latched_upper[:, served]
            np.subtract(VDD, on_served, out=on_served, where=~holds)
        self._writeback_lane(stripe, rows, served, latched_upper, lane)

    def _writeback_lane(
        self,
        stripe: int,
        rows: _Rows,
        served: slice,
        resolved_upper: _FloatArray,
        lane: _Lane,
    ) -> None:
        """Drive the resolved stripe into every activated row on both of
        its sides (the lower side gets the complement)."""
        index = self._lane_index(lane)
        upper = resolved_upper[:, served]
        for subarray_index, value in ((stripe, upper), (stripe - 1, VDD - upper)):
            for local in rows.get(subarray_index, ()):
                self._row_state(subarray_index, local)[index, served] = value


class OneTrialBlock(BatchedBank):
    """A bank's own single-shot commands, run as a block of one trial.

    :class:`~repro.dram.bank.Bank` forwards its commands here, so
    single-shot programs and measurement blocks run one state machine.
    The block differs from a measurement block in two ways:

    * its rows are the bank's own cell arrays, not overlays, so commands
      act on the bank's cells and there is nothing to finalize;
    * its one generator is the bank's current noise stream, read at draw
      time, so after :meth:`Bank.reserve_trial_block` it draws from the
      last reserved trial's generator.

    It also takes the one-trial fast paths of the machine's cell access:
    a stripe side's rows are gathered and written back with one indexed
    access to the subarray's cells, and noise is drawn straight into a
    ``(1, size)`` array.  Every value is the one the overlay path gives
    (``tests/dram/test_single_shot_golden.py`` and the one-trial
    property in ``tests/dram/test_bank_properties.py`` pin this).

    The bank owns the block, so the block refers to the bank through a
    weak proxy: a reference cycle would keep a dropped bank's cells alive
    until the cyclic garbage collector ran.
    """

    def __init__(self, bank: Bank):
        # BatchedBank.__init__ would ask the bank whether it is open, and
        # the bank answers from this block, which it is still building.
        self.bank = weakref.proxy(bank)
        self._keep_constants(bank)
        self.n_trials = 1
        #: Always empty: there are no overlays.
        self._rows = {}
        self._lanes = [_Lane(trials=np.zeros(1, dtype=np.intp), state=None)]
        #: Each subarray's cells (the bank's own arrays).
        self._cells: List[NDArray[np.float32]] = [
            subarray.voltages for subarray in bank.subarrays
        ]
        #: What a stripe side without open rows gathers.
        self._no_cells: _FloatArray = np.empty((1, 0, self.columns // 2))

    @property
    def state(self) -> Optional[_OpenState]:
        """The open activation, or ``None`` when precharged."""
        return self._lanes[0].state

    def _row_state(self, subarray: int, local: int) -> NDArray[np.float32]:
        return self._cells[subarray][local : local + 1]

    def _lane_generators(self, lane: _Lane) -> Sequence[np.random.Generator]:
        return [self.bank._rng]

    def _normal_draws(self, lane: _Lane, size: int) -> _FloatArray:
        draws: _FloatArray = self.bank._rng.standard_normal((1, size))
        return draws

    def _uniform_draws(self, lane: _Lane, size: int) -> _FloatArray:
        draws: _FloatArray = self.bank._rng.random((1, size))
        return draws

    def _ignore(self, lane: _Lane) -> None:
        self.bank.ignored_commands += 1

    def _gather_side_lane(
        self,
        subarray_index: int,
        rows: _Rows,
        served: slice,
        lane: _Lane,
    ) -> NDArray[np.floating[Any]]:
        """The ``(1, rows, served)`` cells of one stripe side, in row
        order.  They stay float32: :func:`charge_share` upcasts them."""
        local_rows = rows.get(subarray_index)
        if not local_rows:
            return self._no_cells
        cells = self._cells[subarray_index][_row_index(local_rows), served]
        return cells[np.newaxis]

    def _writeback_lane(
        self,
        stripe: int,
        rows: _Rows,
        served: slice,
        resolved_upper: _FloatArray,
        lane: _Lane,
    ) -> None:
        upper = resolved_upper[:, served]
        local_rows = rows.get(stripe)
        if local_rows:
            self._cells[stripe][_row_index(local_rows), served] = upper
        local_rows = rows.get(stripe - 1)
        if local_rows:
            self._cells[stripe - 1][_row_index(local_rows), served] = VDD - upper


class BatchedModule:
    """Fans a batched trial block out across a module's lock-step chips.

    Reserves one trial-index block per chip (all chips must agree — they
    share the command bus) and stripes row data across per-chip column
    segments exactly like :class:`~repro.dram.module.Module`, whose
    bank-addressed methods it mirrors.  A block holds one bank: every
    method refuses another bank through :meth:`check_bank`.
    """

    def __init__(self, module: Module, bank: int, n_trials: int):
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        start, per_chip_generators = module.reserve_trial_block(bank, n_trials)
        self.module = module
        self.bank_index = bank
        self.n_trials = n_trials
        #: Absolute trial indices of this block (for fault injection).
        self.trial_indices = range(start, start + n_trials)
        self.banks: List[BatchedBank] = [
            BatchedBank(chip.bank(bank), generators)
            for chip, generators in zip(module.chips, per_chip_generators)
        ]

    @property
    def row_bits(self) -> int:
        return self.module.row_bits

    def check_bank(self, bank: int) -> None:
        """Refuse an address in any bank but the block's."""
        if bank != self.bank_index:
            raise AddressError(
                f"trial block is bound to bank {self.bank_index}; "
                f"got bank {bank}"
            )

    def activate(self, bank: int, row: int, time_ns: float) -> None:
        self.check_bank(bank)
        for chip_bank in self.banks:
            chip_bank.activate(row, time_ns)

    def precharge(self, bank: int, time_ns: float) -> None:
        self.check_bank(bank)
        for chip_bank in self.banks:
            chip_bank.precharge(time_ns)

    def settle(self, bank: int, time_ns: float) -> None:
        self.check_bank(bank)
        for chip_bank in self.banks:
            chip_bank.settle(time_ns)

    def refresh(self, bank: int, time_ns: float) -> None:
        self.check_bank(bank)
        for chip_bank in self.banks:
            chip_bank.refresh(time_ns)

    def write(self, bank: int, row: int, bits: Any, time_ns: float) -> None:
        self.check_bank(bank)
        data = self._check_module_bits(bits, "WR pattern")
        for i, chip_bank in enumerate(self.banks):
            chip_bank.write(row, data[..., self.module.chip_slice(i)], time_ns)

    def read(self, bank: int, row: int, time_ns: float) -> NDArray[np.uint8]:
        self.check_bank(bank)
        parts = [chip_bank.read(row, time_ns) for chip_bank in self.banks]
        return np.concatenate(parts, axis=1)

    def store_bits(self, bank: int, row: int, bits: Any) -> None:
        self.check_bank(bank)
        data = self._check_module_bits(bits, "bits")
        for i, chip_bank in enumerate(self.banks):
            chip_bank.store_bits(row, data[..., self.module.chip_slice(i)])

    def store_voltages(self, bank: int, row: int, volts: Any) -> None:
        self.check_bank(bank)
        data = self._check_module_bits(
            np.asarray(volts, dtype=np.float64), "voltages"
        )
        for i, chip_bank in enumerate(self.banks):
            chip_bank.store_voltages(row, data[..., self.module.chip_slice(i)])

    def load_bits(self, bank: int, row: int) -> NDArray[np.uint8]:
        self.check_bank(bank)
        parts = [chip_bank.load_bits(row) for chip_bank in self.banks]
        return np.concatenate(parts, axis=1)

    def finalize(self) -> None:
        for bank in self.banks:
            bank.finalize()

    def _check_module_bits(self, values: Any, what: str) -> NDArray[Any]:
        a = np.asarray(values)
        expected = (self.row_bits,)
        expected_batched = (self.n_trials, self.row_bits)
        if a.shape != expected and a.shape != expected_batched:
            raise ValueError(
                f"{what} must have shape {expected} or {expected_batched}, "
                f"got {a.shape}"
            )
        return a
