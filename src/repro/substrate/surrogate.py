"""The fitted success-probability surrogate backend.

The paper's characterization reduces to a map from *(operation, fan-in,
distance class, temperature, data pattern)* to a per-cell success
probability.  :class:`SurrogateTable` stores that map — fitted from the
analog reference by ``python -m repro.substrate fit`` — and
:class:`SurrogateBackend` serves measurements from it: each trial is one
deterministic Bernoulli draw per cell from the caller-supplied
counter-keyed RNG substream, so a surrogate sweep is exactly
reproducible from its seed while skipping every charge-sharing
evaluation.

Lookups fall back along an explicit chain — exact spec and distance
class, then the spec's ``any``-distance cell, then the fleet-wide
aggregate — and raise :class:`~repro.errors.SurrogateTableError` when no
cell matches, rather than inventing a probability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..atomicio import atomic_write_json
from ..core.addressing import logic_capability, not_capability
from ..core.layout import chip_shared_columns
from ..core.success import LogicPairResult, SuccessResult
from ..dram.decoder import ActivationKind
from ..errors import SubstrateError, SurrogateTableError
from .base import ANY_DISTANCE, SubstrateBackend, distance_label

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..bender.host import DramBenderHost
    from ..characterization.runner import SweepTarget

__all__ = [
    "SurrogateTable",
    "SurrogateBackend",
    "TableCell",
    "pattern_key",
    "sample_success_counts",
]

#: Spec-name wildcard under which fleet-wide aggregate cells are stored.
AGGREGATE_SPEC = "*"

#: Trials are sampled in fixed blocks of this many draws, which bounds
#: the memory of one draw.
_SAMPLE_BLOCK = 1024


def pattern_key(mode: str, ones_count: Optional[int] = None) -> str:
    """The table's data-pattern key for a measurement mode.

    >>> pattern_key("random")
    'random'
    >>> pattern_key("ones_count", 3)
    'ones_count=3'
    """
    if mode == "ones_count":
        if ones_count is None:
            raise ValueError("ones_count mode needs an explicit count")
        return f"ones_count={ones_count}"
    return mode


def sample_success_counts(
    rng: np.random.Generator,
    probability: float,
    trials: int,
    n_rows: int,
    n_cols: int,
) -> np.ndarray:
    """Per-cell success counts from ``trials`` Bernoulli draws per cell.

    Each trial consumes one uniform per cell, in a fixed block order, so
    the counts are a pure function of (rng state, probability, shape).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    remaining = trials
    while remaining > 0:
        block = min(_SAMPLE_BLOCK, remaining)
        draws = rng.random((block, n_rows, n_cols))
        counts += (draws < probability).sum(axis=0)
        remaining -= block
    return counts


@dataclass
class TableCell:
    """One fitted (spec, operation, fan-in, distance, pattern) cell."""

    #: Mean per-cell success probability at each fitted temperature.
    probabilities: Dict[float, float] = field(default_factory=dict)
    #: Fraction of capability-eligible targets where the pattern search
    #: actually found an address pair (the paper's per-module gaps).
    found_rate: float = 1.0
    #: Destination/terminal row count of the measurements behind this cell.
    n_rows: int = 1

    def probability_at(self, temperature_c: float) -> float:
        """Linear interpolation over the fitted temperature grid, clamped
        at both ends."""
        if not self.probabilities:
            raise SurrogateTableError("cell has no fitted temperatures")
        temps = sorted(self.probabilities)
        values = [self.probabilities[t] for t in temps]
        value = float(np.interp(float(temperature_c), temps, values))
        # np.interp can round past an end of the fitted range (for a
        # subnormal knot spacing); an interpolated probability never may.
        return min(max(value, min(values)), max(values))


Key = Tuple[str, str, int, str, str]


class SurrogateTable:
    """The fitted probability map, with JSON persistence.

    Keys are ``(spec_name, operation, fan_in, distance, pattern)``;
    ``spec_name`` ``"*"`` holds fleet-wide aggregates and ``distance``
    ``"any"`` holds distance-unconstrained fits.
    """

    FORMAT = 1

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self._cells: Dict[Key, TableCell] = {}

    # -- construction (fitting) -------------------------------------------

    def cell(self, key: Key) -> TableCell:
        """The cell for ``key``, created empty on first access."""
        if key not in self._cells:
            self._cells[key] = TableCell()
        return self._cells[key]

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: Key) -> bool:
        return key in self._cells

    def __iter__(self) -> Iterator[Tuple[Key, TableCell]]:
        return iter(sorted(self._cells.items()))

    # -- lookup ------------------------------------------------------------

    def _candidates(
        self, spec_name: str, operation: str, fan_in: int, distance: str, pattern: str
    ) -> List[Key]:
        """The fallback chain: exact spec and distance first, then the
        spec's any-distance cell, then the fleet aggregates, and for
        constant-operand patterns finally the random-pattern cells."""
        patterns = [pattern] if pattern == "random" else [pattern, "random"]
        keys: List[Key] = []
        for pat in patterns:
            for spec in (spec_name, AGGREGATE_SPEC):
                for dist in (distance, ANY_DISTANCE):
                    key = (spec, operation, fan_in, dist, pat)
                    if key not in keys:
                        keys.append(key)
        return keys

    def find_cell(
        self,
        spec_name: str,
        operation: str,
        fan_in: int,
        distance: str = ANY_DISTANCE,
        pattern: str = "random",
    ) -> TableCell:
        for key in self._candidates(spec_name, operation, fan_in, distance, pattern):
            found = self._cells.get(key)
            if found is not None and found.probabilities:
                return found
        raise SurrogateTableError(
            f"no fitted cell for spec={spec_name!r} operation={operation!r} "
            f"fan_in={fan_in} distance={distance!r} pattern={pattern!r}; "
            "refit the table with this configuration in its grid"
        )

    def probability(
        self,
        spec_name: str,
        operation: str,
        fan_in: int,
        temperature_c: float,
        distance: str = ANY_DISTANCE,
        pattern: str = "random",
    ) -> float:
        return self.find_cell(
            spec_name, operation, fan_in, distance, pattern
        ).probability_at(temperature_c)

    def availability(
        self,
        spec_name: str,
        operation: str,
        fan_in: int,
        distance: str = ANY_DISTANCE,
        pattern: str = "random",
    ) -> float:
        """Fitted pattern-search success rate (1.0 when unfitted)."""
        try:
            return self.find_cell(
                spec_name, operation, fan_in, distance, pattern
            ).found_rate
        except SurrogateTableError:
            return 1.0

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        cells: Dict[str, Any] = {}
        for (spec, operation, fan_in, distance, pattern), cell in self:
            cells["|".join((spec, operation, str(fan_in), distance, pattern))] = {
                "p": {repr(float(t)): p for t, p in sorted(cell.probabilities.items())},
                "found_rate": cell.found_rate,
                "n_rows": cell.n_rows,
            }
        return {"format": self.FORMAT, "meta": self.meta, "cells": cells}

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SurrogateTable":
        if payload.get("format") != cls.FORMAT:
            raise SurrogateTableError(
                f"unsupported surrogate table format {payload.get('format')!r}"
            )
        meta = payload.get("meta")
        table = cls(meta if isinstance(meta, dict) else {})
        cells = payload.get("cells")
        if not isinstance(cells, dict):
            raise SurrogateTableError("surrogate table has no 'cells' mapping")
        for raw_key, raw_cell in cells.items():
            parts = str(raw_key).split("|")
            if len(parts) != 5:
                raise SurrogateTableError(f"malformed table key {raw_key!r}")
            spec, operation, fan_in, distance, pattern = parts
            cell = table.cell((spec, operation, int(fan_in), distance, pattern))
            cell.probabilities = {
                float(t): float(p) for t, p in raw_cell["p"].items()
            }
            cell.found_rate = float(raw_cell.get("found_rate", 1.0))
            cell.n_rows = int(raw_cell.get("n_rows", 1))
        return table

    @classmethod
    def load(cls, path: str) -> "SurrogateTable":
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as error:
            raise SurrogateTableError(
                f"cannot read surrogate table {path!r}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise SurrogateTableError(
                f"surrogate table {path!r} is not valid JSON: {error}"
            ) from error
        return cls.from_payload(payload)


def _shared_column_count(target: "SweepTarget") -> int:
    per_chip = chip_shared_columns(
        target.spec.chip.geometry, *target.subarray_pair
    )
    return int(per_chip.size) * target.module.chip_count


# ----------------------------------------------------------------------
# surrogate measurements
# ----------------------------------------------------------------------


class _SurrogateMeasurement:
    """Shared plumbing: probability lookup at the *current* temperature."""

    def __init__(
        self,
        table: SurrogateTable,
        spec_name: str,
        distance: str,
        n_cols: int,
        temperature_of: Callable[[], float],
    ) -> None:
        self._table = table
        self._spec_name = spec_name
        self._distance = distance
        self._n_cols = n_cols
        self._temperature_of = temperature_of

    def _probability(self, operation: str, fan_in: int, pattern: str) -> float:
        return self._table.probability(
            self._spec_name,
            operation,
            fan_in,
            self._temperature_of(),
            distance=self._distance,
            pattern=pattern,
        )


class SurrogateNotMeasurement(_SurrogateMeasurement):
    """A NOT measurement served from the table (no analog evaluation)."""

    def __init__(
        self,
        table: SurrogateTable,
        spec_name: str,
        n_destination: int,
        kind: ActivationKind,
        distance: str,
        n_rows: int,
        n_cols: int,
        temperature_of: Callable[[], float],
    ) -> None:
        super().__init__(table, spec_name, distance, n_cols, temperature_of)
        self._n_destination = n_destination
        self._kind = kind
        self._n_rows = n_rows

    @property
    def n_destination_rows(self) -> int:
        return self._n_rows

    def run(self, trials: int, rng: np.random.Generator) -> SuccessResult:
        probability = self._probability("not", self._n_destination, "random")
        counts = sample_success_counts(
            rng, probability, trials, self._n_rows, self._n_cols
        )
        return SuccessResult(
            success_counts=counts,
            trials=trials,
            metadata={
                "operation": "not",
                "pattern": f"surrogate:{self._distance}",
                "kind": self._kind.value,
                "n_destination_rows": self._n_rows,
                "backend": "surrogate",
            },
        )


class SurrogateLogicMeasurement(_SurrogateMeasurement):
    """An N-input logic measurement served from the table."""

    MODES = ("random", "all01", "ones_count")

    def __init__(
        self,
        table: SurrogateTable,
        spec_name: str,
        base_op: str,
        n_inputs: int,
        distance: str,
        n_cols: int,
        temperature_of: Callable[[], float],
    ) -> None:
        if base_op not in ("and", "or"):
            raise ValueError(f"base_op must be 'and' or 'or', got {base_op!r}")
        super().__init__(table, spec_name, distance, n_cols, temperature_of)
        self._base_op = base_op
        self._n_inputs = n_inputs

    @property
    def n_inputs(self) -> int:
        return self._n_inputs

    def run(
        self,
        trials: int,
        rng: np.random.Generator,
        mode: str = "random",
        ones_count: Optional[int] = None,
    ) -> LogicPairResult:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {self.MODES}")
        if mode == "ones_count" and (
            ones_count is None or not 0 <= ones_count <= self._n_inputs
        ):
            raise ValueError(
                f"ones_count must be in [0, {self._n_inputs}] for mode 'ones_count'"
            )
        pattern = pattern_key(mode, ones_count)
        primary_name = self._base_op
        complement_name = "nand" if self._base_op == "and" else "nor"

        results: Dict[str, SuccessResult] = {}
        for name in (primary_name, complement_name):
            cell = self._table.find_cell(
                self._spec_name, name, self._n_inputs,
                distance=self._distance, pattern=pattern,
            )
            probability = cell.probability_at(self._temperature_of())
            counts = sample_success_counts(
                rng, probability, trials, cell.n_rows, self._n_cols
            )
            results[name] = SuccessResult(
                success_counts=counts,
                trials=trials,
                metadata={
                    "operation": name,
                    "n_inputs": self._n_inputs,
                    "mode": mode,
                    "ones_count": ones_count,
                    "pattern": f"surrogate:{self._distance}",
                    "backend": "surrogate",
                },
            )
        return LogicPairResult(
            primary=results[primary_name], complement=results[complement_name]
        )


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------


class SurrogateBackend(SubstrateBackend):
    """Serve measurements from a fitted :class:`SurrogateTable`.

    Capability gaps are re-derived from the chip spec (same rules as the
    analog construction path); pattern-search *availability* — whether a
    usable address pair exists on a given target — is replayed from the
    fitted found-rate with a deterministic per-target draw, so a
    surrogate sweep shows the same kind of per-module gaps the analog
    sweep does, at the same rate, reproducibly.
    """

    name = "surrogate"

    def __init__(self, table: SurrogateTable) -> None:
        self.table = table

    # -- sweep-level construction -----------------------------------------

    def _available(
        self, target: "SweepTarget", operation: str, fan_in: int, distance: str
    ) -> bool:
        rate = self.table.availability(
            target.spec.name, operation, fan_in, distance=distance
        )
        if rate >= 1.0:
            return True
        draw = target.pair_seed(
            "surrogate-availability", operation, str(fan_in), distance
        ) / float(1 << 31)
        return draw < rate

    def find_not_measurement(
        self,
        target: "SweepTarget",
        n_destination: int,
        kind: Optional[ActivationKind] = None,
        regions: Optional[Tuple[int, int]] = None,
    ) -> Optional[SurrogateNotMeasurement]:
        resolved = not_capability(target.spec.chip, n_destination, kind)
        if resolved is None:
            return None
        resolved_kind, _n = resolved
        distance = distance_label(regions)
        if not self._available(target, "not", n_destination, distance):
            return None
        try:
            cell = self.table.find_cell(
                target.spec.name, "not", n_destination, distance=distance
            )
        except SurrogateTableError:
            return None
        module = target.module

        def temperature_of() -> float:
            return float(module.temperature_c)

        return SurrogateNotMeasurement(
            self.table,
            target.spec.name,
            n_destination,
            resolved_kind,
            distance,
            cell.n_rows,
            _shared_column_count(target),
            temperature_of,
        )

    def find_logic_measurement(
        self,
        target: "SweepTarget",
        base_op: str,
        n_inputs: int,
        regions: Optional[Tuple[int, int]] = None,
    ) -> Optional[SurrogateLogicMeasurement]:
        if not logic_capability(target.spec.chip, n_inputs):
            return None
        distance = distance_label(regions)
        if not self._available(target, base_op, n_inputs, distance):
            return None
        try:
            self.table.find_cell(
                target.spec.name, base_op, n_inputs, distance=distance
            )
        except SurrogateTableError:
            return None
        module = target.module

        def temperature_of() -> float:
            return float(module.temperature_c)

        return SurrogateLogicMeasurement(
            self.table,
            target.spec.name,
            base_op,
            n_inputs,
            distance,
            _shared_column_count(target),
            temperature_of,
        )

    # -- direct-address construction ---------------------------------------

    def not_measurement_at(
        self, host: "DramBenderHost", bank: int, src_row: int, dst_row: int
    ) -> SurrogateNotMeasurement:
        raise SubstrateError(
            "the surrogate backend serves fleet-level cells, not explicit "
            "row addresses; use the analog backend for address-level "
            "measurements"
        )

    def logic_measurement_at(
        self,
        host: "DramBenderHost",
        bank: int,
        ref_row: int,
        com_row: int,
        base_op: str = "and",
    ) -> SurrogateLogicMeasurement:
        raise SubstrateError(
            "the surrogate backend serves fleet-level cells, not explicit "
            "row addresses; use the analog backend for address-level "
            "measurements"
        )

    # -- probability service -----------------------------------------------

    def probability(
        self,
        operation: str,
        fan_in: int,
        temperature_c: float = 50.0,
        pattern: str = "random",
        spec_name: Optional[str] = None,
        distance: str = ANY_DISTANCE,
    ) -> Optional[float]:
        try:
            return self.table.probability(
                spec_name or AGGREGATE_SPEC,
                operation,
                fan_in,
                temperature_c,
                distance=distance,
                pattern=pattern,
            )
        except SurrogateTableError:
            return None
