"""Persisted reliability policies: which scheme serves which cell.

A :class:`PolicyTable` is what the auto-tuner emits: for every tuned
*(operation, fan-in, region/distance class, temperature)* cell, the
cheapest :class:`~repro.reliability.schemes.MitigationScheme` whose
predicted residual error meets the target bound, together with the
engineering probability it was selected at and its predicted error and
cost.  Cells the tuner *proved* unsatisfiable (statically infeasible
per Observation 14, or no candidate scheme converging below the bound)
are recorded explicitly with their reason — looking one up raises a
typed :class:`~repro.errors.ReliabilityUnsatisfiableError` rather than
silently degrading.

The JSON format mirrors the surrogate table's: ``operation|fan_in|
distance|temperature`` keys, an explicit ``format`` version, and atomic
writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..atomicio import atomic_write_json
from ..errors import (
    ReliabilityError,
    ReliabilityUnsatisfiableError,
)
from .schemes import MitigationScheme

__all__ = ["PolicyEntry", "PolicyTable", "ANY_DISTANCE"]

#: Distance-class wildcard, matching the surrogate table's convention.
ANY_DISTANCE = "any"

PolicyKey = Tuple[str, int, str, float]


@dataclass(frozen=True)
class PolicyEntry:
    """One tuned cell: the chosen scheme and the numbers behind it."""

    scheme: MitigationScheme
    #: Engineering success probability the selection used (the fitted
    #: probability minus the tuner's slack).
    probability: float
    #: Residual per-cell error the scheme predicts at ``probability``.
    predicted_error: float
    #: Expected op-sequence executions per logical operation.
    expected_cost: float
    #: The bound this entry was tuned against.
    error_bound: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme.label,
            "probability": self.probability,
            "predicted_error": self.predicted_error,
            "expected_cost": self.expected_cost,
            "error_bound": self.error_bound,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PolicyEntry":
        return cls(
            scheme=MitigationScheme.from_label(str(payload["scheme"])),
            probability=float(payload["probability"]),
            predicted_error=float(payload["predicted_error"]),
            expected_cost=float(payload["expected_cost"]),
            error_bound=float(payload["error_bound"]),
        )


def _format_key(key: PolicyKey) -> str:
    operation, fan_in, distance, temperature = key
    return f"{operation}|{fan_in}|{distance}|{temperature:g}"


def _parse_key(raw: str) -> PolicyKey:
    parts = raw.split("|")
    if len(parts) != 4:
        raise ReliabilityError(f"malformed policy key {raw!r}")
    return parts[0], int(parts[1]), parts[2], float(parts[3])


class PolicyTable:
    """The tuned (operation, fan-in, distance, temperature) -> scheme map."""

    FORMAT = 1

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self._entries: Dict[PolicyKey, PolicyEntry] = {}
        self._unsatisfiable: Dict[PolicyKey, str] = {}

    # -- construction ------------------------------------------------------

    def set(self, key: PolicyKey, entry: PolicyEntry) -> None:
        self._entries[key] = entry
        self._unsatisfiable.pop(key, None)

    def set_unsatisfiable(self, key: PolicyKey, reason: str) -> None:
        self._unsatisfiable[key] = reason
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def unsatisfiable_count(self) -> int:
        return len(self._unsatisfiable)

    def __iter__(self) -> Iterator[Tuple[PolicyKey, PolicyEntry]]:
        return iter(sorted(self._entries.items()))

    def unsatisfiable_cells(self) -> Iterator[Tuple[PolicyKey, str]]:
        return iter(sorted(self._unsatisfiable.items()))

    # -- lookup ------------------------------------------------------------

    def _temperatures_for(
        self, operation: str, fan_in: int, distance: str
    ) -> List[float]:
        return sorted(
            t
            for (op, n, dist, t) in self._entries
            if op == operation and n == fan_in and dist == distance
        )

    def scheme_for(
        self,
        operation: str,
        fan_in: int,
        distance: str = ANY_DISTANCE,
        temperature_c: float = 50.0,
    ) -> PolicyEntry:
        """The tuned entry for a cell, at the nearest tuned temperature.

        Falls back from the requested distance class to ``"any"``; a
        cell tuned *unsatisfiable* raises
        :class:`~repro.errors.ReliabilityUnsatisfiableError` and an
        untuned cell raises :class:`~repro.errors.ReliabilityError`.
        """
        for dist in dict.fromkeys((distance, ANY_DISTANCE)):
            temps = self._temperatures_for(operation, fan_in, dist)
            if temps:
                nearest = min(temps, key=lambda t: abs(t - temperature_c))
                return self._entries[(operation, fan_in, dist, nearest)]
            for (op, n, d, _t), reason in sorted(self._unsatisfiable.items()):
                if (op, n, d) == (operation, fan_in, dist):
                    raise ReliabilityUnsatisfiableError(
                        f"{operation} n={fan_in} ({dist}) was tuned "
                        f"unsatisfiable: {reason}",
                        operation=operation,
                        fan_in=fan_in,
                    )
        raise ReliabilityError(
            f"no tuned policy for {operation} n={fan_in} "
            f"distance={distance!r}; run `python -m repro.reliability tune` "
            "with this configuration in its grid"
        )

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format": self.FORMAT,
            "meta": self.meta,
            "cells": {
                _format_key(key): entry.to_dict() for key, entry in self
            },
            "unsatisfiable": {
                _format_key(key): reason
                for key, reason in self.unsatisfiable_cells()
            },
        }

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PolicyTable":
        if payload.get("format") != cls.FORMAT:
            raise ReliabilityError(
                f"unsupported policy table format {payload.get('format')!r}"
            )
        meta = payload.get("meta")
        table = cls(meta if isinstance(meta, dict) else {})
        cells = payload.get("cells")
        if not isinstance(cells, dict):
            raise ReliabilityError("policy table has no 'cells' mapping")
        for raw_key, raw_entry in cells.items():
            table.set(_parse_key(str(raw_key)), PolicyEntry.from_dict(raw_entry))
        unsat = payload.get("unsatisfiable", {})
        if not isinstance(unsat, dict):
            raise ReliabilityError("'unsatisfiable' must be a mapping")
        for raw_key, reason in unsat.items():
            table.set_unsatisfiable(_parse_key(str(raw_key)), str(reason))
        return table

    @classmethod
    def load(cls, path: str) -> "PolicyTable":
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as error:
            raise ReliabilityError(
                f"cannot read policy table {path!r}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise ReliabilityError(
                f"policy table {path!r} is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ReliabilityError(f"policy table {path!r} must be an object")
        return cls.from_payload(payload)

    # -- display -----------------------------------------------------------

    def summary_lines(self) -> List[str]:
        lines = []
        for (operation, fan_in, distance, temperature), entry in self:
            lines.append(
                f"{operation:>4} n={fan_in:<2} {distance:<12} "
                f"{temperature:5.1f}C -> {entry.scheme.label:<20} "
                f"err={entry.predicted_error:.2e} "
                f"cost={entry.expected_cost:.2f}x p={entry.probability:.4f}"
            )
        for (operation, fan_in, distance, temperature), reason in (
            self.unsatisfiable_cells()
        ):
            lines.append(
                f"{operation:>4} n={fan_in:<2} {distance:<12} "
                f"{temperature:5.1f}C -> UNSATISFIABLE: {reason}"
            )
        return lines
