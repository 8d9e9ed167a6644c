"""Pluggable measurement backends (:class:`SubstrateBackend`).

One interface, two engines:

* ``analog`` — the analog-behavioral reference model (the default;
  bit-identical to the pre-substrate code paths).
* ``surrogate:PATH`` — fitted success-probability tables, fast enough
  for fleet-scale sweeps (fit with ``python -m repro.substrate fit``).

See :mod:`repro.substrate.base` for the protocol and the backend
specification-string grammar.
"""

from .analog import AnalogBackend
from .base import (
    ANY_DISTANCE,
    REGION_NAMES,
    LogicMeasurementLike,
    NotMeasurementLike,
    SubstrateBackend,
    distance_label,
    register_backend,
    reset_backend_cache,
    resolve_backend,
    unregister_backend,
)
from .fit import DEFAULT_GRID, SMOKE_GRID, FitGrid, fit_surrogate
from .surrogate import (
    SurrogateBackend,
    SurrogateTable,
    TableCell,
    pattern_key,
    sample_success_counts,
)

__all__ = [
    "SubstrateBackend",
    "AnalogBackend",
    "SurrogateBackend",
    "SurrogateTable",
    "TableCell",
    "NotMeasurementLike",
    "LogicMeasurementLike",
    "FitGrid",
    "DEFAULT_GRID",
    "SMOKE_GRID",
    "fit_surrogate",
    "pattern_key",
    "sample_success_counts",
    "distance_label",
    "REGION_NAMES",
    "ANY_DISTANCE",
    "resolve_backend",
    "register_backend",
    "unregister_backend",
    "reset_backend_cache",
]
