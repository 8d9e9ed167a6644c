"""The multi-backend substrate interface (`SubstrateBackend`).

Every success rate in the repository is ultimately a map from
*(operation, fan-in, distance class, temperature, data pattern)* to a
per-cell success probability.  The analog-behavioral simulator
(:mod:`repro.dram`) computes that map from first principles — charge
sharing, sense-amplifier fights, thermal noise — and is therefore the
slowest, most detailed model in the tree.  Fleet-scale and service
workloads only need the map itself, served fast.

:class:`SubstrateBackend` is the interface cut that makes the model
swappable without touching callers (the one-memory-API / pluggable-
backend split of Ramulator-style simulators).  Two implementations
ship:

* :class:`~repro.substrate.analog.AnalogBackend` — the existing analog
  model, bit-identical to calling :mod:`repro.core.success` directly.
  This is the *reference*: every other backend is validated against it.
* :class:`~repro.substrate.surrogate.SurrogateBackend` — fitted
  success-probability tables (``python -m repro.substrate fit``) with
  deterministic per-trial Bernoulli draws; orders of magnitude faster.

Backends are selected by *specification string* (picklable, so sweep
work objects can carry them across process-pool boundaries)::

    analog                  the analog-behavioral reference model
    surrogate:PATH          surrogate backend serving the table at PATH

:func:`resolve_backend` parses these, with a process-local cache so a
surrogate table is loaded once per process.  Tests can install
arbitrary backend objects under custom spec strings with
:func:`register_backend`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol, Tuple

import numpy as np

from ..errors import SubstrateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from ..bender.host import DramBenderHost
    from ..characterization.runner import SweepTarget
    from ..core.success import LogicPairResult, SuccessResult
    from ..dram.decoder import ActivationKind

__all__ = [
    "SubstrateBackend",
    "NotMeasurementLike",
    "LogicMeasurementLike",
    "REGION_NAMES",
    "distance_label",
    "resolve_backend",
    "register_backend",
    "unregister_backend",
    "reset_backend_cache",
]

#: Close/Middle/Far region names, indexed like
#: :meth:`repro.dram.bank.Bank.pattern_regions` (Figs. 9 and 17).
REGION_NAMES: Tuple[str, str, str] = ("close", "middle", "far")

#: Distance-class label of an unconstrained measurement (the pattern
#: search picked whatever region pair it found first).
ANY_DISTANCE = "any"


def distance_label(regions: Optional[Tuple[int, int]]) -> str:
    """The distance-class key for a region pair, ``"any"`` when free.

    >>> distance_label(None)
    'any'
    >>> distance_label((1, 2))
    'middle-far'
    """
    if regions is None:
        return ANY_DISTANCE
    first, last = regions
    return f"{REGION_NAMES[int(first)]}-{REGION_NAMES[int(last)]}"


class NotMeasurementLike(Protocol):
    """What a backend's NOT measurement must expose.

    :class:`repro.core.success.NotSuccessMeasurement` is the reference
    implementation; surrogate measurements mimic its surface.
    """

    @property
    def n_destination_rows(self) -> int: ...

    def run(self, trials: int, rng: np.random.Generator) -> "SuccessResult": ...


class LogicMeasurementLike(Protocol):
    """What a backend's N-input logic measurement must expose."""

    @property
    def n_inputs(self) -> int: ...

    def run(
        self,
        trials: int,
        rng: np.random.Generator,
        mode: str = "random",
        ones_count: Optional[int] = None,
    ) -> "LogicPairResult": ...


class SubstrateBackend(abc.ABC):
    """One engine serving per-cell success-rate measurements.

    The two ``find_*`` methods build measurements on a live
    :class:`~repro.characterization.runner.SweepTarget` (the sweep
    drivers' entry point; returning ``None`` reproduces the paper's
    capability gaps), and the two ``*_at`` methods build measurements on
    explicit row addresses (the unit-test entry point).  Measurements
    read the *current* module temperature at ``run()`` time, so callers
    keep setting temperature through the testing infrastructure exactly
    as they do against the analog model.
    """

    #: Short name used in result metadata and progress reports.
    name: str = "substrate"

    # -- sweep-level construction (capability gaps -> None) --------------

    @abc.abstractmethod
    def find_not_measurement(
        self,
        target: "SweepTarget",
        n_destination: int,
        kind: Optional["ActivationKind"] = None,
        regions: Optional[Tuple[int, int]] = None,
    ) -> Optional[NotMeasurementLike]:
        """A NOT measurement with ``n_destination`` destination rows,
        or ``None`` when this target cannot produce the pattern."""

    @abc.abstractmethod
    def find_logic_measurement(
        self,
        target: "SweepTarget",
        base_op: str,
        n_inputs: int,
        regions: Optional[Tuple[int, int]] = None,
    ) -> Optional[LogicMeasurementLike]:
        """An N-input AND/OR measurement (both terminals), or ``None``."""

    # -- direct-address construction (unit tests, examples) ---------------

    @abc.abstractmethod
    def not_measurement_at(
        self, host: "DramBenderHost", bank: int, src_row: int, dst_row: int
    ) -> NotMeasurementLike:
        """A NOT measurement on an explicit (src, dst) address pair."""

    @abc.abstractmethod
    def logic_measurement_at(
        self,
        host: "DramBenderHost",
        bank: int,
        ref_row: int,
        com_row: int,
        base_op: str = "and",
    ) -> LogicMeasurementLike:
        """A logic measurement on an explicit (ref, com) address pair."""

    # -- probability service (reliability-aware placement) ----------------

    def probability(
        self,
        operation: str,
        fan_in: int,
        temperature_c: float = 50.0,
        pattern: str = "random",
        spec_name: Optional[str] = None,
        distance: str = ANY_DISTANCE,
    ) -> Optional[float]:
        """Estimated per-cell success probability, or ``None`` if this
        backend cannot answer without running a measurement (the analog
        model can't; the surrogate serves its fitted table)."""
        return None


# ----------------------------------------------------------------------
# backend specification strings
# ----------------------------------------------------------------------

#: Test-installed backends, keyed by spec string (process-local).
_REGISTRY: Dict[str, SubstrateBackend] = {}

#: Parsed-spec cache so each process loads a surrogate table exactly
#: once per spec string.
_CACHE: Dict[str, SubstrateBackend] = {}


def register_backend(spec: str, backend: SubstrateBackend) -> str:
    """Install ``backend`` under ``spec`` for this process.

    Registered backends win over spec parsing; use for test doubles and
    for programmatically-constructed backends that have no file path.
    Registered objects do not cross process-pool boundaries — sweeps
    using them must run with ``jobs=1``.
    """
    _REGISTRY[spec] = backend
    return spec


def unregister_backend(spec: str) -> None:
    """Remove a registered backend (no-op if absent)."""
    _REGISTRY.pop(spec, None)


def reset_backend_cache() -> None:
    """Drop all cached parsed backends (tests that re-fit tables)."""
    _CACHE.clear()


def resolve_backend(spec: Any) -> SubstrateBackend:
    """Resolve a backend from a spec string (or pass an instance through).

    See the module docstring for the spec grammar.  Parsing is cached
    per process; repeated resolutions of one spec return one instance.
    """
    if isinstance(spec, SubstrateBackend):
        return spec
    if not isinstance(spec, str):
        raise SubstrateError(
            f"backend spec must be a string or SubstrateBackend, got {spec!r}"
        )
    if spec in _REGISTRY:
        return _REGISTRY[spec]
    if spec in _CACHE:
        return _CACHE[spec]
    backend = _parse_spec(spec)
    _CACHE[spec] = backend
    return backend


def _parse_spec(spec: str) -> SubstrateBackend:
    from .analog import AnalogBackend
    from .surrogate import SurrogateBackend, SurrogateTable

    if spec == "analog":
        return AnalogBackend()
    kind, _separator, path = spec.partition(":")
    if kind != "surrogate" or not path:
        raise SubstrateError(
            f"unknown backend spec {spec!r}; expected 'analog' or "
            "'surrogate:PATH'"
        )
    return SurrogateBackend(SurrogateTable.load(path))
