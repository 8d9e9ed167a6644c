"""Shared fixtures.

Two module flavors are used throughout:

* ``ideal_host`` — a chip with :func:`repro.ideal_calibration`: noise-free
  and always-engaging, for *functional* tests (what an operation
  computes).
* ``real_host`` — the calibrated SK Hynix reference die, for *behavioral*
  tests (how reliably it computes, manufacturer policies, statistics).

Both use a small geometry so the whole suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.internal.conjecture import providers as _providers

from repro import (
    ChipGeometry,
    SeedTree,
    ideal_calibration,
    micron_chip,
    samsung_chip,
    sk_hynix_chip,
)
from repro.bender import DramBenderHost
from repro.dram.module import Module

# Tier-1 gives the same verdict on every run: each property test replays
# a fixed sequence of draws, with no example database and no
# timing-dependent deadline or health check.  ``pytest
# --hypothesis-profile=randomized`` (its own CI job) draws fresh examples.
settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "randomized", parent=settings.get_profile("tier1"), derandomize=False
)
settings.load_profile("tier1")

# Hypothesis also draws from the literals of every loaded local module
# (``providers._get_local_constants``), so with that pool a property's
# examples would depend on what the run imported and on unrelated
# literals anywhere in src/ and tests/.  Tier-1 draws from an empty pool
# instead; the randomized profile keeps it.
_local_constants = getattr(_providers, "_get_local_constants", None)
if _local_constants is None:
    raise RuntimeError(
        "hypothesis.internal.conjecture.providers._get_local_constants is "
        "gone: update the tier-1 shim in tests/conftest.py, or tier-1 draws "
        "depend on the literals of every imported module"
    )
_NO_LOCAL_CONSTANTS = _providers.Constants()


def _tier1_local_constants():
    if settings.get_current_profile_name() == "tier1":
        return _NO_LOCAL_CONSTANTS
    return _local_constants()


_providers._get_local_constants = _tier1_local_constants

#: Small but structurally complete: 4 subarrays, 192 rows (12 LWL blocks,
#: divisible by 32 for the largest activation span), 64 columns.
SMALL_GEOMETRY = ChipGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=192, columns=64
)


@pytest.fixture(scope="session")
def small_geometry():
    return SMALL_GEOMETRY


@pytest.fixture(scope="session")
def hynix_config(small_geometry):
    return sk_hynix_chip().with_geometry(small_geometry)


@pytest.fixture(scope="session")
def samsung_config(small_geometry):
    return samsung_chip().with_geometry(small_geometry)


@pytest.fixture(scope="session")
def micron_config(small_geometry):
    return micron_chip().with_geometry(small_geometry)


@pytest.fixture()
def ideal_module(hynix_config):
    return Module(
        hynix_config,
        chip_count=1,
        seed_tree=SeedTree(7),
        calibration=ideal_calibration(),
    )


@pytest.fixture()
def ideal_host(ideal_module):
    return DramBenderHost(ideal_module)


@pytest.fixture()
def real_module(hynix_config):
    return Module(hynix_config, chip_count=1, seed_tree=SeedTree(7))


@pytest.fixture()
def real_host(real_module):
    return DramBenderHost(real_module)


@pytest.fixture()
def samsung_host(samsung_config):
    module = Module(samsung_config, chip_count=1, seed_tree=SeedTree(11))
    return DramBenderHost(module)


@pytest.fixture()
def micron_host(micron_config):
    module = Module(micron_config, chip_count=1, seed_tree=SeedTree(13))
    return DramBenderHost(module)


@pytest.fixture()
def backend():
    """The analog :class:`repro.substrate.SubstrateBackend`, so
    measurement tests build their measurements through the backend
    interface."""
    from repro.substrate import AnalogBackend

    return AnalogBackend()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_row(host: DramBenderHost, rng: np.random.Generator) -> np.ndarray:
    """A random module-width row pattern."""
    return rng.integers(0, 2, host.module.row_bits, dtype=np.uint8)
