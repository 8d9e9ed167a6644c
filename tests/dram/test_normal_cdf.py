"""The in-repo normal CDF and the latch fight's hold decision.

:func:`repro.dram.normal.ndtr` ports Cephes ``ndtr``, the routine
``scipy.special.ndtr`` evaluates, and must return SciPy's value bit for
bit; :func:`~repro.dram.normal.below_ndtr` must decide ``u < ndtr(z)``
exactly from its bound tables.  ``data/golden_normal_cdf.json`` holds
``float.hex`` pairs ``(z, ndtr(z))`` recorded with SciPy: every branch
edge of the routine, one ulp on either side of each, and a seeded
spread over [-40, 10].  It runs without SciPy; the differential tests
at the bottom run only where SciPy is installed.

Running this file as a script re-records the fixture with SciPy (and
refuses without it)::

    PYTHONPATH=src python tests/dram/test_normal_cdf.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import ChipGeometry, SeedTree, ideal_calibration, sk_hynix_chip
from repro.bender import DramBenderHost
from repro.core.addressing import find_pattern_pair
from repro.core.rowclone import rowclone
from repro.core.success import NotSuccessMeasurement
from repro.dram import batch, normal
from repro.dram.calibration import REFERENCE_CALIBRATION
from repro.dram.decoder import ActivationKind
from repro.dram.module import Module
from repro.dram.normal import (
    BOUND_MARGIN,
    CELLS_PER_UNIT,
    SATURATED_Z,
    Z_EDGE,
    below_ndtr,
    ndtr,
)
from repro.dram.variation import StripeVariation

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_normal_cdf.json"

#: The last z at which ``ndtr`` underflows to 0.0 (``erfc`` passes MAXLOG).
UNDERFLOW_Z = -37.67712072049519

GEOMETRY = ChipGeometry(banks=2, subarrays_per_bank=4, rows_per_subarray=192, columns=64)


def _neighbors(z):
    return [math.nextafter(z, -math.inf), z, math.nextafter(z, math.inf)]


def golden_points():
    """Every z the fixture holds, in order."""
    edges = [0.0, SATURATED_Z]
    for magnitude in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), -UNDERFLOW_Z):
        edges += [-magnitude, magnitude]
    points = [z for edge in edges for z in _neighbors(edge)]
    spread = np.random.default_rng(20240).uniform(-40.0, 10.0, 1000)
    return points + spread.tolist()


def _grid():
    """Every grid point of the bound tables."""
    edge = int(Z_EDGE * CELLS_PER_UNIT)
    return np.arange(-edge, edge + 1, dtype=np.float64) / CELLS_PER_UNIT


class TestPort:
    def test_matches_the_scipy_recording_bit_for_bit(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert len(golden["points"]) == len(golden_points())
        for z_hex, phi_hex in golden["points"]:
            assert ndtr(float.fromhex(z_hex)).hex() == phi_hex, z_hex

    def test_the_fixture_holds_every_branch_edge(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        recorded = [float.fromhex(z) for z, _ in golden["points"]]
        assert recorded == golden_points()

    def test_underflow_and_saturation_edges(self):
        assert ndtr(UNDERFLOW_Z) == 0.0
        assert ndtr(math.nextafter(UNDERFLOW_Z, 0.0)) > 0.0
        assert ndtr(-1e300) == 0.0 and ndtr(-math.inf) == 0.0
        assert ndtr(math.nextafter(SATURATED_Z, 0.0)) < 1.0
        z = SATURATED_Z
        for _ in range(20_000):
            assert ndtr(z) == 1.0
            z = math.nextafter(z, math.inf)
        spread = np.random.default_rng(3).uniform(SATURATED_Z, 40.0, 2000)
        assert all(ndtr(z) == 1.0 for z in spread.tolist())
        assert ndtr(math.inf) == 1.0

    def test_nan_propagates(self):
        assert math.isnan(ndtr(math.nan))


class TestBoundTables:
    def test_every_grid_point_lies_inside_its_bounds(self):
        # The bounds come from np.exp; each must sit at least half the
        # margin outside the scalar port's value, so the other half
        # covers the rounding of the cell index and the port's wobble.
        phi = np.array([ndtr(z) for z in _grid().tolist()])
        assert np.all(normal._UPPER[:-1] >= phi + BOUND_MARGIN / 2)
        assert np.all(normal._LOWER[1:-1] <= phi[:-1] - BOUND_MARGIN / 2)

    def test_every_float_beside_a_grid_point_lies_in_its_cell(self):
        grid = _grid()
        for z in (np.nextafter(grid, -np.inf), grid, np.nextafter(grid, np.inf)):
            cells = normal._cells(z)
            phi = np.array([ndtr(v) for v in z.tolist()])
            assert np.all(normal._LOWER.take(cells) <= phi)
            assert np.all(normal._UPPER.take(cells) >= phi)

    def test_the_outer_cells(self):
        cells = normal._cells(np.array([-np.inf, -1e300, -Z_EDGE - 1e-9, np.nan]))
        assert cells.tolist() == [0, 0, 0, 0]
        assert normal._LOWER[0] == 0.0
        assert normal._UPPER[0] == pytest.approx(BOUND_MARGIN, rel=1e-3)
        top = normal._cells(np.array([Z_EDGE, 1e300, np.inf]))
        assert set(top.tolist()) == {normal._LOWER.size - 1}
        assert normal._LOWER[-1] == normal._UPPER[-1] == 1.0

    def test_the_tables_stay_small(self):
        assert normal._LOWER.nbytes + normal._UPPER.nbytes <= 1 << 20


def _probes(z, rng):
    """Draws below, at and above Φ(z) (per element, one ulp apart) and a
    uniform draw, each shaped like ``z``."""
    phi = np.vectorize(ndtr, otypes=[np.float64])(z)
    return [
        np.nextafter(phi, -np.inf),
        phi,
        np.nextafter(phi, np.inf),
        rng.random(np.shape(z)),
    ]


def _expected(u, z):
    u, z = np.broadcast_arrays(np.asarray(u, dtype=np.float64), z)
    return np.array([a < ndtr(b) for a, b in zip(u.ravel().tolist(), z.ravel().tolist())]).reshape(u.shape)


class TestBelowNdtr:
    @pytest.mark.parametrize("shape", [(32,), (1, 32), (75, 32)])
    def test_exact_at_and_beside_the_cdf(self, shape):
        rng = np.random.default_rng(11)
        for z in (rng.normal(0.0, 3.0, shape), rng.uniform(-40.0, 12.0, shape)):
            for u in _probes(z, rng):
                assert np.array_equal(below_ndtr(u, z), _expected(u, z))

    def test_broadcast_z_over_trials(self):
        rng = np.random.default_rng(12)
        z = rng.normal(0.0, 2.0, 32)
        u = np.concatenate([probe[np.newaxis] for probe in _probes(z, rng)] + [rng.random((70, 32))])
        decided = below_ndtr(u, z)
        assert decided.shape == (74, 32)
        assert np.array_equal(decided, _expected(u, z))

    def test_tails_and_saturation(self):
        z = np.array([-np.inf, -1e300, UNDERFLOW_Z, -20.0, -Z_EDGE, SATURATED_Z, 9.0, 1e300, np.inf])
        for u in (np.zeros(z.size), np.full(z.size, 1e-300), np.full(z.size, 1.0 - 2.0**-53), np.ones(z.size)):
            assert np.array_equal(below_ndtr(u, z), _expected(u, z))

    def test_every_bracketed_draw_is_decided_by_the_port(self):
        z = np.linspace(-3.0, 3.0, 64)
        cells = normal._cells(z)
        inside = (normal._LOWER.take(cells) + normal._UPPER.take(cells)) / 2
        assert np.array_equal(below_ndtr(inside, z), _expected(inside, z))


def _module(calibration):
    return Module(
        sk_hynix_chip().with_geometry(GEOMETRY),
        chip_count=1,
        seed_tree=SeedTree(7),
        calibration=calibration,
    )


class TestLatchFight:
    def test_weakest_strength_per_stripe_parity(self):
        stripe = StripeVariation(64, REFERENCE_CALIBRATION, SeedTree(1))
        assert stripe.weakest == (stripe.strengths[0::2].min(), stripe.strengths[1::2].min())
        with pytest.raises(ValueError):
            stripe.strengths[0] = 0.0

    def test_the_saturated_shortcut_leaves_the_cells_the_table_leaves(self, monkeypatch):
        # An ideal die's amplifiers are far past SATURATED_Z: a RowClone
        # decides every column without the tables.  Disabling the
        # shortcut must leave the same cells and the same noise stream.
        def run():
            module = _module(ideal_calibration())
            host = DramBenderHost(module, verify="off")
            rng = np.random.default_rng(3)
            src, dst = GEOMETRY.bank_row(0, 17), GEOMETRY.bank_row(0, 90)
            for row in (src, dst):
                host.fill_row(0, row, host.random_bits(rng))
            rowclone(host, 0, src, dst)
            bank = module.chips[0].bank(0)
            return host.read_row(0, dst), bank._rng.random()

        decisions = []
        monkeypatch.setattr(batch, "below_ndtr", lambda u, z: decisions.append(1) or below_ndtr(u, z))
        shortcut = run()
        assert decisions == []
        monkeypatch.setattr(batch, "SATURATED_Z", math.inf)
        tabled = run()
        assert decisions
        assert np.array_equal(shortcut[0], tabled[0]) and shortcut[1] == tabled[1]

    def test_a_calibrated_not_decides_through_the_tables(self, monkeypatch):
        module = _module(None)
        host = DramBenderHost(module, verify="off")
        pair = find_pattern_pair(
            module.decoder, GEOMETRY, 0, 0, 1, 4, ActivationKind.N_TO_N, seed=4, max_tries=20_000
        )
        decisions = []
        monkeypatch.setattr(batch, "below_ndtr", lambda u, z: decisions.append(u.shape) or below_ndtr(u, z))
        NotSuccessMeasurement(host, 0, *pair).run(9, np.random.default_rng(5))
        # Lanes split where the glitch draws disagree: every decision is
        # over some of the nine trials.
        assert decisions and all(shape[0] <= 9 and shape[1] == 32 for shape in decisions)


class TestAgainstScipy:
    def test_port_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        z = np.random.default_rng(33).uniform(-45.0, 45.0, 100_000)
        port = np.array([ndtr(v) for v in z.tolist()])
        assert np.array_equal(port.view(np.int64), special.ndtr(z).view(np.int64))

    @pytest.mark.parametrize("shape", [(32,), (1, 32), (75, 32)])
    def test_hold_decision_matches_scipy(self, shape):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(34)
        for z in (rng.normal(0.0, 3.0, shape), rng.uniform(-40.0, 12.0, shape)):
            phi = special.ndtr(z)
            for u in (np.nextafter(phi, -np.inf), phi, np.nextafter(phi, np.inf), rng.random(shape)):
                assert np.array_equal(below_ndtr(u, z), u < phi)

    def test_broadcast_hold_decision_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(35)
        z = rng.normal(0.0, 2.0, 32)
        phi = special.ndtr(z)
        u = np.vstack([np.nextafter(phi, -np.inf), phi, np.nextafter(phi, np.inf), rng.random((150, 32))])
        assert np.array_equal(below_ndtr(u, z), u < phi)


def record():
    """Write the fixture from ``scipy.special.ndtr``, one point a line."""
    try:
        import scipy
        from scipy.special import ndtr as scipy_ndtr
    except ImportError:
        raise SystemExit("recording the normal CDF fixture needs SciPy")
    points = golden_points()
    values = scipy_ndtr(np.array(points))
    lines = ",\n".join(
        json.dumps([z.hex(), float(phi).hex()]) for z, phi in zip(points, values)
    )
    GOLDEN_PATH.write_text(
        f'{{\n "scipy": "{scipy.__version__}",\n "points": [\n{lines}\n ]\n}}\n'
    )


if __name__ == "__main__":
    record()
    print(f"wrote {GOLDEN_PATH}")
