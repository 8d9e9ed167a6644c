"""Property-based tests (Hypothesis) for the substrate layer.

Each property pins a law the example-based suites can only spot-check:

* :meth:`TableCell.probability_at` — bounded by the fitted values,
  exact at the knots, clamped outside the temperature grid;
* :func:`sample_success_counts` — a pure function of the RNG seed
  (seed reuse => identical counts), bounded by the trial count, and
  converging to the cell probability;
* :class:`SurrogateTable` persistence — payloads survive a JSON round
  trip without losing a cell, a temperature knot, or a float bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.substrate import SurrogateTable, TableCell, sample_success_counts

#: Finite, repr-round-trippable temperatures on a plausible grid.
temperatures = st.floats(
    min_value=-40.0, max_value=150.0, allow_nan=False, allow_infinity=False
)

probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)

#: At least one fitted knot; duplicate temperatures collapse via dict.
temperature_grids = st.dictionaries(
    temperatures, probabilities, min_size=1, max_size=6
)


class TestTableCellInterpolation:
    @settings(max_examples=100, deadline=None)
    @given(grid=temperature_grids, query=temperatures)
    # Draws that once made np.interp round below the fitted minimum.
    @example(grid={-1.0: 1.0, 1.18e-38: 1.18e-38}, query=0.0)
    @example(grid={1.4706433634169024e-285: 0.00012152045668933911, -1.0: 1.0}, query=0.0)
    def test_interpolation_is_bounded_by_fitted_values(self, grid, query):
        value = TableCell(probabilities=grid).probability_at(query)
        assert min(grid.values()) <= value <= max(grid.values())

    @settings(max_examples=100, deadline=None)
    @given(grid=temperature_grids)
    def test_interpolation_is_exact_at_every_knot(self, grid):
        cell = TableCell(probabilities=grid)
        for temperature, probability in grid.items():
            assert cell.probability_at(temperature) == probability

    @settings(max_examples=100, deadline=None)
    @given(grid=temperature_grids, offset=st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    def test_interpolation_clamps_outside_the_grid(self, grid, offset):
        cell = TableCell(probabilities=grid)
        low, high = min(grid), max(grid)
        assert cell.probability_at(low - offset) == grid[low]
        assert cell.probability_at(high + offset) == grid[high]


class TestSampleSuccessCounts:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        probability=probabilities,
        trials=st.integers(min_value=1, max_value=1100),
        n_rows=st.integers(min_value=1, max_value=3),
        n_cols=st.integers(min_value=1, max_value=4),
    )
    def test_seed_reuse_is_deterministic_and_bounded(
        self, seed, probability, trials, n_rows, n_cols
    ):
        # trials may cross the internal sampling-block boundary (1024);
        # determinism must hold on both sides of it.
        first = sample_success_counts(
            np.random.default_rng(seed), probability, trials, n_rows, n_cols
        )
        second = sample_success_counts(
            np.random.default_rng(seed), probability, trials, n_rows, n_cols
        )
        assert np.array_equal(first, second)
        assert first.shape == (n_rows, n_cols)
        assert first.min() >= 0
        assert first.max() <= trials

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        probability=probabilities,
    )
    def test_mean_converges_to_the_cell_probability(self, seed, probability):
        # 2000 trials x 16 cells: the fleet-mean standard error is
        # under 0.003, so a 0.05 corridor cannot flake.
        counts = sample_success_counts(
            np.random.default_rng(seed), probability, 2000, 2, 8
        )
        assert abs(counts.mean() / 2000.0 - probability) <= 0.05

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_degenerate_probabilities_are_exact(self, seed):
        zeros = sample_success_counts(np.random.default_rng(seed), 0.0, 50, 2, 2)
        ones = sample_success_counts(np.random.default_rng(seed), 1.0, 50, 2, 2)
        assert not zeros.any()
        assert (ones == 50).all()

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            sample_success_counts(np.random.default_rng(0), 0.5, 0, 1, 1)


#: JSON-representable table metadata values.
metadata_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
)

#: Table-key components.  Spec names exclude the "|" key separator.
spec_names = st.text(
    alphabet="abcdefghijklmnop0123456789-", min_size=1, max_size=10
)
table_keys = st.tuples(
    spec_names,
    st.sampled_from(["not", "and", "nand", "or", "nor"]),
    st.integers(min_value=1, max_value=32),
    st.sampled_from(["any", "close-close", "middle-far", "far-far"]),
    st.sampled_from(["random", "all01", "ones_count=0", "ones_count=3"]),
)
table_cells = st.builds(
    TableCell,
    probabilities=temperature_grids,
    found_rate=probabilities,
    n_rows=st.integers(min_value=1, max_value=32),
)


class TestSurrogateTablePersistence:
    @settings(max_examples=50, deadline=None)
    @given(
        cells=st.dictionaries(table_keys, table_cells, min_size=1, max_size=8),
        meta=st.dictionaries(st.text(max_size=8), metadata_values, max_size=3),
    )
    def test_payload_round_trip_is_lossless(self, cells, meta):
        table = SurrogateTable(meta=meta)
        for key, cell in cells.items():
            stored = table.cell(key)
            stored.probabilities = dict(cell.probabilities)
            stored.found_rate = cell.found_rate
            stored.n_rows = cell.n_rows

        loaded = SurrogateTable.from_payload(
            json.loads(json.dumps(table.to_payload()))
        )
        assert loaded.meta == table.meta
        assert len(loaded) == len(table)
        for (key, cell), (loaded_key, loaded_cell) in zip(table, loaded):
            assert key == loaded_key
            assert loaded_cell.probabilities == cell.probabilities
            assert loaded_cell.found_rate == cell.found_rate
            assert loaded_cell.n_rows == cell.n_rows
