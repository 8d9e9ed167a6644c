"""Process variation and design-induced variation models.

Two distinct phenomena (the paper keeps them separate, following
[Lee+ SIGMETRICS'17]):

* **Process variation** — random, per-instance: each sense amplifier gets
  a drive strength and an input offset drawn once at "manufacturing time"
  from the die's calibration distribution (:class:`StripeVariation`).

* **Design-induced variation** — deterministic, by physical location: a
  row's distance from the sense-amplifier stripe changes its access
  characteristics.  The paper buckets rows into three equal *regions*
  (Close / Middle / Far, §5.2); :class:`DistanceRegions` implements the
  bucketing over the subarray's physical row order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..rng import SeedTree
from .calibration import DieCalibration

__all__ = ["Region", "DistanceRegions", "StripeVariation"]


class Region(enum.IntEnum):
    """Distance bucket of a row relative to a sense-amplifier stripe."""

    CLOSE = 0
    MIDDLE = 1
    FAR = 2

    def __str__(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class DistanceRegions:
    """Close/Middle/Far bucketing for a subarray of ``rows`` rows.

    ``distance`` is measured in physical row positions from the stripe of
    interest: a row physically adjacent to the stripe has distance 0, the
    farthest row ``rows - 1``.  Each region holds one third of the rows
    (§5.2: "each of which has one third of all rows in the subarray").
    """

    rows: int

    def __post_init__(self) -> None:
        if self.rows < 3:
            raise ValueError(f"need at least 3 rows to form regions, got {self.rows}")

    def region_of_distance(self, distance: int) -> Region:
        if not 0 <= distance < self.rows:
            raise ValueError(f"distance {distance} out of range [0, {self.rows})")
        third = self.rows / 3.0
        if distance < third:
            return Region.CLOSE
        if distance < 2.0 * third:
            return Region.MIDDLE
        return Region.FAR

    def region_of_mean_distance(self, distances: Sequence[int]) -> Region:
        """Region of a *set* of rows, judged by their mean distance.

        The paper's heatmaps (Figs. 9 and 17) place a whole activated row
        set in one bucket; the mean is the natural summary.
        """
        values = list(distances)
        if not values:
            raise ValueError("distances must be non-empty")
        mean = float(np.mean(values))
        third = self.rows / 3.0
        if mean < third:
            return Region.CLOSE
        if mean < 2.0 * third:
            return Region.MIDDLE
        return Region.FAR


class StripeVariation:
    """Manufacturing-time variation of one sense-amplifier stripe.

    Holds per-column arrays:

    * ``offsets`` — static input-referred offset voltage [VDD] added to
      the (upper minus lower) differential before resolution.
    * ``strengths`` — restore drive strength on the z-score scale used by
      the drive model (see :mod:`repro.dram.calibration`); read-only.

    ``weakest[p]`` is the least strength among the columns a stripe of
    parity ``p`` serves (``column % 2 == p``).
    """

    __slots__ = ("offsets", "strengths", "weakest")

    def __init__(
        self, columns: int, calibration: DieCalibration, seed_tree: SeedTree
    ):
        if columns <= 0:
            raise ValueError(f"columns must be positive, got {columns}")
        rng = seed_tree.generator()
        self.offsets = (
            calibration.sa_offset_mean
            + calibration.sa_offset_sigma * rng.standard_normal(columns)
        )
        self.strengths = (
            calibration.drive_strength_mean
            + calibration.drive_strength_sigma * rng.standard_normal(columns)
        )
        # A small population of exceptionally strong amplifiers holds the
        # latch at any tested load (Observation 3: every destination-row
        # count shows some 100%-success cells).
        strong = rng.random(columns) < calibration.strong_sa_fraction
        self.strengths[strong] += calibration.strong_sa_boost
        self.strengths.flags.writeable = False
        self.weakest = (
            float(self.strengths[0::2].min()),
            float(self.strengths[1::2].min()) if columns > 1 else math.inf,
        )

    @property
    def columns(self) -> int:
        return int(self.offsets.shape[0])
