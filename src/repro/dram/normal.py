"""The standard normal CDF, and exact decisions ``u < Φ(z)`` in bulk.

A latch fight (§5.1 NOT, §6.1 restore) holds a column when its uniform
draw falls below Φ(z), the standard normal CDF of the column's drive
margin.  :func:`ndtr` is a port of the Cephes ``ndtr``/``erf``/``erfc``
(Moshier's Cephes Math Library, the routine ``scipy.special.ndtr``
evaluates): the published coefficients, the same branches, the same
order of operations, and libm's ``exp`` through :func:`math.exp`.  It
returns SciPy's value bit for bit; ``tests/dram/data/golden_normal_cdf.json``
(recorded with SciPy) pins it at every branch edge.

:func:`below_ndtr` decides ``u < ndtr(z)`` for whole arrays without
evaluating Φ at every element.  Two tables bound Φ on every cell of a
grid of :data:`CELLS_PER_UNIT` cells per unit of z over
``[-Z_EDGE, Z_EDGE]``: a draw below a cell's lower bound holds, a draw
at or above its upper bound does not, and only a draw inside the
bracket asks the scalar port.  Above ``Z_EDGE`` Φ is exactly 1.0 (see
:data:`SATURATED_Z`).  Below ``-Z_EDGE`` Φ is under 5e-17, so that
cell's bracket is ``[0, Φ(-Z_EDGE) + margin)``.  The bounds come from a
vectorized copy of the port whose ``np.exp`` may differ from libm's by
a few ulp; each is widened by :data:`BOUND_MARGIN`, which covers that,
the rounding of the cell index and the port's own ulp-level wobble
(a tier-1 test checks every grid point against the scalar port).  The
decision is therefore exact for every ``u >= 0`` and every ``z``: it
equals ``u < scipy.special.ndtr(z)`` element for element.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "BOUND_MARGIN",
    "CELLS_PER_UNIT",
    "SATURATED_Z",
    "Z_EDGE",
    "below_ndtr",
    "ndtr",
]

_FloatArray = NDArray[np.float64]

# Cephes ndtr.c: erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 ...
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# ... exp(-x^2) R(x)/S(x) for x >= 8 ...
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# ... and erf(x) = x T(x^2)/U(x^2) for |x| <= 1.  Q, S and U have an
# implicit leading coefficient of 1 (Cephes's p1evl).
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
#: Cephes MAXLOG, ln(DBL_MAX): ``erfc`` underflows to 0 past it.
_MAXLOG = 7.09782712893383996843e2
#: Cephes SQRT1_2 (= M_SQRT1_2).
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coefficients: Sequence[float]) -> float:
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _p1evl(x: float, coefficients: Sequence[float]) -> float:
    value = x + coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _erf(x: float) -> float:
    """The error function (Cephes ``erf``)."""
    if x != x:
        return x
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    """The complementary error function (Cephes ``erfc``)."""
    if a != a:
        return a
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _P)
        q = _p1evl(x, _Q)
    else:
        p = _polevl(x, _R)
        q = _p1evl(x, _S)
    y = (z * p) / q
    if a < 0.0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0.0 else 0.0


def ndtr(a: float) -> float:
    """Φ(a), the standard normal CDF (Cephes ``ndtr``)."""
    if a != a:
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    if x > 0.0:
        y = 1.0 - y
    return y


#: The least z with ``ndtr(z) == 1.0``; so is every larger z.  A uniform
#: draw lies in [0, 1), so every draw holds from here up.
SATURATED_Z = 8.292361075813597
#: Grid resolution of the bound tables (a power of two, so ``z * 2048``
#: is exact).
CELLS_PER_UNIT = 2048
#: The tables cover ``[-Z_EDGE, Z_EDGE]``; ``Z_EDGE > SATURATED_Z``.
Z_EDGE = 8.3125
#: How far every table bound sits outside the vectorized Φ it comes from.
BOUND_MARGIN = 1e-13

_EDGE_INDEX = int(Z_EDGE * CELLS_PER_UNIT)
#: Cells: 0 below the grid, k in [1, 2E] between grid points k - 1 and
#: k, 2E + 1 from the top grid point up.
_TOP_CELL = float(2 * _EDGE_INDEX + 1)
#: ``z * CELLS_PER_UNIT + _INDEX_SHIFT`` truncates to the cell of z.
_INDEX_SHIFT = float(_EDGE_INDEX + 1)
_BUILD_CHUNK = 4096


def _array_polevl(
    x: _FloatArray, coefficients: Sequence[float], monic: bool
) -> _FloatArray:
    value = x + coefficients[0] if monic else np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _ndtr_array(a: _FloatArray) -> _FloatArray:
    """:func:`ndtr` over an array, branch for branch, with ``np.exp`` for
    libm's ``exp``: within a few ulp of the port, so good for bounds
    only."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(a)
    inner = z < 1.0
    xi = x[inner]
    zi = xi * xi
    y[inner] = 0.5 + 0.5 * (
        xi * _array_polevl(zi, _T, False) / _array_polevl(zi, _U, True)
    )
    for branch, numerator, denominator in (
        ((z >= 1.0) & (z < 8.0), _P, _Q),
        (z >= 8.0, _R, _S),
    ):
        zb = z[branch]
        square = -zb * zb
        tail = 0.5 * (
            (np.exp(square) * _array_polevl(zb, numerator, False))
            / _array_polevl(zb, denominator, True)
        )
        tail[square < -_MAXLOG] = 0.0
        upper = x[branch] > 0.0
        tail[upper] = 1.0 - tail[upper]
        y[branch] = tail
    return y


def _bound_tables() -> Tuple[_FloatArray, _FloatArray]:
    """The lower and upper bound of Φ on every cell, built a chunk of
    grid points at a time so the build's temporaries stay small."""
    points = 2 * _EDGE_INDEX + 1
    lower = np.empty(points + 1)
    upper = np.empty(points + 1)
    for start in range(0, points, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, points)
        grid = np.arange(start - _EDGE_INDEX, stop - _EDGE_INDEX, dtype=np.float64)
        phi = _ndtr_array(grid / CELLS_PER_UNIT)
        # Grid point j closes cell j and opens cell j + 1.
        upper[start:stop] = phi + BOUND_MARGIN
        lower[start + 1 : stop + 1] = phi - BOUND_MARGIN
    # Φ >= 0 below the grid, and exactly 1.0 above it.
    lower[0] = 0.0
    lower[-1] = upper[-1] = 1.0
    return lower, upper


_LOWER, _UPPER = _bound_tables()


def _cells(z: _FloatArray) -> NDArray[np.intp]:
    """The table cell of every z (0 for NaN)."""
    shifted = z * float(CELLS_PER_UNIT)
    shifted += _INDEX_SHIFT
    np.fmax(shifted, 0.0, out=shifted)
    np.minimum(shifted, _TOP_CELL, out=shifted)
    return shifted.astype(np.intp)


def below_ndtr(
    u: Union[float, _FloatArray], z: Union[float, _FloatArray]
) -> NDArray[np.bool_]:
    """``u < ndtr(z)`` element for element (``u`` and ``z`` broadcast),
    exactly, for every ``u >= 0``."""
    u = np.asarray(u, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    cells = _cells(z)
    holds: NDArray[np.bool_] = u < _LOWER.take(cells)
    undecided = u < _UPPER.take(cells)
    if np.count_nonzero(undecided) != np.count_nonzero(holds):
        # Draws inside their bracket (about two in 10^4 with z near 0,
        # fewer in the tails) ask the port.
        undecided ^= holds
        shape = holds.shape
        if u.shape != shape:
            u = np.broadcast_to(u, shape)
        if z.shape != shape:
            z = np.broadcast_to(z, shape)
        holds[undecided] = [
            draw < ndtr(margin)
            for draw, margin in zip(u[undecided].tolist(), z[undecided].tolist())
        ]
    return holds
