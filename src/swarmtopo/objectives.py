"""Benchmark objective functions.

Five standard landscapes: Shekel (maximized, its 4-D foothill table a
literal in this module), plus Ackley, Griewank, Schwefel and Rastrigin
(minimized).  The engine always maximizes a score, so
:meth:`ObjectiveSpec.score_many` negates the minimization objectives.

Shekel is computed centres-major: the squared distances form an
``(m, N)`` array, one contiguous row of N points per centre, so every
numpy call runs over N entries instead of over a row of m = 10.  The
sum over the centres must still give the bits of the point-major
``(N, m)`` array's ``sum(axis=1)``, which numpy adds in its pairwise
order; :func:`_sum_rows` adds the m rows in that same order.  The
separable objectives work the same way on the ``(d, N)`` coordinate
rows, so every kernel gives the bits of the C-order point-major formula
whatever the memory order of its input (numpy's own ``sum(axis=1)``
over a column-ordered array adds left to right, which from d = 8 on
gives other bits).  The results therefore rely on numpy's pairwise
summation order, which ``tests/test_objectives.py`` pins so that an
upgrade that changes it fails there and not silently in a results file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "OBJECTIVE_NAMES",
    "ShekelParams",
    "shekel_params",
    "ObjectiveSpec",
    "default_spec",
]

class ShekelParams(NamedTuple):
    """Shekel foothill centers (m rows of 4 coordinates) and heights
    (the constant c of each foothill: a smaller c gives a taller peak)."""

    centers: np.ndarray
    heights: np.ndarray


def _read_only(rows) -> np.ndarray:
    array = np.array(rows, dtype=np.float64)
    array.setflags(write=False)
    return array


# the standard m = 10 foothill table
_SHEKEL = ShekelParams(
    centers=_read_only([
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.0, 7.0, 3.0],
    ]),
    heights=_read_only([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5]),
)


def shekel_params() -> ShekelParams:
    """The Shekel foothill table, read-only."""
    return _SHEKEL


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """Sum of the m rows of an ``(m, N)`` array, added in the order numpy's
    pairwise summation adds the m entries of one contiguous row.

    Below 8 terms that order is left to right; up to 128 it keeps eight
    running sums, one per residue mod 8, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the remainder left
    to right; above 128 it splits at a multiple of 8 near the middle.
    So ``_sum_rows(a)`` equals ``np.ascontiguousarray(a.T).sum(axis=1)``
    bit for bit, with each addition running over N contiguous entries.
    """
    m = rows.shape[0]
    if m < 8:
        total = rows[0] + rows[1] if m > 1 else rows[0].copy()
        for row in rows[2:]:
            total += row
        return total
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _sum_rows(rows[:half]) + _sum_rows(rows[half:])
    tail = m - m % 8
    lanes = rows[:8]
    for start in range(8, tail, 8):
        lanes = lanes + rows[start : start + 8]
    pairs = lanes[0::2] + lanes[1::2]
    total = pairs[0::2] + pairs[1::2]
    total = total[0] + total[1]
    for row in rows[tail:]:
        total += row
    return total


# Each kernel takes the contiguous (d, N) coordinate rows of N points.


def _shekel(columns: np.ndarray) -> np.ndarray:
    params = shekel_params()
    centers = params.centers
    # squared distances as one contiguous row of N per center, summed one
    # coordinate at a time from the left: the order a length-4 reduction
    # adds in
    sq = np.subtract(columns[0], centers[:, 0:1])
    np.square(sq, out=sq)
    gap = np.empty_like(sq)
    for j in range(1, centers.shape[1]):
        np.subtract(columns[j], centers[:, j : j + 1], out=gap)
        sq += np.square(gap, out=gap)
    sq += params.heights[:, None]
    return _sum_rows(np.divide(1.0, sq, out=sq))


# the Shekel ceiling's search: it gives up after this many cubes (its
# temporaries stay below about 5 MB), and a cube splits while its bound
# exceeds the best value seen by more than this share of the headroom
# left below ``top``
_CEILING_BOXES = 1 << 14
_CEILING_SHARE = 0.05


def _shekel_ceiling(radius: float, top: float) -> float | None:
    """An upper bound below ``top`` on Shekel over every point of R^4 at
    distance at least ``radius`` from the optimum location (4, 4, 4, 4),
    or ``None`` where none is found.

    A branch and bound over cubes covering the search box [0, 10]^4
    minus the ball.  On a cube, term i is at most 1 / (dist^2 + c_i),
    with dist the distance from centre a_i to the cube, raised to
    ``radius - |a_i - a_0|`` where that is larger (the triangle
    inequality; for a_0, the optimum, it is the radius).  A cube splits
    into 16 while its bound exceeds L + share * (top - L), L the largest
    value seen at a point outside the ball; the search gives up once L
    reaches ``top``, or after ``_CEILING_BOXES`` cubes.

    Positions outside the search box need no cubes: every centre lies
    in the box, so projecting a point onto the box brings it nearer
    every centre, and the projection of an outside point is outside the
    ball, which must lie inside the box (``radius`` below 4).  The bound
    is computed in floating point; the caller adds a margin for its
    rounding.
    """
    centers, heights = _SHEKEL
    landscape = _LANDSCAPES["shekel"]
    centre = np.full(4, landscape.optimum_coordinate)
    if not radius < min(centre[0] - landscape.lower, landscape.upper - centre[0]):
        return None
    floor = np.maximum(radius - np.sqrt(np.square(centers - centre).sum(axis=1)), 0.0)
    halves = (np.arange(16)[:, None] >> np.arange(4)) & 1
    size = landscape.upper - landscape.lower
    lows = np.full((1, 4), landscape.lower)
    seen, ceiling = -np.inf, -np.inf
    cubes = 0
    while len(lows):
        cubes += len(lows)
        if cubes > _CEILING_BOXES:
            return None
        highs = lows + size
        # drop the cubes inside the ball, with a relative slack of 1e-12
        far = np.maximum(np.abs(lows - centre), np.abs(highs - centre))
        outside = np.square(far).sum(axis=1) >= radius * radius * (1.0 - 1e-12)
        lows, highs = lows[outside], highs[outside]
        # squared distances from every cube to every centre, one
        # coordinate at a time, so that no temporary is 4 times as large
        distance = np.zeros((len(lows), len(centers)))
        for low, high, coordinate in zip(lows.T, highs.T, centers.T):
            gap = np.maximum(low[:, None] - coordinate, coordinate - high[:, None])
            distance += np.square(np.maximum(gap, 0.0, out=gap), out=gap)
        np.maximum(distance, np.square(floor), out=distance)
        bounds = (1.0 / (distance + heights)).sum(axis=1)
        # each cube's point nearest the optimum, pushed out onto the sphere
        offsets = np.clip(centre, lows, highs) - centre
        lengths = np.sqrt(np.square(offsets).sum(axis=1))
        inner = lengths == 0.0
        offsets[inner, 0] = lengths[inner] = radius
        grow = lengths < radius
        offsets[grow] *= (radius / lengths[grow])[:, None]
        seen = max(seen, _shekel(np.ascontiguousarray((centre + offsets).T)).max(initial=-np.inf))
        if seen >= top:
            return None
        split = bounds > seen + _CEILING_SHARE * (top - seen)
        ceiling = max(ceiling, bounds[~split].max(initial=-np.inf))
        size /= 2.0
        lows = (lows[split, None] + halves * size).reshape(-1, 4)
    return ceiling


def _ackley(columns: np.ndarray) -> np.ndarray:
    a, b, c = 20.0, 0.2, 2.0 * np.pi
    d = columns.shape[0]
    radial = np.sqrt(_sum_rows(columns * columns) / d)
    cosine = _sum_rows(np.cos(c * columns)) / d
    return -a * np.exp(-b * radial) - np.exp(cosine) + a + np.e


def _griewank(columns: np.ndarray) -> np.ndarray:
    d = columns.shape[0]
    idx = np.sqrt(np.arange(1, d + 1, dtype=np.float64))
    return (
        _sum_rows(columns * columns) / 4000.0
        # a product multiplies left to right along either axis
        - np.cos(columns / idx[:, None]).prod(axis=0)
        + 1.0
    )


def _schwefel(columns: np.ndarray) -> np.ndarray:
    d = columns.shape[0]
    return 418.9829 * d - _sum_rows(columns * np.sin(np.sqrt(np.abs(columns))))


def _rastrigin(columns: np.ndarray) -> np.ndarray:
    d = columns.shape[0]
    return 10.0 * d + _sum_rows(
        columns * columns - 10.0 * np.cos(2.0 * np.pi * columns)
    )


class _Landscape(NamedTuple):
    """What an objective's name fixes: its kernel, its dimension unless
    a spec sets another, its search box, its direction and the
    coordinate its optimum repeats along every axis."""

    kernel: Callable[[np.ndarray], np.ndarray]
    dimension: int
    lower: float
    upper: float
    direction: str
    optimum_coordinate: float


_LANDSCAPES = {
    "shekel": _Landscape(_shekel, 4, 0.0, 10.0, "max", 4.0),
    "ackley": _Landscape(_ackley, 2, -15.0, 30.0, "min", 0.0),
    "griewank": _Landscape(_griewank, 2, -600.0, 600.0, "min", 0.0),
    "schwefel": _Landscape(_schwefel, 2, -500.0, 500.0, "min", 420.9687),
    "rastrigin": _Landscape(_rastrigin, 2, -5.12, 5.12, "min", 0.0),
}

OBJECTIVE_NAMES = tuple(_LANDSCAPES)


def _landscape(name: str) -> _Landscape:
    if name not in _LANDSCAPES:
        raise ValueError(f"unknown objective {name!r}; expected one of {OBJECTIVE_NAMES}")
    return _LANDSCAPES[name]


@dataclass(frozen=True)
class ObjectiveSpec:
    """One benchmark objective: a named landscape in ``dimension``
    coordinates.  The name fixes everything else, read from one table:
    the search box ``[lower, upper]`` per coordinate, the ``direction``
    (``"max"`` or ``"min"``) and the optimum, whose ``optimum_value``
    is the objective evaluated exactly at ``optimum_location``.
    """

    name: str
    dimension: int

    def __post_init__(self) -> None:
        _landscape(self.name)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.name == "shekel" and self.dimension != 4:
            raise ValueError("shekel is defined only for dimension 4")

    @property
    def lower(self) -> float:
        return _LANDSCAPES[self.name].lower

    @property
    def upper(self) -> float:
        return _LANDSCAPES[self.name].upper

    @property
    def direction(self) -> str:
        return _LANDSCAPES[self.name].direction

    @cached_property
    def optimum_location(self) -> np.ndarray:
        """The optimum as a read-only vector."""
        location = np.full(
            self.dimension, _LANDSCAPES[self.name].optimum_coordinate, dtype=np.float64
        )
        location.setflags(write=False)
        return location

    @cached_property
    def optimum_value(self) -> float:
        return self.evaluate(self.optimum_location)

    def range_diagonal(self) -> float:
        """Length of the search box diagonal."""
        return float(np.sqrt(self.dimension) * (self.upper - self.lower))

    def evaluate(self, x) -> float:
        """Objective value at a single position; rejects non-finite input."""
        vec = np.asarray(x, dtype=np.float64)
        if vec.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("position must be finite")
        return float(self.evaluate_many(vec[None, :])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Objective values for an ``(N, dimension)`` batch of positions."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"expected shape (N, {self.dimension}), got {pts.shape}")
        # a no-op for the engine's coordinate-major points
        return _LANDSCAPES[self.name].kernel(np.ascontiguousarray(pts.T))

    def score_many(self, points: np.ndarray) -> np.ndarray:
        """Direction-adjusted values: larger is always better."""
        values = self.evaluate_many(points)
        return values if self.direction == "max" else -values


def default_spec(name: str, dimension: int | None = None) -> ObjectiveSpec:
    """Standard configuration for a named objective.

    ``dimension`` overrides the table's for the separable objectives;
    the Shekel table is 4-D only.
    """
    if dimension is None:
        dimension = _landscape(name).dimension
    return ObjectiveSpec(name, dimension)
